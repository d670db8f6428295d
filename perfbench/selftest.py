"""Checks of the benchmark itself.  Run from the repository root::

    python3 -m pytest -q perfbench/selftest.py

They replay every recorded failing witness with the dense oracles in
``tests/oracles.py``, so the known answers do not rest on the program under
test alone, and they check that the tracer changes no verdict, nests its
spans properly, reports every layer a workload runs and puts every
original function back.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import tempfile
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "tests"))
sys.path.insert(0, HERE)

import oracles  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402
from lieforge import acceptance, constructions, dsl  # noqa: E402
from lieforge.scalar_linear import scalar_from_str  # noqa: E402


@pytest.fixture
def cached_constants(monkeypatch):
    """The oracles rebuild the dense table on every call; build it once per algebra."""
    memo = {}
    original = oracles.dense_constants

    def dense_constants(L):
        if id(L) not in memo:
            memo[id(L)] = (L, original(L))
        return memo[id(L)][1]

    monkeypatch.setattr(oracles, "dense_constants", dense_constants)


def _unit(n, i):
    return [Fraction(int(k == i)) for k in range(n)]


def _defect(strings):
    return [scalar_from_str(s) for s in strings]


@functools.lru_cache(maxsize=None)
def _corpus(name):
    with open(os.path.join(workloads.CORPUS, name + ".lie"), encoding="utf-8") as fh:
        return dsl.parse(fh.read())


def _replay_integrable(L, jmat, cert):
    for (i, j), defect in cert["witnesses"]:
        got = oracles.naive_nijenhuis(L, jmat, _unit(L.dim, i), _unit(L.dim, j))
        assert got == _defect(defect) and any(got), (cert["target"], i, j)


def _replay_complex_lie(L, jmat, cert):
    c = oracles.dense_constants(L)
    for (i, j), defect in cert["witnesses"]:
        ei, ej = _unit(L.dim, i), _unit(L.dim, j)
        lhs = oracles.naive_bracket(c, ei, oracles.naive_matvec(jmat, ej))
        rhs = oracles.naive_matvec(jmat, oracles.naive_bracket(c, ei, ej))
        got = [a - b for a, b in zip(lhs, rhs)]
        assert got == _defect(defect) and any(got), (cert["target"], i, j)


def _replay_closed(L, omega, cert):
    for (i, j, k), defect in cert["witnesses"]:
        got = oracles.naive_differential(L, omega, i, j, k)
        assert [got] == _defect(defect) and got, (cert["target"], i, j, k)


def _failing(certs):
    return [c for c in certs if "check" in c and not c["pass"]]


def test_dsl_check_witnesses_replay(cached_constants):
    answers = workloads.load_answers("dsl-check")
    replayed = 0
    for f, entry in answers.items():
        ws = _corpus(f) if entry["certificates"] else None
        for cert in _failing(entry["certificates"]):
            if cert["check"] == "complex_lie":
                alg_name, lm = ws.definitions[cert["target"]][1]
                _replay_complex_lie(ws.definitions[alg_name][1], lm.matrix.data, cert)
            elif cert["check"] == "closed":
                alg_name, form = ws.definitions[cert["target"]][1]
                _replay_closed(ws.definitions[alg_name][1], form.matrix.data, cert)
            else:
                pytest.fail("no oracle replay for %s in %s" % (cert["check"], f))
            replayed += 1
    assert replayed == 2


def test_pairing_pool_witnesses_replay(cached_constants):
    with open(os.path.join(workloads.ANSWERS, "pairings.json"), encoding="utf-8") as fh:
        pool = json.load(fh)
    ws = _corpus("e15")
    L = ws.definitions[pool["algebra"]][1]
    assert L.labels == pool["labels"]
    for pairs, cert in zip(pool["pairings"], pool["answers"]):
        jmat = [[Fraction(0)] * L.dim for _ in range(L.dim)]
        for a, b in pairs:
            jmat[b][a], jmat[a][b] = Fraction(1), Fraction(-1)
        assert not cert["pass"] and len(cert["witnesses"]) == 16
        _replay_integrable(L, jmat, cert)


def test_acceptance_witnesses_replay(cached_constants):
    failing = _failing(workloads.load_answers("acceptance"))
    assert [c["target"] for c in failing] == ["T*_ad aff1"]
    aff1, _ = acceptance.left_symmetric_aff1()
    t2, omega = constructions.cotangent(aff1, aff1.adjoint_connection(), check_rep=False)
    _replay_closed(t2, omega.matrix.data, failing[0])


def test_euclid_sweep_answers_pass():
    assert not _failing(workloads.load_answers("euclid-sweep"))


def test_seed_draws_the_pairings():
    texts = []
    for seed in (5, 5, 6):
        with tempfile.TemporaryDirectory(dir=HERE) as work:
            wl = workloads.DslCheck(seed, work)
            with open(wl.paths["e15"], encoding="utf-8") as fh:
                texts.append((wl.picks, fh.read()))
    assert texts[0] == texts[1]
    assert texts[0][0] != texts[2][0] and texts[0][1] != texts[2][1]


# metrics that must be nonzero on a traced pass of each workload
_LAYERS = {
    "euclid-sweep": [
        "scalar_linear.span_solver.calls",
        "lie_core.j_squared.calls",
        "lie_core.integrable.calls",
        "lie_core.integrable_half.calls",
        "lie_core.bracket_sparse.calls",
        "lie_core.apply_sparse.calls",
        "constructions.from_matrix_basis.calls",
        "constructions.semidirect.s",
        "catalog.euclidean.s",
        "catalog.builders.s",
    ],
    "dsl-check": [
        "lie_core.j_squared.calls",
        "lie_core.integrable.failures",
        "lie_core.integrable_half.calls",
        "lie_core.jacobi.tuples",
        "lie_core.complex_lie.failures",
        "lie_core.representation.us_per_tuple",
        "lie_core.parallel.calls",
        "lie_core.torsion_free.calls",
        "lie_core.closed.failures",
        "structures.clifford_tower.s",
        "structures.assemblies.s",
        "dsl.parse.self_s",
        "dsl.parse.bytes_per_s",
        "dsl.run.s",
        "cli.check.self_s",
    ],
    "acceptance": [
        "scalar_linear.span_solver.calls",
        "scalar_linear.span_solver.self_s",
        "lie_core.j_squared.s",
        "lie_core.integrable.s",
        "lie_core.integrable.us_per_tuple",
        "lie_core.integrable_half.calls",
        "lie_core.bracket_sparse.calls",
        "lie_core.apply_sparse.calls",
        "lie_core.jacobi.calls",
        "constructions.from_matrix_basis.calls",
        "constructions.from_matrix_basis.self_s",
        "constructions.eigenspace_split.s",
        "constructions.semidirect.s",
        "catalog.euclidean.s",
        "catalog.euclidean.self_s",
        "catalog.builders.s",
        "structures.generated_rank.s",
        "structures.certify.s",
        "structures.assemblies.s",
        "dsl.parse.s",
    ]
    + ["acceptance.criterion_%d.s" % i for i in range(1, 13)],
}


def _references():
    """Every function object the lieforge modules hold, by location."""
    refs = {}
    for mod in tr._lieforge_modules():
        for key, value in vars(mod).items():
            if callable(value):
                refs[(mod.__name__, key)] = value
            elif isinstance(value, (list, dict)) and not key.startswith("__"):
                items = value.items() if isinstance(value, dict) else enumerate(value)
                for k, item in items:
                    refs[(mod.__name__, key, k)] = item
            if isinstance(value, type):
                for attr, member in vars(value).items():
                    refs[(mod.__name__, key, attr)] = member
    return refs


@pytest.mark.parametrize("name", sorted(_LAYERS))
def test_traced_pass(name):
    with tempfile.TemporaryDirectory(dir=HERE) as work:
        wl = workloads.WORKLOADS[name](7, work)
        before = _references()
        patches = tr.Patches()
        wl.install(patches)
        try:
            plain = wl.run_pass()
            tracer = tr.Tracer()
            inner = tr.Patches()
            tr.install(tracer, inner)
            try:
                traced = wl.run_pass()
            finally:
                inner.restore()
        finally:
            patches.restore()
        assert _references() == before
    assert plain.outcomes == traced.outcomes == wl.expected
    assert tr.check_nesting(tracer) == []
    metrics = tr.layer_metrics(tracer)
    assert set(metrics) | {"cli.report_bytes", "trace.overhead_ratio"} == set(tr.PER_LAYER_UNITS)
    missing = [m for m in _LAYERS[name] if not metrics[m] > 0]
    assert missing == []
    assert plain.stage1_s > 0 and plain.stage2_s > 0
    assert plain.stage1_s + plain.stage2_s <= plain.wall_s


def test_benchmark_json_names_match():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tr.PER_LAYER_UNITS
