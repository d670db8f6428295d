"""Span tracer that wraps lieforge's public functions from outside.

A wrapper records one span per call: name, start, end and the index of the
enclosing span.  Spans stay in memory; ``layer_metrics`` turns the spans of
one pass into the per-layer numbers.  Hot helpers (``bracket_sparse``,
``apply_sparse``) are counted, not timed.

Modules such as ``acceptance``, ``dsl`` and ``structures`` import checks by
name, and ``acceptance.CRITERIA`` / ``catalog._BUILDERS`` hold function
objects, so installing a wrapper rebinds every reference held by a
``lieforge.*`` module: module attributes, list items, dict values and the
members of tuple-valued dict entries.  ``Patches.restore`` puts every
original back.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter

_clock = time.perf_counter


class Patches:
    """Reversible rebinding of objects held by the lieforge modules."""

    def __init__(self):
        self._undo = []

    def replace(self, original, wrapper):
        """Point every reference a lieforge module holds to ``original`` at ``wrapper``."""
        for mod in _lieforge_modules():
            ns = vars(mod)
            for key, value in list(ns.items()):
                if value is original:
                    self._set(ns, key, wrapper)
                elif isinstance(value, list):
                    for i, item in enumerate(value):
                        if item is original:
                            self._set(value, i, wrapper)
                elif isinstance(value, dict) and not key.startswith("__"):
                    for k, item in list(value.items()):
                        if item is original:
                            self._set(value, k, wrapper)
                        elif isinstance(item, tuple) and any(x is original for x in item):
                            swapped = tuple(wrapper if x is original else x for x in item)
                            self._set(value, k, swapped)

    def replace_method(self, cls, attr, wrapper):
        if attr not in vars(cls):
            raise AttributeError("%s.%s is not defined on the class" % (cls.__name__, attr))
        self._undo.append((cls, attr, vars(cls)[attr]))
        setattr(cls, attr, wrapper)

    def _set(self, container, key, value):
        self._undo.append((container, key, container[key]))
        container[key] = value

    def restore(self):
        while self._undo:
            container, key, value = self._undo.pop()
            if isinstance(container, type):
                setattr(container, key, value)
            else:
                container[key] = value


def _lieforge_modules():
    return [
        m
        for name, m in sorted(sys.modules.items())
        if m is not None and (name == "lieforge" or name.startswith("lieforge."))
    ]


class Tracer:
    """Collects spans and counts while installed."""

    def __init__(self):
        self.spans = []  # [name, group, start, end, parent, info, outer_name, outer_group]
        self.counts = Counter()
        self._stack = []
        self._open = Counter()

    def reset(self):
        self.spans = []
        self.counts = Counter()

    def wrap(self, fn, name, group=None, info=None):
        """Timed wrapper; ``name`` may be a callable of the bound arguments."""
        stack, open_ = self._stack, self._open
        tracer = self
        sig = inspect.signature(fn) if (info or callable(name)) else None

        def traced(*args, **kwargs):
            bound = sig.bind(*args, **kwargs).arguments if sig is not None else None
            nm = name(bound) if callable(name) else name
            grp = "#" + (group or nm)
            spans = tracer.spans
            rec = [nm, grp[1:], 0.0, 0.0, stack[-1] if stack else -1, None,
                   not open_[nm], not open_[grp]]
            stack.append(len(spans))
            spans.append(rec)
            open_[nm] += 1
            open_[grp] += 1
            rec[2] = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = _clock()
                stack.pop()
                open_[nm] -= 1
                open_[grp] -= 1
            if info is not None:
                rec[5] = info(bound, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, fn, name):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted


# ---------------------------------------------------------------------------
# what gets wrapped

CHECKS = (
    "integrable",
    "integrable_half",
    "jacobi",
    "complex_lie",
    "representation",
    "parallel",
    "torsion_free",
    "closed",
)

STRUCTURE_ASSEMBLIES = (
    "check_action_compatibility",
    "check_torsion_integrability_equivalence",
    "reconstruct_connection",
    "hypercomplex_pair",
    "check_self_dual",
    "symplectic_from_duality",
    "levi_civita",
    "check_pseudo_kahler",
    "check_holomorphic",
)

CATALOG_BUILDERS = (
    "so",
    "lorentz",
    "gl",
    "affine",
    "abelian",
    "sl2c_real",
    "galilean",
    "euclidean",
    "poincare",
    "right_mult_structure",
    "affine_complex_structure",
    "so3_on_c3",
    "inclusion_chain",
    "poincare_inclusion",
    "build",
)


def _pairs(n):
    return n * (n - 1) // 2


def _triples(n):
    return n * (n - 1) * (n - 2) // 6


def _tuples_integrable(a):
    split = a.get("split")
    return _pairs(a["L"].dim if split is None else len(split))


def _tuples_parallel(a):
    conn, tensor = a["conn"], a["tensor"]
    m = conn.module_dim
    if hasattr(tensor, "sparse_columns"):
        return len(conn.maps) * m
    return len(conn.maps) * m * (m + 1) // 2


# check function -> (tuples swept as specified, from the bound arguments)
_TUPLES = {
    "check_integrable": _tuples_integrable,
    "check_jacobi": lambda a: _triples(a["L"].dim),
    "check_complex_lie": lambda a: a["L"].dim ** 2,
    "check_representation": lambda a: _pairs(a["rho"].algebra.dim) * a["rho"].module_dim,
    "check_parallel": _tuples_parallel,
    "check_torsion_free": lambda a: _pairs(a["conn"].algebra.dim),
    "check_closed": lambda a: _triples(a["L"].dim),
}


def _check_info(tuples_of):
    def info(bound, cert):
        return (tuples_of(bound), cert.total_failures)

    return info


def _integrable_name(bound):
    return "lie_core.integrable" if bound.get("split") is None else "lie_core.integrable_half"


def install(tracer, patches):
    """Wrap every traced lieforge function; undo with ``patches.restore()``."""
    from lieforge import acceptance, catalog, cli, constructions, dsl, lie_core
    from lieforge import scalar_linear, structures

    w = tracer.wrap
    for attr in ("add", "solve", "contains"):
        fn = vars(scalar_linear.SpanSolver)[attr]
        patches.replace_method(
            scalar_linear.SpanSolver, attr, w(fn, "scalar_linear.span_solver")
        )
    fn = lie_core.LinearMap.squares_to_minus_identity
    patches.replace_method(
        lie_core.LinearMap, "squares_to_minus_identity", w(fn, "lie_core.j_squared")
    )
    patches.replace_method(
        lie_core.LieAlgebra,
        "bracket_sparse",
        tracer.count(lie_core.LieAlgebra.bracket_sparse, "lie_core.bracket_sparse"),
    )
    patches.replace_method(
        lie_core.LinearMap,
        "apply_sparse",
        tracer.count(lie_core.LinearMap.apply_sparse, "lie_core.apply_sparse"),
    )
    # algebra construction, so that dsl.parse self time excludes it
    patches.replace_method(
        lie_core.LieAlgebra, "__init__", w(lie_core.LieAlgebra.__init__, "lie_core.algebra")
    )
    for fname, tuples_of in _TUPLES.items():
        fn = getattr(lie_core, fname)
        name = _integrable_name if fname == "check_integrable" else "lie_core." + fname[6:]
        patches.replace(fn, w(fn, name, info=_check_info(tuples_of)))

    for fname in ("from_matrix_basis", "eigenspace_split", "semidirect"):
        fn = getattr(constructions, fname)
        patches.replace(fn, w(fn, "constructions." + fname))
    for fname in CATALOG_BUILDERS:
        fn = getattr(catalog, fname)
        patches.replace(fn, w(fn, "catalog." + fname, group="catalog.builders"))

    fn = structures.clifford_tower
    patches.replace(fn, w(fn, "structures.clifford_tower"))
    cf = structures.CliffordFamily
    patches.replace_method(cf, "_compute_rank", w(cf._compute_rank, "structures.generated_rank"))
    patches.replace_method(cf, "certify", w(cf.certify, "structures.certify"))
    for fname in STRUCTURE_ASSEMBLIES:
        fn = getattr(structures, fname)
        patches.replace(fn, w(fn, "structures." + fname, group="structures.assemblies"))

    fn = dsl.parse
    patches.replace(
        fn, w(fn, "dsl.parse", info=lambda a, ws: len(a["text"].encode("utf-8")))
    )
    patches.replace(dsl.run, w(dsl.run, "dsl.run"))
    patches.replace(cli._cmd_check, w(cli._cmd_check, "cli.check"))
    for crit in list(acceptance.CRITERIA):
        patches.replace(crit, w(crit, "acceptance." + crit.__name__))


# ---------------------------------------------------------------------------
# aggregation

PER_LAYER_UNITS = {}


def _declare(names, unit, better):
    for n in names:
        PER_LAYER_UNITS[n] = (unit, better)


_declare(["scalar_linear.span_solver.calls"], "count", "lower")
_declare(["scalar_linear.span_solver.self_s"], "s", "lower")
_declare(["lie_core.j_squared.calls"], "count", "lower")
_declare(["lie_core.j_squared.s"], "s", "lower")
for _c in CHECKS:
    _p = "lie_core." + _c
    _declare([_p + ".calls", _p + ".tuples", _p + ".failures"], "count", "lower")
    _declare([_p + ".s", _p + ".self_s"], "s", "lower")
    _declare([_p + ".us_per_tuple"], "us", "lower")
_declare(["lie_core.bracket_sparse.calls", "lie_core.apply_sparse.calls"], "count", "lower")
_declare(["constructions.from_matrix_basis.calls"], "count", "lower")
_declare(
    [
        "constructions.from_matrix_basis.s",
        "constructions.from_matrix_basis.self_s",
        "constructions.eigenspace_split.s",
        "constructions.semidirect.s",
        "catalog.euclidean.s",
        "catalog.euclidean.self_s",
        "catalog.builders.s",
        "structures.clifford_tower.s",
        "structures.generated_rank.s",
        "structures.certify.s",
        "structures.assemblies.s",
        "dsl.parse.s",
        "dsl.parse.self_s",
        "dsl.run.s",
        "cli.check.self_s",
    ],
    "s",
    "lower",
)
_declare(["dsl.parse.bytes_per_s"], "B/s", "higher")
_declare(["cli.report_bytes"], "B", "lower")
_declare(["acceptance.criterion_%d.s" % i for i in range(1, 13)], "s", "lower")
_declare(["trace.overhead_ratio"], "ratio", "lower")

# integer-valued metrics; all others are times or rates
COUNT_METRICS = frozenset(n for n, (u, _) in PER_LAYER_UNITS.items() if u in ("count", "B"))


def _child_time(spans):
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[4] >= 0:
            child[rec[4]] += rec[3] - rec[2]
    return child


def layer_metrics(tracer):
    """Per-layer metrics of the spans and counts collected since the last reset."""
    spans = tracer.spans
    child = _child_time(spans)
    calls, total, self_s = Counter(), Counter(), Counter()
    group_total, tuples, failures, bytes_in = Counter(), Counter(), Counter(), 0
    for i, (name, group, t0, t1, _, info, outer_name, outer_group) in enumerate(spans):
        dur = t1 - t0
        calls[name] += 1
        self_s[name] += dur - child[i]
        if outer_name:
            total[name] += dur
        if outer_group:
            group_total[group] += dur
        if info is not None:
            if name == "dsl.parse":
                bytes_in += info
            else:
                tuples[name] += info[0]
                failures[name] += info[1]

    m = {
        "scalar_linear.span_solver.calls": calls["scalar_linear.span_solver"],
        "scalar_linear.span_solver.self_s": self_s["scalar_linear.span_solver"],
        "lie_core.j_squared.calls": calls["lie_core.j_squared"],
        "lie_core.j_squared.s": total["lie_core.j_squared"],
        "lie_core.bracket_sparse.calls": tracer.counts["lie_core.bracket_sparse"],
        "lie_core.apply_sparse.calls": tracer.counts["lie_core.apply_sparse"],
        "constructions.eigenspace_split.s": total["constructions.eigenspace_split"],
        "constructions.semidirect.s": total["constructions.semidirect"],
        "catalog.builders.s": group_total["catalog.builders"],
        "structures.clifford_tower.s": total["structures.clifford_tower"],
        "structures.generated_rank.s": total["structures.generated_rank"],
        "structures.certify.s": total["structures.certify"],
        "structures.assemblies.s": group_total["structures.assemblies"],
        "dsl.run.s": total["dsl.run"],
        "cli.check.self_s": self_s["cli.check"],
    }
    for c in CHECKS:
        name = "lie_core." + c
        m[name + ".calls"] = calls[name]
        m[name + ".s"] = total[name]
        m[name + ".self_s"] = self_s[name]
        m[name + ".tuples"] = tuples[name]
        m[name + ".failures"] = failures[name]
        m[name + ".us_per_tuple"] = total[name] / tuples[name] * 1e6 if tuples[name] else 0.0
    for name in ("constructions.from_matrix_basis", "catalog.euclidean", "dsl.parse"):
        m[name + ".s"] = total[name]
        m[name + ".self_s"] = self_s[name]
    m["constructions.from_matrix_basis.calls"] = calls["constructions.from_matrix_basis"]
    m["dsl.parse.bytes_per_s"] = bytes_in / total["dsl.parse"] if total["dsl.parse"] else 0.0
    for i in range(1, 13):
        m["acceptance.criterion_%d.s" % i] = total["acceptance.criterion_%d" % i]
    return m


def check_nesting(tracer, slack=1e-6):
    """Spans whose children's time exceeds their own duration (should be none)."""
    spans = tracer.spans
    child = _child_time(spans)
    return [
        spans[i][0]
        for i in range(len(spans))
        if child[i] > spans[i][3] - spans[i][2] + slack
    ]

