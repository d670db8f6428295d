"""One test per acceptance criterion; each prints its pass/fail line.

Everything is exact arithmetic, so every assertion is equality at zero
tolerance; the only numeric bounds are the stated wall-clock gates.
"""

import json
import os

from lieforge import acceptance, cli

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "acceptance.json")


def _run(fn):
    res = fn()
    print(
        "%s criterion-%s %s%s"
        % (
            "PASS" if res.passed else "FAIL",
            res.ident.rjust(2, "0"),
            res.label,
            (" - " + res.details) if res.details else "",
        )
    )
    # some criteria contain deliberately failing certificates (dichotomies);
    # the criterion verdict itself is the contract
    failing = [
        "%s on %s: %s" % (c.check_name, c.target, [list(w.indices) for w in c.witnesses[:3]])
        for c in res.certificates
        if not c.passed
    ]
    assert res.passed, "%s; failing: %s" % (res.details, failing)
    return res


def test_criterion_01_small_isometry_structures():
    res = _run(acceptance.criterion_1)
    assert res.elapsed_s < 1.0


def test_criterion_02_euclidean_family():
    _run(acceptance.criterion_2)


def test_criterion_03_poincare_family():
    _run(acceptance.criterion_3)


def test_criterion_04_contraction_family():
    _run(acceptance.criterion_4)


def test_criterion_05_affine_and_compact_module():
    _run(acceptance.criterion_5)


def test_criterion_06_tangent_cotangent_lifts():
    _run(acceptance.criterion_6)


def test_criterion_07_equivalence_and_reconstruction():
    _run(acceptance.criterion_7)


def test_criterion_08_hypercomplex_pairs():
    _run(acceptance.criterion_8)


def test_criterion_09_clifford_towers():
    _run(acceptance.criterion_9)


def test_criterion_10_cotangent_dichotomy():
    _run(acceptance.criterion_10)


def test_criterion_11_pseudo_kahler_plane():
    _run(acceptance.criterion_11)


def test_criterion_12_infrastructure_and_performance():
    _run(acceptance.criterion_12)


def _normalized(obj):
    """The report with every ``elapsed_ms`` set to 0, the only timing in it."""
    if isinstance(obj, dict):
        return {k: 0 if k == "elapsed_ms" else _normalized(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_normalized(v) for v in obj]
    return obj


def test_acceptance_report_matches_golden(tmp_path, capsys):
    """``lieforge acceptance --json`` is byte-identical to the committed report.

    The golden file is the normalized report, dumped with ``indent=2`` and a
    trailing newline.  A refactor must not change it; a deliberate change of
    a verdict, a witness or the layout regenerates it in the same commit.
    """
    out = tmp_path / "acceptance.json"
    assert cli.main(["acceptance", "--json", str(out)]) == 0
    capsys.readouterr()
    with open(out, encoding="utf-8") as fh:
        text = json.dumps(_normalized(json.load(fh)), indent=2) + "\n"
    with open(GOLDEN, encoding="utf-8") as fh:
        assert text == fh.read()
