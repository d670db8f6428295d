"""Write the frozen ``dsl-check`` corpus and the known answers.

Run once, from the repository root::

    python3 perfbench/freeze.py [--force]

The corpus under ``perfbench/corpus`` is emitted from the catalog (or
written out by hand for the small files) and then committed, so a later
change to DSL emission cannot change the benchmark's input.  The answers
under ``perfbench/answers`` record the verdicts of the commit that froze
them; ``perfbench/selftest.py`` replays their failing witnesses with the
dense oracles in ``tests/oracles.py``.  Existing files are kept unless
``--force`` is given.
"""

from __future__ import annotations

import json
import os
import random
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from lieforge import catalog  # noqa: E402
from lieforge.dsl import entry_to_dsl  # noqa: E402
from lieforge.lie_core import AlmostComplex, check_integrable  # noqa: E402

import workloads  # noqa: E402

POOL_SIZE = 16
POOL_SEED = 20030700

AFF1 = """\
# The README example, plus the two dichotomies on aff(1): the left-symmetric
# connection ls is torsion-free, the adjoint connection ad is not.
algebra aff1 { basis x y ; [x, y] = y ; }
assoc C { basis one i ; one * one = one ; one * i = i ;
          i * one = i ; i * i = - one ; }
endo J on aff1 { x -> y ; y -> - x ; }
conn ls on aff1 { x => matrix [[0, 0], [0, 1]] ; y => matrix [[0, 0], [0, 0]] ; }
conn ad on aff1 { x => matrix [[0, 0], [0, 1]] ; y => matrix [[0, 0], [-1, 0]] ; }
form B on aff1 sym matrix [[1, 0], [0, 1]]
map inc from aff1 to aff1 { x -> x ; y -> y ; }
decomp D on aff1 { part0 : x , y ; part1 : ; }

construct T  = tangent(aff1, ls)
construct K  = canonical_K(T)
construct ac = aff(C)
construct Cls = cotangent(aff1, ls)
construct Cad = cotangent(aff1, ad)

check jacobi(aff1)
check integrable(K)
check torsion_equivalence(ls)
check torsion_equivalence(ad)
check closed(Cls_omega)
check closed(Cad_omega)
"""

MALFORMED = """\
# Refers to a basis label that was never declared: exit status 2.
algebra broken { basis x y ; [x, y] = z ; }
check jacobi(broken)
"""


def corpus_texts():
    e15 = catalog.euclidean(15)
    alg = e15.algebra
    split = ", ".join(alg.labels[i] for i in e15.structures["split"])
    j = e15.name + "_j"
    e15_text = entry_to_dsl(e15) + "\n".join(
        [
            "",
            "check integrable(%s)" % j,
            "check integrable(%s, %s)" % (j, split),
            "check complex_lie(%s)" % j,
        ]
    )
    gl2 = catalog.gl(2)
    tower_text = entry_to_dsl(gl2) + "\n".join(
        ["", "construct T = tower(gl_2, gl_2_left_mult, 4)", "check flat(T_conn)",
         "check torsion_free(T_conn)"]
        + ["check parallel(T_conn, T_J%d)" % k for k in range(1, 5)]
        + ["check integrable(T_J%d)" % k for k in range(1, 5)]
    ) + "\n"
    return {"e15": e15_text, "tower": tower_text, "aff1": AFF1, "malformed": MALFORMED}


def pairing_pool():
    """Random pairings of the e(15) basis that are not integrable."""
    e15 = catalog.euclidean(15)
    alg = e15.algebra
    rng = random.Random(POOL_SEED)
    pairings, answers = [], []
    while len(pairings) < POOL_SIZE:
        idx = list(range(alg.dim))
        rng.shuffle(idx)
        pairs = [[idx[k], idx[k + 1]] for k in range(0, alg.dim, 2)]
        J = AlmostComplex.from_pairs(alg.dim, pairs)
        cert = check_integrable(alg, J, target="rand")
        if cert.passed:
            continue
        pairings.append(pairs)
        answers.append(workloads.cert_object_verdict(cert))
    return {
        "algebra": e15.name,
        "labels": alg.labels,
        "pool_seed": POOL_SEED,
        "pairings": pairings,
        "answers": answers,
    }


def _write(path, text, force):
    if os.path.exists(path) and not force:
        print("kept %s" % os.path.relpath(path, ROOT))
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    print("wrote %s" % os.path.relpath(path, ROOT))


def _dump(obj):
    return json.dumps(obj, indent=1) + "\n"


def main(argv):
    force = "--force" in argv
    os.makedirs(workloads.CORPUS, exist_ok=True)
    os.makedirs(workloads.ANSWERS, exist_ok=True)
    for name, text in corpus_texts().items():
        _write(os.path.join(workloads.CORPUS, name + ".lie"), text, force)
    pool = json.dumps(pairing_pool(), separators=(",", ":")) + "\n"
    _write(os.path.join(workloads.ANSWERS, "pairings.json"), pool, force)

    with tempfile.TemporaryDirectory(dir=HERE) as work:
        wl = workloads.Acceptance(0, work, answers=False)
        outcomes = wl.run_pass().outcomes
        _write(os.path.join(workloads.ANSWERS, "acceptance.json"), _dump(outcomes), force)

        wl = workloads.EuclidSweep(0, work, answers=False)
        outcomes = wl.run_pass().outcomes
        _write(os.path.join(workloads.ANSWERS, "euclid-sweep.json"), _dump(outcomes), force)

        # per-file answers, without the seed-drawn pairings of the e(15) file
        answers = {}
        for f in workloads.DslCheck.FILES:
            report = os.path.join(work, f + ".json")
            rc, _, _ = workloads.run_cli(
                ["check", os.path.join(workloads.CORPUS, f + ".lie"), "--json", report]
            )
            certs = workloads.report_verdicts(report) if os.path.exists(report) else []
            answers[f] = {"exit": rc, "certificates": certs}
        _write(os.path.join(workloads.ANSWERS, "dsl-check.json"), _dump(answers), force)


if __name__ == "__main__":
    main(sys.argv[1:])
