"""The three benchmark workloads.

Each workload loads its inputs and known answers in ``__init__`` (that is
the set-up the benchmark times) and runs one pass in ``run_pass``, which
returns the pass wall time, its two stage times and the raw outcomes.  The
outcomes are compared with the known answers by ``compare`` after the
clock has stopped.

A verdict is one certificate, reduced to the fields that decide it (check,
target, pass, total_failures and the witnesses with their defects), or one
exit status of a CLI command.  ``elapsed_ms`` and the JSON layout are not
compared, so a schema change to the reports does not break the benchmark.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS = os.path.join(HERE, "corpus")
ANSWERS = os.path.join(HERE, "answers")

_clock = time.perf_counter


def load_answers(workload, required=True):
    path = os.path.join(ANSWERS, workload + ".json")
    if not required and not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def cert_verdict(cert):
    """Decisive fields of a certificate given as a JSON object."""
    return {
        "check": cert["check"],
        "target": cert["target"],
        "pass": cert["pass"],
        "total_failures": cert["total_failures"],
        "witnesses": [[list(w["indices"]), list(w["defect"])] for w in cert["witnesses"]],
    }


def cert_object_verdict(cert):
    """Decisive fields of a ``lieforge.Certificate`` object."""
    from lieforge.scalar_linear import scalar_to_str

    return {
        "check": cert.check_name,
        "target": cert.target,
        "pass": cert.passed,
        "total_failures": cert.total_failures,
        "witnesses": [
            [list(w.indices), [scalar_to_str(x) for x in w.defect]] for w in cert.witnesses
        ],
    }


def report_size(path):
    """Bytes of a JSON report, each ``elapsed_ms`` value counted as one digit.

    Timings vary in length from run to run; without them the size repeats
    exactly.
    """
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    return len(_ELAPSED.sub('"elapsed_ms": 0', text).encode("utf-8"))


_ELAPSED = re.compile(r'"elapsed_ms": [-+0-9.eE]+')


def report_verdicts(path):
    with open(path, encoding="utf-8") as fh:
        return [cert_verdict(c) for c in json.load(fh)["certificates"]]


def compare(expected, got):
    """(verdicts, mismatches): a missing or extra verdict is a mismatch."""
    mismatches = sum(1 for e, g in zip(expected, got) if e != g)
    mismatches += abs(len(expected) - len(got))
    return len(expected), mismatches


def run_cli(argv):
    """``lieforge.cli.main`` in-process with stdout and stderr captured."""
    from lieforge import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


@dataclass
class PassResult:
    wall_s: float
    stage1_s: float
    stage2_s: float
    outcomes: list | None  # the verdicts, or None after an exception
    report_bytes: int = 0


class Acceptance:
    """``lieforge acceptance --json``: all twelve criteria.

    Stage 1 is criteria 1-11 plus report emission, stage 2 criterion 12
    (the agreement suite and the dimension-276 sweep), timed by a clock
    around ``acceptance.criterion_12`` only.
    """

    name = "acceptance"
    stage_names = ("criteria_1_11_s", "criterion_12_s")

    def __init__(self, seed, work_dir, answers=True):
        from lieforge import acceptance

        self.acceptance = acceptance
        self.expected = load_answers(self.name, answers)
        self.report = os.path.join(work_dir, "acceptance.json")
        self._c12 = [0.0, 0.0]

    def install(self, patches):
        original = self.acceptance.criterion_12
        clock = self._c12

        def criterion_12():
            clock[0] = _clock()
            try:
                return original()
            finally:
                clock[1] = _clock()

        patches.replace(original, criterion_12)

    def run_pass(self):
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.report)
        self._c12[:] = [0.0, 0.0]
        t0 = _clock()
        rc, _, _ = run_cli(["acceptance", "--json", self.report])
        wall = _clock() - t0
        c12 = self._c12[1] - self._c12[0]
        outcomes = [{"exit": rc}] + report_verdicts(self.report)
        return PassResult(wall, wall - c12, c12, outcomes, report_size(self.report))


class EuclidSweep:
    """Build ``catalog.euclidean(27)``, then its full and half-basis sweeps.

    Stage 1 is the build, stage 2 the two sweeps.
    """

    name = "euclid-sweep"
    stage_names = ("build_s", "certify_s")
    N = 27

    def __init__(self, seed, work_dir, answers=True):
        import lieforge
        from lieforge import catalog

        self.lieforge = lieforge
        self.catalog = catalog
        self.expected = load_answers(self.name, answers)

    def install(self, patches):
        pass

    def run_pass(self):
        lf = self.lieforge
        t0 = _clock()
        entry = self.catalog.euclidean(self.N)
        t1 = _clock()
        alg, J = entry.algebra, entry.structures["j"]
        full = lf.check_integrable(alg, J, target="e_%d" % self.N)
        split = [alg.basis_vector(i) for i in entry.structures["split"]]
        half = lf.check_integrable(alg, J, split=split, target="e_%d half" % self.N)
        t2 = _clock()
        outcomes = [{"dim": alg.dim}, cert_object_verdict(full), cert_object_verdict(half)]
        return PassResult(t2 - t0, t1 - t0, t2 - t1, outcomes)


def pairing_endo_text(name, alg_name, labels, pairs):
    """``endo`` text for the signed permutation a -> b, b -> -a."""
    image = {}
    for a, b in pairs:
        image[a] = labels[b]
        image[b] = "- " + labels[a]
    lines = ["endo %s on %s {" % (name, alg_name)]
    lines += ["  %s -> %s ;" % (lab, image[i]) for i, lab in enumerate(labels)]
    lines.append("}")
    return "\n".join(lines)


class DslCheck:
    """``lieforge check FILE --json PATH`` over the frozen corpus.

    The seed draws two non-integrable pairings of the e(15) basis from the
    pool in ``answers/pairings.json``; they are appended to the frozen e(15)
    file as ``endo`` text with one ``integrable`` check each.  Stage 1 is
    the e(15) file, stage 2 the tower file.
    """

    name = "dsl-check"
    stage_names = ("check_s.e15", "check_s.tower")
    FILES = ("e15", "tower", "aff1", "malformed")

    def __init__(self, seed, work_dir):
        from lieforge import cli  # noqa: F401  (imported as part of set-up)

        answers = load_answers(self.name)
        with open(os.path.join(ANSWERS, "pairings.json"), encoding="utf-8") as fh:
            pool = json.load(fh)
        picks = random.Random(seed).sample(range(len(pool["pairings"])), 2)
        self.picks = picks
        with open(os.path.join(CORPUS, "e15.lie"), encoding="utf-8") as fh:
            text = fh.read()
        extra = []
        for k, idx in enumerate(picks, start=1):
            name = "rand_%d" % k
            extra.append(
                pairing_endo_text(name, pool["algebra"], pool["labels"], pool["pairings"][idx])
            )
            extra.append("check integrable(%s)" % name)
        self.paths = {f: os.path.join(CORPUS, f + ".lie") for f in self.FILES}
        self.paths["e15"] = os.path.join(work_dir, "e15.lie")
        self.reports = {f: os.path.join(work_dir, f + ".report.json") for f in self.FILES}
        with open(self.paths["e15"], "w", encoding="utf-8") as fh:
            fh.write(text + "\n" + "\n\n".join(extra) + "\n")
        self.expected = []
        for f in self.FILES:
            certs = list(answers[f]["certificates"])
            if f == "e15":
                for k, idx in enumerate(picks, start=1):
                    cert = dict(pool["answers"][idx], target="rand_%d" % k)
                    certs.append(cert)
            self.expected.append({"file": f, "exit": answers[f]["exit"]})
            self.expected.extend(certs)

    def install(self, patches):
        pass

    def run_pass(self):
        for path in self.reports.values():
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        times, codes = {}, {}
        t0 = _clock()
        for f in self.FILES:
            t = _clock()
            codes[f] = run_cli(["check", self.paths[f], "--json", self.reports[f]])[0]
            times[f] = _clock() - t
        wall = _clock() - t0
        outcomes, size = [], 0
        for f in self.FILES:
            outcomes.append({"file": f, "exit": codes[f]})
            if os.path.exists(self.reports[f]):
                outcomes.extend(report_verdicts(self.reports[f]))
                size += report_size(self.reports[f])
        return PassResult(wall, times["e15"], times["tower"], outcomes, size)


WORKLOADS = {w.name: w for w in (Acceptance, EuclidSweep, DslCheck)}
