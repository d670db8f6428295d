"""lieforge benchmark: time to verdict on three certification workloads.

One workload (the last line of stdout is JSON)::

    python3 perfbench/run.py --workload dsl-check --seed 3 --seconds 40 --trace 0

Everything, one workload after another, untraced and then traced::

    python3 perfbench/run.py [--seed N] [--seconds S]

Run from the repository root; lieforge is imported from ``src/``.  An
untraced run (``--trace 0``) repeats whole passes for ``--seconds`` and
reports medians of the end-to-end metrics; set-up time is the median of
several fresh interpreters that import lieforge and load the inputs.  The
end-to-end times are in reference seconds (see ``reference_kernel``).  A
traced run (``--trace 1``) alternates untraced and traced passes and
reports the per-layer metrics of the traced ones, in plain seconds.  Every verdict of every
pass is compared with the known answers in ``perfbench/answers``.  Each
run also writes a stamped result file under ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

# end-to-end metrics: name -> unit; stage1_s / stage2_s split each pass in two
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "verdicts": "count",
    "stage1_s": "s",
    "stage2_s": "s",
}
SETUP_PROBES = 9

# The speed of the host the benchmark was defined on drifts by up to 2x
# within minutes, and a fixed pure-Python kernel timed next to each pass
# slows down with it.  End-to-end times are therefore reported in reference
# seconds: each pass (or set-up probe) time is scaled by REFERENCE_KERNEL_S
# over the mean kernel time around it, and the run reports the median.
REFERENCE_KERNEL_S = 0.2


def reference_kernel():
    """Seconds taken by fixed exact sparse accumulation, like lieforge's inner loops."""
    t0 = time.perf_counter()
    one = Fraction(1)
    for _ in range(3):
        acc = {}
        for i in range(1, 4000):
            vec = {(i * 7) % 211: Fraction(i % 5 - 2), (i * 13) % 211: one,
                   (i * 3) % 211: Fraction(1, i % 3 + 1)}
            for k, v in vec.items():
                total = acc.get(k, 0) + v * Fraction(i % 4 - 1)
                if total:
                    acc[k] = total
                elif k in acc:
                    del acc[k]
    return time.perf_counter() - t0


def _fail(message):
    print("error: %s" % message, file=sys.stderr)
    return 2


def _import_lieforge():
    if not os.path.isfile(os.path.join(SRC, "lieforge", "__init__.py")):
        raise ImportError("no lieforge sources under %s" % SRC)
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import lieforge

    if os.path.dirname(os.path.dirname(os.path.abspath(lieforge.__file__))) != SRC:
        raise ImportError("lieforge was imported from %s, not from src/" % lieforge.__file__)


def _git_stamp():
    def git(*args):
        res = subprocess.run(
            ["git", "-C", ROOT] + list(args), capture_output=True, text=True, timeout=30
        )
        return res.stdout.strip() if res.returncode == 0 else None

    try:
        top = git("rev-parse", "--show-toplevel")
        if top is None or os.path.realpath(top) != os.path.realpath(ROOT):
            return {"commit": None, "dirty": None}
        status = git("status", "--porcelain", "--untracked-files=no")
        return {"commit": git("rev-parse", "HEAD"), "dirty": bool(status)}
    except (OSError, subprocess.SubprocessError):
        return {"commit": None, "dirty": None}


def _host_stamp():
    return {
        "python": platform.python_implementation() + " " + platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "loadavg_start": list(os.getloadavg()),
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def _work_dir(workload, tag):
    path = os.path.join(OUT, "work", "%s-%s-%d" % (workload, tag, os.getpid()))
    os.makedirs(path, exist_ok=True)
    return path


def _setup_probe(args):
    """Fresh-interpreter set-up: import lieforge, load inputs and answers."""
    _import_lieforge()
    import workloads

    work = _work_dir(args.workload, "probe")
    try:
        workloads.WORKLOADS[args.workload](args.seed, work)
        print("ready", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


def _local_scale(kernel_times, i, width):
    """REFERENCE_KERNEL_S over the mean of the kernel times around sample i."""
    return REFERENCE_KERNEL_S / statistics.mean(kernel_times[i:i + 2 * width])


def _measure_setup(args):
    """Plain and reference set-up times, one kernel sample before and after each probe."""
    times, kernel_times = [], []
    cmd = [
        sys.executable, os.path.abspath(__file__), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    for _ in range(SETUP_PROBES):
        kernel_times.append(reference_kernel())
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        proc.stdout.close()
        if proc.wait() != 0 or line.strip() != "ready":
            raise RuntimeError("set-up probe failed (exit %s)" % proc.returncode)
        times.append(elapsed)
    kernel_times.append(reference_kernel())
    scaled = [t * _local_scale(kernel_times, i, 1) for i, t in enumerate(times)]
    return times, scaled, kernel_times


class Tally:
    def __init__(self, expected):
        self.expected = expected
        self.attempted = 0
        self.failed = 0

    def score(self, result):
        import workloads

        if result.outcomes is None:
            n, bad = len(self.expected), len(self.expected)
        else:
            n, bad = workloads.compare(self.expected, result.outcomes)
        self.attempted += n
        self.failed += bad


def _run_pass(wl):
    import workloads

    gc.collect()  # every pass starts from a collected heap, outside its clock
    try:
        return wl.run_pass()
    except Exception:  # a crash is a wrong verdict, not a benchmark error
        traceback.print_exc(file=sys.stderr)
        return workloads.PassResult(float("nan"), float("nan"), float("nan"), None)


def _run_workload(args):
    host = _host_stamp()
    if not args.trace:
        setup_times, setup_ref, setup_kernel = _measure_setup(args)
    kernel_times = []
    _import_lieforge()
    import tracer as tr
    import workloads

    work = _work_dir(args.workload, "run")
    patches = tr.Patches()
    passes, traced, layer = [], [], []
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, work)
        tally = Tally(wl.expected)
        wl.install(patches)
        tracer = tr.Tracer()
        deadline = time.perf_counter() + args.seconds
        while True:
            t0 = time.perf_counter()
            if not args.trace:
                kernel_times += [reference_kernel(), reference_kernel()]
            res = _run_pass(wl)
            tally.score(res)
            passes.append(res)
            if args.trace:
                inner = tr.Patches()
                tracer.reset()
                tr.install(tracer, inner)
                try:
                    tres = _run_pass(wl)
                finally:
                    inner.restore()
                tally.score(tres)
                traced.append(tres)
                if tres.outcomes is not None:
                    m = tr.layer_metrics(tracer)
                    m["cli.report_bytes"] = tres.report_bytes
                    layer.append(m)
            if res.outcomes is None or (args.trace and tres.outcomes is None):
                break
            if time.perf_counter() + (time.perf_counter() - t0) > deadline:
                break
        if not args.trace:
            kernel_times += [reference_kernel(), reference_kernel()]
    finally:
        patches.restore()
        shutil.rmtree(work, ignore_errors=True)

    # untraced pass i ran between kernel samples 2i, 2i+1 and 2i+2, 2i+3
    scales = [
        1.0 if args.trace else _local_scale(kernel_times, 2 * i, 2) for i in range(len(passes))
    ]
    timed = [(p, k) for p, k in zip(passes, scales) if p.outcomes is not None]
    timed = timed or list(zip(passes, scales))
    passes = [p for p, _ in timed]
    traced = [t for t in traced if t.outcomes is not None] or traced
    walls = [p.wall_s for p in passes]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host,
        "git": _git_stamp(),
        "passes": len(passes),
        "pass_wall_s": walls,
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
    }
    verdicts = len(wl.expected)
    if not args.trace:
        raw = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(walls),
            "stage1_s": statistics.median(p.stage1_s for p in passes),
            "stage2_s": statistics.median(p.stage2_s for p in passes),
        }
        metrics = {
            "setup_s": statistics.median(setup_ref),
            "wall_s": statistics.median(p.wall_s * k for p, k in timed),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "verdicts": verdicts,
            "stage1_s": statistics.median(p.stage1_s * k for p, k in timed),
            "stage2_s": statistics.median(p.stage2_s * k for p, k in timed),
        }
        units = END_TO_END
        result["setup_probe_s"] = setup_times
        result["setup_kernel_s"] = setup_kernel
        result["kernel_s"] = kernel_times
        # the same numbers under the names each workload gives its stages,
        # and the plain seconds behind the reference seconds
        extra = {
            wl.stage_names[0]: metrics["stage1_s"],
            wl.stage_names[1]: metrics["stage2_s"],
            "mismatch_ratio": tally.failed / tally.attempted if tally.attempted else 1.0,
            "kernel_s": statistics.median(kernel_times),
        }
        extra.update({"raw." + n: v for n, v in raw.items()})
    else:
        metrics = {
            name: statistics.median(m[name] for m in layer) if layer else 0.0
            for name in tr.PER_LAYER_UNITS
            if name != "trace.overhead_ratio"
        }
        for name in tr.COUNT_METRICS:
            metrics[name] = int(metrics[name])
        metrics["trace.overhead_ratio"] = statistics.median(
            t.wall_s for t in traced
        ) / statistics.median(walls)
        units = {n: u for n, (u, _) in tr.PER_LAYER_UNITS.items()}
        result["traced_pass_wall_s"] = [t.wall_s for t in traced]
        result["exact_counts"] = [
            {n: m[n] for n in sorted(tr.COUNT_METRICS)} for m in layer
        ]
        extra = {}
        if layer:
            spans = [[s[0], s[2], s[3], s[4]] for s in tracer.spans]
            _write_json("%s-seed%d-spans.json" % (args.workload, args.seed), spans)
    result["host"]["loadavg_end"] = list(os.getloadavg())
    result["metrics"] = {n: {"value": v, "unit": units[n]} for n, v in metrics.items()}
    result["workload_metrics"] = extra
    _write_json("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace), result)

    for name, v in list(metrics.items()) + list(extra.items()):
        unit = units.get(name, "ratio" if name == "mismatch_ratio" else "s")
        print("%-44s %14.6g %s" % (name, v, unit))
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": result["metrics"],
            }
        )
    )
    return 0


def _write_json(name, obj):
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    with open(os.path.join(OUT, "results", name), "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1 if isinstance(obj, dict) else None)
        fh.write("\n")


def _run_all(args):
    """Every workload in its own interpreter, one at a time: untraced, then traced."""
    sys.path.insert(0, HERE)
    import workloads

    ok = True
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [
                sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(trace),
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            print("== %s (%s)" % (name, "traced" if trace else "untraced"))
            print("\n".join(lines[:-1]))
            last = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
            correct = last.get("correct", False)
            print("correct %s: %s of %s verdicts wrong"
                  % (correct, last.get("failed"), last.get("attempted")))
            ok = ok and correct
    print("results in %s" % os.path.join(OUT, "results"))
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", help="acceptance, euclid-sweep or dsl-check (default: all)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        if args.workload is None:
            return _run_all(args)
        if args.workload not in ("acceptance", "euclid-sweep", "dsl-check"):
            return _fail("unknown workload %r" % args.workload)
        if args.setup_probe:
            return _setup_probe(args)
        return _run_workload(args)
    except (ImportError, OSError, RuntimeError) as exc:
        return _fail(exc)


if __name__ == "__main__":
    sys.exit(main())
