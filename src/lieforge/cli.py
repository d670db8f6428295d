"""Command line driver.

Exit status: 0 when every check passes, 1 when a check fails, 2 on parse
errors or violated preconditions.
"""

from __future__ import annotations

import argparse
import codecs
import json
import sys

from . import __version__
from .dsl import parse, run, entry_to_dsl
from .lie_core import Connection, LinearMap
from .scalar_linear import LieforgeError, scalar_to_str


def _report(certs, input_hash=None):
    rep = {"schema": 1, "tool": "lieforge %s" % __version__}
    if input_hash is not None:
        rep["input_hash"] = input_hash
    rep["certificates"] = [c.to_json() for c in certs]
    return rep


def emit_json(report, path):
    text = json.dumps(report, indent=2)
    if path == "-":
        print(text)
    else:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise LieforgeError("cannot write %s: %s" % (path, exc))


def emit_text(certs, out=None):
    out = out or sys.stdout
    for c in certs:
        status = "PASS" if c.passed else "FAIL"
        line = "%s %s %s (%.1f ms)" % (status, c.check_name, c.target, c.elapsed_ms)
        if not c.passed and c.witnesses:
            w = c.witnesses[0]
            line += "  witness %s defect [%s]" % (
                list(w.indices),
                ", ".join(scalar_to_str(x) for x in w.defect),
            )
        if not c.passed and "precondition" in c.notes:
            line += "  precondition: %s" % c.notes["precondition"]
        print(line, file=out)


def _exit_code(certs):
    if any("precondition" in c.notes for c in certs if not c.passed):
        return 2
    if any(not c.passed for c in certs):
        return 1
    return 0


def _cmd_check(args):
    try:
        with open(args.file, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    try:
        # utf-8-sig drops a leading byte-order mark, so spans count from after it
        text = raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        offset = exc.start + (len(codecs.BOM_UTF8) if raw.startswith(codecs.BOM_UTF8) else 0)
        print(
            "error: input is not UTF-8: cannot decode byte 0x%02x at byte offset %d (%s)"
            % (raw[offset], offset, exc.reason),
            file=sys.stderr,
        )
        return 2
    certs = run(parse(text))
    if args.json != "-":
        emit_text(certs)
    if args.json:
        import hashlib  # only a report carries the digest

        emit_json(_report(certs, input_hash=hashlib.sha256(raw).hexdigest()), args.json)
    return _exit_code(certs)


def _cmd_catalog(args):
    from . import catalog

    try:
        entry = catalog.build(args.name, *args.params)
    except (KeyError, LieforgeError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    if args.emit == "dsl":
        print(entry_to_dsl(entry), end="")
    else:
        alg = entry.algebra
        table = {
            "%d,%d" % (i, j): {str(k): scalar_to_str(v) for k, v in coeffs.items()}
            for (i, j), coeffs in sorted(alg.table.items())
        }
        print(
            json.dumps(
                {
                    "name": entry.name,
                    "dim": alg.dim,
                    "labels": alg.labels,
                    "structure_constants": table,
                },
                indent=2,
            )
        )
    return 0


def _tower_connection(entry, name):
    if "left_mult" in entry.structures:
        return entry.structures["left_mult"]
    if name.startswith("abelian"):
        alg = entry.algebra
        return Connection(alg, [LinearMap.zero(alg.dim) for _ in range(alg.dim)])
    return None


def _cmd_tower(args):
    from . import catalog
    from .structures import clifford_tower

    parts = args.base.split(":")
    try:
        entry = catalog.build(parts[0], *parts[1:])
    except (KeyError, LieforgeError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    conn = _tower_connection(entry, parts[0])
    if conn is None:
        print(
            "error: no canonical flat torsion-free connection for %r" % args.base,
            file=sys.stderr,
        )
        return 2
    alg, lifted, family = clifford_tower(entry.algebra, conn, args.m)
    cert = family.certify(lifted, target="tower %s m=%d" % (args.base, args.m))
    if args.json != "-":
        print(
            "tower over %s: dim %d, members %d, generated rank %d"
            % (entry.name, alg.dim, len(family.maps), family.generated_rank)
        )
        emit_text([cert])
    if args.json:
        emit_json(_report([cert]), args.json)
    return _exit_code([cert])


def _cmd_acceptance(args):
    from .acceptance import run_all

    results = run_all()
    certs = []
    for r in results:
        certs.extend(r.certificates)
        if args.json == "-":
            continue
        status = "PASS" if r.passed else "FAIL"
        print(
            "%s criterion-%s %s [%.2f s]%s"
            % (
                status,
                r.ident.rjust(2, "0"),
                r.label,
                r.elapsed_s,
                (" - " + r.details) if r.details else "",
            )
        )
    if args.json:
        emit_json(_report(certs), args.json)
    return 0 if all(r.passed for r in results) else 1


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="lieforge",
        description="exact construction and certification of structures on Lie algebras",
    )
    ap.add_argument("--version", action="version", version="lieforge %s" % __version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run the checks queued in a .lie file")
    p.add_argument("file")
    p.add_argument("--json", metavar="PATH", help="write the JSON report ('-' for stdout)")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("catalog", help="emit a named catalog entry")
    p.add_argument("name")
    p.add_argument("params", nargs="*")
    p.add_argument("--emit", choices=("dsl", "json"), default="dsl")
    p.set_defaults(fn=_cmd_catalog)

    p = sub.add_parser("tower", help="build an iterated tangent tower and certify it")
    p.add_argument("--base", required=True, help="catalog entry, e.g. gl:2 or abelian:2")
    p.add_argument("--m", required=True, type=int)
    p.add_argument("--json", metavar="PATH")
    p.set_defaults(fn=_cmd_tower)

    p = sub.add_parser("acceptance", help="run the full verification suite")
    p.add_argument("--json", metavar="PATH")
    p.set_defaults(fn=_cmd_acceptance)

    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except LieforgeError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
