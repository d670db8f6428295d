import codecs
import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys

import pytest

import lieforge
from lieforge import catalog, dsl, structures
from lieforge.cli import main

from oracles import dense

GOLDEN_CATALOG = os.path.join(os.path.dirname(__file__), "golden", "catalog.lie")
GOLDEN_EVERY_CHECK = os.path.join(os.path.dirname(__file__), "golden", "every_check.json")
GOLDEN_EIGENSPLIT_FAIL = os.path.join(os.path.dirname(__file__), "golden", "eigensplit_fail.json")
FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
CORPUS = os.path.join(os.path.dirname(__file__), "..", "perfbench", "corpus")
GOLDEN_ACCEPTANCE = os.path.join(os.path.dirname(__file__), "golden", "acceptance.json")
GOLDEN_CHECK_REPORTS = os.path.join(os.path.dirname(__file__), "golden", "check_reports.json")
ZERO_DENOMINATOR = os.path.join(FIXTURES, "zero_denominator.lie")


GOOD = """
algebra aff1 { basis x y ; [x, y] = y ; }
conn ls on aff1 { x => matrix [[0, 0], [0, 1]] ; y => matrix [[0, 0], [0, 0]] ; }
check jacobi(aff1)
check torsion_free(ls)
"""

FAILING = GOOD + "\ncheck torsion_free(adc)\n".replace("adc", "ls2")
FAILING = """
algebra aff1 { basis x y ; [x, y] = y ; }
conn adc on aff1 { x => matrix [[0, 0], [0, 1]] ; y => matrix [[0, 0], [-1, 0]] ; }
check torsion_free(adc)
"""

PRECONDITION = """
algebra g { basis x y ; }
endo E on g { x -> x ; y -> y ; }
check integrable(E)
"""


def write(tmp_path, text, name="input.lie"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_check_all_pass_exit_zero(tmp_path, capsys):
    rc = main(["check", write(tmp_path, GOOD)])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("PASS") == 2


def test_check_failure_exit_one(tmp_path, capsys):
    rc = main(["check", write(tmp_path, FAILING)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL" in out and "witness" in out


def test_check_parse_error_exit_two(tmp_path, capsys):
    rc = main(["check", write(tmp_path, "algebra g { basis x ")])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_check_precondition_exit_two(tmp_path, capsys):
    rc = main(["check", write(tmp_path, PRECONDITION)])
    out = capsys.readouterr().out
    assert rc == 2
    assert "precondition" in out


def test_check_endo_squaring_to_plus_one_exits_two_once_per_check(capsys):
    rc = main(["check", os.path.join(FIXTURES, "squares_to_plus_one.lie")])
    captured = capsys.readouterr()
    assert rc == 2 and captured.err == ""
    # the timing field varies with the machine; everything else is exact
    assert re.sub(r"\(\d+\.\d ms\)", "(T ms)", captured.out) == "".join(
        "FAIL %s P (T ms)  witness ['precondition'] defect []  "
        "precondition: map squared is not minus the identity\n" % check
        for check in ("integrable", "complex_lie", "abelian_complex")
    )


def test_precondition_certificates_report_time_spent(capsys):
    rc = main(["check", os.path.join(FIXTURES, "squares_to_plus_one.lie"), "--json", "-"])
    certs = json.loads(capsys.readouterr().out)["certificates"]
    assert rc == 2
    assert [c["check"] for c in certs] == ["integrable", "complex_lie", "abelian_complex"]
    for c in certs:
        assert c["witnesses"] == [{"indices": ["precondition"], "defect": []}]
        assert c["elapsed_ms"] > 0


def test_check_zero_denominator_exits_two_with_span(capsys):
    rc = main(["check", ZERO_DENOMINATOR])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == "error: zero denominator in literal '1/0' (line 1, column 34)\n"


@pytest.mark.parametrize(
    "fixture, message",
    [
        ("superscript_digit.lie", "unexpected character '²'"),
        ("long_literal.lie", "literal of 4301 digits is too long"),
    ],
    ids=["superscript_digit", "long_literal"],
)
def test_check_unreadable_literal_exits_two_with_span(fixture, message, capsys):
    rc = main(["check", os.path.join(FIXTURES, fixture)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == "error: %s (line 1, column 34)\n" % message


def test_check_jacobi_failure_names_the_lexicographic_first_triple(capsys):
    """The fixture's table fails the Jacobi identity at five basis triples,
    (a, c, e) first; (a, b, c) and (a, c, d) pass."""
    rc = main(["check", os.path.join(FIXTURES, "jacobi_fail.lie")])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == (
        "error: Jacobi identity fails at basis triple (0, 2, 4) (line 3, column 9)\n"
    )


def test_check_connection_of_another_algebra_exits_two_at_the_construct(capsys):
    rc = main(["check", os.path.join(FIXTURES, "foreign_connection.lie")])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == (
        "error: representation does not live on the given algebra (line 6, column 15)\n"
    )


def test_check_lift_onto_the_double_of_another_algebra_exits_two_at_the_construct(capsys):
    rc = main(["check", os.path.join(FIXTURES, "foreign_double.lie")])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == (
        "error: algebra is not the double of the connection base (line 9, column 15)\n"
    )


def _no_tower_level(monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("a tower level was built")

    monkeypatch.setattr(structures, "tangent", no_build)


def test_check_tower_above_max_dim_exits_two_before_building(monkeypatch, capsys):
    _no_tower_level(monkeypatch)
    rc = main(["check", os.path.join(FIXTURES, "tower_past_cap.lie")])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == (
        "error: tower of 40 levels has more than 2048 dimensions (line 6, column 15)\n"
    )


def test_tower_command_above_max_dim_exits_two_before_building(monkeypatch, capsys):
    _no_tower_level(monkeypatch)
    rc = main(["tower", "--base", "gl:2", "--m", "40"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == "error: tower of 40 levels has more than 2048 dimensions\n"


def test_check_pseudo_kahler_of_a_metric_that_is_not_flat_exits_two(capsys):
    rc = main(["check", os.path.join(FIXTURES, "pseudo_kahler_not_flat.lie")])
    captured = capsys.readouterr()
    assert rc == 2 and captured.err == ""
    assert re.sub(r"\(\d+\.\d ms\)", "(T ms)", captured.out) == (
        "FAIL pseudo_kahler aff1 (T ms)  witness ['precondition'] defect []  "
        "precondition: connection is not flat\n"
    )


def test_check_input_that_is_not_utf8_exits_two_with_byte_offset(capsys):
    rc = main(["check", os.path.join(FIXTURES, "not_utf8.lie")])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == (
        "error: input is not UTF-8: cannot decode byte 0xe9 at byte offset 29 "
        "(invalid continuation byte)\n"
    )


def test_check_degenerate_form_fails_with_its_kernel(capsys):
    rc = main(["check", os.path.join(FIXTURES, "degenerate_form.lie"), "--json", "-"])
    (cert,) = json.loads(capsys.readouterr().out)["certificates"]
    assert rc == 1
    assert cert["notes"] == {"closed": True, "nondegenerate": False}
    assert cert["witnesses"] == [{"indices": ["kernel"], "defect": ["1", "0", "1"]}]


def test_check_symplectic_past_the_cap_keeps_sixteen_witnesses(capsys):
    """Sixteen failing triples of d omega and a kernel: the kernel is the
    17th failure, counted but not kept."""
    rc = main(["check", os.path.join(FIXTURES, "symplectic_past_cap.lie"), "--json", "-"])
    (cert,) = json.loads(capsys.readouterr().out)["certificates"]
    assert rc == 1
    assert cert["notes"] == {"closed": False, "nondegenerate": False}
    assert cert["total_failures"] == 17 and len(cert["witnesses"]) == 16
    assert all(w["indices"] != ["kernel"] for w in cert["witnesses"])


def test_every_certificate_keeps_min_of_sixteen_and_its_failures(capsys):
    """In every corpus and fixture report, and in the acceptance report, a
    certificate keeps one witness per failure up to sixteen, and passes
    exactly when nothing failed.  The acceptance report is read from its
    golden copy, which another test compares with a run."""
    with open(GOLDEN_ACCEPTANCE, encoding="utf-8") as fh:
        certs = json.load(fh)["certificates"]
    for folder in (CORPUS, FIXTURES):
        for f in sorted(os.listdir(folder)):
            main(["check", "--json", "-", os.path.join(folder, f)])
            out = capsys.readouterr().out
            if out:  # a file that does not parse has no report
                certs += json.loads(out)["certificates"]
    for cert in certs:
        assert len(cert["witnesses"]) == min(16, cert["total_failures"]), cert["check"]
        assert cert["pass"] == (cert["total_failures"] == 0), cert["check"]
    assert len(certs) > 150


def test_check_levi_civita_of_a_form_of_another_size_exits_two(capsys):
    rc = main(["check", os.path.join(FIXTURES, "metric_size_mismatch.lie")])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ") and line.endswith(" (line 5, column 15)")


def test_check_structure_of_the_wrong_size_exits_two(capsys):
    rc = main(["check", os.path.join(FIXTURES, "structure_size_mismatch.lie")])
    captured = capsys.readouterr()
    assert rc == 2 and captured.err == ""
    lines = captured.out.splitlines()
    assert len(lines) == 2
    assert all(
        "precondition: endomorphism does not match algebra dimension" in line
        for line in lines
    )


_CHECK_WITHOUT_CATALOG = """
import sys
from lieforge import cli
rc = cli.main(["check", sys.argv[1]])
assert "lieforge.catalog" not in sys.modules, "check loaded the catalog"
from lieforge import catalog, structures
assert catalog.Decomposition is structures.Decomposition
sys.exit(rc)
"""


def test_check_does_not_load_the_catalog():
    src = os.path.dirname(os.path.dirname(os.path.abspath(lieforge.__file__)))
    tower = os.path.join(os.path.dirname(__file__), "..", "perfbench", "corpus", "tower.lie")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", _CHECK_WITHOUT_CATALOG, tower],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("PASS ")


def test_importing_the_cli_does_not_load_hashlib():
    """Only a ``--json`` report hashes the input; ``-S`` keeps ``site`` from
    loading the module first."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(lieforge.__file__)))
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, lieforge.cli; assert 'hashlib' not in sys.modules, 'hashlib loaded'"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_importing_the_cli_does_not_load_dataclasses_or_inspect():
    """Records are namedtuples or plain classes: a start loads none of the
    modules ``dataclasses`` brings in."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(lieforge.__file__)))
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, lieforge.cli; "
         "loaded = {'dataclasses', 'inspect', 'ast', 'dis'} & set(sys.modules); "
         "assert not loaded, sorted(loaded)"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_check_byte_offset_after_a_byte_order_mark_counts_the_mark(tmp_path, capsys):
    path = tmp_path / "bad.lie"
    path.write_bytes(codecs.BOM_UTF8 + b"algebra g { basis x ; }\n# caf\xe9\n")
    assert main(["check", str(path)]) == 2
    assert "cannot decode byte 0xe9 at byte offset 32 " in capsys.readouterr().err


def _check_outcome(path, report, capsys):
    rc = main(["check", path, "--json", str(report)])
    captured = capsys.readouterr()
    with open(report) as fh:
        rep = json.load(fh)
    for c in rep["certificates"]:
        c["elapsed_ms"] = 0
    return rc, rep, re.sub(r"\(\d+\.\d ms\)", "", captured.out), captured.err


def test_check_byte_order_mark_is_skipped(tmp_path, capsys):
    bom = os.path.join(FIXTURES, "bom.lie")
    with open(bom, "rb") as fh:
        raw = fh.read()
    assert raw.startswith(codecs.BOM_UTF8)
    plain = tmp_path / "plain.lie"
    plain.write_bytes(raw[len(codecs.BOM_UTF8):])
    rc, rep, out, err = _check_outcome(bom, tmp_path / "bom.json", capsys)
    rc0, rep0, out0, err0 = _check_outcome(str(plain), tmp_path / "plain.json", capsys)
    assert rc == rc0 == 0 and out == out0 and err == err0 == ""
    assert rep["certificates"] == rep0["certificates"] and len(rep["certificates"]) == 1
    # the digest covers the raw bytes, mark included
    assert rep["input_hash"] == hashlib.sha256(raw).hexdigest() != rep0["input_hash"]


def test_check_spans_count_from_after_a_byte_order_mark(tmp_path, capsys):
    text = b"algebra g { basis x ; ]\n"
    errs = []
    for name, data in (("bom.lie", codecs.BOM_UTF8 + text), ("plain.lie", text)):
        path = tmp_path / name
        path.write_bytes(data)
        assert main(["check", str(path)]) == 2
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1] == "error: expected '}', found ']' (line 1, column 23)\n"


def test_check_missing_file(capsys):
    rc = main(["check", "no-such-file.lie"])
    assert rc == 2


def test_check_empty_queue_exits_zero(tmp_path, capsys):
    rc = main(["check", write(tmp_path, "algebra g { basis x y ; }")])
    assert rc == 0
    assert capsys.readouterr().out == ""


def test_json_stdout_is_pure_json(tmp_path, capsys):
    rc = main(["check", write(tmp_path, GOOD), "--json", "-"])
    out = capsys.readouterr().out
    assert rc == 0
    json.loads(out)


def test_acceptance_json_stdout_is_pure_json(capsys):
    rc = main(["acceptance", "--json", "-"])
    out = capsys.readouterr().out
    assert rc == 0
    assert len(json.loads(out)["certificates"]) > 0


def test_tower_json_stdout_is_pure_json(capsys):
    rc = main(["tower", "--base", "gl:2", "--m", "2", "--json", "-"])
    out = capsys.readouterr().out
    assert rc == 0
    (cert,) = json.loads(out)["certificates"]
    assert cert["pass"] is True


def test_json_report_schema_and_hash_stability(tmp_path, capsys):
    src = write(tmp_path, GOOD)
    out1 = str(tmp_path / "r1.json")
    out2 = str(tmp_path / "r2.json")
    assert main(["check", src, "--json", out1]) == 0
    capsys.readouterr()
    assert main(["check", src, "--json", out2]) == 0
    capsys.readouterr()
    r1 = json.loads(open(out1).read())
    r2 = json.loads(open(out2).read())
    assert r1["schema"] == 1
    assert r1["tool"].startswith("lieforge ")
    assert r1["input_hash"] == r2["input_hash"]
    for c in r1["certificates"]:
        assert set(c) >= {"check", "target", "pass", "witnesses", "total_failures", "elapsed_ms"}
        assert c["pass"] is True and c["witnesses"] == []

    def strip(rep):
        for c in rep["certificates"]:
            c.pop("elapsed_ms")
        return rep

    assert strip(r1) == strip(r2)


def test_json_witness_matches_recomputation(tmp_path, capsys):
    from lieforge.dsl import parse
    from lieforge.lie_core import nijenhuis
    from lieforge.scalar_linear import scalar_from_str

    text = """
algebra e3x { basis h f13 f23 e1 e2 e3 ;
  [h, f13] = - f23 ; [h, f23] = f13 ; [h, e1] = - e2 ; [h, e2] = e1 ;
  [f13, f23] = - h ; [f13, e1] = - e3 ; [f13, e3] = e1 ;
  [f23, e2] = - e3 ; [f23, e3] = e2 ;
}
endo Jbad on e3x { h -> f23 ; f23 -> - h ; f13 -> e3 ; e3 -> - f13 ; e1 -> e2 ; e2 -> - e1 ; }
check integrable(Jbad)
"""
    src = write(tmp_path, text)
    out = str(tmp_path / "r.json")
    rc = main(["check", src, "--json", out])
    capsys.readouterr()
    assert rc == 1
    rep = json.loads(open(out).read())
    cert = rep["certificates"][0]
    assert cert["pass"] is False
    w = cert["witnesses"][0]
    ws = parse(text)
    alg = ws.definitions["e3x"][1]
    _, J = ws.definitions["Jbad"][1]
    i, j = w["indices"]
    recomputed = nijenhuis(alg, J, alg.basis_vector(i), alg.basis_vector(j))
    assert [scalar_from_str(d) for d in w["defect"]] == dense(recomputed, alg.dim)


def test_catalog_dsl_emission_parses(tmp_path, capsys):
    rc = main(["catalog", "euclidean", "3", "--emit", "dsl"])
    out = capsys.readouterr().out
    assert rc == 0
    from lieforge.dsl import parse

    ws = parse(out)
    assert "euclidean_3" in ws.definitions


def test_catalog_json_emission(capsys):
    rc = main(["catalog", "so", "3", "--emit", "json"])
    out = capsys.readouterr().out
    assert rc == 0
    blob = json.loads(out)
    assert blob["dim"] == 3
    assert blob["labels"] == ["h", "f13", "f23"]


def test_catalog_unknown_name(capsys):
    rc = main(["catalog", "bogus"])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: unknown catalog entry 'bogus' (have: abelian, affine, euclidean, "
        "galilean, gl, lorentz, poincare, sl2c, so, so3_c3)\n"
    )


@pytest.mark.parametrize(
    "argv, name",
    [(["catalog", "so", "x"], "so"), (["tower", "--base", "gl:x", "--m", "1"], "gl")],
    ids=["catalog", "tower"],
)
def test_catalog_parameter_that_is_not_an_integer(argv, name, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: catalog entry '%s' takes integer parameters\n" % name


@pytest.mark.parametrize(
    "argv",
    [["catalog", "abelian", "0"], ["catalog", "abelian", "--", "-2"],
     ["tower", "--base", "abelian:0", "--m", "1"]],
    ids=["catalog_0", "catalog_minus_2", "tower_0"],
)
def test_abelian_of_no_dimensions_exits_two(argv, capsys):
    """An empty basis would emit text that `lieforge check` refuses."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "abelian(n) needs n >= 1" in captured.err


def test_catalog_entry_above_max_dim_exits_two_before_building(monkeypatch, capsys):
    """so(100) has 4 950 dimensions."""

    def no_build(*args, **kwargs):
        raise AssertionError("an algebra was built")

    monkeypatch.setattr(catalog, "from_matrix_basis", no_build)
    assert main(["catalog", "so", "100"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: so(100) has more than 2048 dimensions\n"


def test_basis_above_max_dim_exits_two(monkeypatch, tmp_path, capsys):
    """The bound also holds for the bases of algebra and assoc statements,
    at their basis keyword."""
    monkeypatch.setattr(dsl, "MAX_DIM", 3)
    for head, line in (("algebra g", 1), ("assoc A", 2)):
        text = "\n" * (line - 1) + "%s { basis a b c d ; }\n" % head
        assert main(["check", write(tmp_path, text)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        column = len(head) + 4
        assert captured.err == (
            "error: basis has more than 3 labels (line %d, column %d)\n" % (line, column)
        )
    assert main(["check", write(tmp_path, "assoc A { basis a b c ; }\n")]) == 0


def test_tower_command(capsys):
    rc = main(["tower", "--base", "gl:2", "--m", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "generated rank 4" in out
    assert "PASS" in out


def test_tower_abelian_base(capsys):
    rc = main(["tower", "--base", "abelian:2", "--m", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "generated rank 8" in out


def test_tower_no_connection(capsys):
    rc = main(["tower", "--base", "euclidean:3", "--m", "1"])
    assert rc == 2


def test_version(capsys):
    with pytest.raises(SystemExit):
        main(["--version"])
    assert "lieforge" in capsys.readouterr().out


def test_catalog_emission_matches_golden(capsys):
    """`lieforge catalog` output, byte for byte, for every builder.

    Each entry of the golden file starts with a `# lieforge catalog NAME
    [PARAM]` line followed by that command's output; entries are separated
    by one blank line.
    """
    with open(GOLDEN_CATALOG, encoding="utf-8") as fh:
        golden = fh.read()
    commands = [
        line.split()[3:] for line in golden.splitlines() if line.startswith("# lieforge catalog ")
    ]
    assert {c[0] for c in commands} == set(catalog._BUILDERS)
    chunks = []
    for args in commands:
        assert main(["catalog", *args]) == 0
        chunks.append("# lieforge catalog %s\n%s" % (" ".join(args), capsys.readouterr().out))
    assert "\n".join(chunks) == golden


def test_every_check_fixture_calls_every_check_and_construct():
    with open(os.path.join(FIXTURES, "every_check.lie"), encoding="utf-8") as fh:
        ws = dsl.parse(fh.read())
    assert {fn for fn, _, _, _ in ws.checks} == set(dsl._CHECKS)
    assert {fn for _, fn, _, _ in ws.construct_stmts} == set(dsl._CONSTRUCTS)


def _assert_report_matches_golden(capsys, fixture, golden, status):
    """`lieforge check --json -` on a fixture matches the committed report,
    with each ``elapsed_ms`` set to 0, and exits with ``status``."""
    rc = main(["check", "--json", "-", os.path.join(FIXTURES, fixture)])
    captured = capsys.readouterr()
    assert rc == status and captured.err == ""
    report = json.loads(
        captured.out,
        object_hook=lambda d: {k: 0 if k == "elapsed_ms" else v for k, v in d.items()},
    )
    with open(golden, encoding="utf-8") as fh:
        assert json.dumps(report, indent=2) + "\n" == fh.read()


def test_bracket_layout_report_matches_its_canonical_re_emission(tmp_path, capsys):
    """Every fixture and corpus file that parses gives the report of its
    canonical re-emission, apart from ``elapsed_ms`` and the input's digest,
    and the re-emission parses back to itself.  bracket_layout.lie holds its
    statements in the layouts the statement patterns leave to the token
    reader; its re-emission is read by the patterns."""
    canonical = tmp_path / "canonical.lie"
    outcomes = {}
    for name, path in _check_report_inputs().items():
        try:
            with open(path, encoding="utf-8-sig") as fh:
                text = dsl.workspace_to_dsl(dsl.parse(fh.read()))
        except (UnicodeDecodeError, dsl.DslError):
            continue  # the file's error is pinned by the check-report golden
        assert dsl.workspace_to_dsl(dsl.parse(text)) == text, name
        canonical.write_text(text, encoding="utf-8")
        runs = []
        for source in (path, str(canonical)):
            rc = main(["check", "--json", "-", source])
            report = json.loads(
                capsys.readouterr().out,
                object_hook=lambda d: {k: 0 if k == "elapsed_ms" else v for k, v in d.items()},
            )
            del report["input_hash"]
            runs.append((rc, report))
        assert runs[0] == runs[1], name
        outcomes[name] = runs[0]
    assert len(outcomes) == 13
    rc, report = outcomes["tests/fixtures/bracket_layout.lie"]
    assert rc == 2 and len(report["certificates"]) == 5


def test_every_check_report_matches_golden(capsys):
    """A file that calls every check and every construct.  One check of the
    file fails its precondition, so the status is 2."""
    _assert_report_matches_golden(capsys, "every_check.lie", GOLDEN_EVERY_CHECK, 2)


def test_eigensplit_fail_report_matches_golden(capsys):
    """Failing eigenspace, abelian-complex and product-structure sweeps on
    e(4), each past the witness cap: the status is 1."""
    _assert_report_matches_golden(capsys, "eigensplit_fail.lie", GOLDEN_EIGENSPLIT_FAIL, 1)


def _normalized_check(path):
    """What `lieforge check` prints for ``path``, with its timings taken out.

    Returns the exit status, the text run's stdout with each ``(x.x ms)``
    masked, its stderr, and the SHA-256 of the ``--json -`` report with each
    ``elapsed_ms`` set to 0 (e15's report alone is 35 KB).  The ``--json -``
    run must end with the same status and stderr as the text run.
    """
    runs = []
    for argv in (["check", path], ["check", "--json", "-", path]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = main(argv)
        runs.append((status, out.getvalue(), err.getvalue()))
    (status, text, err), (json_status, report, json_err) = runs
    assert (json_status, json_err) == (status, err), path
    if report:
        report = json.dumps(
            json.loads(
                report,
                object_hook=lambda d: {k: 0 if k == "elapsed_ms" else v for k, v in d.items()},
            ),
            indent=2,
        )
    return {
        "status": status,
        "stdout": re.sub(r"\(\d+\.\d ms\)", "(x.x ms)", text),
        "stderr": err,
        "report_sha256": hashlib.sha256(report.encode("utf-8")).hexdigest(),
    }


def _check_report_inputs():
    """Every fixture and corpus file, keyed by its path from the repository root."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    return {
        os.path.relpath(os.path.join(folder, f), root).replace(os.sep, "/"): os.path.join(folder, f)
        for folder in (FIXTURES, CORPUS)
        for f in sorted(os.listdir(folder))
    }


def test_check_reports_match_golden():
    """`lieforge check` on every fixture and corpus file gives the committed
    status, text, stderr and report digest.  A refactor must not change
    them; a deliberate change regenerates the golden in the same commit."""
    with open(GOLDEN_CHECK_REPORTS, encoding="utf-8") as fh:
        golden = json.load(fh)
    inputs = _check_report_inputs()
    assert sorted(inputs) == sorted(golden)
    for name, path in inputs.items():
        assert _normalized_check(path) == golden[name], name
