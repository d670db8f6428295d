import io
import itertools
import os
import random
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lieforge import catalog, dsl
from lieforge.cli import main
from lieforge.lie_core import MAX_WITNESSES, AlmostComplex, Certificate, LinearMap
from lieforge.scalar_linear import Q
from lieforge.dsl import (
    ArityError,
    ConstructionError,
    DslError,
    DslSyntaxError,
    DuplicateNameError,
    ShapeError,
    SourceSpan,
    UnknownNameError,
    Workspace,
    _tokenize,
    entry_to_dsl,
    parse,
    run,
    workspace_to_dsl,
)

from oracles import Token, naive_integrable_sweep, naive_tokenize


AFF1 = """
algebra aff1 { basis x y ; [x, y] = y ; }
conn ls on aff1 { x => matrix [[0, 0], [0, 1]] ; y => matrix [[0, 0], [0, 0]] ; }
conn adc on aff1 { x => matrix [[0, 0], [0, 1]] ; y => matrix [[0, 0], [-1, 0]] ; }
"""


def test_parse_two_dim_abelian():
    ws = parse("algebra ab2 { basis x y ; }")
    alg = ws.definitions["ab2"][1]
    assert alg.dim == 2 and not alg.table


def test_parse_bracket_combinations():
    ws = parse(
        "algebra g { basis a b c ; [a, b] = 1/2 c ; [a, c] = - 2 b + c ; }"
    )
    alg = ws.definitions["g"][1]
    assert alg.bracket_basis(0, 1) == {2: Fraction(1, 2)}
    assert alg.bracket_basis(0, 2) == {1: Q(-2), 2: Q(1)}


def test_parse_reverse_order_bracket_negates():
    ws = parse("algebra g { basis a b ; [b, a] = a ; }")
    alg = ws.definitions["g"][1]
    assert alg.bracket_basis(0, 1) == {0: Q(-1)}


def test_parse_rejects_both_orders():
    with pytest.raises(ShapeError):
        parse("algebra g { basis a b ; [a, b] = a ; [b, a] = - a ; }")


@pytest.mark.parametrize(
    "text, message",
    [
        ("algebra g { basis x y ; [x, y] = 0 ; [x, y] = y ; }",
         "bracket [x, y] declared twice (line 1, column 38)"),
        ("assoc A { basis e ; e * e = 0 ; e * e = e ; }",
         "product declared twice (line 1, column 33)"),
        ("assoc A { basis e ; e * e = e ; e * e = 0 ; }",
         "product declared twice (line 1, column 33)"),
    ],
    ids=["bracket_zero_first", "product_zero_first", "product_zero_second"],
)
def test_a_pair_declared_twice_is_refused_whatever_its_first_value(text, message):
    """A zero first value stores no entry, yet declares the pair; the
    second declaration is refused at its start."""
    with pytest.raises(ShapeError) as exc:
        parse(text)
    assert str(exc.value) == message


def test_parse_rejects_non_jacobi_table():
    with pytest.raises(ShapeError):
        parse("algebra g { basis a b c ; [a, b] = c ; [a, c] = b ; [b, c] = b ; }")


def test_unknown_label_in_bracket():
    with pytest.raises(UnknownNameError) as exc:
        parse("algebra g { basis x y ; [x, y] = 1 z ; }")
    assert exc.value.span.line == 1


def test_duplicate_name_rejected():
    with pytest.raises(DuplicateNameError):
        parse("algebra g { basis x ; }\nalgebra g { basis y ; }")


def test_forward_reference_rejected():
    with pytest.raises(UnknownNameError):
        parse("endo J on g { x -> y ; y -> - x ; }\nalgebra g { basis x y ; }")


def test_endo_requires_full_basis_map():
    with pytest.raises(ShapeError):
        parse("algebra g { basis x y ; }\nendo J on g { x -> y ; }")


def test_endo_non_square_impossible_by_construction():
    ws = parse("algebra g { basis x y ; }\nendo J on g { x -> y ; y -> - x ; }")
    _, (alg_name, lm) = ws.definitions["J"]
    assert lm.rows == lm.cols == 2


def test_conn_shape_mismatch():
    with pytest.raises(ShapeError):
        parse(
            "algebra g { basis x y ; }\n"
            "conn c on g { x => matrix [[0, 0], [0, 0]] ; y => matrix [[0]] ; }"
        )


def test_form_wrong_symmetry_rejected():
    with pytest.raises(ShapeError):
        parse("algebra g { basis x y ; }\nform w on g skew matrix [[0, 1], [1, 0]]")


def test_syntax_error_carries_span():
    with pytest.raises(DslSyntaxError) as exc:
        parse("algebra g { basis x y ")
    assert exc.value.span.line == 1


_AXY = "algebra a { basis x y ; [x, y] = y ; }\n"


@pytest.mark.parametrize(
    "text, cls, message, line, column",
    [
        ("algebra a { basis ; }", DslSyntaxError, "empty basis", 1, 13),
        ("algebra a { basis x x ; }", ShapeError, "duplicate basis label", 1, 13),
        (_AXY + "conn c on a { x => [[1, 0], [0]] ; }", ShapeError, "ragged matrix rows", 2, 32),
        ("assoc A { basis u ; u * w = u ; }", UnknownNameError, "unknown basis label 'w'", 1, 25),
        (_AXY + "conn c on a { x => [[1]] ; x => [[0]] ; }",
         ShapeError, "map at 'x' declared twice", 2, 28),
        (_AXY + "conn c on a { x => [[1, 0]] ; }",
         ShapeError, "connection maps must be square", 2, 15),
        (_AXY + "conn c on a { x => [[1]] ; }", ShapeError, "missing maps for y", 2, 28),
        (_AXY + "form B on a sym [[1]]",
         ShapeError, "form size does not match the algebra", 2, 6),
        (_AXY + "decomp D on a { part1 : x ; part0 : y ; }",
         DslSyntaxError, "expected 'part0'", 2, 17),
        (_AXY + "check jacobi(;)", DslSyntaxError, "bad argument ';'", 2, 14),
        (_AXY + "construct T = frob(a)", UnknownNameError, "unknown construction 'frob'", 2, 15),
        (_AXY + "construct T = central_ext(a, a)",
         ArityError, "'central_ext' takes 1 argument(s)", 2, 15),
        (_AXY + "endo K on a { x -> y ; y -> - x ; }\nconstruct P = jplus(a, K, K, 1)",
         ShapeError, "expected + or -", 3, 30),
        (_AXY + "conn c on a { x => [[1]] ; y => [[0]] ; }\nconstruct T = tower(a, c, 0)",
         ShapeError, "tower level must be a positive integer", 3, 27),
        (_AXY + "construct T = central_ext(1)", ShapeError, "expected a name", 2, 27),
    ],
    ids=[
        "empty_basis", "duplicate_label", "ragged_rows", "assoc_unknown_label",
        "conn_map_twice", "conn_not_square", "conn_missing_map", "form_size",
        "decomp_part0", "bad_argument", "unknown_construction", "construct_arity",
        "sign_argument", "tower_level", "name_argument",
    ],
)
def test_each_parse_error_names_its_class_message_and_span(text, cls, message, line, column):
    """Every input ends in certificates or a spanned DslError: one short
    input for each of these parser raises."""
    with pytest.raises(DslError) as exc:
        parse(text)
    assert type(exc.value) is cls
    assert (exc.value.span.line, exc.value.span.column) == (line, column)
    assert str(exc.value) == "%s (line %d, column %d)" % (message, line, column)


def test_checks_run_in_order_and_pass():
    text = AFF1 + "check jacobi(aff1)\ncheck torsion_free(ls)\ncheck flat(adc)\n"
    ws = parse(text)
    certs = run(ws)
    assert [c.check_name for c in certs] == ["jacobi", "torsion_free", "representation"]
    assert all(c.passed for c in certs)


def test_equivalence_check_both_sides_false():
    ws = parse(AFF1 + "check torsion_equivalence(adc)\n")
    certs = run(ws)
    assert certs[0].passed
    assert certs[0].notes == {"k_integrable": False, "torsion_free": False}


def test_catalog_emission_reparses_identically():
    entry = catalog.euclidean(3)
    text = entry_to_dsl(entry)
    ws = parse(text)
    assert ws.definitions[entry.name][1].same_constants(entry.algebra)
    _, (alg_name, j) = ws.definitions["euclidean_3_j"]
    assert j == entry.structures["j"]


def test_roundtrip_byte_stability_catalog():
    for entry in (catalog.so(3), catalog.euclidean(4), catalog.sl2c_real()):
        text = entry_to_dsl(entry)
        assert workspace_to_dsl(parse(text)) == text


def test_roundtrip_idempotent_on_checks():
    text = AFF1 + "check integrable(J2)\n"
    text = AFF1 + "endo J on aff1 { x -> y ; y -> - x ; }\ncheck integrable(J)\n"
    once = workspace_to_dsl(parse(text))
    twice = workspace_to_dsl(parse(once))
    assert once == twice


def test_integrable_check_with_split_labels():
    entry = catalog.euclidean(3)
    text = entry_to_dsl(entry) + "\ncheck integrable(euclidean_3_j, h, f13, e1)\n"
    certs = run(parse(text))
    assert certs[0].passed and certs[0].notes.get("split")


def test_integrable_checks_on_a_random_e7_pairing_match_the_oracle():
    entry = catalog.euclidean(7)
    alg = entry.algebra
    n = alg.dim
    perm = random.Random(20030700).sample(range(n), n)
    pairs = [(perm[k], perm[k + 1]) for k in range(0, n, 2)]
    J = AlmostComplex.from_pairs(n, pairs)
    split = ", ".join(alg.labels[a] for a, _ in pairs)
    ws = Workspace()
    ws.define(entry.name, "algebra", alg, None)
    ws.define("rand", "endo", (entry.name, J), None)
    text = workspace_to_dsl(ws) + "\ncheck integrable(rand)\ncheck integrable(rand, %s)\n" % split
    full, half = run(parse(text))
    units = [alg.basis_vector(i) for i in range(n)]
    for cert, vectors in ((full, units), (half, [units[a] for a, _ in pairs])):
        fails = naive_integrable_sweep(alg, J.matrix.data, vectors)
        assert fails and cert.total_failures == len(fails)
        got = [(w.indices, list(w.defect)) for w in cert.witnesses]
        assert got == fails[:MAX_WITNESSES]
    assert half.notes == {"split": True}


def test_unknown_check_rejected():
    with pytest.raises(UnknownNameError):
        parse(AFF1 + "check bogus(aff1)\n")


def test_check_arity_enforced():
    with pytest.raises(ArityError):
        parse(AFF1 + "check jacobi(aff1, ls)\n")
    endo = "endo J on aff1 { x -> y ; y -> - x ; }\n"
    for call in ("integrable()", "reconstruct(aff1, J)", "torsion_equivalence()",
                 "torsion_equivalence(aff1, ls, ls)"):
        with pytest.raises(ArityError):
            parse(AFF1 + endo + "check %s\n" % call)


def test_check_wrong_kind_rejected():
    with pytest.raises(ShapeError):
        parse(AFF1 + "check jacobi(ls)\n")


def _span_of(text, needle, line):
    """The span of the last ``needle`` on 1-based ``line`` of ``text``."""
    row = text.splitlines()[line - 1]
    return SourceSpan(line, row.rindex(needle) + 1, len(needle))


def test_integrable_label_of_another_algebra_is_rejected_at_parse():
    # h names an algebra with a label h, but J is on aff1
    text = (
        "algebra aff1 { basis x y ; [x, y] = y ; }\n"
        "algebra h { basis h k ; }\n"
        "endo J on aff1 { x -> y ; y -> - x ; }\n"
        "check integrable(J, h)\n"
    )
    with pytest.raises(ShapeError) as exc:
        parse(text)
    assert exc.value.span == _span_of(text, "h", 4)


def test_reconstruct_label_of_the_structure_algebra_is_rejected_at_parse():
    # x_a is a label of K's algebra T, not of aff1
    text = (
        AFF1
        + "construct T = tangent(aff1, ls)\n"
        + "construct K = canonical_K(T)\n"
        + "check reconstruct(aff1, K, x_a)\n"
    )
    with pytest.raises(ShapeError) as exc:
        parse(text)
    assert exc.value.span == _span_of(text, "x_a", text.count("\n"))


def test_torsion_equivalence_rejects_an_algebra_the_connection_is_not_on():
    text = AFF1 + "algebra q { basis u ; }\ncheck torsion_equivalence(q, ls)\n"
    with pytest.raises(ShapeError) as exc:
        parse(text)
    assert exc.value.span == _span_of(text, "q", text.count("\n"))
    certs = run(parse(text.replace("(q, ls)", "(aff1, ls)")))
    assert certs[0].passed and certs[0].target == "ls"


@pytest.mark.parametrize(
    "check, target",
    [
        # bent is not flat, so the equivalence's precondition fails
        ("torsion_equivalence(aff1, bent)", "bent"),
        # J3 is 3 by 3 and ls acts on a plane
        ("parallel(ls, J3)", "J3"),
        ("parallel(ls, B)", "B"),
    ],
)
def test_certificate_names_the_target_of_the_signature(check, target):
    """A precondition certificate names the argument the check itself would
    name, not the first argument of the statement."""
    text = (
        AFF1
        + "conn bent on aff1 { x => matrix [[0, 0], [0, 0]] ; y => matrix [[0, 1], [0, 0]] ; }\n"
        + "form B on aff1 sym matrix [[1, 0], [0, 1]]\n"
        + "algebra h3 { basis u v w ; }\n"
        + "endo J3 on h3 { u -> v ; v -> - u ; w -> w ; }\n"
        + "check %s\n" % check
    )
    (cert,) = run(parse(text))
    assert cert.target == target
    assert ("precondition" in cert.notes) == (target in ("bent", "J3"))


def test_empty_queue_empty_report():
    certs = run(parse("algebra g { basis x ; }"))
    assert certs == []


def test_precondition_becomes_failing_certificate():
    # identity is not an almost complex structure: check fails, no crash
    text = "algebra g { basis x y ; }\nendo E on g { x -> x ; y -> y ; }\ncheck integrable(E)\n"
    certs = run(parse(text))
    assert len(certs) == 1
    assert not certs[0].passed
    assert "precondition" in certs[0].notes
    # the pass/witness invariant holds even for precondition failures
    assert certs[0].witnesses and certs[0].witnesses[0].indices == ("precondition",)


def test_construct_semidirect_and_tangent():
    text = (
        AFF1
        + "construct T = tangent(aff1, ls)\n"
        + "construct K = canonical_K(T)\ncheck integrable(K)\n"
    )
    ws = parse(text)
    assert ws.definitions["T"][1].dim == 4
    certs = run(ws)
    assert certs[0].passed


def test_construct_cotangent_binds_form():
    text = AFF1 + "construct CT = cotangent(aff1, ls)\ncheck symplectic(CT_omega)\n"
    ws = parse(text)
    assert "CT_omega" in ws.definitions
    certs = run(ws)
    assert certs[0].passed


def test_construct_aff_binds_structure_and_connection():
    text = (
        "assoc C { basis one i ; one * one = one ; one * i = i ; "
        "i * one = i ; i * i = - one ; }\n"
        "construct ac = aff(C)\n"
        "check integrable(ac_K)\ncheck flat(ac_conn)\ncheck torsion_free(ac_conn)\n"
    )
    certs = run(parse(text))
    assert all(c.passed for c in certs)


def test_construct_tower_binds_members():
    text = (
        "algebra ab2 { basis x y ; }\n"
        "conn z on ab2 { x => matrix [[0, 0], [0, 0]] ; y => matrix [[0, 0], [0, 0]] ; }\n"
        "construct tw = tower(ab2, z, 2)\n"
        "check integrable(tw_J1)\ncheck integrable(tw_J2)\n"
    )
    ws = parse(text)
    assert ws.definitions["tw"][1].dim == 8
    assert all(c.passed for c in run(ws))


def test_construct_levi_civita_and_pseudo_kahler():
    text = (
        "algebra e2 { basis r u v ; [r, u] = - v ; [r, v] = u ; }\n"
        "form B on e2 sym matrix [[1, 0, 0], [0, 1, 0], [0, 0, 1]]\n"
        "construct lc = levi_civita(e2, B)\n"
        "check flat(lc)\ncheck torsion_free(lc)\ncheck pseudo_kahler(e2, B)\n"
    )
    certs = run(parse(text))
    assert all(c.passed for c in certs)


def test_construct_jplus_and_nabla1():
    text = (
        AFF1
        + "construct T = tangent(aff1, ls)\n"
        + "construct D = nabla1(T, ls)\n"
        + "endo J on aff1 { x -> y ; y -> - x ; }\n"
        + "construct JP = jplus(T, J, J, -)\n"
        + "check flat(D)\n"
        + "check parallel(D, JP)\n"
    )
    ws = parse(text)
    certs = run(ws)
    assert certs[0].passed


def test_construct_rejects_bad_preconditions_at_parse():
    text = (
        "algebra so3 { basis a b c ; [a, b] = c ; [b, c] = a ; [c, a] = b ; }\n"
        "conn idc on so3 { a => matrix [[1,0,0],[0,1,0],[0,0,1]] ; "
        "b => matrix [[1,0,0],[0,1,0],[0,0,1]] ; c => matrix [[1,0,0],[0,1,0],[0,0,1]] ; }\n"
        "construct S = semidirect(so3, idc)\n"
    )
    with pytest.raises(ConstructionError):
        parse(text)


@pytest.mark.parametrize(
    "call, message",
    [
        ("tangent(aff1, c1)", "connection module does not match the algebra"),
        ("nabla1(aff1, ls)", "algebra is not the double of the connection base"),
        ("nabla1(aff1, c1)", "connection module does not match the algebra"),
        ("omega_psi(aff1, ls, J)", "algebra is not the double of the connection base"),
        ("jplus(aff1, J, J, +)", "block sizes do not sum to the algebra dimension"),
        # Tb is twice aff1's dimension, but the tangent algebra of the abelian b
        ("nabla1(Tb, ls)", "algebra is not the double of the connection base"),
        ("omega_psi(Tb, ls, J)", "algebra is not the double of the connection base"),
    ],
    ids=["tangent", "nabla1", "nabla1_module", "omega_psi", "jplus",
         "nabla1_foreign_double", "omega_psi_foreign_double"],
)
def test_construct_of_misfitting_sizes_is_a_shape_error_at_the_function(call, message):
    text = (
        AFF1
        + "conn c1 on aff1 { x => [[0]] ; y => [[0]] ; }\n"
        + "endo J on aff1 { x -> y ; y -> - x ; }\n"
        + "algebra b { basis p q ; }\n"
        + "conn z on b { p => [[0, 0], [0, 0]] ; q => [[0, 0], [0, 0]] ; }\n"
        + "construct Tb = tangent(b, z)\n"
        + "construct N = %s\n" % call
    )
    with pytest.raises(ShapeError) as exc:
        parse(text)
    span = _span_of(text, call.split("(")[0], text.count("\n"))
    assert exc.value.span == span
    assert str(exc.value) == "%s (%s)" % (message, span)


def test_nabla1_and_omega_psi_accept_a_tangent_algebra_declared_as_text():
    """The double is recognized by its structure constants, so a copy of
    aff1's tangent algebra written out as an algebra statement fits."""
    text = (
        AFF1
        + "endo J on aff1 { x -> y ; y -> - x ; }\n"
        + "construct T = tangent(aff1, ls)\n"
        + "algebra T2 { basis u v s t ; [u, v] = v ; [u, t] = t ; }\n"
        + "construct N = nabla1(T, ls)\n"
        + "construct N2 = nabla1(T2, ls)\n"
        + "construct O2 = omega_psi(T2, ls, J)\n"
        + "check flat(N2)\ncheck torsion_free(N2)\n"
    )
    ws = parse(text)
    defs = {name: payload for name, (_, payload) in ws.definitions.items()}
    assert defs["T2"].same_constants(defs["T"])
    assert defs["N2"][1].maps == defs["N"][1].maps
    assert defs["O2"][0] == "T2" and defs["O2"][1].dim == 4
    assert all(c.passed for c in run(ws))


def test_map_and_holomorphic_check():
    e3 = catalog.euclidean(3)
    gal = catalog.galilean()
    text = entry_to_dsl(e3) + "\n" + entry_to_dsl(gal)
    text += (
        "\nmap inc from euclidean_3 to galilean {\n"
        "  h -> h ; f13 -> f13 ; f23 -> f23 ;\n"
        "  e1 -> e1' ; e2 -> e2' ; e3 -> e3' ;\n}\n"
        "check holomorphic(inc, euclidean_3_j, galilean_j)\n"
    )
    certs = run(parse(text))
    assert certs[0].passed


def test_decomp_and_action_compatibility_check():
    # small instance: central extension of so(2)-style plane acting on R^2
    text = (
        "algebra g { basis r z ; }\n"
        "conn rho on g { r => matrix [[0, -1], [1, 0]] ; z => matrix [[0, 0], [0, 0]] ; }\n"
        "endo Jg on g { r -> z ; z -> - r ; }\n"
        "algebra m2 { basis u v ; }\n"
        "endo I on m2 { u -> v ; v -> - u ; }\n"
        "decomp D on g { part0 : r , z ; part1 : ; }\n"
        "check action_compatibility(rho, Jg, I, D)\n"
    )
    certs = run(parse(text))
    assert certs[0].passed
    assert certs[0].notes["g1_zero"]


def test_decomp_parts_are_sparse_integer_first():
    text = "algebra g { basis r z ; }\ndecomp D on g { part0 : 2 r - 4/2 z , 1/2 z ; part1 : ; }\n"
    ws = parse(text)
    dec = ws.definitions["D"][1][1]
    assert dec.part0 == [{0: 2, 1: -2}, {1: Fraction(1, 2)}] and dec.part1 == []
    assert type(dec.part0[0][1]) is int
    assert workspace_to_dsl(parse(workspace_to_dsl(ws))) == workspace_to_dsl(ws)


@pytest.mark.parametrize(
    "text, literal",
    [
        ("algebra g { basis x y ; [x, y] = 1/0 y ; }", "1/0"),
        ("algebra g { basis x ; }\nform w on g sym matrix [[3/00]]", "3/00"),
        ("algebra g { basis x ; }\nconstruct h = central_extension(g, -2/0)", "2/0"),
    ],
)
def test_zero_denominator_is_a_dsl_error_with_span(text, literal):
    with pytest.raises(DslSyntaxError) as exc:
        parse(text)
    assert "zero denominator" in str(exc.value)
    line = next(k for k, row in enumerate(text.splitlines(), 1) if literal in row)
    column = text.splitlines()[line - 1].index(literal) + 1
    assert (exc.value.span.line, exc.value.span.column, exc.value.span.length) == (
        line, column, len(literal))


def test_eigensplit_check():
    entry = catalog.euclidean(3)
    text = entry_to_dsl(entry) + "\ncheck eigensplit(euclidean_3_j)\n"
    certs = run(parse(text))
    assert len(certs) == 2 and all(c.passed for c in certs)


def test_reconstruct_check_with_labels():
    text = (
        AFF1
        + "construct T = tangent(aff1, ls)\n"
        + "construct K = canonical_K(T)\n"
        + "check reconstruct(T, K, x, y)\n"
    )
    certs = run(parse(text))
    assert certs[0].passed


def test_roundtrip_keeps_declarations_on_constructed_algebras():
    # an endo on a constructed algebra must be emitted after its construct
    text = (
        AFF1
        + "construct T = tangent(aff1, ls)\n"
        + "endo K2 on T { x -> y ; y -> - x ; x_a -> y_a ; y_a -> - x_a ; }\n"
        + "check integrable(K2)\n"
    )
    ws = parse(text)
    once = workspace_to_dsl(ws)
    again = parse(once)
    assert again.definitions["K2"][1][1] == ws.definitions["K2"][1][1]
    assert workspace_to_dsl(again) == once
    assert [c.passed for c in run(again)] == [c.passed for c in run(ws)]


def test_roundtrip_keeps_user_names_sharing_a_construct_prefix():
    # T_swap is declared by the user, not made by the construct T
    text = (
        AFF1
        + "construct T = tangent(aff1, ls)\n"
        + "endo T_swap on aff1 { x -> y ; y -> - x ; }\n"
        + "check integrable(T_swap)\n"
    )
    ws = parse(text)
    once = workspace_to_dsl(ws)
    assert "endo T_swap on aff1" in once
    again = parse(once)
    assert list(again.definitions) == list(ws.definitions)
    assert workspace_to_dsl(again) == once


# ---------------------------------------------------------------------------
# conn and form text round trips

_entries = st.one_of(
    st.just(Fraction(0)),
    st.integers(-9, 9).map(Fraction),
    st.fractions(min_value=-9, max_value=9, max_denominator=7),
)


def _square(n):
    return st.lists(st.lists(_entries, min_size=n, max_size=n), min_size=n, max_size=n)


def _matrix_text(rows):
    return "matrix [%s]" % ", ".join("[%s]" % ", ".join(map(str, r)) for r in rows)


@given(st.integers(1, 3).flatmap(lambda dim: st.tuples(
    st.just(dim),
    st.integers(1, 3).flatmap(lambda m: st.lists(_square(m), min_size=dim, max_size=dim)),
    _square(dim),
    st.sampled_from(["sym", "skew"]),
)))
@settings(max_examples=60, deadline=None)
def test_conn_and_form_text_round_trips(case):
    """Canonical conn and form text re-emits byte for byte, and the parsed
    operators and Gram matrix hold exactly the written entries."""
    dim, ops, upper, kind = case
    labels = ["b%d" % i for i in range(dim)]
    # a symmetric or skew Gram matrix from the upper triangle
    sign = 1 if kind == "sym" else -1
    gram = [[upper[min(i, j)][max(i, j)] * (sign if i > j else 1) for j in range(dim)]
            for i in range(dim)]
    if kind == "skew":
        for i in range(dim):
            gram[i][i] = Fraction(0)
    lines = ["conn C on A {"]
    lines += ["  %s => %s ;" % (lab, _matrix_text(m)) for lab, m in zip(labels, ops)]
    text = "\n\n".join([
        "algebra A {\n  basis %s ;\n}" % " ".join(labels),
        "\n".join(lines + ["}"]),
        "form F on A %s %s" % (kind, _matrix_text(gram)),
    ]) + "\n"
    ws = parse(text)
    assert workspace_to_dsl(ws) == text
    conn, form = ws.definitions["C"][1][1], ws.definitions["F"][1][1]
    assert [op.matrix.data for op in conn.maps] == ops
    assert form.matrix.data == gram
    assert form.gram == LinearMap(gram)


# Grammar fuzzing: well-formed statements, then random token edits.  Any
# input must end in certificates or in a DslError that carries a span.
_DEFINITIONS = [
    "algebra g { basis x y ; [x, y] = y ; }",
    "algebra h { basis a b c ; [a, b] = 1/2 c - b ; [a, c] = 0 ; }",
    "assoc A { basis e ; e * e = e ; }",
    "endo J on g { x -> y ; y -> - x ; }",
    "endo E on g { x -> x ; y -> - y ; }",
    "conn c on g { x => matrix [[0, 0], [0, 1]] ; y => [[0, 0], [0, 0]] ; }",
    "form s on g sym matrix [[1, 0], [0, 1]]",
    "form w on g skew [[0, 1], [-1, 0]]",
    "map f from g to g { x -> x ; y -> 2 y ; }",
    "decomp d on g { part0 : x ; part1 : y ; }",
]
_USES = [
    "construct T = tangent(g, c)",
    "construct S = cotangent(g, c)",
    "construct Z = central_ext(g)",
    "construct B = aff(A)",
    "construct W = tower(g, c, 1)",
    "construct K = canonical_K(T)",
    "construct N = nabla1(T, c)",
    "construct L = levi_civita(g, s)",
    "construct P = jplus(T, J, J, +)",
    "construct O = omega_psi(T, c, J)",
    "construct D = semidirect(g, c)",
] + ["check %s(%s)" % (fn, args) for fn, args in [
    ("jacobi", "g"), ("integrable", "J"), ("integrable", "J, x"), ("complex_lie", "J"),
    ("abelian_complex", "J"), ("representation", "c"), ("flat", "c"),
    ("torsion_free", "c"), ("closed", "w"), ("symplectic", "w"), ("parallel", "c, J"),
    ("metric", "c, s"), ("product_structure", "E"), ("eigensplit", "J"),
    ("action_compatibility", "c, J, J, d"), ("torsion_equivalence", "g, c"),
    ("reconstruct", "g, J, x"), ("self_dual", "c, J"), ("pseudo_kahler", "g, s"),
    ("holomorphic", "f, J, J"), ("hypercomplex", "c, J"), ("integrable", "K"),
]]
_TOKENS = sorted({t for s in _DEFINITIONS + _USES for t in s.split()} | {
    "0", "3", "0/1", "1/0", "-1", "->", "=>", ":", "*", "=", "+", "#", "\n", "@", "/", "q",
})


def _edit(tokens, edits):
    tokens = list(tokens)
    for op, at, tok in edits:
        at = at % (len(tokens) + 1)
        if op == "insert" or not tokens:
            tokens.insert(at, tok)
        elif at < len(tokens):
            if op == "delete":
                del tokens[at]
            else:
                tokens[at] = tok
    return tokens


def _fuzz_text(dropped, uses, edits):
    statements = [s for s in _DEFINITIONS if s not in dropped] + uses
    return " ".join(_edit(" \n".join(statements).split(" "), edits))


_fuzz_texts = st.builds(
    _fuzz_text,
    st.sets(st.sampled_from(_DEFINITIONS), max_size=2),
    st.lists(st.sampled_from(_USES), max_size=5),
    st.lists(st.tuples(st.sampled_from(["insert", "delete", "replace"]),
                       st.integers(0, 300), st.sampled_from(_TOKENS)), max_size=3),
)


@given(_fuzz_texts)
@settings(max_examples=150, deadline=None)
def test_any_token_sequence_ends_in_certificates_or_a_spanned_error(text):
    try:
        certs = run(parse(text))
    except DslError as exc:
        assert isinstance(exc.span, SourceSpan)
        return
    assert all(isinstance(c, Certificate) for c in certs)


@given(_fuzz_texts)
@settings(max_examples=100, deadline=None)
def test_check_command_on_any_token_sequence_exits_cleanly(text):
    """`lieforge check` on a fuzzed file exits 0 or 1 with certificate lines,
    or 2 with one ``error:`` line or a failed precondition, never a traceback."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.lie")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(["check", path])
    out, err = out.getvalue(), err.getvalue()
    if err:
        assert rc == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
    else:
        lines = out.splitlines()
        assert all(line.startswith(("PASS ", "FAIL ")) for line in lines)
        assert rc == (2 if any("  precondition: " in line for line in lines)
                      else 1 if any(line.startswith("FAIL ") for line in lines) else 0)


# ---------------------------------------------------------------------------
# tokenizer

_ALPHABET = "{}[](),;:*+-=/#'_ \t\r\néλ٣²" + "abcxyz" + "ABXY" + "0123456789"


def _tokens_or_error(tokenize, text):
    try:
        return [(t.kind, t.text, t.span) for t in tokenize(text)]
    except DslSyntaxError as exc:
        return str(exc), exc.span


def _offset(text, span):
    lines = text.split("\n")
    return sum(len(row) + 1 for row in lines[: span.line - 1]) + span.column - 1


def _expected_tokens(text):
    """The reference tokens or error, except where a number the reference
    reads, and emits or reports malformed, holds a character that ``int``
    rejects: the first such character is unexpected."""
    try:
        toks, err = naive_tokenize(text), None
    except DslSyntaxError as exc:
        at = _offset(text, exc.span)
        toks, err = naive_tokenize(text[:at])[:-1], exc
        if str(exc).startswith("malformed rational literal"):
            read = "".join(itertools.takewhile(str.isdigit, text[at:]))
            toks.append(Token("number", read, exc.span))
    for t in toks:
        if t.kind == "number":
            bad = [k for k, ch in enumerate(t.text) if ch != "/" and not ch.isdecimal()]
            if bad:
                span = SourceSpan(t.span.line, t.span.column + bad[0], 1)
                return "unexpected character %r (%s)" % (t.text[bad[0]], span), span
    if err is not None:
        return str(err), err.span
    return [(t.kind, t.text, t.span) for t in toks]


@given(st.text(alphabet=_ALPHABET, max_size=40))
@settings(max_examples=400, deadline=None)
def test_tokenizer_matches_the_character_loop(text):
    assert _tokens_or_error(_tokenize, text) == _expected_tokens(text)


def test_end_token_after_a_trailing_comment_keeps_the_comment_column():
    for tokenize in (_tokenize, naive_tokenize):
        assert tokenize("algebra g # no newline")[-1].span == SourceSpan(1, 11, 0)
        assert tokenize("x\n\t # c")[-1].span == SourceSpan(2, 3, 0)
        assert tokenize("x # c\n ")[-1].span == SourceSpan(2, 2, 0)


def test_superscript_digit_is_an_unexpected_character():
    text = "algebra g { basis x y ; [x, y] = ² x ; }"
    with pytest.raises(DslSyntaxError) as exc:
        parse(text)
    assert str(exc.value) == "unexpected character '²' (line 1, column 34)"
    assert exc.value.span == SourceSpan(1, 34, 1)
    for literal, column in (("2² x", 35), ("1/² x", 36)):
        with pytest.raises(DslSyntaxError) as exc:
            parse(text.replace("² x", literal))
        assert exc.value.span == SourceSpan(1, column, 1)


def test_arabic_indic_digits_are_decimal():
    alg = parse("algebra g { basis x y ; [x, y] = ٣ y - ١/٢ x ; }").definitions["g"][1]
    assert alg.table == {(0, 1): {1: 3, 0: Fraction(-1, 2)}}
    assert type(alg.table[(0, 1)][1]) is int


@pytest.mark.parametrize(
    "numerator, denominator", [("9" * 4301, ""), ("1", "7" * 5000)], ids=["numerator", "denominator"]
)
def test_over_long_literal_is_a_dsl_error_with_span(numerator, denominator):
    literal = numerator + ("/" + denominator if denominator else "")
    text = "algebra g { basis x y ;\n  [x, y] = %s y ; }" % literal
    with pytest.raises(DslSyntaxError) as exc:
        parse(text)
    digits = max(len(numerator), len(denominator))
    assert str(exc.value) == "literal of %d digits is too long (line 2, column 12)" % digits
    assert exc.value.span == SourceSpan(2, 12, len(literal))


@pytest.mark.parametrize(
    "text, message",
    [
        ("algebra g { basis x y ; [x, x] = y ; } @",
         "unexpected character '@' (line 1, column 40)"),
        ("algebra g { basis x y ; [x, q] = y ; }\n# ok\ncheck jacobi(g) 1/ ",
         "malformed rational literal (line 3, column 17)"),
        ("algebra g { basis x y ; [x, y] = y ; [y, x] = y ; } \u00b2",
         "unexpected character '\u00b2' (line 1, column 53)"),
    ],
    ids=["self_bracket", "unknown_label", "duplicate_bracket"],
)
def test_a_lexical_error_anywhere_beats_an_earlier_parse_error(text, message):
    with pytest.raises(DslSyntaxError) as exc:
        parse(text)
    assert str(exc.value) == message


def test_a_lexical_error_is_raised_before_any_construct_runs(monkeypatch):
    calls = []

    def central_ext(name, g):
        calls.append(name)
        return [("", "algebra", g)]

    monkeypatch.setitem(dsl._CONSTRUCTS, "central_ext", ("algebra", central_ext))
    text = "algebra g { basis x y ; [x, y] = y ; }\nconstruct h = central_ext(g)\n"
    with pytest.raises(DslSyntaxError) as exc:
        parse(text + "@")
    assert str(exc.value) == "unexpected character '@' (line 3, column 1)"
    assert calls == []
    parse(text)
    assert calls == ["h"]


@given(st.text(alphabet=_ALPHABET + ">@", max_size=40))
@example("x->y =>z")
@example("x - > y")
@example("=>>")
@example("1/2 x' 2_x")
@example("2' x")
@example("x1/2")
@example("1/2/3")
@example("1/ x")
@settings(max_examples=400, deadline=None)
def test_clean_pattern_matches_the_texts_that_tokenize_with_ascii_names(text):
    """``parse`` skips the lexical scan only for a text that tokenizes
    without error; a name that starts past ASCII also sends it to the scan."""
    try:
        ascii_names = all(t.text[0].isascii() for t in _tokenize(text) if t.kind == "ident")
    except DslSyntaxError:
        ascii_names = False
    assert bool(dsl._CLEAN.fullmatch(text)) == ascii_names


# ---------------------------------------------------------------------------
# statement patterns: a body reads as the token reader alone reads it

_TIGHT = (" ", " ", "", "\t", " \r")  # within a line
_SEPS = _TIGHT + ("\n", "  # c\n")
_COEFFS = ("", "", "", "2", "1/2", "0", "0/1", "\u0663")
# what replaces one token of a faulty body
_FAULTS = ("q", "x", "+", "", "3/0", "0/1", "- 0", "2 3",
           "@", "\u00b2", "\u0663")


@st.composite
def _body_texts(draw):
    """Bracket, image and product bodies, in random order and layouts, with
    signs, rationals and zeros.  Half the bodies keep each statement on
    one line.  One body in three is faulty: it may repeat a left-hand side
    or have an extra one, and one of its tokens is replaced by an unknown
    label, a sign, a malformed literal or a character the tokenizer
    refuses."""

    def body(head, labels):
        faulty = not draw(st.sampled_from(range(3)))
        seps = _TIGHT if draw(st.booleans()) else _SEPS
        statements = []
        for lhs in head(faulty):
            terms = draw(st.integers(0, 3))
            combo = ["0"] if not terms else [t for k in range(terms) for t in (
                draw(st.sampled_from(("+", "-") if k else ("", "-"))),
                draw(st.sampled_from(_COEFFS)),
                draw(st.sampled_from(labels)))]
            statements.append(lhs + combo + [";"])
        if faulty and statements:
            toks = draw(st.sampled_from(statements))
            toks[draw(st.integers(0, len(toks) - 1))] = draw(st.sampled_from(_FAULTS))
        return "".join(draw(st.sampled_from(_SEPS)) + toks[0] + "".join(
            draw(st.sampled_from(seps)) + t for t in toks[1:]) for toks in statements)

    def images(faulty):
        extra = draw(st.sampled_from(((), ("x",), ("q",)))) if faulty else ()
        return [[lab, "->"] for lab in draw(st.permutations("xyz")) + list(extra)]

    def pairs(labels, faulty, ordered):
        every = [(a, b) for a in labels for b in labels if faulty or ordered or a < b]
        return draw(st.lists(st.sampled_from(every), max_size=4, unique=not faulty))

    bodies = draw(st.permutations([
        "endo E on g {%s }" % body(images, "xyz"),
        "map F from g to h {%s }" % body(images, "pr"),
        "assoc A { basis e u ;%s }" % body(lambda faulty: [
            [a, "*", b, "="] for a, b in pairs("eu", faulty, True)], "eu"),
        "algebra k { basis x y z ;%s }" % body(lambda faulty: [
            ["[", a, ",", b, "]", "="] for a, b in pairs("xyz", faulty, False)], "xyz"),
    ]))
    return "\n".join(["algebra g { basis x y z ; [x, y] = z ; }",
                      "algebra h { basis p r ; }"] + bodies + ["check jacobi(k)"])


def _outcome(text):
    """The re-emission and the stored values of a parse, or its error."""
    try:
        ws = parse(text)
    except DslError as exc:
        return type(exc), str(exc), exc.span
    values = [p.table if kind in ("algebra", "assoc") else p[-1].sparse_columns()
              for kind, p in ws.definitions.values()]
    return workspace_to_dsl(ws), repr(values)


@given(_body_texts())
@example("algebra k { basis x y ;\n  [x, y] = y ;\n  [y, x] = x ;\n}")
@example("algebra k { basis x y ;\n  [x, y] = y ;\n\n  [x, x] = y ;\n}")
@example("algebra k { basis x y z ;\n  [x, y] = z ;\n\n  [x, z] = 0 ; [y, q] = x ;\n}")
@example("algebra k { basis x y ;\n  [x, y] = 1/2 y ;\n  [y, x] = 3/0 x ;\n}")
@example("algebra k { basis x y ;\n  [x, y] = y ;\n  [y, x] = %s x ;\n}" % ("9" * 5000))
@example("algebra k { basis x y z ;\n [x, y] = z ; # c\n [x,\n z] = 0 ;\n\t[y, z] = - x ;\n}")
@example("assoc A { basis e u ;\n  e * e = e ;\n  e * e = u ;\n}")
@example("assoc A { basis e u ;\n  e * e = 0 ;\n  e * e = u ;\n}")
@example("algebra k { basis x y z ; # c\n  # c\n\n  [x, y] = z ;  # c\n\t# c\n  [x, z] = 0 ; # c\n  [x, y] = x ;\n}")
@example("algebra k { basis x y ;\n  [x, y] = y ;%s\n  [y, x] = 2 ;\n}" % ("  # c\n \n" * 5000))
@example("algebra k { basis x y ;\n  [x, y] =%s@ ;\n}" % (" " * 20000))  # linear, not quadratic
@example("algebra g { basis x y ; }\nendo E on g {\n  x -> y ;\n  x -> - y ;\n  y -> x ;\n}")
@settings(max_examples=200, deadline=None)
def test_statement_patterns_read_every_body_as_the_token_reader_does(text):
    """Workspace, value types and every error, class, message and span,
    are those of a parse whose statement patterns never match."""
    expected = _outcome(text)
    with pytest.MonkeyPatch.context() as mp:
        for name in ("_BRACKET", "_IMAGE"):
            mp.setattr(dsl, name, re.compile(r"(?!)"))
        assert _outcome(text) == expected


def test_statement_patterns_read_through_comments(monkeypatch):
    """Comment lines and trailing comments between statements keep them on
    the statement patterns: each body goes back to the token reader once."""
    starts = []
    tokens = dsl._tokens
    monkeypatch.setattr(dsl, "_tokens", lambda *a: starts.append(a[1:]) or tokens(*a))
    ws = parse(
        "algebra g { basis x y z ;  # c\n  [x, y] = z ;  # c\n  # c\n\n"
        "  [x, z] = - y ; # c\n\t[y, z] = x ;\n}\n"
        "endo J on g {\n  x -> y ; # c\n  # c\n  y -> - x ;  # c\n  z -> z ;\n}\n"
    )
    assert len(ws.definitions["g"][1].table) == 3
    assert len(starts) == 3  # the text, then after each body's last statement


# ---------------------------------------------------------------------------
# generated workspaces: declarations on declared and constructed algebras,
# interleaved with constructs and checks, round-trip through emission

# Strategies below are drawn from tuples, which hypothesis can cache.
_LIE = (  # basis, brackets (a, b, c): [a, b] = c
    ("x y", ()),
    ("x y", (("x", "y", "y"),)),
    ("p q c", (("p", "q", "c"),)),
    ("a b c", (("a", "b", "c"), ("b", "c", "a"), ("c", "a", "b"))),
    ("r u v", (("r", "u", "v"), ("v", "r", "u"))),
)
_ASSOC = (
    "basis e ; e * e = e ;",
    "basis one i ; one * one = one ; one * i = i ; i * one = i ; i * i = - one ;",
    "basis one t ; one * one = one ; t * one = t ; one * t = t ;",
)


def _scalar_text(draw, num):
    den = draw(st.integers(1, 3))
    return str(num) if den == 1 else "%d/%d" % (num, den)


def _combo_text(draw, labels):
    terms = draw(st.lists(st.tuples(st.sampled_from(labels), st.integers(-3, 3)), max_size=3))
    if not terms:
        return "0"
    out = []
    for lab, num in terms:
        mag = _scalar_text(draw, abs(num))
        term = lab if mag == "1" and draw(st.booleans()) else "%s %s" % (mag, lab)
        if out or num < 0:
            term = "%s %s" % ("-" if num < 0 else "+", term)
        out.append(term)
    return " ".join(out)


def _random_matrix_text(draw, n, skew=None):
    rows = [[draw(st.integers(-2, 2)) for _ in range(n)] for _ in range(n)]
    if skew is not None:  # symmetric (skew False) or skew (skew True)
        for i in range(n):
            for j in range(i + 1):
                rows[i][j] = -rows[j][i] if skew else rows[j][i]
            if skew:
                rows[i][i] = 0
    body = ", ".join("[%s]" % ", ".join(map(str, r)) for r in rows)
    return ("matrix [%s]" if draw(st.booleans()) else "[%s]") % body


@st.composite
def _workspace_texts(draw):
    lines, flat = [], []  # flat: (conn, algebra, torsion free) for zero connections
    kinds, basis, home = {}, {}, {}  # name -> kind; algebra -> labels; endo, conn -> algebra
    abelian = set()
    names = iter("n%d" % k for k in range(100))

    def named(kind):
        return [n for n, k in kinds.items() if k == kind]

    for _ in range(draw(st.integers(1, 10))):
        algebras = named("algebra")
        unextended = [a for a in algebras if "z" not in basis[a]]
        small = [a for a in algebras if len(basis[a]) <= 4]
        choices = ["algebra", "assoc"]
        if algebras:
            choices += ["endo", "map", "conn", "form", "decomp", "check", "check"]
        if small:
            choices += ["zero_conn"] * 3
        if flat or named("assoc") or unextended:
            choices += ["construct"] * 3
        what = draw(st.sampled_from(tuple(choices)))
        name = next(names)
        alg = draw(st.sampled_from(tuple(small if what == "zero_conn" else algebras or [None])))
        if what not in ("check", "construct"):
            kinds[name] = {"zero_conn": "conn"}.get(what, what)
        if what == "algebra":
            labels, brackets = draw(st.sampled_from(_LIE))
            k = draw(st.sampled_from(("", "2 ", "- ", "1/2 ")))
            body = []
            for a, b, c in brackets:
                if draw(st.booleans()):
                    body.append("[%s, %s] = %s%s ;" % (a, b, k, c))
                else:
                    body.append("[%s, %s] = %s%s ;" % (b, a, "" if k == "- " else "- " + k, c))
            lines.append("algebra %s { basis %s ; %s }" % (name, labels, " ".join(body)))
            basis[name] = tuple(labels.split())
            if not brackets:
                abelian.add(name)
        elif what == "assoc":
            lines.append("assoc %s { %s }" % (name, draw(st.sampled_from(_ASSOC))))
        elif what in ("endo", "map"):
            cod = draw(st.sampled_from(tuple(algebras))) if what == "map" else alg
            head = ("endo %s on %s" % (name, alg) if what == "endo"
                    else "map %s from %s to %s" % (name, alg, cod))
            images = ["%s -> %s ;" % (lab, _combo_text(draw, basis[cod]))
                      for lab in draw(st.permutations(basis[alg]))]
            lines.append("%s { %s }" % (head, " ".join(images)))
            home[name] = alg
        elif what in ("conn", "zero_conn"):
            dim = len(basis[alg])
            if what == "zero_conn":
                zero = "[%s]" % ", ".join(["[%s]" % ", ".join(["0"] * dim)] * dim)
                maps = ["%s => %s ;" % (lab, zero) for lab in basis[alg]]
                flat.append((name, alg, alg in abelian))
            else:
                m = draw(st.integers(1, 2))
                maps = ["%s => %s ;" % (lab, _random_matrix_text(draw, m)) for lab in basis[alg]]
            lines.append("conn %s on %s { %s }" % (name, alg, " ".join(maps)))
            home[name] = alg
        elif what == "form":
            kind = draw(st.sampled_from(("sym", "skew")))
            lines.append("form %s on %s %s %s" % (
                name, alg, kind, _random_matrix_text(draw, len(basis[alg]), kind == "skew")))
        elif what == "decomp":
            parts = [" , ".join(_combo_text(draw, basis[alg])
                                for _ in range(draw(st.integers(0, 3)))) for _ in range(2)]
            lines.append("decomp %s on %s { part0 : %s ; part1 : %s ; }" % (name, alg, *parts))
        elif what == "check":
            lines.append(draw(_check_text(alg, named, basis, home)))
        else:
            lines.append("construct %s = %s" % (
                name.upper(), draw(_construct_call(flat, named("assoc"), unextended))))
            ws = parse("\n".join(lines))  # learn what the construct defined
            for n, (kind, payload) in list(ws.definitions.items())[len(kinds):]:
                kinds[n] = kind
                if kind == "algebra":
                    basis[n] = tuple(payload.labels)
                    if not payload.table:
                        abelian.add(n)
                elif kind in ("endo", "conn"):
                    home[n] = payload[0]
    return "\n".join(lines) + "\n"


@st.composite
def _construct_call(draw, flat, assocs, unextended):
    calls = {fn: ["%s(%s, %s)" % (fn, alg, conn) for conn, alg, _ in flat]
             for fn in ("tangent", "cotangent", "semidirect")}
    calls["tower"] = ["tower(%s, %s, 1)" % (alg, conn) for conn, alg, tf in flat if tf]
    calls["aff"] = ["aff(%s)" % a for a in assocs]
    calls["central_ext"] = ["central_ext(%s)" % a for a in unextended]
    fn = draw(st.sampled_from(tuple(fn for fn in calls if calls[fn])))
    return draw(st.sampled_from(tuple(calls[fn])))


@st.composite
def _check_text(draw, alg, named, basis, home):
    endos, forms, conns = named("endo"), named("form"), named("conn")
    calls = ["jacobi(%s)" % alg]
    for J in endos:
        calls += ["integrable(%s)" % J, "integrable(%s, %s)" % (J, basis[home[J]][0]),
                  "reconstruct(%s, %s, %s)" % (alg, J, basis[alg][-1])]
        calls += ["parallel(%s, %s)" % (c, J) for c in conns]
    calls += ["flat(%s)" % c for c in conns]
    calls += ["closed(%s)" % f for f in forms] + ["pseudo_kahler(%s, %s)" % (alg, f) for f in forms]
    calls += ["metric(%s, %s)" % (c, f) for c in conns for f in forms]
    calls += ["torsion_equivalence(%s, %s)" % (alg, c) for c in conns if home[c] == alg]
    return "check " + draw(st.sampled_from(tuple(calls)))


def _canonical(ws):
    """What a parsed workspace holds, with spans left out."""
    defs = []
    for name, (kind, p) in ws.definitions.items():
        if kind in ("algebra", "assoc"):
            body = (p.labels, p.table)
        elif kind == "endo":
            body = (p[0], p[1].sparse_columns())
        elif kind == "map":
            body = (p[0], p[1], p[2].sparse_columns())
        elif kind == "conn":
            body = (p[0], [op.sparse_columns() for op in p[1].maps])
        elif kind == "form":
            body = (p[0], p[1].kind, p[1].gram.sparse_columns())
        else:
            body = (p[0], p[1].part0, p[1].part1)
        defs.append((name, kind, body))

    def strip(args):
        return [(kind, value) for kind, value, _ in args]

    return (
        defs,
        [(fn, strip(args), target) for fn, args, target, _ in ws.checks],
        [(t, fn, strip(args), names) for t, fn, args, names in ws.construct_stmts],
    )


@given(_workspace_texts())
@settings(max_examples=80, deadline=None)
def test_generated_workspaces_round_trip_through_emission(text):
    ws = parse(text)
    once = workspace_to_dsl(ws)
    again = parse(once)
    assert _canonical(again) == _canonical(ws)
    assert workspace_to_dsl(again) == once
