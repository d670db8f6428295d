import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lieforge import catalog
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
    endo_to_dsl,
    entry_to_dsl,
    parse,
    run,
    workspace_to_dsl,
)

from oracles import naive_integrable_sweep


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
    assert j.matrix == entry.structures["j"].matrix


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
    text = (
        entry_to_dsl(entry)
        + "\n"
        + endo_to_dsl("rand", entry.name, alg.labels, J)
        + "\ncheck integrable(rand)\ncheck integrable(rand, %s)\n" % split
    )
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


def test_check_wrong_kind_rejected():
    with pytest.raises(ShapeError):
        parse(AFF1 + "check jacobi(ls)\n")


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
    assert again.definitions["K2"][1][1].matrix == ws.definitions["K2"][1][1].matrix
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
    assert again.order == ws.order
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


@given(
    st.sets(st.sampled_from(_DEFINITIONS), max_size=2),
    st.lists(st.sampled_from(_USES), max_size=5),
    st.lists(st.tuples(st.sampled_from(["insert", "delete", "replace"]),
                       st.integers(0, 300), st.sampled_from(_TOKENS)), max_size=3),
)
@settings(max_examples=150, deadline=None)
def test_any_token_sequence_ends_in_certificates_or_a_spanned_error(dropped, uses, edits):
    statements = [s for s in _DEFINITIONS if s not in dropped] + uses
    text = " ".join(_edit(" \n".join(statements).split(" "), edits))
    try:
        certs = run(parse(text))
    except DslError as exc:
        assert isinstance(exc.span, SourceSpan)
        return
    assert all(isinstance(c, Certificate) for c in certs)
