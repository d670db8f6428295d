from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lieforge import catalog, lie_core, structures
from lieforge.scalar_linear import DimensionMismatchError, PreconditionError, Q
from lieforge.lie_core import (
    AlmostComplex,
    BilinearForm,
    Connection,
    LieAlgebra,
    LinearMap,
    Witness,
    check_closed,
    check_integrable,
    check_parallel,
    check_product_structure,
    check_representation,
    check_symplectic,
    check_torsion_free,
)
from lieforge.constructions import (
    AssociativeAlgebra,
    aff_algebra,
    lifted_connection,
    semidirect,
    tangent,
)
from lieforge.structures import (
    CliffordFamily,
    Decomposition,
    block_complex_structure,
    canonical_complex_structure,
    check_action_compatibility,
    check_holomorphic,
    check_pseudo_kahler,
    check_self_dual,
    check_torsion_integrability_equivalence,
    clifford_tower,
    dual_structure,
    hypercomplex_pair,
    levi_civita,
    reconstruct_connection,
    symplectic_from_duality,
)
from lieforge.acceptance import (
    complex_numbers_algebra,
    left_symmetric_aff1,
    zero_connection,
)

from oracles import (
    connection_at,
    dense,
    dense_constants,
    is_integer_first,
    matrix_assoc_algebra,
    naive_action_compatibility,
    naive_holomorphic_sweep,
    naive_inverse,
    naive_matvec,
    naive_product,
    naive_rank,
)


def heisenberg_with_affine_structure():
    L = LieAlgebra(["x", "y", "z"], {(0, 1): {2: Q(1)}}, name="heis3")
    h = Fraction(1, 2)
    nx = LinearMap([[Q(0)] * 3, [Q(0)] * 3, [Q(0), h, Q(0)]])
    ny = LinearMap([[Q(0)] * 3, [Q(0)] * 3, [-h, Q(0), Q(0)]])
    return L, Connection(L, [nx, ny, LinearMap.zero(3)])


def test_block_structure_squares():
    e3 = catalog.euclidean(3)
    J = e3.structures["j"]
    jp = block_complex_structure(J, J, 1)
    assert jp.squares_to_minus_identity()
    jm = block_complex_structure(J, J, -1)
    assert jm.squares_to_minus_identity()


def test_block_structure_shape():
    # (x, v) -> (Jx, -Iv) acts blockwise
    J = AlmostComplex.from_pairs(2, [(0, 1)])
    I = AlmostComplex.from_pairs(2, [(0, 1)])
    jm = block_complex_structure(J, I, -1)
    assert jm.apply_sparse({0: Q(1)}) == {1: Q(1)}
    assert jm.apply_sparse({2: Q(1)}) == {3: Q(-1)}


def test_action_compatibility_passes_on_stored_data():
    e4 = catalog.euclidean(4)
    cd = e4.structures["compat"]
    cert = check_action_compatibility(cd.rho, cd.j, cd.i, cd.split)
    assert cert.passed
    assert cert.notes["mixed_identity_failures"] == 0
    assert not cert.notes["g1_zero"]


def test_action_compatibility_swapped_parts_fail():
    e4 = catalog.euclidean(4)
    cd = e4.structures["compat"]
    swapped = Decomposition(cd.split.part1, cd.split.part0)
    cert = check_action_compatibility(cd.rho, cd.j, cd.i, swapped)
    assert not cert.passed
    assert cert.witnesses


def test_action_compatibility_rejects_unstable_split():
    e4 = catalog.euclidean(4)
    cd = e4.structures["compat"]
    g = cd.rho.algebra
    # split off a single non-stable line
    part0 = [g.basis_vector(0)]
    rest = [g.basis_vector(i) for i in range(1, g.dim)]
    with pytest.raises(PreconditionError):
        check_action_compatibility(cd.rho, cd.j, cd.i, Decomposition(part0, rest))


def test_action_compatibility_refuses_a_module_map_that_is_not_complex():
    """I = identity squares to plus the identity; it is refused after the
    size check with the text AlmostComplex gives."""
    cd = catalog.so3_on_c3().structures["compat"]
    with pytest.raises(PreconditionError) as exc:
        check_action_compatibility(cd.rho, cd.j, LinearMap.identity(6), cd.split)
    assert str(exc.value) == "map squared is not minus the identity"
    with pytest.raises(DimensionMismatchError):
        check_action_compatibility(cd.rho, cd.j, LinearMap.identity(4), cd.split)


def _stored(cd):
    return cd.rho, cd.j, cd.i, cd.split


def _swapped(cd):
    return cd.rho, cd.j, cd.i, Decomposition(cd.split.part1, cd.split.part0)


def _other_module_structure(cd):
    """The e(4) data with the module structure paired the other way round,
    which breaks the mixed identity."""
    return cd.rho, cd.j, AlmostComplex.from_pairs(4, [(0, 2), (1, 3)]), cd.split


_COMPAT_CASES = {
    "e4": lambda: _stored(catalog.euclidean(4).structures["compat"]),
    "e4_swapped": lambda: _swapped(catalog.euclidean(4).structures["compat"]),
    "e6_swapped": lambda: _swapped(catalog.euclidean(6).structures["compat"]),
    "so3_c3_swapped": lambda: _swapped(catalog.so3_on_c3().structures["compat"]),
    "e4_other_module_structure": lambda: _other_module_structure(
        catalog.euclidean(4).structures["compat"]
    ),
}


@pytest.mark.parametrize("case", list(_COMPAT_CASES))
def test_action_compatibility_matches_the_dense_oracle(case):
    """Witnesses, total_failures and mixed_identity_failures agree with
    dense sums of rho(x) = sum_i x_i rho_i, taken by connection_at."""
    rho, J, I, split = _COMPAT_CASES[case]()
    n = rho.algebra.dim
    part0 = [dense(v, n) for v in split.part0]
    part1 = [dense(v, n) for v in split.part1]
    fails, mixed = naive_action_compatibility(rho, J.matrix.data, I.matrix.data, part0, part1)
    cert = check_action_compatibility(rho, J, I, split)
    assert cert.witnesses == [Witness(key, tuple(d)) for key, d in fails[:16]]
    assert cert.total_failures == len(fails)
    assert cert.notes["mixed_identity_failures"] == mixed
    if case.startswith("e4_"):
        assert fails
    if case == "e4_other_module_structure":
        assert mixed > 0


@given(st.sampled_from(["e4", "e6", "so3_c3", "gl2_left"]), st.data())
@settings(max_examples=40, deadline=None)
def test_connection_at_matches_the_dense_sum(name, data):
    if name == "gl2_left":
        rho = catalog.gl(2).structures["left_mult"]
    elif name == "so3_c3":
        rho = catalog.so3_on_c3().structures["compat"].rho
    else:
        rho = catalog.euclidean(int(name[1:])).structures["compat"].rho
    n = rho.algebra.dim
    # Fraction(2) is integral, so the map must store 2 * entry as an int
    scalars = st.sampled_from([1, -1, Fraction(2), Fraction(1, 2), Fraction(-3, 2)])
    x = data.draw(st.dictionaries(st.integers(0, n - 1), scalars, max_size=4))
    at = rho.at(x)
    assert (at.rows, at.cols) == (rho.module_dim, rho.module_dim)
    assert at.matrix.data == connection_at(rho, dense(x, n))
    assert all(v and is_integer_first(v) for col in at.sparse_columns() for v in col.values())


@given(
    st.one_of(st.just(list(range(10))), st.permutations(range(10))),
    st.permutations(range(10)),
)
@settings(max_examples=60, deadline=None)
def test_holomorphic_witnesses_match_the_dense_oracle(order, pairing):
    """The identity of e(4), or a permutation of its basis, which breaks
    many brackets, as the map, and a random pairing as the codomain
    structure: the "hom" failures come first, then the ("structure", i)
    columns of iota J_dom - J_cod iota, kept up to sixteen."""
    e4 = catalog.euclidean(4)
    L, J = e4.algebra, e4.structures["j"]
    iota = LinearMap.from_sparse_columns(10, 10, [{r: 1} for r in order])
    J_cod = AlmostComplex.from_pairs(10, list(zip(pairing[::2], pairing[1::2])))
    fails = naive_holomorphic_sweep(
        L, L, iota.matrix.data, J.matrix.data, J_cod.matrix.data
    )
    cert = check_holomorphic(L, L, iota, J, J_cod)
    assert cert.witnesses == [Witness(key, tuple(d)) for key, d in fails[:16]]
    assert cert.total_failures == len(fails)


def test_canonical_structure_blocks():
    ab = catalog.abelian(2).algebra
    t = tangent(ab, zero_connection(ab))
    K = canonical_complex_structure(t)
    assert K.apply_sparse({0: Q(1)}) == {2: Q(-1)}
    assert K.apply_sparse({2: Q(1)}) == {0: Q(1)}


def test_equivalence_certificate_records_both_verdicts():
    aff1, ls = left_symmetric_aff1()
    cert = check_torsion_integrability_equivalence(ls)
    assert cert.passed and cert.notes == {"k_integrable": True, "torsion_free": True}
    ad = aff1.adjoint_connection()
    cert = check_torsion_integrability_equivalence(ad)
    assert cert.passed and cert.notes == {"k_integrable": False, "torsion_free": False}


def test_equivalence_rejects_non_flat():
    so3 = catalog.so(3).algebra
    half_ad = Connection(
        so3, [[[Q(e, 2) for e in row] for row in m.matrix.data] for m in so3.adjoint_connection().maps]
    )
    with pytest.raises(PreconditionError):
        check_torsion_integrability_equivalence(half_ad)


def equivalence_corpus():
    aff1, ls = left_symmetric_aff1()
    ad1 = aff1.adjoint_connection()
    ab2 = catalog.abelian(2).algebra
    ab3 = catalog.abelian(3).algebra
    gl2 = catalog.gl(2)
    gl1 = catalog.gl(1)
    so3 = catalog.so(3).algebra
    heis, nheis = heisenberg_with_affine_structure()
    affc, _, nabc = aff_algebra(complex_numbers_algebra())
    affm, _, nabm = aff_algebra(matrix_assoc_algebra(2))
    e2 = semidirect(
        catalog.so(2).algebra,
        catalog.so(2).structures["standard_rep"],
        module_labels=["e1", "e2"],
        check_rep=False,
    )
    B = BilinearForm(LinearMap.identity(3), BilinearForm.SYMMETRIC)
    return [
        (aff1, ls, True),
        (aff1, ad1, False),
        (ab2, zero_connection(ab2), True),
        (ab3, zero_connection(ab3), True),
        (gl2.algebra, gl2.structures["left_mult"], True),
        (gl1.algebra, gl1.structures["left_mult"], True),
        (so3, so3.adjoint_connection(), False),
        (heis, nheis, True),
        (affc, nabc, True),
        (affm, nabm, True),
        (e2, levi_civita(e2, B), True),
    ]


def test_equivalence_never_fails_across_corpus():
    corpus = equivalence_corpus()
    assert len(corpus) >= 10
    for g, conn, expect in corpus:
        cert = check_torsion_integrability_equivalence(conn)
        assert cert.passed, g.name
        assert cert.notes["torsion_free"] == expect, g.name
        assert cert.notes["k_integrable"] == expect, g.name


def test_reconstruct_round_trips_corpus():
    for g, conn, expect in equivalence_corpus():
        if not expect:
            continue
        talg = tangent(g, conn, check_rep=False)
        K = canonical_complex_structure(talg)
        sub, rec, cert = reconstruct_connection(talg, K, list(range(g.dim)))
        assert cert.passed, g.name
        assert cert.notes["k_image_abelian"]
        for i in range(g.dim):
            assert rec.maps[i] == conn.maps[i]


def test_reconstruct_rejects_non_integrable_structure():
    # the swap structure on e(3) is not integrable, which is checked first
    e3 = catalog.euclidean(3).algebra
    K = canonical_complex_structure(e3)
    with pytest.raises(PreconditionError, match="^structure is not integrable$"):
        reconstruct_connection(e3, K, [0, 1, 2])


@pytest.mark.parametrize(
    "base, part, message",
    [
        ("aff1", [1, 2], "image of the subalgebra is not an ideal"),
        ("aff1", [0, 2], "image of the subalgebra does not complement it"),
        ("gl2", [0, 1, 2, 4], "the given indices do not span a subalgebra"),
    ],
)
def test_reconstruct_preconditions_name_the_failing_condition(base, part, message):
    """Each closure precondition of reconstruct_connection on an integrable
    tangent algebra raises its own message."""
    if base == "aff1":
        g, conn = left_symmetric_aff1()
    else:
        entry = catalog.gl(2)
        g, conn = entry.algebra, entry.structures["left_mult"]
    talg = tangent(g, conn, check_rep=False)
    with pytest.raises(PreconditionError, match="^%s$" % message):
        reconstruct_connection(talg, canonical_complex_structure(talg), part)


def test_lifted_connection_properties():
    aff1, ls = left_symmetric_aff1()
    talg = tangent(aff1, ls, check_rep=False)
    lifted = lifted_connection(ls, talg)
    assert check_representation(lifted).passed
    assert check_torsion_free(lifted).passed
    K = canonical_complex_structure(talg)
    assert check_parallel(lifted, K).passed


def test_tower_base_case_matches_components():
    aff1, ls = left_symmetric_aff1()
    alg, conn, fam = clifford_tower(aff1, ls, 1)
    talg = tangent(aff1, ls, check_rep=False)
    assert alg.same_constants(talg)
    assert len(fam.maps) == 1
    assert fam.maps[0] == canonical_complex_structure(talg)
    lifted = lifted_connection(ls, talg)
    assert all(conn.maps[i] == lifted.maps[i] for i in range(alg.dim))


def test_tower_members_anticommute_and_are_parallel():
    gl2 = catalog.gl(2)
    alg, conn, fam = clifford_tower(gl2.algebra, gl2.structures["left_mult"], 2)
    assert alg.dim == 16
    cert = fam.certify(conn)
    assert cert.passed
    assert fam.generated_rank == 4


def test_tower_rank_matches_naive_product_span():
    ab2 = catalog.abelian(2).algebra
    alg, conn, fam = clifford_tower(ab2, zero_connection(ab2), 3)
    # oracle: flatten all products of subsets of the three members
    import itertools

    n = alg.dim
    mats = [m.matrix.data for m in fam.maps]
    rows = []
    for picks in itertools.product((0, 1), repeat=3):
        prod = [[int(i == j) for j in range(n)] for i in range(n)]
        for k, on in enumerate(picks):
            if on:
                prod = naive_product(prod, mats[k])
        rows.append([prod[i][j] for i in range(n) for j in range(n)])
    assert naive_rank(rows) == 8
    assert fam.generated_rank == 8


def test_tower_rejects_torsion():
    aff1, _ = left_symmetric_aff1()
    with pytest.raises(PreconditionError):
        clifford_tower(aff1, aff1.adjoint_connection(), 2)


def test_tower_names_its_top_level():
    ab2 = catalog.abelian(2).algebra
    assert clifford_tower(ab2, zero_connection(ab2), 2, name="W")[0].name == "W"
    assert clifford_tower(ab2, zero_connection(ab2), 2)[0].name == "T(T(abelian_2))"


def test_tower_of_max_dim_is_built(monkeypatch):
    """The refusal above MAX_DIM is tested through both commands in test_cli."""
    monkeypatch.setattr(lie_core, "MAX_DIM", 8)
    ab2 = catalog.abelian(2).algebra
    assert clifford_tower(ab2, zero_connection(ab2), 2)[0].dim == 8
    with pytest.raises(PreconditionError):
        clifford_tower(ab2, zero_connection(ab2), 3)


def test_clifford_family_detects_commuting_members():
    # each anticommute witness is the first nonzero entry of AB + BA - diag I
    ab = catalog.abelian(4).algebra
    J1 = AlmostComplex.from_pairs(4, [(0, 1), (2, 3)])
    J2 = AlmostComplex.from_pairs(4, [(0, 2), (1, 3)])
    maps = [J1, J1, J2]
    cert = CliffordFamily(ab, maps).certify()
    assert not cert.passed
    dense = [J.matrix.data for J in maps]
    expect = []
    for a in range(len(maps)):
        for b in range(a, len(maps)):
            s = [[x + y for x, y in zip(ra, rb)] for ra, rb in
                 zip(naive_product(dense[a], dense[b]), naive_product(dense[b], dense[a]))]
            if a == b:
                for i in range(4):
                    s[i][i] += 2
            bad = [(r, c) for c in range(4) for r in range(4) if s[r][c]]
            if bad:
                r, c = bad[0]
                expect.append((("anticommute", a, b, r, c), (s[r][c],)))
    assert expect[0] == (("anticommute", 0, 1, 0, 0), (-2,))
    got = [(w.indices, w.defect) for w in cert.witnesses if w.indices[0] == "anticommute"]
    assert got == expect


def test_hypercomplex_pair_requires_parallel_structure():
    gl2 = catalog.gl(2)
    entry, RI = catalog.right_mult_structure(1)
    # left multiplication by a fixed non-central matrix breaks parallelism
    skew = AlmostComplex.from_pairs(4, [(0, 3), (1, 2)])
    lm = gl2.structures["left_mult"]
    try:
        hypercomplex_pair(lm, skew)
        raised = False
    except PreconditionError:
        raised = True
    # either the structure happens to be parallel (then fine) or we raised
    assert raised == (not check_parallel(lm, skew).passed)


def test_hypercomplex_pair_gl2():
    gl2 = catalog.gl(2)
    _, RI = catalog.right_mult_structure(1)
    fam, lifted, cert = hypercomplex_pair(gl2.structures["left_mult"], RI)
    assert cert.passed
    assert len(fam.maps) == 2
    assert fam.generated_rank == 4
    for key in ("j_minus_parallel", "k_parallel", "lift_flat", "lift_torsion_free"):
        assert cert.notes[key]
    assert "obata" in cert.notes


def test_hypercomplex_pair_abelian_any_structure():
    ab = catalog.abelian(2).algebra
    J = AlmostComplex.from_pairs(2, [(0, 1)])
    fam, lifted, cert = hypercomplex_pair(zero_connection(ab), J)
    assert cert.passed


def test_self_dual_abelian_identity():
    ab = catalog.abelian(2).algebra
    conn = zero_connection(ab)
    assert check_self_dual(conn, LinearMap.identity(2)).passed


def test_self_dual_fails_on_affine_line_with_identity():
    aff1, ls = left_symmetric_aff1()
    cert = check_self_dual(ls, LinearMap.identity(2))
    assert not cert.passed
    # frozen defect: psi nabla_x - nabla*_x psi = diag(0, 2) read columnwise
    assert cert.witnesses[0].indices == (0, 1)
    assert list(cert.witnesses[0].defect) == [Q(0), Q(2)]


def test_self_dual_rejects_singular_map():
    ab = catalog.abelian(2).algebra
    with pytest.raises(PreconditionError):
        check_self_dual(zero_connection(ab), LinearMap.zero(2))


def test_symplectic_from_duality_shape():
    om = symplectic_from_duality(LinearMap.identity(2))
    assert om.kind == BilinearForm.SKEW
    expect = LinearMap(
        [[Q(0), Q(0), Q(-1), Q(0)],
         [Q(0), Q(0), Q(0), Q(-1)],
         [Q(1), Q(0), Q(0), Q(0)],
         [Q(0), Q(1), Q(0), Q(0)]]
    )
    assert om.gram == expect


def test_symplectic_transfer_closed_iff_self_dual_torsion_free():
    # e(2) with the flat metric: closed; affine line with identity: not
    so2 = catalog.so(2)
    e2 = semidirect(so2.algebra, so2.structures["standard_rep"],
                    module_labels=["e1", "e2"], check_rep=False)
    B = BilinearForm(LinearMap.identity(3), BilinearForm.SYMMETRIC)
    conn = levi_civita(e2, B)
    talg = tangent(e2, conn, check_rep=False)
    om = symplectic_from_duality(B.gram)
    assert check_symplectic(talg, om).passed
    aff1, ls = left_symmetric_aff1()
    talg1 = tangent(aff1, ls, check_rep=False)
    om1 = symplectic_from_duality(LinearMap.identity(2))
    assert not check_closed(talg1, om1).passed


def test_levi_civita_abelian_zero():
    ab = catalog.abelian(3).algebra
    B = BilinearForm(LinearMap.identity(3), BilinearForm.SYMMETRIC)
    conn = levi_civita(ab, B)
    assert all(m == LinearMap.zero(3) for m in conn.maps)


def test_levi_civita_euclidean_plane_frozen_values():
    so2 = catalog.so(2)
    e2 = semidirect(so2.algebra, so2.structures["standard_rep"],
                    module_labels=["e1", "e2"], check_rep=False)
    B = BilinearForm(LinearMap.identity(3), BilinearForm.SYMMETRIC)
    conn = levi_civita(e2, B)
    # hand Koszul solve: the rotation generator acts by the rotation matrix
    # on translations, everything else is zero
    rot = LinearMap(
        [[Q(0), Q(0), Q(0)], [Q(0), Q(0), Q(1)], [Q(0), Q(-1), Q(0)]]
    )
    assert conn.maps[0] == rot
    assert conn.maps[1] == conn.maps[2] == LinearMap.zero(3)
    assert check_representation(conn).passed
    assert check_torsion_free(conn).passed


def test_levi_civita_so3_torsion_free_not_flat():
    so3 = catalog.so(3).algebra
    B = BilinearForm(LinearMap.identity(3), BilinearForm.SYMMETRIC)
    conn = levi_civita(so3, B)
    assert check_torsion_free(conn).passed
    assert not check_representation(conn).passed


def test_levi_civita_is_metric_compatible():
    so3 = catalog.so(3).algebra
    B = BilinearForm(LinearMap.identity(3), BilinearForm.SYMMETRIC)
    conn = levi_civita(so3, B)
    assert check_parallel(conn, B).passed


@pytest.mark.parametrize("shift", [-1, 1])
def test_levi_civita_rejects_a_form_of_another_size(shift):
    so3 = catalog.so(3).algebra
    B = BilinearForm(LinearMap.identity(3 + shift), BilinearForm.SYMMETRIC)
    with pytest.raises(DimensionMismatchError):
        levi_civita(so3, B)


KOSZUL_ALGEBRAS = [
    catalog.so(3).algebra,
    catalog.gl(2).algebra,
    catalog.affine(1).algebra,
    catalog.euclidean(3).algebra,
]


@given(st.sampled_from(KOSZUL_ALGEBRAS), st.data())
@settings(max_examples=60, deadline=None)
def test_levi_civita_matches_the_koszul_oracle(g, data):
    """Each column is B^-1 of the Koszul right-hand side, keyed by increasing row."""
    n, c = g.dim, dense_constants(g)
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        gram[i][i] = data.draw(st.sampled_from([1, -1, 2, Fraction(1, 2)]))
        for j in range(i + 1, n):
            gram[i][j] = gram[j][i] = data.draw(st.sampled_from([0, 0, 1, -1, Fraction(1, 3)]))
    binv = naive_inverse(gram)
    assume(binv is not None)
    conn = levi_civita(g, BilinearForm(gram, BilinearForm.SYMMETRIC))

    def pair(i, j, k):  # B([b_i, b_j], b_k)
        return sum(c[i][j][l] * gram[l][k] for l in range(n))

    for i, op in enumerate(conn.maps):
        for j, col in enumerate(op.sparse_columns()):
            rhs = [Fraction(pair(i, j, k) - pair(j, k, i) + pair(k, i, j), 2) for k in range(n)]
            assert list(col) == sorted(col)
            assert [col.get(k, 0) for k in range(n)] == naive_matvec(binv, rhs)


def test_pseudo_kahler_abelian_plane():
    ab = catalog.abelian(2).algebra
    B = BilinearForm(LinearMap.identity(2), BilinearForm.SYMMETRIC)
    cert = check_pseudo_kahler(ab, B)
    assert cert.passed


def test_pseudo_kahler_euclidean_plane():
    so2 = catalog.so(2)
    e2 = semidirect(so2.algebra, so2.structures["standard_rep"],
                    module_labels=["e1", "e2"], check_rep=False)
    B = BilinearForm(LinearMap.identity(3), BilinearForm.SYMMETRIC)
    cert = check_pseudo_kahler(e2, B)
    assert cert.passed
    for key in ("self_dual", "omega_symplectic", "omega_parallel",
                "pairing_matches_omega", "k_integrable", "metric_parallel"):
        assert cert.notes[key], key


def test_pseudo_kahler_precondition_failure_itemized():
    aff1, _ = left_symmetric_aff1()
    B = BilinearForm(LinearMap.identity(2), BilinearForm.SYMMETRIC)
    with pytest.raises(PreconditionError, match="connection is not flat") as info:
        check_pseudo_kahler(aff1, B)
    flat = info.value.details
    assert flat.check_name == "representation" and not flat.passed
    assert [w.indices for w in flat.witnesses] == [(0, 1, 0), (0, 1, 1)]
    assert flat.total_failures == 2


def test_clifford_certify_keeps_every_integrability_failure():
    """J pairs the basis of e(5) as (2i, 2i + 1); it fails integrability at
    56 pairs, and the family's certificate counts each of them."""
    e5 = catalog.euclidean(5).algebra
    J = AlmostComplex.from_pairs(e5.dim, [(2 * i, 2 * i + 1) for i in range(e5.dim // 2)])
    sub = check_integrable(e5, J)
    cert = CliffordFamily(e5, [J]).certify()
    assert sub.total_failures == cert.total_failures == 56
    assert cert.witnesses == [
        Witness(("integrable", 0) + w.indices, w.defect) for w in sub.witnesses
    ]


def _composite_input(name):
    """The passing certificate of one composite check, as a thunk."""
    if name == "reconstruct":
        aff1, ls = left_symmetric_aff1()
        talg = tangent(aff1, ls)
        K = canonical_complex_structure(talg)
        return lambda: reconstruct_connection(talg, K, [0, 1])[2]
    ab = catalog.abelian(2).algebra
    if name == "hypercomplex":
        J = AlmostComplex.from_pairs(2, [(0, 1)])
        return lambda: hypercomplex_pair(zero_connection(ab), J)[2]
    B = BilinearForm(LinearMap.identity(2), BilinearForm.SYMMETRIC)
    return lambda: check_pseudo_kahler(ab, B)


# (composite, key of a part, the function behind that part, which call of it
# the part is: the calls before it are hypotheses or other parts)
_COMPOSITE_PARTS = [
    ("reconstruct", "flat", "check_representation", 1),
    ("reconstruct", "torsion_free", "check_torsion_free", 1),
    ("hypercomplex", "j_minus_integrable", "check_integrable", 1),
    ("hypercomplex", "k_integrable", "check_integrable", 2),
    ("hypercomplex", "anticommute", "_anticommutator", 1),
    ("hypercomplex", "j_minus_parallel", "check_parallel", 2),
    ("hypercomplex", "k_parallel", "check_parallel", 3),
    ("hypercomplex", "lift_flat", "check_representation", 2),
    ("hypercomplex", "lift_torsion_free", "check_torsion_free", 2),
    ("pseudo_kahler", "self_dual", "check_self_dual", 1),
    ("pseudo_kahler", "omega_symplectic", "check_symplectic", 1),
    ("pseudo_kahler", "omega_parallel", "check_parallel", 1),
    # check_self_dual compares two maps once per basis vector of the plane
    ("pseudo_kahler", "pairing_matches_omega", "_equal_maps", 3),
    ("pseudo_kahler", "k_integrable", "check_integrable", 1),
    ("pseudo_kahler", "metric_parallel", "check_parallel", 2),
]


@pytest.mark.parametrize(
    "composite, key, name, call",
    _COMPOSITE_PARTS,
    ids=["%s-%s" % case[:2] for case in _COMPOSITE_PARTS],
)
def test_composite_keeps_every_failure_of_a_part(composite, key, name, call, monkeypatch):
    """With one part failing 20 times, the composite fails exactly as that
    part does: its kept witnesses under the part's key, and its total."""
    certify = _composite_input(composite)
    assert certify().passed
    part = lie_core.Certificate("part", "t")
    for k in range(20):
        part.fail((k, k + 1), (Fraction(k + 1),))
    part = part.done()
    original = getattr(structures, name)
    calls = [0]

    def failing_once(*args, **kwargs):
        calls[0] += 1
        cert = original(*args, **kwargs)
        return part if calls[0] == call else cert

    monkeypatch.setattr(structures, name, failing_once)
    cert = certify()
    assert cert.total_failures == 20
    assert cert.witnesses == [Witness((key,) + w.indices, w.defect) for w in part.witnesses]
    assert [k for k, ok in cert.notes.items() if ok is False] == [key]


def test_check_holomorphic_identity():
    e3 = catalog.euclidean(3)
    ident = LinearMap.identity(6)
    cert = check_holomorphic(
        e3.algebra, e3.algebra, ident, e3.structures["j"], e3.structures["j"]
    )
    assert cert.passed


def test_check_holomorphic_detects_structure_mismatch():
    e3 = catalog.euclidean(3)
    ident = LinearMap.identity(6)
    other = AlmostComplex.from_pairs(6, [(0, 2), (1, 5), (3, 4)])
    cert = check_holomorphic(e3.algebra, e3.algebra, ident, e3.structures["j"], other)
    assert not cert.passed
    assert any(w.indices[0] == "structure" for w in cert.witnesses)


def test_check_holomorphic_rejects_non_injective():
    e3 = catalog.euclidean(3)
    with pytest.raises(PreconditionError):
        check_holomorphic(
            e3.algebra, e3.algebra, LinearMap.zero(6),
            e3.structures["j"], e3.structures["j"],
        )


def _wrong_size_pieces():
    """A 2-dimensional a and a 4-dimensional abelian b, with structures,
    maps, decompositions and zero representations on each."""
    a = LieAlgebra(["x", "y"], {(0, 1): {1: Q(1)}}, name="a")
    b = LieAlgebra(["p", "q", "r", "s"], {}, name="b")
    return SimpleNamespace(
        a=a,
        b=b,
        Ja=AlmostComplex.from_pairs(2, [(0, 1)]),
        Jb=AlmostComplex.from_pairs(4, [(0, 1), (2, 3)]),
        Jc=AlmostComplex.from_pairs(4, [(0, 2), (1, 3)]),
        inc=LinearMap.identity(2),
        ident=LinearMap.identity(4),
        rho_a=Connection(a, [LinearMap.zero(2)] * 2),
        rho_b=Connection(b, [LinearMap.zero(2)] * 4),
        da=Decomposition([a.basis_vector(i) for i in range(2)], []),
        db=Decomposition([b.basis_vector(i) for i in range(4)], []),
        # a's first basis vector and an index past a's basis
        da_outside=Decomposition([a.basis_vector(0), {3: 1}], []),
        # a's basis as dense lists
        da_lists=Decomposition([[1, 0], [0, 1]], []),
    )


_WRONG_SIZE = {
    "holomorphic_cod_structure": lambda p: check_holomorphic(p.a, p.a, p.inc, p.Ja, p.Jc),
    "holomorphic_dom_structure": lambda p: check_holomorphic(p.b, p.b, p.ident, p.Ja, p.Jb),
    "holomorphic_cod_structure_of_other_algebra": lambda p: check_holomorphic(
        p.a, p.a, p.inc, p.Ja, p.Jb
    ),
    "action_structure": lambda p: check_action_compatibility(p.rho_b, p.Ja, p.Ja, p.db),
    "action_module_structure": lambda p: check_action_compatibility(p.rho_a, p.Ja, p.Jb, p.da),
    "action_decomposition_vectors": lambda p: check_action_compatibility(
        p.rho_a, p.Ja, p.Ja, p.da_outside
    ),
    "action_decomposition_lists": lambda p: check_action_compatibility(
        p.rho_a, p.Ja, p.Ja, p.da_lists
    ),
    "lie_algebra_list_coefficient": lambda p: LieAlgebra(
        p.a.labels, {(0, 1): [0, 1]}
    ),
    "associative_algebra_list_coefficient": lambda p: AssociativeAlgebra(
        p.a.labels, {(0, 0): [1, 0]}
    ),
}


@pytest.mark.parametrize("case", list(_WRONG_SIZE))
def test_structure_of_the_wrong_size_is_a_dimension_mismatch(case):
    with pytest.raises(DimensionMismatchError):
        _WRONG_SIZE[case](_wrong_size_pieces())


def _clock_pieces():
    """The wrong-size pieces plus the abelian plane with its zero
    connection, a structure on it, and its tangent algebra with the swap
    structure."""
    p = _wrong_size_pieces()
    p.ab = catalog.abelian(2).algebra
    p.zero = zero_connection(p.ab)
    p.J = AlmostComplex.from_pairs(2, [(0, 1)])
    p.t = tangent(p.ab, p.zero)
    p.K = canonical_complex_structure(p.t)
    return p


# check -> (owner and name of its first precondition call, the check)
_PRECONDITION_FIRST = {
    "product_structure": (
        LinearMap,
        "compose",
        lambda p: check_product_structure(p.ab, LinearMap.identity(2)),
    ),
    "holomorphic": (
        structures,
        "_require_almost_complex",
        lambda p: check_holomorphic(p.ab, p.ab, LinearMap.identity(2), p.J, p.J),
    ),
    "action_compatibility": (
        structures,
        "_require_almost_complex",
        lambda p: check_action_compatibility(p.rho_a, p.Ja, p.Ja, p.da),
    ),
    "self_dual": (
        structures,
        "_require_invertible",
        lambda p: check_self_dual(p.zero, LinearMap.identity(2)),
    ),
    "reconstruct": (
        structures,
        "check_integrable",
        lambda p: reconstruct_connection(p.t, p.K, [0, 1])[2],
    ),
    "torsion_equivalence": (
        structures,
        "check_representation",
        lambda p: check_torsion_integrability_equivalence(p.zero),
    ),
    "hypercomplex": (
        structures,
        "_require_flat_torsion_free",
        lambda p: hypercomplex_pair(p.zero, p.J)[2],
    ),
}


@pytest.mark.parametrize("case", list(_PRECONDITION_FIRST))
def test_elapsed_ms_includes_the_preconditions(case, monkeypatch):
    """Each check's first precondition call takes one second on a fake
    clock, and ``elapsed_ms`` counts it."""
    owner, name, check = _PRECONDITION_FIRST[case]
    pieces = _clock_pieces()
    now = [0.0]
    monkeypatch.setattr(lie_core, "time", SimpleNamespace(perf_counter=lambda: now[0]))
    original = getattr(owner, name)

    def slow(*args, **kwargs):
        now[0] += 1.0
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, slow)
    cert = check(pieces)
    assert cert.passed and cert.elapsed_ms >= 1000.0


def test_block_structures_integrable_when_compat_holds():
    # positive direction across catalog instances
    for entry in (catalog.euclidean(4), catalog.euclidean(6), catalog.so3_on_c3()):
        cd = entry.structures["compat"]
        cert = check_action_compatibility(cd.rho, cd.j, cd.i, cd.split)
        assert cert.passed
        full = semidirect(cd.rho.algebra, cd.rho, check_rep=False)
        jp = block_complex_structure(cd.j, cd.i, 1)
        assert check_integrable(full, jp).passed
        if cert.notes["g1_zero"]:
            jm = block_complex_structure(cd.j, cd.i, -1)
            assert check_integrable(full, jm).passed


def test_dual_structure_squares():
    e3 = catalog.euclidean(3)
    d = dual_structure(e3.structures["j"])
    assert d.squares_to_minus_identity()
