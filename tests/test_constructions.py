import copy
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lieforge import catalog, lie_core
from lieforge.scalar_linear import (
    DimensionMismatchError,
    GaussScalar,
    PreconditionError,
    Q,
    SpanSolver,
)
from lieforge.lie_core import (
    AlmostComplex,
    BilinearForm,
    Connection,
    LieAlgebra,
    LinearMap,
    MAX_DIM,
    check_abelian_complex,
    check_closed,
    check_complex_lie,
    check_integrable,
    check_jacobi,
    check_metric,
    check_parallel,
    check_product_structure,
    check_representation,
    check_symplectic,
    check_torsion_free,
    nijenhuis,
    torsion,
)
from lieforge.constructions import (
    AssociativeAlgebra,
    ContractionFamily,
    NotClosedError,
    aff_algebra,
    central_extension,
    cotangent,
    eigenspace_split,
    from_matrix_basis,
    lifted_connection,
    semidirect,
    tangent,
)

from lieforge.structures import (
    block_complex_structure,
    canonical_complex_structure,
    check_action_compatibility,
    check_holomorphic,
    check_pseudo_kahler,
    check_self_dual,
    check_torsion_integrability_equivalence,
    clifford_tower,
    hypercomplex_pair,
    reconstruct_connection,
)
from lieforge.acceptance import complex_numbers_algebra

from oracles import (
    is_integer_first,
    matrix_assoc_algebra,
    naive_associativity_defect,
    naive_commutator,
    naive_inverse,
    naive_product,
    naive_rank,
    unchecked_algebra,
)


def unit(n, r, c):
    m = [[Q(0)] * n for _ in range(n)]
    m[r][c] = Q(1)
    return m


def madd(a, b, s=1):
    return [[x + Q(s) * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def test_semidirect_standard_so3_gives_euclidean():
    so3 = catalog.so(3)
    alg = semidirect(so3.algebra, so3.structures["standard_rep"],
                     module_labels=["e1", "e2", "e3"])
    assert alg.same_constants(catalog.euclidean(3).algebra)


def test_semidirect_zero_rep_is_direct_sum():
    so3 = catalog.so(3)
    rho = Connection(so3.algebra, [LinearMap.zero(2)] * 3)
    alg = semidirect(so3.algebra, rho)
    assert alg.dim == 5
    assert alg.labels[3:] == ["v1", "v2"]
    for a in (3, 4):
        for i in range(5):
            if i != a:
                assert not alg.bracket_basis(min(i, a), max(i, a))


def test_semidirect_module_is_abelian_ideal():
    e = catalog.euclidean(5)
    alg = e.algebra
    n = 10  # rotation part of so(5)
    for a in range(n, alg.dim):
        for b in range(a + 1, alg.dim):
            assert not alg.bracket_basis(a, b)
        for i in range(alg.dim):
            w = alg.bracket_basis(min(i, a), max(i, a))
            assert all(k >= n for k in w)


def test_semidirect_projection_is_homomorphism():
    e = catalog.euclidean(4)
    alg = e.algebra
    so4 = catalog.so(4).algebra
    n = so4.dim
    for i in range(n):
        for j in range(i + 1, n):
            full = alg.bracket_basis(i, j)
            assert {k: v for k, v in full.items() if k < n} == so4.bracket_basis(i, j)


def test_semidirect_rejects_non_representation():
    so3 = catalog.so(3)
    bad = Connection(so3.algebra, [LinearMap.identity(3)] * 3)
    with pytest.raises(PreconditionError) as exc:
        semidirect(so3.algebra, bad)
    assert exc.value.details is not None
    assert not exc.value.details.passed


def test_representation_of_another_algebra_is_refused():
    """A connection on a, used on b of the same dimension but with other
    structure constants, would give a table that fails the Jacobi identity;
    each construct refuses it, and accepts a relabelled copy of a."""
    a = LieAlgebra(["x", "y"], {(0, 1): {1: 1}}, name="a")
    b = LieAlgebra(["p", "q"], {(0, 1): {0: 1}}, name="b")
    ls = Connection(a, [LinearMap([[0, 0], [0, 1]]), LinearMap.zero(2)])
    builds = {
        "semidirect": semidirect,
        "tangent": tangent,
        "cotangent": lambda g, c: cotangent(g, c)[0],
        "tower": lambda g, c: clifford_tower(g, c, 1)[0],
    }
    relabelled = LieAlgebra(["s", "t"], {(0, 1): {1: 1}}, name="a'")
    for name, build in builds.items():
        with pytest.raises(PreconditionError, match="does not live on"):
            build(b, ls)
        assert check_jacobi(build(relabelled, ls)).passed, name


def test_aff2_matches_affine_matrix_realization():
    # gl(2) |x R^2 against the 3x3 affine block realization
    aff = catalog.affine(2).algebra
    mats = []
    for i in range(2):
        for j in range(2):
            mats.append(unit(3, i, j))
    mats.append(unit(3, 0, 2))
    mats.append(unit(3, 1, 2))
    oracle, _ = from_matrix_basis(mats, labels=aff.labels)
    assert aff.same_constants(oracle)


def test_tangent_adjoint_so3_isomorphic_to_euclidean():
    # solve the intertwiner rho(x) P = P ad(x), then transport
    so3 = catalog.so(3)
    alg = so3.algebra
    rho = so3.structures["standard_rep"]
    ad = alg.adjoint_connection()
    rows = []
    for k in range(3):
        R = rho.maps[k].matrix.data
        A = ad.maps[k].matrix.data
        # (rho(b_k) P - P ad(b_k))[r][c] = sum_s R[r][s] P[s][c] - P[r][s] A[s][c]
        for r in range(3):
            for c in range(3):
                row = [Q(0)] * 9
                for s in range(3):
                    row[3 * s + c] += R[r][s]
                    row[3 * r + s] -= A[s][c]
                rows.append(row)
    # kernel of the stacked system = intertwiners; irreducibility makes it a line
    kernel_dim = 9 - naive_rank([[rows[i][j] for j in range(9)] for i in range(len(rows))])
    assert kernel_dim == 1
    # scan a small integer box for a nonzero solution of the linear system
    import itertools

    found = None
    for cand in itertools.product([-1, 0, 1], repeat=9):
        if not any(cand):
            continue
        v = [Q(x) for x in cand]
        if all(sum(row[j] * v[j] for j in range(9)) == 0 for row in rows):
            found = v
            break
    assert found is not None
    P = [[found[3 * r + c] for c in range(3)] for r in range(3)]
    assert naive_inverse(P) is not None
    # transport: tangent under ad equals semidirect under rho after P
    T_ad = tangent(alg, ad, check_rep=False)
    T_rho = semidirect(alg, rho, module_labels=["e1", "e2", "e3"], check_rep=False)
    big = [[0] * 6 for _ in range(6)]
    for i in range(3):
        big[i][i] = Q(1)
        for j in range(3):
            big[3 + i][3 + j] = P[i][j]
    Pmap = LinearMap(big)
    cols = Pmap.sparse_columns()
    for a in range(6):
        for b in range(a + 1, 6):
            lhs = Pmap.apply_sparse(T_ad.bracket_basis(a, b))
            rhs = T_rho.bracket_sparse(cols[a], cols[b])
            assert lhs == rhs


def test_tangent_zero_connection_abelian():
    ab = catalog.abelian(3).algebra
    conn = Connection(ab, [LinearMap.zero(3)] * 3)
    t = tangent(ab, conn)
    assert t.dim == 6 and not t.table


def test_tangent_labels_suffixed():
    aff = catalog.affine(1).algebra
    ls = Connection(aff, [LinearMap([[Q(0), Q(0)], [Q(0), Q(1)]]), LinearMap.zero(2)])
    t = tangent(aff, ls)
    assert t.labels == ["e11", "e1", "e11_a", "e1_a"]


def test_cotangent_abelian_standard_pairing():
    ab = catalog.abelian(2).algebra
    conn = Connection(ab, [LinearMap.zero(2)] * 2)
    t, om = cotangent(ab, conn)
    assert t.dim == 4 and not t.table
    expect = LinearMap(
        [[Q(0), Q(0), Q(-1), Q(0)],
         [Q(0), Q(0), Q(0), Q(-1)],
         [Q(1), Q(0), Q(0), Q(0)],
         [Q(0), Q(1), Q(0), Q(0)]]
    )
    assert om.gram == expect


def _foreign_double():
    """a with a flat connection ls, and the tangent algebra of the abelian
    plane b under its zero connection: twice a's dimension, other constants."""
    a = LieAlgebra(["x", "y"], {(0, 1): {1: Q(1)}}, name="a")
    ls = Connection(a, [LinearMap([[Q(0), Q(0)], [Q(0), Q(1)]]), LinearMap.zero(2)])
    b = LieAlgebra(["p", "q"], {}, name="b")
    return a, ls, tangent(b, Connection(b, [LinearMap.zero(2)] * 2))


def test_lifted_connection_compares_structure_constants():
    """The tangent algebra of another base, of the right dimension, is
    refused; a copy of the tangent algebra under other labels and another
    name is accepted and gets the same lift."""
    a, ls, foreign = _foreign_double()
    assert foreign.dim == 2 * ls.module_dim
    with pytest.raises(PreconditionError, match="not the tangent algebra"):
        lifted_connection(ls, foreign)
    talg = tangent(a, ls)
    copy_ = LieAlgebra(["p", "q", "r", "s"], talg.table, name="copy")
    assert lifted_connection(ls, copy_).maps == lifted_connection(ls, talg).maps


def test_semidirect_refuses_an_output_above_max_dim(monkeypatch):
    """The size is checked first, so neither the representation sweep nor the
    table is reached; an output of exactly MAX_DIM is built."""
    ab = catalog.abelian(1).algebra
    with pytest.raises(PreconditionError, match="more than %d dimensions" % MAX_DIM):
        semidirect(ab, Connection(ab, [LinearMap.zero(MAX_DIM)]))
    monkeypatch.setattr(lie_core, "MAX_DIM", 4)
    ab = catalog.abelian(2).algebra
    assert semidirect(ab, Connection(ab, [LinearMap.zero(2)] * 2)).dim == 4
    with pytest.raises(PreconditionError):
        semidirect(ab, Connection(ab, [LinearMap.zero(3)] * 2))


def test_central_extension_and_affinization_refuse_an_output_above_max_dim(monkeypatch):
    """Each size is checked before any algebra is built; an output of
    exactly MAX_DIM is built."""
    monkeypatch.setattr(lie_core, "MAX_DIM", 4)
    three, four = catalog.abelian(3).algebra, catalog.abelian(4).algebra
    two_labels, three_labels = (AssociativeAlgebra(list(labs), {}) for labs in ("ab", "abc"))
    assert central_extension(three).dim == 4
    assert aff_algebra(two_labels)[0].dim == 4

    def no_build(*args, **kwargs):
        raise AssertionError("an algebra was built")

    monkeypatch.setattr(LieAlgebra, "_normalized", no_build)
    with pytest.raises(PreconditionError, match="^central extension has more than 4 dimensions$"):
        central_extension(four)
    with pytest.raises(PreconditionError, match="^affinization has more than 4 dimensions$"):
        aff_algebra(three_labels)


def test_cotangent_dual_maps_are_negative_transposes():
    aff = catalog.affine(1).algebra
    ls = Connection(aff, [LinearMap([[Q(0), Q(0)], [Q(0), Q(1)]]), LinearMap.zero(2)])
    t, om = cotangent(aff, ls)
    # bracket of a base element with a dual element reads off -transpose
    got = t.bracket_basis(0, 2)  # [x, alpha1]
    nxT = [[Q(0), Q(0)], [Q(0), Q(-1)]]
    expect = {2 + k: nxT[k][0] for k in range(2) if nxT[k][0]}
    assert got == expect


def test_cotangent_closedness_dichotomy():
    aff = catalog.affine(1).algebra
    ls = Connection(aff, [LinearMap([[Q(0), Q(0)], [Q(0), Q(1)]]), LinearMap.zero(2)])
    ad = aff.adjoint_connection()
    t1, om1 = cotangent(aff, ls)
    t2, om2 = cotangent(aff, ad, check_rep=False)
    assert check_closed(t1, om1).passed
    cert = check_closed(t2, om2)
    assert not cert.passed and cert.witnesses


def test_central_extension_abelian():
    ab = catalog.abelian(3).algebra
    z = central_extension(ab)
    assert z.dim == 4 and z.labels[-1] == "z" and not z.table


def test_central_extension_center_is_central():
    so6z = central_extension(catalog.so(6).algebra)
    last = so6z.dim - 1
    for i in range(last):
        assert not so6z.bracket_basis(i, last)


def test_central_extension_label_clash():
    L = LieAlgebra(["z", "w"], {}, name="zw")
    with pytest.raises(PreconditionError):
        central_extension(L)


def _layout(table):
    return [(pair, [(k, type(v), v) for k, v in coeffs.items()]) for pair, coeffs in table.items()]


def _assert_normalized(alg):
    """The table is what the public constructor stores for it, integer-first."""
    again = unchecked_algebra(alg.labels, alg.table)
    assert _layout(again.table) == _layout(alg.table), alg.name
    for coeffs in alg.table.values():
        assert all(is_integer_first(v) for v in coeffs.values()), (alg.name, coeffs)


def _fraction_m2():
    """2 x 2 matrices on the basis 1, h/2, e, f, so products carry halves."""
    h = Q(1, 2)
    table = {
        (0, 0): {0: 1}, (0, 1): {1: 1}, (0, 2): {2: 1}, (0, 3): {3: 1},
        (1, 0): {1: 1}, (1, 1): {0: Q(1, 4)}, (1, 2): {2: h}, (1, 3): {3: -h},
        (2, 0): {2: 1}, (2, 1): {2: -h}, (2, 3): {0: h, 1: 1},
        (3, 0): {3: 1}, (3, 1): {3: h}, (3, 2): {0: h, 1: -1},
    }
    return AssociativeAlgebra(["one", "h", "e", "f"], table, name="M2'")


_BUILDER_PARAMS = {
    "so": [3, 4, 5, 6],
    "lorentz": [2, 3, 4],
    "gl": [1, 2, 3],
    "affine": [1, 2, 3],
    "abelian": [1, 2],
    "euclidean": [3, 4, 5, 6, 7, 8],
    "poincare": [0, 1],
}


def test_builders_store_normalized_tables():
    """Builder tables match the constructor's normalization exactly.

    Builders store their tables without a second normalization, so each
    must already hold what the constructor would: the same entries in the
    same key order with the same scalar types, and no integral Fraction.
    """
    algebras = []
    for name, (fn, arity) in catalog._BUILDERS.items():
        entries = [fn(n) for n in _BUILDER_PARAMS[name]] if arity else [fn()]
        for entry in entries:
            algebras.append(entry.algebra)
            algebras += [v for v in entry.structures.values() if isinstance(v, LieAlgebra)]
    sl2 = [
        [[Q(1, 2), 0], [0, Q(-1, 2)]],
        [[0, Q(2, 3)], [0, 0]],
        [[0, 0], [Q(3, 7), 0]],
    ]
    g, mats = from_matrix_basis(sl2, labels=["h", "e", "f"], name="sl2'")
    rho = Connection(g, mats)
    ad = g.adjoint_connection()
    A = _fraction_m2()
    aff, K, _ = aff_algebra(A)
    sub, _, _ = reconstruct_connection(aff, K, list(range(A.dim)))
    algebras += [
        g,
        semidirect(g, rho),
        tangent(g, ad),
        cotangent(g, ad)[0],
        central_extension(g),
        aff,
        aff_algebra(matrix_assoc_algebra(2))[0],
        sub,
    ]
    assert any(
        type(v) is Fraction for alg in algebras for c in alg.table.values() for v in c.values()
    )
    for alg in algebras:
        _assert_normalized(alg)


def test_eigenspace_split_abelian():
    ab = catalog.abelian(2).algebra
    J = AlmostComplex.from_pairs(2, [(0, 1)])
    plus, minus, (cp, cm) = eigenspace_split(ab, J)
    assert cp.passed and cm.passed
    assert len(plus) == 2 and len(minus) == 2


def test_eigenspace_split_matches_integrability():
    e3 = catalog.euclidean(3)
    L, J = e3.algebra, e3.structures["j"]
    _, _, (cp, cm) = eigenspace_split(L, J)
    assert cp.passed and cm.passed and check_integrable(L, J).passed
    Jb = AlmostComplex.from_pairs(6, [(0, 2), (1, 5), (3, 4)])
    _, _, (bp, bm) = eigenspace_split(L, Jb)
    bad = check_integrable(L, Jb)
    assert bp.passed == bad.passed and bm.passed == bad.passed


def test_eigenspace_split_checks_the_structure_size():
    """A structure of the wrong size is a DimensionMismatchError: a larger one
    used to pass both sweeps and a smaller one to raise IndexError."""
    L = catalog.euclidean(3).algebra
    for dim in (8, 4):
        J = AlmostComplex.from_pairs(dim, [(k, k + 1) for k in range(0, dim, 2)])
        with pytest.raises(DimensionMismatchError):
            eigenspace_split(L, J)


def test_eigenspace_sweeps_require_a_real_algebra():
    """The -i eigenspace is the conjugate of the +i one only for a real
    structure: i times the identity is refused."""
    L = catalog.euclidean(3).algebra
    iJ = LinearMap.from_sparse_columns(L.dim, L.dim, [{k: GaussScalar(0, 1)} for k in range(L.dim)])
    for sweep in (eigenspace_split, check_abelian_complex):
        with pytest.raises(PreconditionError, match="real"):
            sweep(L, iJ)


def test_eigenspace_sweeps_refuse_a_gaussian_table_from_the_constructor():
    """A table with Gaussian entries, made by the public constructor, is
    refused: the -i certificate is derived by conjugation, which holds only
    over a real table.  The table of e(3) times 1 + i keeps the Jacobi
    identity."""
    e3 = catalog.euclidean(3)
    L, J = e3.algebra, e3.structures["j"]
    z = GaussScalar(1, 1)
    gauss = LieAlgebra(L.labels, {
        pair: {k: z * v for k, v in coeffs.items()} for pair, coeffs in L.table.items()
    })
    for sweep in (eigenspace_split, check_abelian_complex):
        with pytest.raises(PreconditionError, match="real"):
            sweep(gauss, J)


def test_eigenspace_vectors_are_eigenvectors():
    from lieforge.scalar_linear import GaussScalar

    e3 = catalog.euclidean(3)
    L, J = e3.algebra, e3.structures["j"]
    plus, _, _ = eigenspace_split(L, J)
    i = GaussScalar(0, 1)
    for v in plus:
        jv = {}
        for k, c in v.items():
            for r, e in J.sparse_columns()[k].items():
                jv[r] = jv.get(r, GaussScalar(0)) + c * GaussScalar(e)
        jv = {k: x for k, x in jv.items() if x}
        assert jv == {k: i * c for k, c in v.items() if i * c}


def test_from_matrix_basis_single_element():
    m = madd(unit(2, 0, 1), unit(2, 1, 0), -1)
    alg, real = from_matrix_basis([m])
    assert alg.dim == 1 and not alg.table


def test_from_matrix_basis_gl2_constants():
    # [e_ij, e_rs] = delta_jr e_is - delta_si e_rj
    gl2 = catalog.gl(2)
    order = [(1, 1), (1, 2), (2, 1), (2, 2)]
    idx = {p: k for k, p in enumerate(order)}
    for (i, j) in order:
        for (r, s) in order:
            a, b = idx[(i, j)], idx[(r, s)]
            if a >= b:
                continue
            expect = {}
            if j == r:
                k = idx[(i, s)]
                expect[k] = expect.get(k, Q(0)) + 1
            if s == i:
                k = idx[(r, j)]
                expect[k] = expect.get(k, Q(0)) - 1
            expect = {k: v for k, v in expect.items() if v}
            assert gl2.algebra.bracket_basis(a, b) == expect


def test_from_matrix_basis_galilean_jacobi():
    gal = catalog.galilean()
    assert gal.algebra.dim == 10
    assert check_jacobi(gal.algebra).passed


def _flat(m):
    return [e for row in m for e in row]


def _oracle_first_failure(mats):
    """("dependent", i) or ("not_closed", (i, j)) for the first failure in
    lexicographic order, by dense commutators and ranks; None if closed."""
    rows = []
    for i, m in enumerate(mats):
        if naive_rank(rows + [_flat(m)]) == len(rows):
            return "dependent", i
        rows.append(_flat(m))
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            comm = _flat(naive_commutator(mats[i], mats[j]))
            if naive_rank(rows + [comm]) > len(rows):
                return "not_closed", (i, j)
    return None


def _assert_constants_reproduce_commutators(alg, mats):
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            expect = [[Q(0)] * len(mats[0]) for _ in mats[0]]
            for k, c in alg.bracket_basis(i, j).items():
                expect = madd(expect, mats[k], c)
            assert naive_commutator(mats[i], mats[j]) == expect


def test_from_matrix_basis_commutators_match_oracle():
    gal = catalog.galilean()
    _assert_constants_reproduce_commutators(gal.algebra, [m.matrix.data for m in gal.realization])


small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@given(st.sampled_from([("so", 2), ("so", 3), ("so", 4), ("gl", 1), ("gl", 2), ("gl", 3)]),
       st.data())
@settings(max_examples=25, deadline=None)
def test_from_matrix_basis_conjugated_bases_keep_constants(spec, data):
    """P m P^-1 over a rational P is closed with the unconjugated constants."""
    entry = catalog.build(*spec)
    n = entry.realization[0].rows
    p = data.draw(st.lists(st.lists(small_rationals, min_size=n, max_size=n),
                           min_size=n, max_size=n))
    pinv = naive_inverse(p)
    assume(pinv is not None)
    mats = [naive_product(naive_product(p, m.matrix.data), pinv)
            for m in entry.realization]
    assert _oracle_first_failure(mats) is None
    alg, real = from_matrix_basis(mats)
    assert alg.same_constants(entry.algebra)
    assert [m.matrix.data for m in real] == mats
    _assert_constants_reproduce_commutators(alg, mats)


@given(st.integers(2, 4).flatmap(
    lambda n: st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                       min_size=1, max_size=6, unique=True).map(lambda u: (n, u))))
@settings(max_examples=60, deadline=None)
def test_from_matrix_basis_unit_sets_fail_like_the_oracle(case):
    n, units = case
    mats = [unit(n, r, c) for r, c in units]
    expect = _oracle_first_failure(mats)
    if expect is None:
        alg, _ = from_matrix_basis(mats)
        _assert_constants_reproduce_commutators(alg, mats)
    else:
        assert expect[0] == "not_closed"
        with pytest.raises(NotClosedError) as exc:
            from_matrix_basis(mats)
        assert exc.value.pair == expect[1]


@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.lists(st.lists(st.integers(-1, 1), min_size=n, max_size=n),
                      min_size=n, max_size=n), min_size=1, max_size=4),
    st.lists(st.integers(-2, 2), min_size=4, max_size=4),
    st.integers(0, 4),
)))
@settings(max_examples=60, deadline=None)
def test_from_matrix_basis_dependent_sets_fail_like_the_oracle(case):
    """A combination of earlier matrices inserted into a random set is
    reported at the oracle's first dependent position."""
    n, mats, coeffs, at = case
    at = min(at, len(mats))
    combo = [[Q(0)] * n for _ in range(n)]
    for m, c in zip(mats[:at], coeffs):
        combo = madd(combo, m, c)
    mats = mats[:at] + [combo] + mats[at:]
    kind, pos = _oracle_first_failure(mats)
    assert kind == "dependent" and pos <= at
    with pytest.raises(PreconditionError, match="dependent at position %d$" % pos) as exc:
        from_matrix_basis(mats)
    assert not isinstance(exc.value, NotClosedError)


_general_entries = st.sampled_from([1, -1, 2, -2, Q(1, 2), Q(-1, 2)])


def _sparse_matrix(n):
    return st.dictionaries(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                           _general_entries, min_size=1, max_size=3).map(
        lambda d: [[d.get((r, c), 0) for c in range(n)] for r in range(n)])


def _lie_closure(mats, cap):
    """Independent members of mats and of their commutators, until the span
    is closed or holds cap matrices."""
    out, rows, pending = [], [], list(mats)
    while pending and len(out) < cap:
        m = pending.pop(0)
        if naive_rank(rows + [_flat(m)]) > len(rows):
            pending += [naive_commutator(a, m) for a in out]
            out.append(m)
            rows.append(_flat(m))
    return out


@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.lists(_sparse_matrix(n), min_size=1, max_size=4),
    st.sampled_from(["as drawn", "with a square", "closed up"]),
)))
@settings(max_examples=80, deadline=None)
def test_from_matrix_basis_general_sets_fail_like_the_oracle(case):
    """Sparse sets with signed and half entries, some with a commuting
    product a * a (so ab = ba != 0 cancels in the bracket), some closed up
    by commutators: the constants reproduce every commutator, or the error
    names the oracle's first failure."""
    mats, shape = case
    if shape == "with a square":
        mats = mats + [naive_product(mats[0], mats[0])]
    elif shape == "closed up":
        mats = _lie_closure(mats, cap=6)
    expect = _oracle_first_failure(mats)
    if expect is None:
        alg, _ = from_matrix_basis(mats)
        _assert_constants_reproduce_commutators(alg, mats)
    elif expect[0] == "not_closed":
        with pytest.raises(NotClosedError) as exc:
            from_matrix_basis(mats)
        assert exc.value.pair == expect[1]
    else:
        with pytest.raises(PreconditionError, match="dependent at position %d$" % expect[1]) as exc:
            from_matrix_basis(mats)
        assert not isinstance(exc.value, NotClosedError)


def test_from_matrix_basis_not_closed():
    mats = [unit(2, 0, 1), unit(2, 1, 0)]
    with pytest.raises(NotClosedError) as exc:
        from_matrix_basis(mats)
    assert exc.value.pair == (0, 1)


def test_from_matrix_basis_dependent_rejected():
    m = unit(2, 0, 1)
    with pytest.raises(PreconditionError):
        from_matrix_basis([m, m])


@pytest.mark.parametrize("labels", [["h"], ["h", "e", "f"]])
def test_from_matrix_basis_needs_one_label_per_matrix(labels):
    mats = [unit(2, 0, 0), unit(2, 0, 1)]
    with pytest.raises(DimensionMismatchError):
        from_matrix_basis(mats, labels=labels)


def _typed(table):
    """The table's items with every scalar's type: int and Fraction differ."""
    return [(pair, [(k, type(v), v) for k, v in c.items()]) for pair, c in table.items()]


def _reference_table(mats):
    """from_matrix_basis's table with a fresh solve on every commutator."""
    dense = [m.matrix.data for m in mats]
    solver = SpanSolver(len(dense[0]) ** 2)
    for m in dense:
        assert solver.add({k: v for k, v in enumerate(_flat(m)) if v})
    table = {}
    for i in range(len(dense)):
        for j in range(i + 1, len(dense)):
            comm = {k: v for k, v in enumerate(_flat(naive_commutator(dense[i], dense[j]))) if v}
            if comm:
                table[(i, j)] = solver.solve(comm)
    return table


@pytest.mark.parametrize(
    "name, args",
    [("so", (n,)) for n in range(3, 13)]
    + [("lorentz", (p,)) for p in range(2, 6)]
    + [("gl", (n,)) for n in range(1, 5)]
    + [("galilean", ()), ("sl2c_real", ())],
)
def test_from_matrix_basis_table_matches_a_solve_per_commutator(name, args):
    """Reducing each distinct commutator once changes no pair, no key order
    and no scalar type of the table."""
    entry = getattr(catalog, name)(*args)
    expect = _reference_table(entry.realization)
    assert _typed(entry.algebra.table) == _typed(expect)


@pytest.mark.parametrize("reverse", [False, True])
def test_from_matrix_basis_equal_commutators_give_the_normalized_combination(
    reverse, monkeypatch
):
    """x_k = s_k E_0k and y_k = q_k E_k6 (k = 1..4) bracket to s_k q_k E_06,
    which is s_k q_k (u - t) with t = E_05 and u = E_06 + E_05.  The
    products 4/3 * 3/2 and 2 * 1 give 2 E_06 with Fraction and int entries,
    1 * 1 and 1/2 * 2 give E_06: two distinct commutators, four pairs."""
    scales = [(Q(4, 3), Q(3, 2)), (2, 1), (1, 1), (Q(1, 2), 2)]
    if reverse:
        scales.reverse()
    mats = []
    for k, (s, q) in enumerate(scales, start=1):
        mats += [[[s * e for e in row] for row in unit(7, 0, k)],
                 [[q * e for e in row] for row in unit(7, k, 6)]]
    mats += [unit(7, 0, 5), madd(unit(7, 0, 6), unit(7, 0, 5))]
    calls = []
    solve = SpanSolver.solve
    monkeypatch.setattr(SpanSolver, "solve", lambda self, vec: calls.append(vec) or solve(self, vec))
    alg, real = from_matrix_basis(mats)
    # only the first pair with each commutator is solved
    assert len(calls) == 2
    assert any(type(v) is Fraction for vec in calls for v in vec.values() if v == 2) == (not reverse)
    monkeypatch.undo()
    assert _typed(alg.table) == _typed(_reference_table(real))
    t, u = 8, 9
    expect = {(2 * k, 2 * k + 1): {t: -s * q, u: s * q} for k, (s, q) in enumerate(scales)}
    assert alg.table == expect
    _assert_normalized(alg)


def _checks_on_euclidean(n):
    entry = catalog.euclidean(n)
    L, J = entry.algebra, entry.structures["j"]
    split = [L.basis_vector(i) for i in entry.structures["split"]]
    checks = [
        lambda: check_jacobi(L),
        lambda: check_integrable(L, J),
        lambda: check_integrable(L, J, split=split),
        lambda: check_complex_lie(L, J),
        lambda: check_abelian_complex(L, J),
        lambda: check_representation(L.adjoint_connection()),
        lambda: check_torsion_free(L.adjoint_connection()),
        lambda: check_product_structure(L, LinearMap.identity(L.dim)),
        lambda: eigenspace_split(L, J),
        lambda: nijenhuis(L, J, L.basis_vector(0), L.basis_vector(L.dim - 1)),
        lambda: check_holomorphic(L, L, LinearMap.identity(L.dim), J, J),
    ]
    algebras = [L]
    cd = entry.structures.get("compat")
    if cd is not None:
        algebras.append(cd.rho.algebra)
        checks += [
            lambda: check_action_compatibility(cd.rho, cd.j, cd.i, cd.split),
            lambda: check_representation(cd.rho),
            lambda: check_integrable(cd.rho.algebra, cd.j),
        ]
    return algebras, checks


def _checks_on_gl2_doubles(kind):
    gl2 = catalog.gl(2)
    g, conn = gl2.algebra, gl2.structures["left_mult"]
    _, RI = catalog.right_mult_structure(1)
    trace = BilinearForm(LinearMap([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]),
                         BilinearForm.SYMMETRIC)
    checks = [
        lambda: check_representation(conn),
        lambda: check_torsion_free(conn),
        lambda: torsion(conn, 1, 2),
        lambda: check_parallel(conn, RI),
        lambda: check_metric(conn, trace),
        lambda: check_self_dual(conn, LinearMap.identity(4)),
        lambda: check_closed(g, BilinearForm(LinearMap.zero(4), BilinearForm.SKEW)),
    ]
    if kind == "tangent":
        D = tangent(g, conn)
        K = canonical_complex_structure(D)
        lifted = lifted_connection(conn, D)
        checks += [
            lambda: check_integrable(D, K),
            lambda: check_complex_lie(D, K),
            lambda: check_parallel(lifted, K),
            lambda: check_torsion_integrability_equivalence(conn),
            lambda: reconstruct_connection(D, K, range(4)),
            lambda: hypercomplex_pair(conn, RI),
            lambda: clifford_tower(g, conn, 2)[2].certify(),
        ]
    else:
        D, omega = cotangent(g, conn)
        K = canonical_complex_structure(D)
        checks += [
            lambda: check_closed(D, omega),
            lambda: check_symplectic(D, omega),
            lambda: check_integrable(D, K),
            lambda: check_abelian_complex(D, K),
        ]
    return [D, g], checks


def _checks_on_euclidean_plane():
    so2 = catalog.so(2)
    e2 = semidirect(so2.algebra, so2.structures["standard_rep"], check_rep=False)
    B = BilinearForm(LinearMap.identity(3), BilinearForm.SYMMETRIC)
    return [e2, so2.algebra], [lambda: check_pseudo_kahler(e2, B)]


@pytest.mark.parametrize(
    "build",
    [
        lambda: _checks_on_euclidean(5),
        lambda: _checks_on_euclidean(6),
        lambda: _checks_on_gl2_doubles("tangent"),
        lambda: _checks_on_gl2_doubles("cotangent"),
        _checks_on_euclidean_plane,
    ],
    ids=["euclidean_5", "euclidean_6", "tangent_gl2", "cotangent_gl2", "euclidean_plane"],
)
def test_no_check_writes_a_table(build):
    """Builders share coefficient dicts between tables and between pairs;
    that is sound only while nothing writes a table after construction."""
    algebras, checks = build()
    before = [copy.deepcopy(alg.table) for alg in algebras]
    for check in checks:
        check()
    assert [_typed(alg.table) for alg in algebras] == [_typed(t) for t in before]


def _typed_columns(lm):
    return [[(r, type(v), v) for r, v in c.items()] for c in lm.sparse_columns()]


def test_no_check_writes_a_shared_map_column():
    """block_complex_structure, lifted_connection and the metric of
    check_pseudo_kahler share their inputs' column dicts; that is sound
    only while nothing writes a map's columns after construction."""
    gl2 = catalog.gl(2)
    g, conn = gl2.algebra, gl2.structures["left_mult"]
    _, RI = catalog.right_mult_structure(1)
    D = tangent(g, conn)
    lifted = lifted_connection(conn, D)
    jp, jm = (block_complex_structure(RI, RI, sign) for sign in (1, -1))
    K = canonical_complex_structure(D)
    _, tower_conn, tower = clifford_tower(g, conn, 2)
    so2 = catalog.so(2)
    e2 = semidirect(so2.algebra, so2.structures["standard_rep"], check_rep=False)
    B = BilinearForm(LinearMap.identity(3), BilinearForm.SYMMETRIC)
    assert jp.sparse_columns()[0] is RI.sparse_columns()[0]
    assert jm.sparse_columns()[0] is RI.sparse_columns()[0]
    assert lifted.maps[1].sparse_columns()[0] is conn.maps[1].sparse_columns()[0]
    shared = [RI, B.gram, *conn.maps]
    before = [_typed_columns(m) for m in shared]
    checks = [
        lambda: check_integrable(D, jp),
        lambda: check_integrable(D, jm),
        lambda: check_complex_lie(D, jm),
        lambda: check_parallel(lifted, jp),
        lambda: check_parallel(lifted, jm),
        lambda: check_parallel(lifted, K),
        lambda: check_representation(lifted),
        lambda: check_torsion_free(lifted),
        lambda: hypercomplex_pair(conn, RI),
        lambda: tower.certify(tower_conn),
        lambda: check_pseudo_kahler(e2, B),
    ]
    for check in checks:
        check()
    assert [_typed_columns(m) for m in shared] == before


def test_assoc_requires_associativity():
    bad = {(0, 0): {1: Q(1)}, (1, 0): {0: Q(1)}}
    with pytest.raises(PreconditionError):
        AssociativeAlgebra(["x", "y"], bad)


def test_assoc_without_products_multiplies_nothing(monkeypatch):
    """Both sides of the associativity law vanish at a triple unless one of
    its two pairs has a product, so a table with none takes no product."""
    from lieforge.dsl import parse

    calls = [0]
    product_sparse = AssociativeAlgebra.product_sparse

    def counted(self, u, v):
        calls[0] += 1
        return product_sparse(self, u, v)

    monkeypatch.setattr(AssociativeAlgebra, "product_sparse", counted)
    labels = " ".join("e%d" % i for i in range(40))
    ws = parse("assoc A { basis %s ; }\n" % labels)
    assert ws.definitions["A"][1].dim == 40
    assert calls[0] == 0


_assoc_tables = st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.just(n),
    st.dictionaries(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        st.dictionaries(st.integers(0, n - 1), st.sampled_from([1, -1, 2, Q(1, 2)]), max_size=2),
        max_size=6,
    ),
))


@given(_assoc_tables)
@settings(max_examples=300, deadline=None)
def test_associativity_refusal_names_the_oracles_first_triple(case):
    """Random sparse tables, most of them not associative: the constructor
    refuses exactly when the dense oracle finds a failing triple, and names
    the first one in lexicographic order."""
    n, table = case
    expect = naive_associativity_defect(n, table)
    labels = ["a%d" % i for i in range(n)]
    if expect is None:
        assert AssociativeAlgebra(labels, table).dim == n
    else:
        with pytest.raises(PreconditionError) as exc:
            AssociativeAlgebra(labels, table)
        assert str(exc.value) == "product table is not associative at triple %s" % (expect,)


def test_assoc_rejects_indices_outside_the_basis():
    # a pair key past the basis, and a coefficient index past it
    with pytest.raises(DimensionMismatchError):
        AssociativeAlgebra(["x"], {(0, 3): {2: 1}})
    with pytest.raises(DimensionMismatchError):
        AssociativeAlgebra(["x", "y"], {(0, 0): {5: 1}})


def test_aff_algebra_of_reals():
    A = AssociativeAlgebra(["one"], {(0, 0): {0: Q(1)}}, name="R")
    alg, K, conn = aff_algebra(A)
    # the commutator part dies but the module action survives: [x, v] = v,
    # which is the affine line algebra
    assert alg.same_constants(catalog.affine(1).algebra)
    assert K == LinearMap([[Q(0), Q(1)], [Q(-1), Q(0)]])
    assert check_representation(conn).passed
    assert check_integrable(alg, K).passed


def test_aff_algebra_of_complexes():
    alg, K, conn = aff_algebra(complex_numbers_algebra())
    assert alg.dim == 4
    # product-table expansion: [x1, v1] = v1, [xi, vi] = -v1, [x1, xi] = 0
    assert alg.bracket_basis(0, 2) == {2: Q(1)}
    assert alg.bracket_basis(1, 3) == {2: Q(-1)}
    assert not alg.bracket_basis(0, 1)
    assert check_integrable(alg, K).passed


def test_aff_algebra_of_matrices_structure_integrable():
    alg, K, conn = aff_algebra(matrix_assoc_algebra(2))
    assert alg.dim == 8
    assert check_representation(conn).passed
    assert check_integrable(alg, K).passed


@pytest.mark.parametrize(
    "make", [complex_numbers_algebra, lambda: matrix_assoc_algebra(2)], ids=["C", "M2"]
)
def test_aff_algebra_lifts_left_multiplication_onto_both_copies(make):
    """The i-th operator of aff's connection is L_i on each copy, read
    densely off the product table; the second-copy operators are zero and
    K is the swap (x, y) -> (y, -x)."""
    A = make()
    n = A.dim
    alg, K, conn = aff_algebra(A)
    for i in range(n):
        dense = [[Q(0)] * (2 * n) for _ in range(2 * n)]
        for j in range(n):
            for k, v in A.table.get((i, j), {}).items():
                dense[k][j] = dense[n + k][n + j] = v
        assert conn.maps[i] == LinearMap(dense)
    assert conn.maps[n:] == [LinearMap.zero(2 * n)] * n
    swap = [[Q(0)] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        swap[i][n + i], swap[n + i][i] = Q(1), Q(-1)
    assert K == LinearMap(swap)


def test_aff_algebra_primes_a_copy_label_that_clashes():
    """aff(A) is a semidirect product, so a copy label that is already a
    label of A (``x_t`` of ``x``) gets a prime, as in every semidirect product."""
    A = AssociativeAlgebra(["x", "x_t"], {(0, 0): {0: 1}, (0, 1): {1: 1}}, name="A")
    alg, K, conn = aff_algebra(A)
    assert alg.labels == ["x", "x_t", "x_t'", "x_t_t"] and alg.name == "aff(A)"
    assert alg.table == {(0, 1): {1: 1}, (0, 2): {2: 1}, (0, 3): {3: 1}}
    assert check_representation(conn).passed and check_integrable(alg, K).passed


def test_contraction_base_at_one():
    lz = catalog.lorentz(3)
    fam = ContractionFamily(
        lz.algebra, lz.structures["rotation_indices"], lz.structures["boost_indices"]
    )
    assert fam.at(1).same_constants(lz.algebra)


def test_contraction_samples_satisfy_jacobi():
    lz = catalog.lorentz(3)
    fam = ContractionFamily(
        lz.algebra, lz.structures["rotation_indices"], lz.structures["boost_indices"]
    )
    for t in (Q(0), Q(1, 4), Q(1, 2), Q(3, 4), Q(1)):
        assert check_jacobi(fam.at(t)).passed


def test_contraction_degenerates_to_euclidean():
    lz = catalog.lorentz(3)
    fam = ContractionFamily(
        lz.algebra, lz.structures["rotation_indices"], lz.structures["boost_indices"]
    )
    assert fam.at(0).same_constants(catalog.euclidean(3).algebra)


def test_contraction_rejects_non_reductive_split():
    lz = catalog.lorentz(3)
    with pytest.raises(PreconditionError):
        ContractionFamily(lz.algebra, [0, 1], [2, 3, 4, 5])


def test_contraction_requires_partition():
    lz = catalog.lorentz(3)
    with pytest.raises(PreconditionError):
        ContractionFamily(lz.algebra, [0, 1, 2], [2, 3, 4, 5])
