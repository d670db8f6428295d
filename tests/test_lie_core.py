import json
import os
import random
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lieforge import catalog
from lieforge.scalar_linear import (
    DimensionMismatchError,
    GaussScalar,
    PreconditionError,
    Q,
    scalar_to_str,
)
from lieforge import lie_core
from lieforge.lie_core import (
    AlmostComplex,
    BilinearForm,
    Certificate,
    Connection,
    LieAlgebra,
    LinearMap,
    MAX_WITNESSES,
    Witness,
    _acc,
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
from lieforge.constructions import cotangent, eigenspace_split, tangent

from oracles import (
    dense,
    dense_constants,
    naive_bracket,
    naive_commutator,
    naive_complex_lie_sweep,
    naive_differential,
    naive_eigenspace_sweep,
    naive_integrable_sweep,
    naive_inverse,
    naive_jacobi_defect,
    naive_jacobi_sweep,
    naive_matvec,
    naive_nijenhuis,
    naive_parallel_sweep,
    naive_product,
    naive_product_structure,
    naive_representation_defect,
    naive_torsion_free_sweep,
    naive_square,
    is_minus_identity,
    naive_rank,
    sparse,
    unchecked_algebra,
)


def abelian(n):
    return LieAlgebra(["a%d" % i for i in range(n)], {}, name="ab%d" % n)


def corrupted_triple_table():
    # [a,b] = c, [a,c] = b, [b,c] = b: the cyclic sum picks up [a,b] = c
    return {
        (0, 1): {2: Q(1)},
        (0, 2): {1: Q(1)},
        (1, 2): {1: Q(1)},
    }


@pytest.fixture(scope="module")
def e3():
    return catalog.euclidean(3)


def test_bracket_antisymmetry_on_basis(e3):
    L = e3.algebra
    for i in range(L.dim):
        for j in range(L.dim):
            u, v = {i: Q(1)}, {j: Q(1)}
            assert L.bracket_sparse(u, v) == {k: -c for k, c in L.bracket_sparse(v, u).items()}
        assert L.bracket_sparse({i: Q(1)}, {i: Q(1)}) == {}


def test_bracket_matches_matrix_commutator_oracle(e3):
    L = e3.algebra
    # [f13, f23] from the 3x3 realization of the rotation part embedded in
    # the affine 4x4 matrices: rotation block plus translation column
    def affine_mat(rot, trans):
        m = [[Q(0)] * 4 for _ in range(4)]
        for i in range(3):
            for j in range(3):
                m[i][j] = rot[i][j]
            m[i][3] = trans[i]
        return m

    z3 = [[Q(0)] * 3 for _ in range(3)]
    f13 = [[Q(0), Q(0), Q(1)], [Q(0)] * 3, [Q(-1), Q(0), Q(0)]]
    f23 = [[Q(0)] * 3, [Q(0), Q(0), Q(1)], [Q(0), Q(-1), Q(0)]]
    comm = naive_commutator(affine_mat(f13, [Q(0)] * 3), affine_mat(f23, [Q(0)] * 3))
    # expected: -h, i.e. -(e12 - e21) block
    h = [[Q(0), Q(1), Q(0)], [Q(-1), Q(0), Q(0)], [Q(0)] * 3]
    assert comm == affine_mat([[-x for x in r] for r in h], [Q(0)] * 3)
    got = L.bracket_sparse({1: Q(1)}, {2: Q(1)})
    assert got == {0: Q(-1)}  # -h in the catalog frame


def test_bracket_translation_action(e3):
    # the rotation generators act on translations as the matrices do
    L = e3.algebra
    got = L.bracket_sparse({1: Q(1)}, {5: Q(1)})  # [f13, e3]
    assert got == {3: Q(1)}  # e1


def test_jacobi_abelian_passes():
    assert check_jacobi(abelian(4)).passed


def test_jacobi_catalog_passes(e3):
    assert check_jacobi(e3.algebra).passed


def test_jacobi_sign_variants_of_triple_table_all_pass():
    # every sign assignment of [a,b] = +-c, [a,c] = +-b, [b,c] = +-a is a Lie
    # algebra: each cyclic term pairs a generator with itself, so the sum is
    # identically zero (confirmed by the expansion oracle)
    for s1 in (1, -1):
        for s2 in (1, -1):
            for s3 in (1, -1):
                table = {
                    (0, 1): {2: Q(s1)},
                    (0, 2): {1: Q(s2)},
                    (1, 2): {0: Q(s3)},
                }
                L = unchecked_algebra(["a", "b", "c"], table)
                assert naive_jacobi_defect(L, 0, 1, 2) == [Q(0)] * 3
                assert check_jacobi(L).passed


def test_jacobi_corrupted_table_fails_with_witness():
    L = unchecked_algebra(["a", "b", "c"], corrupted_triple_table())
    cert = check_jacobi(L)
    assert not cert.passed
    assert cert.witnesses[0].indices == (0, 1, 2)
    # oracle: expand the cyclic sum directly
    defect = naive_jacobi_defect(L, 0, 1, 2)
    assert list(cert.witnesses[0].defect) == defect
    assert any(defect)


def test_construction_jacobi_check_raises():
    with pytest.raises(PreconditionError):
        LieAlgebra(["a", "b", "c"], corrupted_triple_table())


def test_nijenhuis_same_vector_vanishes(e3):
    L, J = e3.algebra, e3.structures["j"]
    x = sparse([Q(1), Q(2), Q(-1), Q(0), Q(3), Q(5)])
    assert dense(nijenhuis(L, J, x, x), 6) == [Q(0)] * 6


def test_nijenhuis_abelian_vanishes():
    L = abelian(4)
    J = AlmostComplex.from_pairs(4, [(0, 1), (2, 3)])
    x, y = sparse([Q(1), Q(0), Q(2), Q(0)]), sparse([Q(0), Q(1), Q(0), Q(-1)])
    assert dense(nijenhuis(L, J, x, y), 4) == [Q(0)] * 4


def test_nijenhuis_vanishes_on_euclidean_basis_pairs(e3):
    L, J = e3.algebra, e3.structures["j"]
    for i in range(6):
        for j in range(6):
            assert nijenhuis(L, J, L.basis_vector(i), L.basis_vector(j)) == {}


def test_nijenhuis_matches_naive_oracle(e3):
    L, J = e3.algebra, e3.structures["j"]
    rng = random.Random(3)
    for _ in range(5):
        x = [Q(rng.randint(-3, 3)) for _ in range(6)]
        y = [Q(rng.randint(-3, 3)) for _ in range(6)]
        got = nijenhuis(L, J, sparse(x), sparse(y))
        assert dense(got, 6) == naive_nijenhuis(L, J.matrix.data, x, y)


@given(st.lists(st.integers(-4, 4), min_size=6, max_size=6),
       st.lists(st.integers(-4, 4), min_size=6, max_size=6))
@settings(max_examples=40, deadline=None)
def test_nijenhuis_antisymmetry_property(xs, ys):
    e = catalog.euclidean(3)
    L, J = e.algebra, e.structures["j"]
    x, y = sparse([Q(v) for v in xs]), sparse([Q(v) for v in ys])
    nf = dense(nijenhuis(L, J, x, y), 6)
    nr = dense(nijenhuis(L, J, y, x), 6)
    assert nf == [-v for v in nr]


@given(st.lists(st.integers(-4, 4), min_size=6, max_size=6),
       st.lists(st.integers(-4, 4), min_size=6, max_size=6))
@settings(max_examples=40, deadline=None)
def test_nijenhuis_structure_twist_property(xs, ys):
    e = catalog.euclidean(3)
    L, J = e.algebra, e.structures["j"]
    x, y = [Q(v) for v in xs], [Q(v) for v in ys]
    jm = J.matrix.data
    njj = dense(nijenhuis(L, J, sparse(naive_matvec(jm, x)), sparse(naive_matvec(jm, y))), 6)
    n = dense(nijenhuis(L, J, sparse(x), sparse(y)), 6)
    assert njj == [-v for v in n]


def broken_j_on_e3():
    # swap the images of e3 and f23 in the Euclidean structure
    return AlmostComplex.from_pairs(6, [(0, 2), (1, 5), (3, 4)])


def test_integrable_broken_structure_fails(e3):
    L = e3.algebra
    Jb = broken_j_on_e3()
    cert = check_integrable(L, Jb)
    assert not cert.passed
    # recompute the first witness with the naive oracle
    i, j = cert.witnesses[0].indices
    defect = naive_nijenhuis(L, Jb.matrix.data, dense(L.basis_vector(i), 6), dense(L.basis_vector(j), 6))
    assert list(cert.witnesses[0].defect) == defect
    assert any(defect)
    # full agreement between the library sweep and the oracle sweep
    oracle_bad = set()
    for a in range(6):
        for b in range(a + 1, 6):
            ea, eb = dense(L.basis_vector(a), 6), dense(L.basis_vector(b), 6)
            if any(naive_nijenhuis(L, Jb.matrix.data, ea, eb)):
                oracle_bad.add((a, b))
    assert cert.total_failures == len(oracle_bad)


def test_integrable_precondition_distinct(e3):
    not_complex = LinearMap.identity(6)
    with pytest.raises(PreconditionError):
        check_integrable(e3.algebra, not_complex)


def test_integrable_split_requires_spanning(e3):
    L, J = e3.algebra, e3.structures["j"]
    with pytest.raises(PreconditionError):
        check_integrable(L, J, split=[L.basis_vector(0), L.basis_vector(5)])
    # an index outside the basis, or a list, is refused before J is applied
    e4 = catalog.euclidean(4)
    L4, J4 = e4.algebra, e4.structures["j"]
    dense_split = [dense({i: 1}, 10) for i in e4.structures["split"]]
    for split in ([{13: 1}], [dense({0: 1}, 12)], dense_split):
        with pytest.raises(DimensionMismatchError, match="indices below 10$"):
            check_integrable(L4, J4, split=split)


def test_nijenhuis_takes_sparse_vectors_and_refuses_lists():
    """On e(4), with its structure and with a pairing that is not
    integrable, a sparse pair gives the oracle's value on the dense views;
    a list, an index outside the basis or a key that is not an int is a
    dimension mismatch."""
    e4 = catalog.euclidean(4)
    L = e4.algebra
    broken = AlmostComplex.from_pairs(10, [(0, 2), (1, 3), (4, 5), (6, 7), (8, 9)])
    pairs = [({0: 1}, {1: 1}), ({0: 1, 4: Q(2)}, {1: 1, 7: Q(-1, 3)})]
    values = []
    for J in (e4.structures["j"], broken):
        for x, y in pairs:
            got = nijenhuis(L, J, x, y)
            assert dense(got, 10) == naive_nijenhuis(L, J.matrix.data, dense(x, 10), dense(y, 10))
            values.append(got)
        for bad in (dense({0: 1}, 10), {10: 1}, {1.0: 1}, {True: 1}):
            for args in ((bad, {1: 1}), ({0: 1}, bad)):
                with pytest.raises(DimensionMismatchError, match="indices below 10$"):
                    nijenhuis(L, J, *args)
    assert values[:2] == [{}, {}] and all(values[2:])


def test_integrable_split_agrees(e3):
    L, J = e3.algebra, e3.structures["j"]
    split = [L.basis_vector(i) for i in e3.structures["split"]]
    assert check_integrable(L, J, split=split).passed
    Jb = broken_j_on_e3()
    split_b = [L.basis_vector(i) for i in (0, 1, 3)]
    assert check_integrable(L, Jb, split=split_b).passed == check_integrable(L, Jb).passed


def test_complex_lie_multiplication_by_i():
    sl = catalog.sl2c_real()
    assert check_complex_lie(sl.algebra, sl.structures["mult_i"]).passed


def test_complex_lie_euclidean_fails(e3):
    L, J = e3.algebra, e3.structures["j"]
    cert = check_complex_lie(L, J)
    assert not cert.passed
    # direct defect evaluation at the reported witness
    i, j = cert.witnesses[0].indices
    c = dense_constants(L)
    ei, ej = dense(L.basis_vector(i), L.dim), dense(L.basis_vector(j), L.dim)
    jm = J.matrix.data
    jej = naive_matvec(jm, ej)
    lhs = naive_bracket(c, ei, jej)
    rhs = naive_matvec(jm, naive_bracket(c, ei, ej))
    assert [a - b for a, b in zip(lhs, rhs)] == list(cert.witnesses[0].defect)


def test_complex_lie_abelian_passes():
    L = abelian(2)
    J = AlmostComplex.from_pairs(2, [(0, 1)])
    assert check_complex_lie(L, J).passed


def test_complex_lie_implies_integrable_over_catalog():
    entries = [
        (catalog.sl2c_real().algebra, catalog.sl2c_real().structures["mult_i"]),
        (catalog.euclidean(3).algebra, catalog.euclidean(3).structures["j"]),
        (catalog.galilean().algebra, catalog.galilean().structures["j"]),
    ]
    L2 = abelian(2)
    entries.append((L2, AlmostComplex.from_pairs(2, [(0, 1)])))
    for L, J in entries:
        if check_complex_lie(L, J).passed:
            assert check_integrable(L, J).passed


def test_abelian_complex_abelian_passes():
    L = abelian(2)
    J = AlmostComplex.from_pairs(2, [(0, 1)])
    assert check_abelian_complex(L, J).passed


def test_abelian_complex_sl2c_fails():
    sl = catalog.sl2c_real()
    cert = check_abelian_complex(sl.algebra, sl.structures["j"])
    assert not cert.passed


def test_abelian_complex_euclidean_verdict(e3):
    # not asserted by any headline claim; the verdict just has to be computed
    cert = check_abelian_complex(e3.algebra, e3.structures["j"])
    assert cert.check_name == "abelian_complex"
    assert not cert.passed


def test_representation_adjoint_passes(e3):
    assert check_representation(e3.algebra.adjoint_connection()).passed


def test_representation_standard_so3():
    so3 = catalog.so(3)
    assert check_representation(so3.structures["standard_rep"]).passed


def test_representation_perturbed_fails(e3):
    conn = e3.algebra.adjoint_connection()
    bad = [m.matrix.data for m in conn.maps]
    bad[0][0][0] = Q(1)
    cert = check_representation(Connection(e3.algebra, [LinearMap(m) for m in bad]))
    assert not cert.passed
    assert cert.witnesses


def test_torsion_left_symmetric_aff():
    aff = catalog.affine(1).algebra
    ls = Connection(aff, [LinearMap([[Q(0), Q(0)], [Q(0), Q(1)]]), LinearMap.zero(2)])
    for i in range(2):
        for j in range(2):
            assert dense(torsion(ls, i, j), 2) == [Q(0), Q(0)]
    assert check_torsion_free(ls).passed


def test_torsion_adjoint_aff():
    # ad_x y - ad_y x = 2[x, y], so the torsion equals [x, y]
    aff = catalog.affine(1).algebra
    ad = aff.adjoint_connection()
    assert dense(torsion(ad, 0, 1), 2) == [Q(0), Q(1)]
    assert not check_torsion_free(ad).passed


def test_torsion_zero_connection():
    L = abelian(3)
    conn = Connection(L, [LinearMap.zero(3)] * 3)
    assert check_torsion_free(conn).passed


def test_closed_and_symplectic_abelian():
    L = abelian(2)
    om = BilinearForm([[Q(0), Q(1)], [Q(-1), Q(0)]], BilinearForm.SKEW)
    assert check_closed(L, om).passed
    assert check_symplectic(L, om).passed


def test_form_stores_its_gram_matrix_as_sparse_columns():
    om = BilinearForm([[Q(0), Q(1, 2)], [Q(-1, 2), Q(0)]], BilinearForm.SKEW)
    assert om.gram.sparse_columns() == [{1: Q(-1, 2)}, {0: Q(1, 2)}]
    assert om.matrix.data == [[0, Q(1, 2)], [Q(-1, 2), 0]]
    assert BilinearForm(om.gram, BilinearForm.SKEW).gram is om.gram
    with pytest.raises(PreconditionError):
        BilinearForm(om.gram, BilinearForm.SYMMETRIC)


def test_symplectic_degenerate_carries_kernel():
    L = abelian(2)
    om = BilinearForm([[Q(0), Q(0)], [Q(0), Q(0)]], BilinearForm.SKEW)
    cert = check_symplectic(L, om)
    assert not cert.passed
    assert not cert.notes["nondegenerate"]
    assert cert.witnesses[-1].indices == ("kernel",)


def test_closed_matches_naive_differential():
    aff = catalog.affine(1).algebra
    ad = aff.adjoint_connection()
    talg, om = cotangent(aff, ad, check_rep=False)
    cert = check_closed(talg, om)
    assert not cert.passed
    i, j, k = cert.witnesses[0].indices
    d = naive_differential(talg, om.matrix.data, i, j, k)
    assert d == cert.witnesses[0].defect[0]
    assert d != 0


def test_parallel_zero_connection():
    L = abelian(3)
    conn = Connection(L, [LinearMap.zero(3)] * 3)
    anymap = LinearMap.identity(3)
    assert check_parallel(conn, anymap).passed


def test_parallel_swap_structure_on_tangent():
    # the lifted connection leaves the swap structure fixed
    from lieforge.constructions import lifted_connection
    from lieforge.structures import canonical_complex_structure

    aff = catalog.affine(1).algebra
    ls = Connection(aff, [LinearMap([[Q(0), Q(0)], [Q(0), Q(1)]]), LinearMap.zero(2)])
    talg = tangent(aff, ls, check_rep=False)
    K = canonical_complex_structure(talg)
    assert check_parallel(lifted_connection(ls, talg), K).passed


def test_metric_abelian_identity():
    L = abelian(2)
    conn = Connection(L, [LinearMap.zero(2)] * 2)
    B = BilinearForm(LinearMap.identity(2), BilinearForm.SYMMETRIC)
    cert = check_metric(conn, B)
    assert cert.passed
    assert cert.notes == {"compatible": True, "torsion_free": True, "flat": True}


def test_metric_left_symmetric_not_metric():
    aff = catalog.affine(1).algebra
    ls = Connection(aff, [LinearMap([[Q(0), Q(0)], [Q(0), Q(1)]]), LinearMap.zero(2)])
    B = BilinearForm(LinearMap.identity(2), BilinearForm.SYMMETRIC)
    cert = check_metric(ls, B)
    assert not cert.passed
    assert not cert.notes["compatible"]


def test_metric_witnesses_name_their_sub_check():
    # torsion-free on the abelian plane, but neither flat nor skew
    L = abelian(2)
    conn = Connection(L, [LinearMap([[1, 0], [0, 0]]), LinearMap([[0, 1], [0, 0]])])
    B = BilinearForm(LinearMap.identity(2), BilinearForm.SYMMETRIC)
    cert = check_metric(conn, B)
    subs = {
        "compatible": check_parallel(conn, B),
        "torsion_free": check_torsion_free(conn),
        "flat": check_representation(conn),
    }
    assert cert.notes == {"compatible": False, "torsion_free": True, "flat": False}
    expect = [((key,) + w.indices, w.defect) for key, sub in subs.items() for w in sub.witnesses]
    assert [(w.indices, w.defect) for w in cert.witnesses] == expect
    assert cert.total_failures == sum(sub.total_failures for sub in subs.values())


def test_product_structure_tangent_swap():
    aff = catalog.affine(1).algebra
    ls = Connection(aff, [LinearMap([[Q(0), Q(0)], [Q(0), Q(1)]]), LinearMap.zero(2)])
    talg = tangent(aff, ls, check_rep=False)
    E = LinearMap([[Q(1), Q(0), Q(0), Q(0)], [Q(0), Q(1), Q(0), Q(0)],
                   [Q(0), Q(0), Q(-1), Q(0)], [Q(0), Q(0), Q(0), Q(-1)]])
    cert = check_product_structure(talg, E)
    assert cert.passed
    assert cert.notes["minus_abelian"]
    assert cert.notes["minus_ideal"]


def test_ad_rows_are_built_once_per_algebra():
    """A builder's algebra builds its ad rows at the first check that reads
    them, a checked algebra in its Jacobi sweep; later checks reuse them."""
    e7 = catalog.euclidean(7)
    n, J = e7.algebra.dim, e7.structures["j"]
    E = LinearMap.from_sparse_columns(n, n, [{k: 1 if k < 21 else -1} for k in range(n)])
    with mock.patch.object(lie_core, "_signed_rows", wraps=lie_core._signed_rows) as spy:
        checked = LieAlgebra(e7.algebra.labels, e7.algebra.table)
        assert spy.call_count == 1
        for L in (checked, e7.algebra):
            for _ in range(2):
                assert check_product_structure(L, E).passed
                check_complex_lie(L, J)
                check_integrable(L, J)
        assert spy.call_count == 2
    assert spy.call_args.args[1] is e7.algebra.table


def test_product_structure_identity_degenerate():
    L = abelian(2)
    cert = check_product_structure(L, LinearMap.identity(2))
    assert cert.passed
    assert cert.notes["degenerate"]


def test_product_structure_requires_involution():
    L = abelian(2)
    with pytest.raises(PreconditionError):
        check_product_structure(L, LinearMap([[Q(2), Q(0)], [Q(0), Q(2)]]))


def test_flat_torsion_free_connection_rebuilds_a_lie_bracket():
    # a representation reproducing the bracket forces the Jacobi identity
    aff = catalog.affine(1).algebra
    ls = Connection(aff, [LinearMap([[Q(0), Q(0)], [Q(0), Q(1)]]), LinearMap.zero(2)])
    assert check_representation(ls).passed
    table = {}
    for i in range(2):
        for j in range(i + 1, 2):
            ei, ej = dense(aff.basis_vector(i), 2), dense(aff.basis_vector(j), 2)
            v = [a - b for a, b in zip(naive_matvec(ls.maps[i].matrix.data, ej),
                                       naive_matvec(ls.maps[j].matrix.data, ei))]
            coeffs = {k: c for k, c in enumerate(v) if c}
            if coeffs:
                table[(i, j)] = coeffs
    rebuilt = unchecked_algebra(["x", "y"], table)
    assert check_jacobi(rebuilt).passed
    assert rebuilt.same_constants(aff)


def test_gaussian_witness_serialization():
    sl = catalog.sl2c_real()
    cert = check_abelian_complex(sl.algebra, sl.structures["j"])
    assert not cert.passed
    blob = cert.to_json()
    w = blob["witnesses"][0]
    assert any("*i" in d for d in w["defect"])
    json.dumps(blob)


def test_certificate_json_schema(e3):
    cert = check_integrable(e3.algebra, broken_j_on_e3())
    blob = cert.to_json()
    assert set(blob) >= {"check", "target", "pass", "witnesses", "total_failures", "elapsed_ms"}
    assert blob["pass"] is False
    w = blob["witnesses"][0]
    assert isinstance(w["indices"], list)
    assert all(isinstance(d, str) for d in w["defect"])
    json.dumps(blob)  # serializable


def test_certificate_pass_iff_no_witnesses(e3):
    good = check_integrable(e3.algebra, e3.structures["j"])
    assert good.passed and not good.witnesses and good.total_failures == 0
    bad = check_integrable(e3.algebra, broken_j_on_e3())
    assert (not bad.passed) and bad.witnesses and bad.total_failures >= len(bad.witnesses)


def test_witness_cap_and_total():
    # a structure failing everywhere reports at most sixteen witnesses
    e11 = catalog.euclidean(11)
    perm = list(range(e11.algebra.dim))
    # rotate a long cycle: not remotely integrable
    n = e11.algebra.dim
    pairs = [(2 * i, 2 * i + 1) for i in range(n // 2)]
    pairs = [(b, a) for a, b in pairs]
    J = AlmostComplex.from_pairs(n, pairs)
    cert = check_integrable(e11.algebra, J)
    if not cert.passed:
        assert len(cert.witnesses) <= 16
        assert cert.total_failures >= len(cert.witnesses)


def test_sweep_keeps_sixteen_dense_witnesses_and_counts_every_failure():
    sweep = Certificate("probe", "x", 3)
    for k in range(20):
        sweep.fail((k,), {k % 3: Q(k + 1)})
    cert = sweep.done()
    assert not cert.passed and cert.total_failures == 20
    assert len(cert.witnesses) == MAX_WITNESSES
    assert cert.witnesses[4] == Witness((4,), (0, Q(5), 0))


def test_sweep_never_makes_a_discarded_defect_dense():
    sweep = Certificate("probe", "x", 3)
    for k in range(MAX_WITNESSES):
        sweep.fail((k,), {0: Q(1)})
    sweep.fail(("past_cap",), {7: Q(1)})  # would not fit in length 3
    assert sweep.done().total_failures == MAX_WITNESSES + 1


# ---------------------------------------------------------------------------
# the sparse J^2 test against the dense oracle

small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=3)


def _pairing_matrix(perm, signs):
    """Dense signed pairing taking perm[2k] to +-perm[2k+1] and back with the other sign."""
    n = len(perm)
    m = [[Fraction(0)] * n for _ in range(n)]
    for k in range(0, n, 2):
        a, b = perm[k], perm[k + 1]
        s = 1 if signs[k] else -1
        m[b][a] = Fraction(s)
        m[a][b] = Fraction(-s)
    return m


def _conjugate(m, p):
    """p m p^-1, or None when p is singular."""
    pinv = naive_inverse(p)
    if pinv is None:
        return None
    return naive_product(naive_product(p, m), pinv)


def _agrees_with_oracle(jmat):
    want = is_minus_identity(naive_square(jmat))
    assert LinearMap(jmat).squares_to_minus_identity() == want
    if want:
        AlmostComplex(jmat)
    else:
        with pytest.raises(PreconditionError):
            AlmostComplex(jmat)


@st.composite
def signed_permutations(draw):
    n = draw(st.integers(1, 8))
    perm = draw(st.permutations(range(n)))
    signs = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    if n % 2 == 0 and draw(st.booleans()):
        return _pairing_matrix(perm, signs)
    m = [[0] * n for _ in range(n)]
    for j in range(n):
        m[perm[j]][j] = 1 if signs[j] else -1
    return m


@given(signed_permutations())
@settings(max_examples=150, deadline=None)
def test_j_squared_matches_oracle_on_signed_permutations(jmat):
    _agrees_with_oracle(jmat)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_j_squared_matches_oracle_on_rational_maps(data):
    n = 2 * data.draw(st.integers(1, 2))
    flat = data.draw(st.lists(small_rationals, min_size=n * n, max_size=n * n))
    jmat = [flat[i * n : (i + 1) * n] for i in range(n)]
    if data.draw(st.booleans()):
        base = _pairing_matrix(list(range(n)), [True] * n)
        jmat = _conjugate(base, jmat) or base
    _agrees_with_oracle(jmat)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_j_squared_matches_oracle_on_gaussian_maps(data):
    n = data.draw(st.integers(1, 3))
    gauss = st.builds(GaussScalar, small_rationals, small_rationals)
    kind = data.draw(st.sampled_from(["diag_i", "conjugated", "random"]))
    if kind == "random":
        jmat = [[data.draw(gauss) for _ in range(n)] for _ in range(n)]
    else:
        signs = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        jmat = [
            [GaussScalar(0, 1 if signs[i] else -1) if i == j else GaussScalar(0) for j in range(n)]
            for i in range(n)
        ]
        if kind == "conjugated":
            p = [[data.draw(gauss) for _ in range(n)] for _ in range(n)]
            jmat = _conjugate(jmat, p) or jmat
    _agrees_with_oracle(jmat)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_near_miss_structure_is_rejected(data):
    """A valid structure with exactly one column changed fails the J^2 test."""
    n = 2 * data.draw(st.integers(1, 5))
    perm = data.draw(st.permutations(range(n)))
    signs = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    jmat = _pairing_matrix(perm, signs)
    if n <= 4 and data.draw(st.booleans()):
        p = [[data.draw(small_rationals) for _ in range(n)] for _ in range(n)]
        jmat = _conjugate(jmat, p) or jmat
    assert is_minus_identity(naive_square(jmat))
    j = data.draw(st.integers(0, n - 1))
    kind = data.draw(st.sampled_from(["zero", "negate", "add"]))
    for i in range(n):
        if kind == "zero":
            jmat[i][j] = Fraction(0)
        elif kind == "negate":
            jmat[i][j] = -jmat[i][j]
    if kind == "add":
        k = data.draw(st.integers(0, n - 1))
        jmat[k][j] += data.draw(small_rationals.filter(bool))
    assert not is_minus_identity(naive_square(jmat))
    assert not LinearMap(jmat).squares_to_minus_identity()
    with pytest.raises(PreconditionError):
        AlmostComplex(jmat)
    with pytest.raises(PreconditionError):
        check_integrable(abelian(n), LinearMap(jmat))


def test_elapsed_ms_includes_the_precondition(e3, monkeypatch):
    L, J = e3.algebra, e3.structures["j"]
    real = LinearMap.squares_to_minus_identity

    def slow(self):
        time.sleep(0.05)
        return real(self)

    monkeypatch.setattr(LinearMap, "squares_to_minus_identity", slow)
    for check in (check_integrable, check_complex_lie, check_abelian_complex):
        assert check(L, J).elapsed_ms >= 50


def test_elapsed_ms_includes_the_form_inversion(monkeypatch):
    L = abelian(2)
    om = BilinearForm([[Q(0), Q(1)], [Q(-1), Q(0)]], BilinearForm.SKEW)
    g = BilinearForm(LinearMap.identity(2), BilinearForm.SYMMETRIC)
    conn = Connection(L, [LinearMap.zero(2)] * 2)
    real = lie_core._require_invertible

    def slow(lm, message):
        time.sleep(0.05)
        return real(lm, message)

    monkeypatch.setattr(lie_core, "_require_invertible", slow)
    assert check_symplectic(L, om).elapsed_ms >= 50
    assert check_metric(conn, g).elapsed_ms >= 50


# ---------------------------------------------------------------------------
# the sparse Jacobi, representation and closedness sweeps against dense oracles

SMALL_LIE = [
    e.algebra
    for e in (
        catalog.so(3),
        catalog.so(4),
        catalog.affine(1),
        catalog.gl(2),
        catalog.euclidean(3),
        catalog.sl2c_real(),
        catalog.poincare(0),
    )
]

nonzero_rationals = small_rationals.filter(bool)


def _matches_oracle(cert, fails):
    """Same verdict, count and witnesses as the oracle; each witness defect
    also prints as the oracle's defect does."""
    assert cert.passed == (not fails)
    assert cert.total_failures == len(fails)
    got = [(w.indices, list(w.defect)) for w in cert.witnesses]
    assert got == fails[:MAX_WITNESSES]
    assert [[scalar_to_str(x) for x in w.defect] for w in cert.witnesses] == [
        [scalar_to_str(x) for x in d] for _, d in fails[:MAX_WITNESSES]
    ]


def _gaussian(data, L):
    """L over the Gaussian rationals: its table times one Gaussian scalar,
    which keeps the Jacobi identity, or each coefficient given its own
    imaginary part."""
    if data.draw(st.booleans()):
        z = GaussScalar(data.draw(nonzero_rationals), data.draw(small_rationals))
        coeff = lambda v: z * v
    else:
        coeff = lambda v: GaussScalar(v, data.draw(small_rationals))
    table = {pair: {k: coeff(v) for k, v in coeffs.items()} for pair, coeffs in L.table.items()}
    return unchecked_algebra(L.labels, table)


def _corrupted(data, L, max_changes=3):
    """L with up to ``max_changes`` structure constants shifted."""
    n = L.dim
    table = {key: dict(coeffs) for key, coeffs in L.table.items()}
    for _ in range(data.draw(st.integers(0, max_changes))):
        i = data.draw(st.integers(0, n - 2))
        j = data.draw(st.integers(i + 1, n - 1))
        k = data.draw(st.integers(0, n - 1))
        coeffs = table.setdefault((i, j), {})
        coeffs[k] = coeffs.get(k, 0) + data.draw(nonzero_rationals)
    return unchecked_algebra(L.labels, table, name=L.name)


def _rescaled(data, L):
    """L in the basis s_i b_i: a Lie algebra again, with new constants."""
    s = [data.draw(nonzero_rationals) for _ in range(L.dim)]
    table = {
        (i, j): {k: s[i] * s[j] / s[k] * c for k, c in coeffs.items()}
        for (i, j), coeffs in L.table.items()
    }
    return unchecked_algebra(L.labels, table, name=L.name)


def _table(data, even=False):
    """A random rational table (dimension <= 9) or a rescaled small Lie algebra,
    either one possibly corrupted; of even dimension if ``even``."""
    if data.draw(st.booleans()):
        n = 2 * data.draw(st.integers(1, 4)) if even else data.draw(st.integers(2, 9))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        chosen = data.draw(st.lists(st.sampled_from(pairs), max_size=2 * n, unique=True))
        entries = st.dictionaries(st.integers(0, n - 1), small_rationals, max_size=3)
        table = {p: data.draw(entries) for p in chosen}
        return unchecked_algebra(["b%d" % i for i in range(n)], table)
    algebras = [L for L in SMALL_LIE if L.dim % 2 == 0] if even else SMALL_LIE
    return _corrupted(data, _rescaled(data, data.draw(st.sampled_from(algebras))))


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_jacobi_matches_oracle_on_rational_tables(data):
    L = _table(data)
    _matches_oracle(check_jacobi(L), naive_jacobi_sweep(L))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_jacobi_matches_oracle_on_gaussian_tables(data):
    L = _gaussian(data, _table(data))
    _matches_oracle(check_jacobi(L), naive_jacobi_sweep(L))


@given(st.data())
@settings(max_examples=5, deadline=None)
def test_jacobi_matches_oracle_on_corrupted_e7(data):
    L = _corrupted(data, catalog.euclidean(7).algebra, max_changes=4)
    _matches_oracle(check_jacobi(L), naive_jacobi_sweep(L))


def test_jacobi_witness_cap_and_order_past_sixteen_failures():
    e7 = catalog.euclidean(7).algebra
    table = {key: dict(coeffs) for key, coeffs in e7.table.items()}
    for key in sorted(table)[:5]:
        table[key] = {k: 2 * c for k, c in table[key].items()}
    L = unchecked_algebra(e7.labels, table)
    fails = naive_jacobi_sweep(L)
    assert len(fails) > MAX_WITNESSES
    cert = check_jacobi(L)
    assert len(cert.witnesses) == MAX_WITNESSES
    _matches_oracle(cert, fails)


CONNECTIONS = [L.adjoint_connection() for L in SMALL_LIE] + [
    catalog.so(3).structures["standard_rep"],
    catalog.gl(2).structures["standard_rep"],
    catalog.gl(2).structures["left_mult"],
]


def _perturbed(data, rho):
    """rho with up to three operator entries shifted."""
    m = rho.module_dim
    mats = [op.matrix.data for op in rho.maps]
    for _ in range(data.draw(st.integers(0, 3))):
        op = mats[data.draw(st.integers(0, len(mats) - 1))]
        r, c = data.draw(st.integers(0, m - 1)), data.draw(st.integers(0, m - 1))
        op[r][c] += data.draw(nonzero_rationals)
    return Connection(rho.algebra, [LinearMap(mt) for mt in mats])


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_representation_matches_oracle_on_perturbed_connections(data):
    pert = _perturbed(data, data.draw(st.sampled_from(CONNECTIONS)))
    _matches_oracle(check_representation(pert), naive_representation_defect(pert))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_torsion_free_matches_oracle_on_perturbed_connections(data):
    on_algebra = [rho for rho in CONNECTIONS if rho.module_dim == rho.algebra.dim]
    conn = _perturbed(data, data.draw(st.sampled_from(on_algebra)))
    _matches_oracle(check_torsion_free(conn), naive_torsion_free_sweep(conn))


def _sparse_square(data, m):
    """A dense m x m rational matrix with at most 2m entries set."""
    mat = [[Fraction(0)] * m for _ in range(m)]
    for _ in range(data.draw(st.integers(0, 2 * m))):
        r, c = data.draw(st.integers(0, m - 1)), data.draw(st.integers(0, m - 1))
        mat[r][c] = data.draw(small_rationals)
    return mat


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_parallel_matches_oracle_on_random_endomorphisms_and_forms(data):
    conn = _perturbed(data, data.draw(st.sampled_from(CONNECTIONS)))
    m = conn.module_dim
    if data.draw(st.booleans()):
        T = LinearMap(_sparse_square(data, m))
    else:  # a multiple of the identity is parallel for every connection
        s = data.draw(small_rationals)
        T = LinearMap.from_sparse_columns(m, m, [{j: s} for j in range(m)])
    _matches_oracle(check_parallel(conn, T), naive_parallel_sweep(conn, T))
    a = _sparse_square(data, m)
    kind = data.draw(st.sampled_from([BilinearForm.SYMMETRIC, BilinearForm.SKEW]))
    sign = 1 if kind == BilinearForm.SYMMETRIC else -1
    B = BilinearForm([[a[r][c] + sign * a[c][r] for c in range(m)] for r in range(m)], kind)
    _matches_oracle(check_parallel(conn, B), naive_parallel_sweep(conn, B))


def _perturbed_tower():
    """The level-2 tower connection over gl(2) (dimension 16) with two entries
    of every operator shifted, and its two tower structures."""
    from lieforge.structures import clifford_tower

    gl2 = catalog.gl(2)
    _, conn, family = clifford_tower(gl2.algebra, gl2.structures["left_mult"], 2)
    assert check_representation(conn).passed and check_torsion_free(conn).passed
    m = conn.module_dim
    cols = [[dict(c) for c in op.sparse_columns()] for op in conn.maps]
    for i in range(m):
        for c in ((i + 1) % m, (i + 6) % m):
            r = (3 * i + c) % m
            cols[i][c][r] = cols[i][c].get(r, 0) + 1
    maps = [LinearMap.from_sparse_columns(m, m, c) for c in cols]
    return Connection(conn.algebra, maps), family.maps


def test_representation_witness_cap_and_order_past_sixteen_failures():
    pert, _ = _perturbed_tower()
    fails = naive_representation_defect(pert)
    assert len(fails) > MAX_WITNESSES
    cert = check_representation(pert)
    assert len(cert.witnesses) == MAX_WITNESSES
    _matches_oracle(cert, fails)


def test_torsion_free_and_parallel_witness_cap_and_order_past_sixteen_failures():
    pert, structures = _perturbed_tower()
    cases = [(check_torsion_free(pert), naive_torsion_free_sweep(pert))]
    cases += [(check_parallel(pert, J), naive_parallel_sweep(pert, J)) for J in structures]
    for cert, fails in cases:
        assert len(fails) > MAX_WITNESSES
        assert len(cert.witnesses) == MAX_WITNESSES
        _matches_oracle(cert, fails)


def _closed_matches_naive_differential(data, L, scalars):
    """check_closed of a random skew form with entries drawn from
    ``scalars``, against the dense differential: values and text."""
    n = L.dim
    if data.draw(st.booleans()):
        # omega(x, y) = alpha([x, y]) is closed exactly when Jacobi holds
        alpha = [data.draw(scalars) for _ in range(n)]
        w = [[sum((alpha[k] * c for k, c in L.bracket_basis(i, j).items()), Fraction(0))
              for j in range(n)] for i in range(n)]
    else:
        w = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                w[i][j] = data.draw(scalars)
                w[j][i] = -w[i][j]
    form = BilinearForm(w, BilinearForm.SKEW)
    c = dense_constants(L)
    fails = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                d = naive_differential(L, w, i, j, k, c)
                if d:
                    fails.append(((i, j, k), [d]))
    _matches_oracle(check_closed(L, form), fails)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_closed_matches_naive_differential_on_random_forms(data):
    _closed_matches_naive_differential(data, _table(data), small_rationals)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_closed_matches_naive_differential_on_gaussian_tables(data):
    gauss = st.builds(GaussScalar, small_rationals, small_rationals)
    scalars = data.draw(st.sampled_from([small_rationals, gauss]))
    _closed_matches_naive_differential(data, _gaussian(data, _table(data)), scalars)


# ---------------------------------------------------------------------------
# the sparse integrability and bi-invariance sweeps against dense oracles


def _structure(data, n):
    """A random signed pairing, or one conjugated by an invertible rational matrix."""
    perm = data.draw(st.permutations(range(n)))
    signs = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    jmat = _pairing_matrix(perm, signs)
    if data.draw(st.booleans()):
        flat = data.draw(st.lists(small_rationals, min_size=n * n, max_size=n * n))
        jmat = _conjugate(jmat, [flat[i * n : (i + 1) * n] for i in range(n)]) or jmat
    return jmat


def _units(n):
    return [[1 if t == a else 0 for t in range(n)] for a in range(n)]


def _chained_split(perm, coeffs):
    """e_perm[2k] + coeffs[k] e_perm[2k+2]: spans with its image under the pairing perm."""
    units = _units(len(perm))
    split = [
        [a + c * b for a, b in zip(units[perm[2 * k]], units[perm[2 * k + 2]])]
        for k, c in enumerate(coeffs)
    ]
    return split + [units[perm[-2]]]


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_integrable_and_complex_lie_match_oracles_on_rational_tables(data):
    L = _table(data, even=True)
    n = L.dim
    jmat = _structure(data, n)
    J = LinearMap(jmat)
    _matches_oracle(check_integrable(L, J), naive_integrable_sweep(L, jmat, _units(n)))
    _matches_oracle(check_complex_lie(L, J), naive_complex_lie_sweep(L, jmat))
    # a random half basis, spanning with its image or rejected
    flat = data.draw(st.lists(small_rationals, min_size=n * n // 2, max_size=n * n // 2))
    split = [flat[a * n : (a + 1) * n] for a in range(n // 2)]
    if naive_rank(split + [naive_matvec(jmat, v) for v in split]) < n:
        with pytest.raises(PreconditionError):
            check_integrable(L, J, split=[sparse(v) for v in split])
        return
    cert = check_integrable(L, J, split=[sparse(v) for v in split])
    assert cert.notes == {"split": True}
    _matches_oracle(cert, naive_integrable_sweep(L, jmat, split))


def test_integrable_and_complex_lie_witness_cap_and_order_past_sixteen_failures():
    L = catalog.euclidean(5).algebra
    n = L.dim
    perm = random.Random(7).sample(range(n), n)
    jmat = _pairing_matrix(perm, [True] * n)
    J = AlmostComplex(jmat)
    units = _units(n)
    split = _chained_split(perm, [1] * (n // 2 - 1))
    for cert, fails in (
        (check_integrable(L, J), naive_integrable_sweep(L, jmat, units)),
        (check_integrable(L, J, split=[sparse(v) for v in split]),
         naive_integrable_sweep(L, jmat, split)),
        (check_complex_lie(L, J), naive_complex_lie_sweep(L, jmat)),
    ):
        assert len(fails) > MAX_WITNESSES
        assert len(cert.witnesses) == MAX_WITNESSES
        _matches_oracle(cert, fails)


@given(st.data())
@settings(max_examples=20, deadline=None)
def test_integrable_and_complex_lie_match_oracles_on_wide_sparse_tables(data):
    """Few constants in a wide table, so each row meets a few scattered pairs."""
    n = 2 * data.draw(st.integers(6, 12))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = data.draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=n, unique=True))
    entries = st.dictionaries(st.integers(0, n - 1), nonzero_rationals, min_size=1, max_size=1)
    L = unchecked_algebra(["b%d" % i for i in range(n)], {p: data.draw(entries) for p in chosen})
    perm = data.draw(st.permutations(range(n)))
    signs = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    jmat = _pairing_matrix(perm, signs)
    J = LinearMap(jmat)
    coeffs = data.draw(st.lists(small_rationals, min_size=n // 2 - 1, max_size=n // 2 - 1))
    split = _chained_split(perm, coeffs)
    _matches_oracle(check_integrable(L, J), naive_integrable_sweep(L, jmat, _units(n)))
    _matches_oracle(
        check_integrable(L, J, split=[sparse(v) for v in split]),
        naive_integrable_sweep(L, jmat, split),
    )
    _matches_oracle(check_complex_lie(L, J), naive_complex_lie_sweep(L, jmat))


# ---------------------------------------------------------------------------
# the orbit-reduced full sweep of a signed pairing against the dense oracle

E4 = catalog.euclidean(4).algebra
PAIRING_POOL = os.path.join(
    os.path.dirname(__file__), os.pardir, "perfbench", "answers", "pairings.json"
)


def _is_signed_pairing(jmat):
    cols = [[row[j] for row in jmat if row[j]] for j in range(len(jmat))]
    return all(len(c) == 1 and c[0] in (1, -1) for c in cols)


@given(st.data())
@settings(max_examples=15, deadline=None)
def test_integrable_orbit_sweep_matches_oracle_past_sixteen_failures(data):
    """Random pairs and signs on a rescaled, corrupted e(4): each derived
    branch and each slot swap lands among the capped witnesses."""
    L = _corrupted(data, _rescaled(data, E4))
    n = L.dim
    perm = data.draw(st.permutations(range(n)))
    signs = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    jmat = _pairing_matrix(perm, signs)
    fails = naive_integrable_sweep(L, jmat, _units(n))
    assume(len(fails) > MAX_WITNESSES)
    _matches_oracle(check_integrable(L, LinearMap(jmat)), fails)


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_integrable_orbit_sweep_matches_oracle_on_gaussian_tables(data):
    """A Gaussian table and a signed pairing, with rational or Gaussian +-1
    entries: same values and same text as the oracle."""
    L = _gaussian(data, _table(data, even=True))
    n = L.dim
    perm = data.draw(st.permutations(range(n)))
    signs = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    jmat = _pairing_matrix(perm, signs)
    if data.draw(st.booleans()):
        jmat = [[GaussScalar(v) for v in row] for row in jmat]
    fails = naive_integrable_sweep(L, jmat, _units(n))
    _matches_oracle(check_integrable(L, LinearMap(jmat)), fails)


def _conjugated_structure(data, n):
    """A signed pairing conjugated by an invertible rational matrix into a
    structure that is no signed pairing, with rational or Gaussian entries."""
    perm = data.draw(st.permutations(range(n)))
    signs = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    flat = data.draw(st.lists(small_rationals, min_size=n * n, max_size=n * n))
    jmat = _conjugate(_pairing_matrix(perm, signs), [flat[i * n : (i + 1) * n] for i in range(n)])
    assume(jmat is not None and not _is_signed_pairing(jmat))
    if data.draw(st.booleans()):
        jmat = [[GaussScalar(v) for v in row] for row in jmat]
    return jmat


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_integrable_full_sweep_matches_oracle_on_gaussian_tables(data):
    """A Gaussian table and a structure that is no signed pairing, so every
    basis pair is swept: same values and same text as the oracle."""
    L = _gaussian(data, _table(data, even=True))
    jmat = _conjugated_structure(data, L.dim)
    fails = naive_integrable_sweep(L, jmat, _units(L.dim))
    _matches_oracle(check_integrable(L, LinearMap(jmat)), fails)


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_integrable_half_basis_sweep_matches_oracle_on_gaussian_tables(data):
    """A Gaussian table and a random rational half basis that spans with its
    image: same values and same text as the oracle."""
    L = _gaussian(data, _table(data, even=True))
    n = L.dim
    jmat = _structure(data, n)
    flat = data.draw(st.lists(small_rationals, min_size=n * n // 2, max_size=n * n // 2))
    split = [flat[a * n : (a + 1) * n] for a in range(n // 2)]
    assume(naive_rank(split + [naive_matvec(jmat, v) for v in split]) == n)
    cert = check_integrable(L, LinearMap(jmat), split=[sparse(v) for v in split])
    _matches_oracle(cert, naive_integrable_sweep(L, jmat, split))


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_complex_lie_matches_oracle_on_gaussian_tables(data):
    """A Gaussian table and a signed pairing or a conjugated structure: same
    values and same text as the oracle."""
    L = _gaussian(data, _table(data, even=True))
    jmat = _structure(data, L.dim)
    _matches_oracle(check_complex_lie(L, LinearMap(jmat)), naive_complex_lie_sweep(L, jmat))


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_integrable_derives_from_representatives_exactly_for_signed_pairings(data):
    """A conjugated structure, or a pairing rescaled to entries other than
    +-1, is no signed pairing and sweeps every basis pair."""
    L = _table(data, even=True)
    n = L.dim
    jmat = _structure(data, n)
    if data.draw(st.booleans()):
        d = [data.draw(nonzero_rationals) for _ in range(n)]
        jmat = [[d[i] * v / d[j] for j, v in enumerate(row)] for i, row in enumerate(jmat)]
    with mock.patch.object(lie_core, "_torsions", wraps=lie_core._torsions) as spy:
        cert = check_integrable(L, LinearMap(jmat))
    swept = spy.call_args.args[2]
    assert len(swept) == (n // 2 if _is_signed_pairing(jmat) else n)
    _matches_oracle(cert, naive_integrable_sweep(L, jmat, _units(n)))


def test_integrable_reproduces_the_frozen_pairing_pool():
    """The recorded full-sweep answers for 16 random pairings of e(15)."""
    with open(PAIRING_POOL, encoding="utf-8") as fh:
        pool = json.load(fh)
    L = catalog.euclidean(15).algebra
    assert L.labels == pool["labels"] and len(pool["pairings"]) == 16
    for pairs, want in zip(pool["pairings"], pool["answers"]):
        cert = check_integrable(L, AlmostComplex.from_pairs(L.dim, pairs), target="rand")
        got = {
            "check": cert.check_name,
            "target": cert.target,
            "pass": cert.passed,
            "total_failures": cert.total_failures,
            "witnesses": [
                [list(w.indices), [scalar_to_str(x) for x in w.defect]] for w in cert.witnesses
            ],
        }
        assert got == want
        assert cert.total_failures % 4 == 0


# ---------------------------------------------------------------------------
# the sparse eigenspace sweeps against the dense realified oracle

INTEGRABLE = [
    (e.algebra, e.structures[key].matrix.data)
    for e in (catalog.euclidean(3), catalog.sl2c_real(), catalog.poincare(0), catalog.so(4))
    for key in ("j", "mult_i")
    if key in e.structures
]


def _parts(defect):
    """A Gaussian defect vector as its (real, imaginary) dense lists."""
    re = [x.re if isinstance(x, GaussScalar) else x for x in defect]
    im = [x.im if isinstance(x, GaussScalar) else 0 for x in defect]
    return re, im


def _matches_eigen_oracle(cert, fails):
    assert cert.passed == (not fails)
    assert cert.total_failures == len(fails)
    assert [(w.indices, _parts(w.defect)) for w in cert.witnesses] == fails[:MAX_WITNESSES]


def _eigen_sweeps_match_oracle(L, jmat):
    """eigenspace_split and check_abelian_complex against naive_eigenspace_sweep."""
    want = naive_eigenspace_sweep(L, jmat)
    J = LinearMap(jmat)
    _, _, certs = eigenspace_split(L, J)
    for cert, key in zip(certs, ("plus", "minus")):
        _matches_eigen_oracle(cert, [(ab, d) for ab, d, inside in want[key] if not inside])
    _matches_eigen_oracle(
        check_abelian_complex(L, J),
        [(("eigen_" + key,) + ab, d) for key in ("plus", "minus") for ab, d, _ in want[key]],
    )
    return certs


def _in_basis(L, jmat, p):
    """L and J in the basis given by the columns of p, or None when p is singular."""
    pinv = naive_inverse(p)
    if pinv is None:
        return None
    n, c = L.dim, dense_constants(L)
    cols = [[row[j] for row in p] for j in range(n)]
    table = {}
    for i in range(n):
        for j in range(i + 1, n):
            coeffs = naive_matvec(pinv, naive_bracket(c, cols[i], cols[j]))
            if any(coeffs):
                table[(i, j)] = {k: v for k, v in enumerate(coeffs) if v}
    return unchecked_algebra(L.labels, table), naive_product(naive_product(pinv, jmat), p)


@given(st.data())
@settings(max_examples=15, deadline=None)
def test_eigenspace_sweeps_match_oracle_on_integrable_and_random_structures(data):
    """A structure integrable in some rational basis passes; a random one is compared."""
    L, jmat = data.draw(st.sampled_from(INTEGRABLE))
    n = L.dim
    # a permuted, rescaled basis with one entry sheared: new constants, small ones
    perm = data.draw(st.permutations(range(n)))
    p = [[0] * n for _ in range(n)]
    for j in range(n):
        p[perm[j]][j] = data.draw(nonzero_rationals)
    p[data.draw(st.integers(0, n - 1))][data.draw(st.integers(0, n - 1))] += data.draw(small_rationals)
    L, jmat = _in_basis(L, jmat, p) or (L, jmat)
    certs = _eigen_sweeps_match_oracle(L, jmat)
    assert all(cert.passed for cert in certs)
    _eigen_sweeps_match_oracle(L, _structure(data, n))


@given(st.data())
@settings(max_examples=15, deadline=None)
def test_eigenspace_sweeps_match_oracle_on_rational_tables(data):
    L = _table(data, even=True)
    _eigen_sweeps_match_oracle(L, _structure(data, L.dim))


def test_eigenspace_witness_cap_and_order_past_sixteen_failures():
    L = catalog.euclidean(4).algebra
    n = L.dim
    perm = random.Random(7).sample(range(n), n)
    certs = _eigen_sweeps_match_oracle(L, _pairing_matrix(perm, [True] * n))
    assert all(cert.total_failures > MAX_WITNESSES for cert in certs)


def _conjugated(defect):
    return tuple(GaussScalar(x.re, -x.im) if isinstance(x, GaussScalar) else x for x in defect)


@given(st.data())
@settings(max_examples=15, deadline=None)
def test_eigenspace_minus_is_the_conjugate_of_plus(data):
    """On a real table the -i certificate is the +i one with each defect
    conjugated: same verdict, same indices, same total."""
    L = _table(data, even=True)
    _, _, (cp, cm) = eigenspace_split(L, LinearMap(_structure(data, L.dim)))
    assert (cm.passed, cm.total_failures) == (cp.passed, cp.total_failures)
    assert [(w.indices, w.defect) for w in cm.witnesses] == [
        (w.indices, _conjugated(w.defect)) for w in cp.witnesses
    ]


# ---------------------------------------------------------------------------
# product structures against the dense oracle


def _involution(data, n):
    """P diag(+-1) P^-1, P a scaled permutation with one entry sheared or a
    dense rational matrix; one draw in four has a single sign (degenerate)."""
    signs = data.draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
    if data.draw(st.integers(0, 3)) == 0:
        signs = [signs[0]] * n
    d = [[signs[i] if i == j else 0 for j in range(n)] for i in range(n)]
    if data.draw(st.booleans()):
        perm = data.draw(st.permutations(range(n)))
        p = [[0] * n for _ in range(n)]
        for j in range(n):
            p[perm[j]][j] = data.draw(nonzero_rationals)
        p[data.draw(st.integers(0, n - 1))][data.draw(st.integers(0, n - 1))] += data.draw(
            small_rationals
        )
    else:
        flat = data.draw(st.lists(small_rationals, min_size=n * n, max_size=n * n))
        p = [flat[i * n : (i + 1) * n] for i in range(n)]
    return _conjugate(d, p) or d


def _product_structure_matches_oracle(L, emat):
    fails, notes = naive_product_structure(L, emat)
    cert = check_product_structure(L, LinearMap(emat))
    _matches_oracle(cert, fails)
    assert cert.notes == notes
    return cert


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_product_structure_matches_oracle(data):
    """Random involutions on random tables and on a rescaled, corrupted e(4):
    verdict, witnesses, total and every note."""
    L = _table(data) if data.draw(st.booleans()) else _corrupted(data, _rescaled(data, E4))
    _product_structure_matches_oracle(L, _involution(data, L.dim))


def test_product_structure_witness_cap_and_order_past_sixteen_failures():
    """The involution swapping f12, f13, f14, f23 with e1..e4 on e(4), fixing
    f24 and negating f34: neither eigenspace is a subalgebra."""
    n = E4.dim
    emat = [[0] * n for _ in range(n)]
    for a, b in ((0, 6), (1, 7), (2, 8), (3, 9)):
        emat[a][b] = emat[b][a] = 1
    emat[4][4], emat[5][5] = 1, -1
    cert = _product_structure_matches_oracle(E4, emat)
    assert cert.total_failures > MAX_WITNESSES
    assert {w.indices[0] for w in cert.witnesses} == {"plus", "minus"}


# ---------------------------------------------------------------------------
# LinearMap's sparse columns against dense list oracles


def test_is_identity_ignores_explicit_zeros():
    m = LinearMap.from_sparse_columns(2, 2, [{0: 1, 1: 0}, {1: 1}])
    assert m.matrix.data == [[1, 0], [0, 1]]
    assert m.is_identity()
    assert m.sparse_columns() == [{0: 1}, {1: 1}]


def test_almost_complex_shares_the_map_columns():
    lm = LinearMap.from_sparse_columns(2, 2, [{1: 1}, {0: -1}])
    assert AlmostComplex(lm).sparse_columns() is lm.sparse_columns()


@pytest.mark.parametrize(
    "pairs",
    [[(0, 1), (2, 5)], [(0, -2), (2, 3)], [(-1, 0), (1, 2)]],
    ids=["past_the_end", "negative_then_reused", "negative_first"],
)
def test_from_pairs_refuses_an_index_outside_the_basis(pairs):
    """An index past the end, or a negative one that Python would read from
    the end, is refused before any column is written."""
    with pytest.raises(DimensionMismatchError, match="pairing index outside the basis"):
        AlmostComplex.from_pairs(4, pairs)


def test_from_sparse_columns_rejects_bad_shapes():
    with pytest.raises(DimensionMismatchError):
        LinearMap.from_sparse_columns(2, 2, [{0: 1}])
    with pytest.raises(DimensionMismatchError):
        LinearMap.from_sparse_columns(2, 1, [{2: 1}])


gauss_scalars = st.builds(GaussScalar, small_rationals, small_rationals)


@st.composite
def dense_triples(draw):
    """Dense A (r x k), A2 of A's shape and B (k x c), with c possibly 0.

    Entries are rational or Gaussian, about half of them zero; A2 is A with
    at most one entry changed.
    """
    entry = st.one_of(st.just(0), draw(st.sampled_from([small_rationals, gauss_scalars])))
    r, k, c = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(0, 4))
    a = [[draw(entry) for _ in range(k)] for _ in range(r)]
    a2 = [row[:] for row in a]
    if draw(st.booleans()):
        a2[draw(st.integers(0, r - 1))][draw(st.integers(0, k - 1))] = draw(entry)
    b = [[draw(entry) for _ in range(c)] for _ in range(k)]
    return a, a2, b, [draw(entry) for _ in range(k)]


@given(dense_triples())
@settings(max_examples=150, deadline=None)
def test_linear_map_matches_dense_oracle(mats):
    a, a2, b, vec = mats
    lm, lm2, lb = LinearMap(a), LinearMap(a2), LinearMap(b)
    r, k, c = len(a), len(b), len(b[0])
    assert (lm.rows, lm.cols, lb.rows, lb.cols) == (r, k, k, c)
    for m in (lm, lb):
        for col in m.sparse_columns():
            assert all(v and not (type(v) is Fraction and v.denominator == 1) for v in col.values())
    assert lm.matrix.data == a and lb.matrix.data == b
    cols = [{i: row[j] for i, row in enumerate(a)} for j in range(k)]
    assert LinearMap.from_sparse_columns(r, k, cols) == lm
    assert lm.compose(lb).matrix.data == naive_product(a, b)
    assert lm.transpose().matrix.data == [[row[j] for row in a] for j in range(k)]
    assert lm.transpose().transpose() == lm
    assert (-lm).matrix.data == [[-e for e in row] for row in a]
    image = lm.apply_sparse(sparse(vec))
    assert dense(image, r) == naive_matvec(a, vec)
    assert (lm == lm2) == (a == a2)
    if lm == lm2:
        assert hash(lm) == hash(lm2)


mixed_scalars = st.one_of(small_rationals, gauss_scalars, st.builds(GaussScalar, small_rationals))


@given(st.lists(st.tuples(st.integers(0, 2), mixed_scalars), max_size=8), st.data())
@settings(max_examples=100, deadline=None)
def test_certificate_text_ignores_the_order_of_mixed_terms(terms, data):
    """Sums of rational and Gaussian terms, some cancelling, added in two orders."""
    terms = terms + [(k, -v) for k, v in terms[: data.draw(st.integers(0, len(terms)))]]
    texts = set()
    for order in (terms, data.draw(st.permutations(terms))):
        acc = {}
        for k, v in order:
            _acc(acc, {k: v})
        texts.add(json.dumps(Witness((0,), tuple(dense(acc, 3))).to_json()))
    assert len(texts) == 1


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_compose_keeps_the_columns_and_types_of_from_sparse_columns(data):
    """compose takes its product columns as they are, without the range check
    of from_sparse_columns; the columns and their scalar types are the same."""
    r, k, c = (data.draw(st.integers(1, 4)) for _ in range(3))
    entries = st.one_of(st.integers(-3, 3), small_rationals)
    A = LinearMap([[data.draw(entries) for _ in range(k)] for _ in range(r)])
    B = LinearMap([[data.draw(entries) for _ in range(c)] for _ in range(k)])
    AB = A.compose(B)
    ref = LinearMap.from_sparse_columns(r, c, [A.apply_sparse(col) for col in B.sparse_columns()])
    typed = [
        [[(i, v, type(v)) for i, v in sorted(col.items())] for col in m.sparse_columns()]
        for m in (AB, ref)
    ]
    assert (AB.rows, AB.cols) == (r, c) and typed[0] == typed[1]


def _lieforge_imports(module):
    """The lieforge modules that ``module``'s source imports anywhere, at
    module level or inside a function."""
    import ast

    with open(module.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):  # a relative import is inside lieforge
            base = ".".join(filter(None, ["lieforge" if node.level else "", node.module]))
            names = [base + "." + a.name for a in node.names]
        else:
            continue
        found.update(n.split(".")[1] for n in names if n.startswith("lieforge."))
    return found


def test_layers_import_only_the_layers_below():
    """scalar_linear imports nothing of the package, and lie_core only
    scalar_linear, so the lowest two layers never reach up."""
    from lieforge import scalar_linear

    assert _lieforge_imports(scalar_linear) == set()
    assert _lieforge_imports(lie_core) == {"scalar_linear"}
