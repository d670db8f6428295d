import hashlib
import json
import os
from fractions import Fraction

import pytest

from lieforge import catalog
from lieforge.scalar_linear import GaussScalar, PreconditionError, Q, scalar_to_str
from lieforge.lie_core import (
    Connection,
    LieAlgebra,
    LinearMap,
    check_integrable,
    check_jacobi,
    check_representation,
)

from oracles import (
    connection_at,
    dense_constants,
    naive_bracket,
    naive_matvec,
    naive_product,
    naive_rank,
)


def _sends(J, L, src, dst):
    """Whether J maps the basis vector labeled ``src`` to the one labeled ``dst``."""
    return J.apply_sparse({L.index(src): 1}) == {L.index(dst): 1}


def all_small_entries():
    return [
        catalog.so(3),
        catalog.so(4),
        catalog.so(5),
        catalog.lorentz(2),
        catalog.lorentz(3),
        catalog.gl(2),
        catalog.affine(1),
        catalog.affine(2),
        catalog.sl2c_real(),
        catalog.galilean(),
        catalog.euclidean(3),
        catalog.euclidean(4),
        catalog.euclidean(5),
        catalog.euclidean(6),
        catalog.poincare(0),
        catalog.poincare(1),
        catalog.so3_on_c3(),
    ]


def test_every_catalog_algebra_satisfies_jacobi():
    for entry in all_small_entries():
        assert check_jacobi(entry.algebra).passed, entry.name


def test_every_catalog_structure_squares_to_minus_one():
    for entry in all_small_entries():
        J = entry.structures.get("j")
        if J is not None:
            assert J.squares_to_minus_identity(), entry.name


def test_so3_labels_and_h():
    so3 = catalog.so(3)
    assert so3.algebra.labels == ["h", "f13", "f23"]
    # h = e12 - e21 in the realization
    assert so3.realization[0] == LinearMap(
        [[Q(0), Q(1), Q(0)], [Q(-1), Q(0), Q(0)], [Q(0), Q(0), Q(0)]]
    )


def test_standard_rep_shares_the_realization():
    for entry in (catalog.so(4), catalog.lorentz(3), catalog.gl(2)):
        rep = entry.structures["standard_rep"]
        assert all(a is b for a, b in zip(rep.maps, entry.realization))
        assert len(rep.maps) == len(entry.realization) == entry.algebra.dim


def test_so_label_scheme_wide():
    so11 = catalog.so(11)
    assert "f10_11" in so11.algebra.labels
    assert "f12" in so11.algebra.labels


def test_lorentz2_boost_labels():
    lz = catalog.lorentz(2)
    assert lz.algebra.labels == ["h", "s13", "s23"]


def test_lorentz_realization_preserves_minkowski_form():
    p = 3
    lz = catalog.lorentz(p)
    eta = LinearMap.from_sparse_columns(p + 1, p + 1, [{i: 1} for i in range(p)] + [{p: -1}])
    # m^T eta + eta m = 0
    for m in lz.realization:
        assert m.transpose().compose(eta) == -eta.compose(m)


def test_standard_reps_are_representations():
    for entry in (catalog.so(4), catalog.lorentz(3), catalog.gl(3)):
        assert check_representation(entry.structures["standard_rep"]).passed


def test_euclidean_small_structure_assignments():
    e3 = catalog.euclidean(3)
    L, J = e3.algebra, e3.structures["j"]
    assert _sends(J, L, "h", "e3")
    assert _sends(J, L, "f13", "f23")
    assert _sends(J, L, "e1", "e2")


def test_euclidean_4_structure_assignments():
    e4 = catalog.euclidean(4)
    L, J = e4.algebra, e4.structures["j"]
    # h_1 = f12 pairs with h_2 = f34; translations pair in order
    assert _sends(J, L, "f12", "f34")
    assert _sends(J, L, "e1", "e2")


def test_euclidean_5_center():
    e5 = catalog.euclidean(5)
    L, J = e5.algebra, e5.structures["j"]
    assert L.labels[-1] == "z"
    assert L.dim == 1 + 10 + 5
    assert _sends(J, L, "e5", "z")
    last = L.dim - 1
    for i in range(last):
        assert not L.bracket_basis(i, last)


def test_euclidean_dimensions_and_extension_pattern():
    for n in range(3, 12):
        e = catalog.euclidean(n)
        base = n * (n - 1) // 2 + n
        s = 1 if n % 4 in (1, 2) else 0
        assert e.algebra.dim == base + s, n
        assert ("z" in e.algebra.labels) == (s == 1)


def test_euclidean_rejects_small_n():
    with pytest.raises(PreconditionError):
        catalog.euclidean(2)


def test_paper_style_bracket_values_in_euclidean_5():
    # rotations act on translations through the matrix realization
    e5 = catalog.euclidean(5).algebra
    f15, e5v = e5.index("f15"), e5.index("e5")
    e1 = e5.index("e1")
    got = e5.bracket_basis(min(f15, e5v), max(f15, e5v))
    assert got == {e1: Q(1)}  # [f_{1,5}, e_5] = e_1
    f25 = e5.index("f25")
    got = e5.bracket_basis(f15, f25)
    assert got == {e5.index("f12"): Q(-1)}  # [f_{1,5}, f_{2,5}] = f_{21}
    got = e5.bracket_basis(min(f15, e1), max(f15, e1))
    assert got == {e5v: Q(-1)}  # [f_{1,5}, e_1] = -e_5


def test_poincare_0_structure_matches_small_presentation():
    p0 = catalog.poincare(0)
    L, J = p0.algebra, p0.structures["j"]
    assert L.labels == ["h", "s13", "s23", "e1", "e2", "e3"]
    assert _sends(J, L, "h", "e3")
    assert _sends(J, L, "s13", "s23")
    assert _sends(J, L, "e1", "e2")


def test_poincare_1_dimension():
    assert catalog.poincare(1).algebra.dim == 28


def test_poincare_decomposition_contains_boosts():
    p0 = catalog.poincare(0)
    cd = p0.structures["compat"]
    g = cd.rho.algebra
    boosts = [g.index("s13"), g.index("s23")]
    part1_support = set()
    for v in cd.split.part1:
        part1_support |= {i for i, c in enumerate(v) if c}
    assert set(boosts) <= part1_support


def test_decomposition_parts_disjoint_and_spanning():
    for entry in (catalog.euclidean(4), catalog.euclidean(6), catalog.poincare(0)):
        cd = entry.structures["compat"]
        vecs0 = [[c for c in v] for v in cd.split.part0]
        vecs1 = [[c for c in v] for v in cd.split.part1]
        r0, r1 = naive_rank(vecs0) if vecs0 else 0, naive_rank(vecs1) if vecs1 else 0
        assert r0 == len(vecs0) and r1 == len(vecs1)
        assert r0 + r1 == cd.rho.algebra.dim
        assert naive_rank(vecs0 + vecs1) == cd.rho.algebra.dim


def test_decomposition_parts_structure_stable():
    e4 = catalog.euclidean(4)
    cd = e4.structures["compat"]
    for vecs in (cd.split.part0, cd.split.part1):
        base = [list(v) for v in vecs]
        r = naive_rank(base)
        for v in vecs:
            assert naive_rank(base + [naive_matvec(cd.j.matrix.data, v)]) == r


def test_euclidean_part0_is_subalgebra():
    # the first part of the stored decomposition is closed under the bracket
    for n in (4, 8):
        e = catalog.euclidean(n)
        cd = e.structures["compat"]
        g = cd.rho.algebra
        c = dense_constants(g)
        base = [list(v) for v in cd.split.part0]
        r = naive_rank(base)
        assert r == len(base)
        for a in range(len(base)):
            for b in range(a + 1, len(base)):
                w = naive_bracket(c, base[a], base[b])
                assert naive_rank(base + [w]) == r


def test_euclidean_part0_dimension_matches_unitary_algebra():
    # dim u(2k) = 4k^2 for n = 4k
    for n, k in ((4, 1), (8, 2)):
        cd = catalog.euclidean(n).structures["compat"]
        assert len(cd.split.part0) == 4 * k * k


def test_compat_identity_as_matrix_equation():
    # the second condition holds as a matrix identity rho(J x) I = rho(x)
    e4 = catalog.euclidean(4)
    cd = e4.structures["compat"]
    for v in cd.split.part1:
        jv = naive_matvec(cd.j.matrix.data, v)
        lhs = naive_product(connection_at(cd.rho, jv), cd.i.matrix.data)
        assert lhs == connection_at(cd.rho, v)


# builder -> (largest parameter whose output has at most ten dimensions,
# that output's dimension)
_BOUNDED_BUILDERS = {
    "so": (5, 10),
    "lorentz": (4, 10),
    "gl": (3, 9),
    "affine": (2, 6),
    "abelian": (10, 10),
    "euclidean": (4, 10),
    "poincare": (0, 6),
    "right_mult_structure": (1, 4),
    "affine_complex_structure": (1, 6),
}


@pytest.mark.parametrize("name", list(_BOUNDED_BUILDERS))
def test_builders_refuse_an_output_above_max_dim_before_building(name, monkeypatch):
    """With MAX_DIM at ten, each builder builds its largest output within
    the bound, and refuses the next parameter before any algebra is made."""
    monkeypatch.setattr(catalog, "MAX_DIM", 10)
    builder = getattr(catalog, name)
    n, dim = _BOUNDED_BUILDERS[name]
    built = builder(n)
    entry = built[0] if isinstance(built, tuple) else built
    assert entry.algebra.dim == dim

    def no_build(*args, **kwargs):
        raise AssertionError("an algebra was built")

    for fn in ("from_matrix_basis", "semidirect"):
        monkeypatch.setattr(catalog, fn, no_build)
    monkeypatch.setattr(catalog.LieAlgebra, "_normalized", no_build)
    with pytest.raises(PreconditionError, match="has more than 10 dimensions$"):
        builder(n + 1)


def test_right_mult_structure_squares():
    entry, J = catalog.right_mult_structure(2)
    assert J.squares_to_minus_identity()
    assert entry.algebra.dim == 16


def test_right_mult_structure_is_right_composition():
    entry, J = catalog.right_mult_structure(1)
    # J(u) = u composed with the standard module structure
    I = [[Q(0), Q(-1)], [Q(1), Q(0)]]
    order = [(1, 1), (1, 2), (2, 1), (2, 2)]
    for k, (i, j) in enumerate(order):
        u = [[0, 0], [0, 0]]
        u[i - 1][j - 1] = Q(1)
        ui = naive_product(u, I)
        expect = [Q(0)] * 4
        for kk, (r, c) in enumerate(order):
            expect[kk] = ui[r - 1][c - 1]
        assert naive_matvec(J.matrix.data, entry.algebra.basis_vector(k)) == expect


def test_inclusion_chain_maps_are_injective():
    for dom, cod, iota in catalog.inclusion_chain(1):
        # the column rank of a matrix is its row rank
        assert naive_rank(iota.matrix.data) == dom.algebra.dim


def test_inclusion_chain_label_functorial():
    triples = catalog.inclusion_chain(1)
    dom, cod, iota = triples[0]
    for lab in dom.algebra.labels:
        col = iota.sparse_columns()[dom.algebra.index(lab)]
        assert col == {cod.algebra.index(lab): Q(1)}


def test_sl2c_bracket_constants():
    sl = catalog.sl2c_real()
    L = sl.algebra
    H, Xp, Xm = L.index("H"), L.index("Xp"), L.index("Xm")
    iH, iXp, iXm = L.index("iH"), L.index("iXp"), L.index("iXm")
    assert L.bracket_basis(H, Xp) == {Xp: Q(2)}
    assert L.bracket_basis(H, Xm) == {Xm: Q(-2)}
    assert L.bracket_basis(Xp, Xm) == {H: Q(-1)}
    # complex bilinearity: [iH, Xp] = 2 iXp, [iH, iXp] = -2 Xp
    assert L.bracket_basis(iH, Xp) == {iXp: Q(2)}
    assert L.bracket_basis(min(iH, iXp), max(iH, iXp)) == {Xp: Q(-2)}
    assert L.bracket_basis(min(iXp, iXm), max(iXp, iXm)) == {H: Q(1)}


def test_sl2c_regular_structure_eigenspace_is_solvable_half():
    sl = catalog.sl2c_real()
    assert check_integrable(sl.algebra, sl.structures["j"]).passed


def test_contraction_frame_is_lie_isomorphism():
    sl = catalog.sl2c_real()
    lz, phi = sl.inclusions["contraction_frame"]
    assert naive_rank(phi.matrix.data) == 6
    for i in range(6):
        for j in range(i + 1, 6):
            lhs = phi.apply_sparse(sl.algebra.bracket_basis(i, j))
            rhs = lz.algebra.bracket_sparse(
                phi.sparse_columns()[i], phi.sparse_columns()[j]
            )
            assert lhs == rhs


def test_galilean_realization_shape():
    gal = catalog.galilean()
    assert gal.algebra.dim == 10
    assert gal.algebra.labels[:3] == ["h", "f13", "f23"]
    assert gal.algebra.labels[3:] == ["e1", "e2", "e3", "e1'", "e2'", "e3'", "e4'"]


def test_galilean_euclidean_subalgebra():
    # the primed translations together with the rotations close to the
    # Euclidean constants
    gal = catalog.galilean().algebra
    e3 = catalog.euclidean(3).algebra
    idx = [gal.index(l) for l in ("h", "f13", "f23", "e1'", "e2'", "e3'")]
    pos = {g: k for k, g in enumerate(idx)}
    for a in range(6):
        for b in range(a + 1, 6):
            w = gal.bracket_basis(idx[a], idx[b])
            got = {pos[k]: v for k, v in w.items()}
            assert got == e3.bracket_basis(a, b)


def test_build_dispatcher():
    entry = catalog.build("euclidean", "4")
    assert entry.name == "euclidean_4"
    with pytest.raises(KeyError):
        catalog.build("nonsense")
    with pytest.raises(PreconditionError):
        catalog.build("euclidean")


def test_so_structure_for_rank_even_cases():
    for n in (4, 5, 8, 9):
        entry = catalog.so(n)
        J = entry.structures["j"]
        assert J.squares_to_minus_identity()
        assert check_integrable(entry.algebra, J).passed


def test_abelian_entry():
    ab = catalog.abelian(4)
    assert ab.algebra.dim == 4 and not ab.algebra.table


@pytest.mark.parametrize("n", [0, -2])
def test_abelian_refuses_an_empty_basis(n):
    with pytest.raises(PreconditionError, match="needs n >= 1"):
        catalog.abelian(n)


def test_families_generalize_past_the_headline_range():
    # the rule-based builders are not tuned to the verified dimensions
    for n in (12, 13, 14):
        e = catalog.euclidean(n)
        assert check_integrable(e.algebra, e.structures["j"]).passed, n
    p2 = catalog.poincare(2)
    assert p2.algebra.dim == 66
    assert check_integrable(p2.algebra, p2.structures["j"]).passed
    from lieforge.structures import check_holomorphic

    for dom, cod, iota in catalog.inclusion_chain(2):
        assert check_holomorphic(
            dom.algebra, cod.algebra, iota, dom.structures["j"], cod.structures["j"]
        ).passed
    dom, cod, iota = catalog.poincare_inclusion(2)
    assert check_holomorphic(
        dom.algebra, cod.algebra, iota, dom.structures["j"], cod.structures["j"]
    ).passed


GOLDEN_BUILDERS = os.path.join(os.path.dirname(__file__), "golden", "catalog_builders.json")

# every builder call whose whole output the golden pins, keyed by its text
BUILDER_CALLS = (
    [("so(%d)" % n, catalog.so, n) for n in range(2, 7)]
    + [("lorentz(%d)" % p, catalog.lorentz, p) for p in range(2, 5)]
    + [("gl(%d)" % n, catalog.gl, n) for n in range(1, 4)]
    + [("affine(%d)" % n, catalog.affine, n) for n in range(1, 3)]
    + [("abelian(%d)" % n, catalog.abelian, n) for n in range(1, 4)]
    + [("sl2c_real()", catalog.sl2c_real), ("galilean()", catalog.galilean)]
    + [("euclidean(%d)" % n, catalog.euclidean, n) for n in range(3, 12)]
    + [("poincare(%d)" % k, catalog.poincare, k) for k in range(3)]
    + [("so3_on_c3()", catalog.so3_on_c3)]
    + [("inclusion_chain(%d)" % k, catalog.inclusion_chain, k) for k in range(1, 3)]
    + [("poincare_inclusion(%d)" % k, catalog.poincare_inclusion, k) for k in range(3)]
    + [
        ("right_mult_structure(1)", catalog.right_mult_structure, 1),
        ("affine_complex_structure(1)", catalog.affine_complex_structure, 1),
    ]
)


_SCALARS = (int, Fraction, GaussScalar)


def _entries(items):
    """(index, text, type name) of each scalar, so integer-first typing is pinned."""
    return [[i, scalar_to_str(v), type(v).__name__] for i, v in sorted(items)]


def _dump(obj):
    """A JSON-ready canonical form of a builder's output, walked recursively."""
    if isinstance(obj, catalog.CatalogEntry):
        return {
            "name": obj.name,
            "algebra": _dump(obj.algebra),
            "structures": _dump(obj.structures),
            "inclusions": _dump(obj.inclusions),
            "label_maps": _dump(obj.label_maps),
            "realization": _dump(obj.realization),
        }
    if isinstance(obj, LieAlgebra):
        table = [[i, j, _entries(c.items())] for (i, j), c in sorted(obj.table.items())]
        return {"name": obj.name, "labels": obj.labels, "table": table}
    if isinstance(obj, LinearMap):
        columns = [_entries(c.items()) for c in obj.sparse_columns()]
        return {"class": type(obj).__name__, "shape": [obj.rows, obj.cols], "columns": columns}
    if isinstance(obj, Connection):
        return {"algebra": _dump(obj.algebra), "maps": _dump(obj.maps)}
    if isinstance(obj, dict):
        return {k: _dump(v) for k, v in sorted(obj.items())}
    if hasattr(obj, "_asdict"):
        return {type(obj).__name__: _dump(obj._asdict())}
    if isinstance(obj, (list, tuple)):
        if obj and all(isinstance(v, _SCALARS) for v in obj):
            return _entries(enumerate(obj))
        return [_dump(v) for v in obj]
    return obj


def _builder_digests():
    return {
        call: hashlib.sha256(
            json.dumps(_dump(fn(*args)), sort_keys=True, separators=(",", ":")).encode("utf-8")
        ).hexdigest()
        for call, fn, *args in BUILDER_CALLS
    }


def test_catalog_builders_match_golden():
    """Each builder call gives the committed digest of its labels, table,
    structures, inclusions, label maps and realization.  A refactor must not
    change them; a deliberate change regenerates the golden in the same commit."""
    with open(GOLDEN_BUILDERS, encoding="utf-8") as fh:
        golden = json.load(fh)
    digests = _builder_digests()
    assert sorted(digests) == sorted(golden)
    changed = [call for call in digests if digests[call] != golden[call]]
    assert not changed, changed
