from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lieforge.scalar_linear import (
    DimensionMismatchError,
    GaussScalar,
    Matrix,
    PreconditionError,
    Q,
    SpanSolver,
    div,
    exact,
    scalar_from_str,
    scalar_to_str,
)
from lieforge.lie_core import LinearMap, _require_invertible

from oracles import (
    is_integer_first,
    naive_inverse,
    naive_matvec,
    naive_product,
    naive_rank,
)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)
gaussians = st.builds(GaussScalar, rationals, rationals)


@given(gaussians, gaussians, gaussians)
@settings(max_examples=200, deadline=None)
def test_gauss_field_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    if b:
        assert (a / b) * b == a
    if a:
        assert a * (GaussScalar(1) / a) == GaussScalar(1)


@given(rationals, rationals, rationals)
@settings(max_examples=100, deadline=None)
def test_rational_field_laws(a, b, c):
    assert (a + b) * c == a * c + b * c
    if c:
        assert (a / c) * c == a


def test_gauss_embeds_rationals():
    assert GaussScalar(Fraction(2, 3)) == Fraction(2, 3)
    assert GaussScalar(1, 0) * Fraction(1, 2) == GaussScalar(Fraction(1, 2))
    assert Fraction(1) + GaussScalar(0, 1) == GaussScalar(1, 1)


def test_scalar_serialization():
    assert scalar_to_str(Q(3, 5)) == "3/5"
    assert scalar_to_str(Q(7)) == "7"
    assert scalar_to_str(Q(-2, 4)) == "-1/2"
    assert scalar_from_str("3/5") == Q(3, 5)
    assert scalar_from_str("-7") == Q(-7)


@given(st.one_of(st.integers(), st.integers(-(10**40), 10**40)))
@settings(max_examples=200, deadline=None)
def test_scalar_to_str_of_an_int_is_its_fraction_text(k):
    assert scalar_to_str(k) == str(Fraction(k))


def test_gauss_serialization_roundtrip():
    vals = [
        GaussScalar(Fraction(1, 2), Fraction(-3, 4)),
        GaussScalar(-1, 2),
        GaussScalar(0, 0),
        GaussScalar(Fraction(0), Fraction(5, 7)),
    ]
    for v in vals:
        assert scalar_from_str(scalar_to_str(v)) == v
    assert scalar_to_str(GaussScalar(Fraction(1, 2), Fraction(3, 4))) == "1/2+3/4*i"


def _solver(dim, vectors):
    """A SpanSolver over the given dense vectors, added in order."""
    solver = SpanSolver(dim)
    for v in vectors:
        solver.add({i: e for i, e in enumerate(v) if e})
    return solver


def test_solve_in_span_standard_basis():
    solver = _solver(2, [[Q(1), Q(0)], [Q(0), Q(1)]])
    assert solver.solve({0: Q(3), 1: Q(5)}) == {0: Q(3), 1: Q(5)}


def test_solve_in_span_scalar_multiple():
    solver = _solver(2, [[Q(1), Q(1)]])
    assert solver.solve({0: Q(2), 1: Q(2)}) == {0: Q(2)}
    assert solver.contains({0: Q(2), 1: Q(2)})


def test_solve_in_span_outside():
    solver = _solver(2, [[Q(1), Q(0)]])
    assert solver.solve({1: Q(1)}) is None
    assert not solver.contains({1: Q(1)})


def test_solve_in_span_dimension_mismatch():
    solver = SpanSolver(1)
    for bad in ({1: Q(1)}, {-1: Q(1)}):
        with pytest.raises(DimensionMismatchError):
            solver.add(bad)
    assert (solver.rank, solver.count) == (0, 0)


def test_rank_examples():
    assert _solver(2, [[Q(1), Q(0)], [Q(0), Q(1)]]).rank == 2
    assert _solver(2, [[Q(1), Q(2)], [Q(2), Q(4)]]).rank == 1
    assert _solver(2, []).rank == 0
    solver = SpanSolver(2)
    assert solver.add({0: Q(1), 1: Q(2)}) and not solver.add({0: Q(2), 1: Q(4)})
    assert (solver.rank, solver.count) == (1, 2)


def test_rank_invariance_under_scaling_and_permutation():
    vecs = [[Q(1), Q(2), Q(0)], [Q(0), Q(1), Q(1)], [Q(1), Q(3), Q(1)]]
    r = _solver(3, vecs).rank
    assert r == naive_rank(vecs) == 2
    scaled = [[Q(5) * e for e in v] for v in vecs]
    assert _solver(3, scaled).rank == r
    assert _solver(3, list(reversed(vecs))).rank == r


@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(st.sampled_from([0, 0, 1, -1, 2, Q(1, 2)]), min_size=n, max_size=n),
                     max_size=5),
            st.lists(st.sampled_from([0, 1, -3, Q(2, 3)]), min_size=n, max_size=n),
        )
    )
)
@settings(max_examples=100, deadline=None)
def test_span_solver_matches_naive_elimination(case):
    """Rank, membership and coefficients agree with dense Gauss-Jordan.

    ``add`` leaves the caller's dicts unchanged, and every coefficient
    ``solve`` returns is nonzero and integer-first.
    """
    vecs, target = case
    sparse = [{i: e for i, e in enumerate(v) if e} for v in vecs]
    frozen = [list(v.items()) for v in sparse]
    solver = SpanSolver(len(target))
    for v in sparse:
        solver.add(v)
    assert [list(v.items()) for v in sparse] == frozen
    r = naive_rank(vecs)
    assert solver.rank == r
    combo = solver.solve({i: e for i, e in enumerate(target) if e})
    assert (combo is not None) == (naive_rank(vecs + [target]) == r)
    assert solver.contains({i: e for i, e in enumerate(target) if e}) == (combo is not None)
    if combo is not None:
        assert set(combo) <= set(range(len(vecs)))
        assert all(v and is_integer_first(v) for v in combo.values()), combo
        got = [sum(combo.get(j, 0) * v[i] for j, v in enumerate(vecs)) for i in range(len(target))]
        assert got == target


small_entries = st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(-1, 2), Fraction(2, 3)])


@st.composite
def fractional_pivot_spans(draw):
    """Vectors, rational or Gaussian, whose leading entries are not 1, so
    their pivots' combinations hold fractions; and targets, each a
    combination of them, possibly shifted off their span."""
    n = draw(st.integers(1, 5))
    entry, lead = small_entries, st.sampled_from([2, -3, Fraction(2, 3)])
    if draw(st.booleans()):
        entry = st.builds(GaussScalar, small_entries, small_entries)
        lead = st.builds(GaussScalar, lead, st.sampled_from([0, 1, Fraction(-1, 2)]))
    vecs = []
    for _ in range(draw(st.integers(1, n + 1))):
        p = draw(st.integers(0, n - 1))
        v = {p: draw(lead)}
        for k in range(p + 1, n):
            e = draw(entry)
            if e:
                v[k] = e
        vecs.append(v)
    targets = []
    for _ in range(3):
        t = {}
        for v in vecs:
            c = draw(entry)
            for k, x in v.items():
                t[k] = t.get(k, 0) + c * x
        if draw(st.booleans()):
            k = draw(st.integers(0, n - 1))
            t[k] = t.get(k, 0) + draw(entry)
        targets.append({k: x for k, x in t.items() if x})
    return n, vecs, targets


@given(fractional_pivot_spans())
@settings(max_examples=200, deadline=None)
def test_span_solver_contains_exactly_what_it_solves(case):
    n, vecs, targets = case
    solver = SpanSolver(n)
    for v in vecs:
        solver.add(v)
    for t in targets + vecs:
        assert solver.contains(t) == (solver.solve(t) is not None)


@st.composite
def square_maps(draw):
    """Rows of a square rational or Gaussian map, often singular."""
    n = draw(st.integers(1, 5))
    entry = small_entries
    if draw(st.booleans()):
        entry = st.builds(GaussScalar, small_entries, small_entries)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    if draw(st.booleans()):
        # column j a multiple of the sum of the columns before it
        j, c = draw(st.integers(0, n - 1)), draw(entry)
        for r in rows:
            r[j] = c * sum(r[:j], 0)
    return rows


@given(square_maps())
@settings(max_examples=300, deadline=None)
def test_require_invertible_matches_naive_inverse(rows):
    n = len(rows)
    inv = naive_inverse(rows)
    if inv is None:
        with pytest.raises(PreconditionError) as exc:
            _require_invertible(LinearMap(rows), "singular")
        kernel = exc.value.details
        assert len(kernel) == n and all(is_integer_first(e) for e in kernel)
        assert next(e for e in kernel if e) == 1
        assert naive_matvec(rows, kernel) == [0] * n
    else:
        solver = _require_invertible(LinearMap(rows), "singular")
        for j in range(n):
            col = solver.solve({j: 1})
            assert [col.get(i, 0) for i in range(n)] == [row[j] for row in inv]


def _inverse(rows):
    """The inverse of ``rows`` assembled column by column from the invertibility solver."""
    n = len(rows)
    solver = _require_invertible(LinearMap(rows), "singular")
    cols = [solver.solve({j: 1}) for j in range(n)]
    return [[cols[j].get(i, 0) for j in range(n)] for i in range(n)]


def test_invert_identity():
    ident = [[Q(int(i == j)) for j in range(3)] for i in range(3)]
    assert _inverse(ident) == ident


def test_invert_rotation():
    m = [[Q(0), Q(-1)], [Q(1), Q(0)]]
    assert _inverse(m) == [[Q(0), Q(1)], [Q(-1), Q(0)]]


def test_invert_times_original_is_identity():
    import random

    rng = random.Random(7)
    inverted = 0
    for _ in range(10):
        n = rng.randint(1, 4)
        m = [[Q(rng.randint(-5, 5)) for _ in range(n)] for _ in range(n)]
        try:
            inv = _inverse(m)
        except PreconditionError:
            continue
        inverted += 1
        ident = [[int(i == j) for j in range(n)] for i in range(n)]
        assert naive_product(inv, m) == ident
        assert naive_product(m, inv) == ident
    assert inverted


def test_require_invertible_kernel_witness():
    with pytest.raises(PreconditionError) as exc:
        _require_invertible(LinearMap([[Q(1), Q(1)], [Q(2), Q(2)]]), "singular")
    assert exc.value.details == [1, -1]
    assert [type(e) for e in exc.value.details] == [int, int]


def test_matrix_shape_errors():
    with pytest.raises(DimensionMismatchError, match="ragged"):
        LinearMap([[Q(1)], [Q(1), Q(2)]])
    with pytest.raises(DimensionMismatchError):
        _require_invertible(LinearMap([[Q(1), Q(2)]]), "singular")
    with pytest.raises(DimensionMismatchError):
        LinearMap([[Q(1)]]).compose(LinearMap([[Q(1), Q(2)], [Q(3), Q(4)]]))


def test_span_solver_gaussian_scalars():
    i = GaussScalar(0, 1)
    solver = SpanSolver(2)
    solver.add({0: GaussScalar(1), 1: i})
    combo = solver.solve({0: i, 1: GaussScalar(-1)})
    assert combo is not None
    assert combo[0] == i
    assert not solver.contains({0: GaussScalar(1)})


def test_gauss_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        GaussScalar(1) / GaussScalar(0)


def test_gauss_parts_are_integer_first():
    g = GaussScalar(Fraction(4, 2), Fraction(1, 3))
    assert type(g.re) is int and g.re == 2 and g.im == Fraction(1, 3)
    for h in (g * GaussScalar(0, 3), g + Fraction(2, 3) * GaussScalar(0, 1), div(g, g), g / 2):
        for part in (h.re, h.im):
            assert type(part) is int or part.denominator != 1, h
    assert hash(GaussScalar(Fraction(6, 3))) == hash(2) == hash(Fraction(2))
    assert scalar_to_str(GaussScalar(Fraction(-6, 3), Fraction(3, 4))) == "-2+3/4*i"


def test_gauss_rejects_float_parts():
    with pytest.raises(TypeError):
        GaussScalar(0.1, 2)
    with pytest.raises(TypeError):
        GaussScalar(1, 0.5)
    with pytest.raises(TypeError):
        GaussScalar(1) + 0.5
    with pytest.raises(TypeError):
        div(GaussScalar(1), 0.5)


# ---------------------------------------------------------------------------
# integer-first scalars: exact() and div()


def test_exact_demotes_integral_fractions_only():
    assert type(exact(Fraction(6, 3))) is int and exact(Fraction(6, 3)) == 2
    assert exact(Fraction(1, 3)) == Fraction(1, 3)
    assert type(exact(7)) is int
    g = GaussScalar(2, 0)
    assert exact(g) is g


def test_div_int_by_int_exact_is_int():
    for a, b, q in ((6, 3, 2), (-6, 3, -2), (6, -3, -2), (0, 5, 0), (7, 1, 7)):
        r = div(a, b)
        assert type(r) is int and r == q


def test_div_int_by_int_inexact_is_fraction():
    for a, b in ((1, 3), (-1, 3), (1, -3), (7, 2), (-7, 2)):
        r = div(a, b)
        assert type(r) is Fraction and r == Fraction(a, b)


def test_div_fraction_operands():
    assert div(Fraction(1, 2), 3) == Fraction(1, 6)
    assert type(div(Fraction(4, 3), Fraction(2, 3))) is int
    assert div(Fraction(4, 3), Fraction(2, 3)) == 2
    assert div(3, Fraction(3, 2)) == 2 and type(div(3, Fraction(3, 2))) is int
    assert div(1, Fraction(2)) == Fraction(1, 2)


def test_div_gaussian_operands():
    i = GaussScalar(0, 1)
    assert div(i, i) == GaussScalar(1)
    assert div(1, i) == GaussScalar(0, -1)
    assert div(i, 2) == GaussScalar(0, Fraction(1, 2))
    assert div(GaussScalar(1, 1), Fraction(1, 2)) == GaussScalar(2, 2)
    assert isinstance(div(2, GaussScalar(2)), GaussScalar)


@pytest.mark.parametrize(
    "a, b",
    [(1, 0), (Fraction(1, 2), 0), (1, Fraction(0)), (GaussScalar(1), 0), (1, GaussScalar(0))],
)
def test_div_by_zero_raises(a, b):
    with pytest.raises(ZeroDivisionError):
        div(a, b)


def test_div_rejects_floats():
    with pytest.raises(TypeError):
        div(1.0, 2)
    with pytest.raises(TypeError):
        div(Fraction(1), 0.5)


def test_exact_and_every_constructor_refuse_floats_and_bools():
    """``exact`` admits only int, Fraction and GaussScalar.  Every stored
    scalar passes it, so no constructor keeps a float or a bool, and a
    contraction parameter is taken exactly or not at all."""
    from lieforge.lie_core import AlmostComplex, LieAlgebra
    from lieforge.constructions import AssociativeAlgebra, ContractionFamily
    from lieforge import catalog

    lz = catalog.lorentz(3)
    family = ContractionFamily(
        lz.algebra, lz.structures["rotation_indices"], lz.structures["boost_indices"]
    )
    builds = [partial(exact, value) for value in (0.5, 1.0, True, False, "1", None)]
    builds += [
        lambda: LieAlgebra(["x", "y"], {(0, 1): {1: 0.5}}),
        lambda: LinearMap([[0.5, 0], [0, 1]]),
        lambda: AlmostComplex([[0, -1.0], [1.0, 0]]),
        lambda: AssociativeAlgebra(["e"], {(0, 0): {0: 1.0}}),
        lambda: LinearMap.from_sparse_columns(2, 2, [{0: Fraction(1, 4)}, {1: True}]),
        lambda: LinearMap.from_sparse_columns(2, 2, [{0: 0.25}, {1: 1}]),
        lambda: family.at(0.1),
        lambda: family.at(True),
    ]
    for build in builds:
        with pytest.raises(TypeError):
            build()
    assert family.at(Fraction(1, 2)).name == "so_3_1@t=1/2"


@given(
    st.one_of(st.integers(-50, 50), rationals),
    st.one_of(st.integers(-50, 50), rationals).filter(bool),
)
@settings(max_examples=100, deadline=None)
def test_div_is_exact_and_integer_first(a, b):
    q = div(a, b)
    assert q == Fraction(a) / Fraction(b)
    assert type(q) is (int if (Fraction(a) / Fraction(b)).denominator == 1 else Fraction)


# ---------------------------------------------------------------------------
# no float reaches a certificate, a catalog table or a sparse column


def _nodes(obj, seen=None):
    """obj and everything reachable from it through lieforge objects and containers."""
    from lieforge.catalog import CatalogEntry
    from lieforge.constructions import AssociativeAlgebra
    from lieforge.lie_core import BilinearForm, Connection, LieAlgebra, LinearMap

    if seen is None:
        seen = set()
    if id(obj) in seen:
        return
    seen.add(id(obj))
    yield obj
    if isinstance(obj, (LieAlgebra, AssociativeAlgebra)):
        children = [obj.table]
    elif isinstance(obj, LinearMap):
        children = [obj.sparse_columns(), obj.matrix]
    elif isinstance(obj, Connection):
        children = [obj.maps]
    elif isinstance(obj, BilinearForm):
        children = [obj.gram]
    elif isinstance(obj, Matrix):
        children = [obj.data]
    elif isinstance(obj, GaussScalar):
        children = [obj.re, obj.im]
    elif isinstance(obj, dict):
        children = list(obj.values())
    elif isinstance(obj, (list, tuple)):
        children = list(obj)
    elif isinstance(obj, CatalogEntry):
        children = list(vars(obj).values())
    else:
        return
    for child in children:
        yield from _nodes(child, seen)


def _catalog_entries():
    from lieforge import catalog

    specs = [("so", n) for n in range(1, 6)] + [("lorentz", p) for p in (2, 3, 4)]
    specs += [("gl", 1), ("gl", 2), ("affine", 1), ("affine", 2), ("abelian", 2)]
    specs += [("sl2c",), ("galilean",), ("so3_c3",), ("poincare", 0)]
    specs += [("euclidean", n) for n in range(3, 9)]
    entries = [catalog.build(*spec) for spec in specs]
    entries += [catalog.right_mult_structure(1)[0], catalog.affine_complex_structure(1)[0]]
    for dom, cod, iota in catalog.inclusion_chain(1) + [catalog.poincare_inclusion(0)]:
        entries += [dom, cod, iota]
    return entries


def test_no_float_in_acceptance_certificates():
    from lieforge import acceptance

    certs = [c for r in acceptance.run_all() for c in r.certificates]
    assert certs
    for cert in certs:
        for w in cert.witnesses:
            for x in w.defect:
                assert isinstance(x, (int, Fraction, GaussScalar)), (cert.target, x)
        assert not any(isinstance(x, float) for x in _nodes(cert.notes)), cert.target


def test_no_float_in_catalog_tables_and_columns():
    nodes = list(_nodes(_catalog_entries()))
    assert not any(isinstance(x, float) for x in nodes)


def test_catalog_stores_integral_scalars_as_int():
    """Tables and sparse columns are normalized: no integral Fraction is left."""
    from lieforge.lie_core import LieAlgebra, LinearMap

    values = []
    for node in _nodes(_catalog_entries()):
        if isinstance(node, LieAlgebra):
            values += [v for c in node.table.values() for v in c.values()]
        elif isinstance(node, LinearMap):
            values += [v for c in node.sparse_columns() for v in c.values()]
    assert values
    assert not any(isinstance(v, Fraction) and v.denominator == 1 for v in values)


def _assert_integer_first(nodes):
    nodes = list(nodes)
    assert not any(isinstance(x, float) for x in nodes)
    assert not any(isinstance(x, Fraction) and x.denominator == 1 for x in nodes)
    return nodes


def test_dsl_workspace_is_integer_first():
    """Everything parsed from text, associative tables and forms included,
    stores integral scalars as int."""
    import os

    from lieforge.constructions import AssociativeAlgebra
    from lieforge.dsl import parse
    from lieforge.lie_core import BilinearForm

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "perfbench", "corpus", "aff1.lie"), encoding="utf-8") as fh:
        ws = parse(fh.read())
    nodes = _assert_integer_first(_nodes(list(ws.definitions.values())))
    assert any(isinstance(x, AssociativeAlgebra) for x in nodes)
    assert any(isinstance(x, BilinearForm) for x in nodes)
    assert ws.definitions["C"][1].table[(0, 0)] == {0: 1}


def test_gaussian_tables_eigenbases_and_witnesses_are_integer_first():
    """Eigenbases and eigenspace witnesses hold no float and no integral
    Fraction in any Gaussian part."""
    import random

    from lieforge import catalog
    from lieforge.constructions import eigenspace_split, holomorphic_eigenbasis
    from lieforge.lie_core import AlmostComplex, LieAlgebra, LinearMap, check_abelian_complex

    cases = [(e.algebra, e.structures["j"]) for e in (
        catalog.euclidean(3), catalog.euclidean(5), catalog.sl2c_real(), catalog.galilean(),
    )]
    L = catalog.euclidean(5).algebra
    perm = random.Random(3).sample(range(L.dim), L.dim)
    cases.append((L, AlmostComplex.from_pairs(L.dim, list(zip(perm[::2], perm[1::2])))))
    # e(3) in the basis s_i b_i, so that constants and eigenvectors carry fractions
    e3, j3 = cases[0]
    s = [Fraction(n, d) for n, d in ((1, 2), (3, 1), (2, 3), (1, 1), (5, 4), (2, 1))]
    table = {
        (i, j): {k: s[i] * s[j] / s[k] * c for k, c in coeffs.items()}
        for (i, j), coeffs in e3.table.items()
    }
    cols = [{r: s[k] * c / s[r] for r, c in col.items()} for k, col in enumerate(j3.sparse_columns())]
    cases.append((LieAlgebra(e3.labels, table), AlmostComplex(LinearMap.from_sparse_columns(6, 6, cols))))
    failing = 0
    for L, J in cases:
        objs = [holomorphic_eigenbasis(L, J)]
        certs = list(eigenspace_split(L, J)[2]) + [check_abelian_complex(L, J)]
        objs += [w.defect for c in certs for w in c.witnesses]
        failing += sum(not c.passed for c in certs)
        nodes = list(_nodes(objs))
        assert any(isinstance(x, GaussScalar) and x.im for x in nodes)
        assert not any(isinstance(x, float) for x in nodes)
        assert not any(isinstance(x, Fraction) and x.denominator == 1 for x in nodes)
    assert failing
    assert any(isinstance(x, Fraction) for x in _nodes(holomorphic_eigenbasis(*cases[-1])))
