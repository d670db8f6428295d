"""Functorial builders for new algebras from old.

Semidirect products, tangent and cotangent algebras with the swap
structure and lifted connection of a doubled algebra, central extensions,
eigenspace splits inside the complexification, ingestion of matrix
realizations, affinization of associative algebras and contraction families.
Every algebra is real; Gaussian scalars appear only in the eigenspaces.
"""

from __future__ import annotations

from collections import defaultdict, deque

from .scalar_linear import (
    DimensionMismatchError,
    PreconditionError,
    SpanSolver,
    exact,
)
from .lie_core import (
    AlmostComplex,
    BilinearForm,
    Certificate,
    Connection,
    LieAlgebra,
    LinearMap,
    _bounded,
    check_representation,
    _direct_sum,
    _acc,
    _escapes,
    _require,
    _require_vectors,
    _require_almost_complex,
    holomorphic_eigenbasis,
)

_ZERO = 0
_ONE = 1


class NotClosedError(PreconditionError):
    """A commutator left the span of the proposed basis."""

    def __init__(self, message, pair):
        super().__init__(message)
        self.pair = pair


class AssociativeAlgebra:
    """Associative algebra as a basis-indexed product table.

    ``table[(i, j)]`` holds the sparse coefficients of the product of the
    i-th and j-th basis elements; missing pairs multiply to zero.
    Associativity is verified on all basis triples at construction.
    """

    def __init__(self, labels, table, name="assoc"):
        self.labels = list(labels)
        self.dim = len(self.labels)
        if len(set(self.labels)) != self.dim:
            raise PreconditionError("basis labels must be unique")
        self.name = name
        self.table = {}
        _require_vectors(self.dim, table.values())
        for (i, j), coeffs in table.items():
            cd = {k: exact(v) for k, v in coeffs.items() if v}
            if not (0 <= i < self.dim and 0 <= j < self.dim):
                raise DimensionMismatchError("product table index outside the basis")
            if cd:
                self.table[(i, j)] = cd
        bad = self._associativity_defect()
        if bad is not None:
            raise PreconditionError(
                "product table is not associative at triple %s" % (bad,)
            )

    def product_basis(self, i, j):
        return self.table.get((i, j), {})

    def product_sparse(self, u, v):
        """The product of two sparse vectors: each pair of their entries adds
        its coefficient product times the basis product."""
        out = {}
        for i, a in u.items():
            for j, b in v.items():
                coeffs = self.table.get((i, j))
                if coeffs:
                    _acc(out, coeffs, a * b)
        return out

    def _associativity_defect(self):
        """The first basis triple (i, j, k), in lexicographic order, with
        (b_i b_j) b_k != b_i (b_j b_k), or None.  Both sides vanish unless
        (i, j) or (j, k) has a product, so only such triples are visited."""
        n = self.dim
        partners = defaultdict(list)  # j -> the k with a product (j, k), ascending
        for j, k in sorted(self.table):
            partners[j].append(k)
        for i in range(n):
            for j in sorted(partners.keys() | set(partners.get(i, ()))):
                ij = self.product_basis(i, j)
                for k in range(n) if ij else partners[j]:
                    left = self.product_sparse(ij, {k: _ONE})
                    right = self.product_sparse({i: _ONE}, self.product_basis(j, k))
                    if left != right:
                        return (i, j, k)
        return None

    def left_multiplication(self, i):
        cols = [self.product_basis(i, j) for j in range(self.dim)]
        return LinearMap.from_sparse_columns(self.dim, self.dim, cols)


def semidirect(g, rho, module_labels=None, name=None, check_rep=True):
    """Semidirect product of g with an abelian module along a representation.

    The module sits after g in the basis; its part is an abelian ideal and
    the projection onto g is a homomorphism by construction.  ``rho`` must
    live on g itself or on an algebra with the same structure constants.
    """
    m = rho.module_dim
    _bounded(g.dim + m, "semidirect product")
    if not (rho.algebra is g or rho.algebra.same_constants(g)):
        raise PreconditionError("representation does not live on the given algebra")
    if check_rep:
        _require(check_representation(rho), "the given family is not a representation")
    if module_labels is None:
        module_labels = ["v%d" % (a + 1) for a in range(m)]
    if len(module_labels) != m:
        raise DimensionMismatchError("need one label per module basis vector")
    taken = set(g.labels)
    fixed = []
    for lab in module_labels:
        while lab in taken:
            lab += "'"
        taken.add(lab)
        fixed.append(lab)
    module_labels = fixed
    n = g.dim
    table = dict(g.table)
    for i in range(n):
        cols = rho.maps[i].sparse_columns()
        for a in range(m):
            col = cols[a]
            if col:
                table[(i, n + a)] = {n + k: v for k, v in col.items()}
    labels = list(g.labels) + list(module_labels)
    return LieAlgebra._normalized(labels, table, name=name or ("%s|x" % g.name))


def tangent(g, conn, name=None, check_rep=True):
    """Tangent algebra: semidirect product with a copy of the underlying space."""
    if conn.module_dim != g.dim:
        raise DimensionMismatchError("tangent construction needs a connection on g itself")
    return semidirect(
        g,
        conn,
        module_labels=[lab + "_a" for lab in g.labels],
        name=name or ("T(%s)" % g.name),
        check_rep=check_rep,
    )


def canonical_complex_structure(t_algebra):
    """The swap structure (x, y) -> (y, -x) on a doubled algebra."""
    if t_algebra.dim % 2:
        raise PreconditionError("doubled algebra must have even dimension")
    m = t_algebra.dim // 2
    return AlmostComplex.from_pairs(t_algebra.dim, [(m + i, i) for i in range(m)])


def _lift(t_algebra, ops):
    """Connection on a doubled algebra: op ⊕ op for the i-th base operator,
    then zero for each second-copy element."""
    zeros = [LinearMap.zero(2 * len(ops)) for _ in ops]
    return Connection(t_algebra, [_direct_sum(op, op) for op in ops] + zeros)


def _is_tangent(t_algebra, conn):
    """Whether t_algebra has the structure constants of the tangent algebra
    of conn, a connection on its own algebra."""
    return conn.module_dim == conn.algebra.dim and t_algebra.same_constants(
        tangent(conn.algebra, conn, check_rep=False)
    )


def lifted_connection(conn, t_algebra):
    """Connection on the tangent algebra acting through the base subscript."""
    if not _is_tangent(t_algebra, conn):
        raise PreconditionError("algebra is not the tangent algebra of the connection")
    return _lift(t_algebra, conn.maps)


def symplectic_from_duality(psi):
    """Skew pairing of the two tangent copies through a square duality map.

    Always skew, nondegenerate exactly when the map is invertible; closed
    precisely when the map is self-dual and the connection torsion-free.
    """
    n = psi.rows
    # omega(b_i, b_(n+j)) = -psi[i][j], and omega is skew
    cols = [{n + j: v for j, v in c.items()} for c in psi.transpose().sparse_columns()]
    cols += [{i: -v for i, v in c.items()} for c in psi.sparse_columns()]
    return BilinearForm(LinearMap.from_sparse_columns(2 * n, 2 * n, cols), BilinearForm.SKEW)


def cotangent(g, conn, name=None, check_rep=True):
    """Cotangent algebra along the contragredient family, with its pairing form.

    Returns the algebra together with the canonical skew pairing between the
    two copies in the (basis, dual basis) frame.
    """
    if conn.module_dim != g.dim:
        raise DimensionMismatchError("cotangent construction needs a connection on g itself")
    alg = semidirect(
        g,
        conn.dual(),
        module_labels=["α%d" % (i + 1) for i in range(g.dim)],
        name=name or ("T*(%s)" % g.name),
        check_rep=check_rep,
    )
    return alg, symplectic_from_duality(LinearMap.identity(g.dim))


def central_extension(g, name=None):
    """Trivial central extension; the new central generator ``z`` is appended last."""
    _bounded(g.dim + 1, "central extension")
    if "z" in g.labels:
        raise PreconditionError("label 'z' already used in the algebra")
    return LieAlgebra._normalized(g.labels + ["z"], dict(g.table), name=name or ("Rz+%s" % g.name))


def eigenspace_split(L, J):
    """Eigenspace spanning sets in the complexification plus bracket-closure verdicts.

    Each certificate passes iff its span is closed under the bracket.  That
    is decided on a basis, the +i eigenvectors that grow a SpanSolver; only
    on a failure is the full spanning set swept, so that witnesses and
    ``total_failures`` count its pairs.  L and J are real, so the -i
    spanning set is the conjugate of the +i one and [conj u, conj v] =
    conj [u, v]: the -i certificate is the +i one with each defect
    conjugated.  Both clocks start before the preconditions.
    """
    certs = tuple(Certificate("eigenspace_" + key, L.name, L.dim) for key in ("plus", "minus"))
    _require_almost_complex(L, J)
    plus, minus = holomorphic_eigenbasis(L, J)
    solver = SpanSolver(L.dim)
    basis = [v for v in plus if solver.add(v)]
    if next(_escapes(L, solver, basis), None) is not None:
        for ab, w in _escapes(L, solver, plus):
            certs[0].fail(ab, w)
            certs[1].fail(ab, {k: x.conjugate() for k, x in w.items()})
    return plus, minus, tuple(cert.done() for cert in certs)


def from_matrix_basis(mats, labels=None, name="matrix_algebra"):
    """Structure constants extracted from a list of basis matrices.

    The matrices may be :class:`LinearMap`s or dense input, which is
    converted once.  The commutator of any two inputs must lie in their
    span; the matrices must be linearly independent.  The realization is
    returned alongside the algebra as the list of ``LinearMap``s, ready to
    serve as its standard representation.  Commutators of matrices satisfy
    the Jacobi identity identically, so the construction sweep is skipped.
    Each distinct commutator is reduced once: the combination over
    independent inputs is unique, and pairs with equal commutators share
    its dict in the table.
    """
    mats = [m if isinstance(m, LinearMap) else LinearMap(m) for m in mats]
    if not mats:
        return LieAlgebra._normalized([], {}, name=name), []
    n = mats[0].rows
    if n != mats[0].cols:
        raise PreconditionError("matrix realization needs square matrices")
    for m in mats:
        if m.rows != n or m.cols != n:
            raise DimensionMismatchError("realization matrices of unequal shape")
    if labels is None:
        labels = ["m%d" % (i + 1) for i in range(len(mats))]
    if len(labels) != len(mats):
        raise DimensionMismatchError("need one label per basis matrix")
    # a matrix is flattened to the vector {r * n + c: entry}
    entries = [[(r, c, v) for c, col in enumerate(m.sparse_columns()) for r, v in col.items()]
               for m in mats]
    solver = SpanSolver(n * n)
    for i, ent in enumerate(entries):
        if not solver.add({r * n + c: v for r, c, v in ent}):
            raise PreconditionError(
                "realization matrices are dependent at position %d" % i
            )
    # the entries of every matrix j indexed by row k as (j, c, y) and by
    # column k as (j, r * n, y), in increasing j: an entry (r, k) of a_i
    # meets a_i a_j in by_row[k], an entry (k, c) meets a_j a_i in
    # by_col[k], and either way the two parts add up to the key r * n + c
    by_row = [deque() for _ in range(n)]
    by_col = [deque() for _ in range(n)]
    for j, ent in enumerate(entries):
        for r, c, y in ent:
            by_row[r].append((j, c, y))
            by_col[c].append((j, r * n, y))
    table = {}
    solved = {}  # commutator entries -> combination, shared by equal commutators
    for i, ent in enumerate(entries):
        # a_i's own entries lead its rows and columns; once they are
        # dropped the indexes hold only the matrices j > i
        for r, c, _ in ent:
            by_row[r].popleft()
            by_col[c].popleft()
        # [a_i, a_j] = a_i a_j - a_j a_i for every j > i at once
        row = defaultdict(dict)
        halves = (
            (by_row, [(k, r * n, x) for r, k, x in ent]),  # a_i[r, k] a_j[k, c]
            (by_col, [(k, c, -x) for k, c, x in ent]),  # -a_j[r, k] a_i[k, c]
        )
        for index, terms in halves:
            for k, base, x in terms:
                for j, part, y in index[k]:
                    comm, key = row[j], base + part
                    v = comm.get(key, _ZERO) + x * y
                    if v:
                        comm[key] = v
                    elif key in comm:
                        del comm[key]
        for j in sorted(row):
            comm = row[j]
            if not comm:
                continue
            key = frozenset(comm.items())
            combo = solved.get(key)
            if combo is None:
                combo = solved[key] = solver.solve(comm)
                if combo is None:
                    raise NotClosedError(
                        "commutator of basis matrices %d and %d leaves the span" % (i, j),
                        pair=(i, j),
                    )
            table[(i, j)] = combo
    return LieAlgebra._normalized(labels, table, name=name), mats


def aff_algebra(A, name=None):
    """Affinization of an associative algebra.

    The semidirect product of A's commutator algebra with a copy of A
    (labels ending ``_t``), on which it acts by left multiplication.
    Returns the algebra, its canonical block structure and the flat
    torsion-free left-multiplication connection.
    """
    n = A.dim
    _bounded(2 * n, "affinization")
    table = {}
    for i in range(n):
        for j in range(i + 1, n):
            comm = dict(A.product_basis(i, j))
            _acc(comm, A.product_basis(j, i), -_ONE)
            if comm:
                table[(i, j)] = {k: exact(v) for k, v in comm.items()}
    g = LieAlgebra._normalized(A.labels, table, name=A.name)
    ops = [A.left_multiplication(i) for i in range(n)]
    copy = ["%s_t" % lab for lab in A.labels]
    name = name or ("aff(%s)" % A.name)
    alg = semidirect(g, Connection(g, ops), copy, name=name, check_rep=False)
    return alg, canonical_complex_structure(alg), _lift(alg, ops)


class ContractionFamily:
    """One-parameter scaling degeneration over a reductive splitting.

    The bracket of two complement elements is scaled by the square of the
    parameter; brackets touching the subalgebra are unchanged.  Every
    sampled value yields a table that must pass the Jacobi sweep (enforced
    at construction of the sampled algebra).
    """

    def __init__(self, base, subalgebra, complement):
        self.base = base
        self.h = tuple(subalgebra)
        self.m = tuple(complement)
        hs = set(self.h)
        ms = set(self.m)
        if hs & ms or hs | ms != set(range(base.dim)):
            raise PreconditionError("index sets must partition the basis")
        for i in self.h:
            for j in self.h:
                if i < j:
                    if any(k in ms for k in base.table.get((i, j), {})):
                        raise PreconditionError("subalgebra indices are not closed")
        for i in self.h:
            for a in self.m:
                lo, hi = min(i, a), max(i, a)
                if any(k in hs for k in base.table.get((lo, hi), {})):
                    raise PreconditionError(
                        "complement is not reductive: bracket leaves the complement"
                    )

    def at(self, t):
        """Sampled algebra at a rational parameter value."""
        t = exact(t)
        t2 = t * t
        ms = set(self.m)
        table = {}
        for (i, j), coeffs in self.base.table.items():
            if i in ms and j in ms:
                if t2:
                    scaled = {k: t2 * v for k, v in coeffs.items()}
                    table[(i, j)] = scaled
            else:
                table[(i, j)] = dict(coeffs)
        return LieAlgebra(self.base.labels, table, name="%s@t=%s" % (self.base.name, t))
