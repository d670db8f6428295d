"""Structure-constant Lie algebras and the exact tensor checks.

An algebra is a labeled basis plus an antisymmetric structure-constant
table.  Every check builds a :class:`Certificate`, reports each failing
basis tuple to it and returns it; a check passes exactly when no tuple
failed.
"""

from __future__ import annotations

import heapq
import time
from collections import defaultdict, namedtuple
from operator import itemgetter

from .scalar_linear import (
    DimensionMismatchError,
    GaussScalar,
    Matrix,
    PreconditionError,
    SpanSolver,
    div,
    exact,
    scalar_to_str,
)

_ZERO = 0
_ONE = 1

MAX_WITNESSES = 16
# largest algebra a builder makes; a dim-2048 tower level takes about 400 MB
MAX_DIM = 2048


def _bounded(dim, what):
    """Refuse an output above MAX_DIM before anything is built."""
    if dim > MAX_DIM:
        raise PreconditionError("%s has more than %d dimensions" % (what, MAX_DIM))


class Witness(namedtuple("Witness", "indices defect")):
    __slots__ = ()

    def to_json(self):
        return {
            "indices": list(self.indices),
            "defect": [scalar_to_str(c) for c in self.defect],
        }


class Certificate:
    """Verdict of one named check on one target, built by the check's sweep.

    A check makes its certificate first, which starts the clock, so
    ``elapsed_ms`` covers its preconditions; it reports each failing tuple
    to :meth:`fail` and returns :meth:`done`.  A defect is a sparse dict,
    made dense to length ``dim`` only for a kept witness, or a tuple of
    scalars, kept as given.  ``witnesses`` holds at most MAX_WITNESSES
    entries; ``total_failures`` counts every failing tuple.
    """

    def __init__(self, check_name, target, dim=None):
        self.check_name = check_name
        self.target = target
        self.dim = dim
        self.witnesses = []
        self.total_failures = 0
        self.elapsed_ms = 0.0
        self.notes = {}
        self._t0 = time.perf_counter()

    @property
    def passed(self):
        return self.total_failures == 0

    def fail(self, indices, defect):
        self.total_failures += 1
        if len(self.witnesses) < MAX_WITNESSES:
            if isinstance(defect, dict):
                dense = [_ZERO] * self.dim
                for k, v in defect.items():
                    dense[k] = v
                defect = dense
            self.witnesses.append(Witness(tuple(indices), tuple(defect)))

    def absorb(self, prefix, cert):
        """Fail once for each witness of a sub-check, its indices after
        ``prefix``, count the failures it did not keep, and return whether
        it passed."""
        for w in cert.witnesses:
            self.fail(prefix + w.indices, w.defect)
        self.total_failures += cert.total_failures - len(cert.witnesses)
        return cert.passed

    def done(self, notes=None):
        """Stop the clock, set the notes and return the certificate."""
        self.elapsed_ms = (time.perf_counter() - self._t0) * 1000.0
        self.notes = notes or {}
        return self

    def to_json(self):
        d = {
            "check": self.check_name,
            "target": self.target,
            "pass": self.passed,
            "witnesses": [w.to_json() for w in self.witnesses],
            "total_failures": self.total_failures,
            "elapsed_ms": self.elapsed_ms,
        }
        if self.notes:
            d["notes"] = self.notes
        return d


def _require_vectors(dim, vectors):
    """Refuse any vector that is not a sparse dict indexed inside a basis
    of ``dim`` elements."""
    for v in vectors:
        if not isinstance(v, dict) or not all(
            type(k) is int and 0 <= k < dim for k in v
        ):
            raise DimensionMismatchError(
                "vectors must be {index: scalar} dicts with indices below %d" % dim
            )


def _acc(target, vec, factor=_ONE):
    for k, v in vec.items():
        s = target.get(k, _ZERO) + factor * v
        if s:
            target[k] = s
        elif k in target:
            del target[k]


class LieAlgebra:
    """Lie algebra given by dimension, labels and structure constants.

    The table maps an ordered basis pair (i, j) with i < j to a sparse
    coefficient dict; the bracket extends antisymmetrically and bilinearly.
    The constructor verifies the Jacobi identity; builders whose output
    satisfies it identically go through :meth:`_normalized` instead.
    """

    def __init__(self, labels, table, name="algebra"):
        self._store(labels, {}, name)
        _require_vectors(self.dim, table.values())
        for (i, j), coeffs in table.items():
            if not (0 <= i < j < self.dim):
                raise PreconditionError(
                    "structure constants must be given for ordered pairs i < j"
                )
            cd = {k: exact(v) for k, v in coeffs.items() if v}
            if cd:
                self.table[(i, j)] = cd
        cert = check_jacobi(self)
        if not cert.passed:
            w = cert.witnesses[0]
            raise PreconditionError(
                "Jacobi identity fails at basis triple %s" % (w.indices,),
                details=cert,
            )

    @classmethod
    def _normalized(cls, labels, table, name="algebra"):
        """An algebra over a table its builder made, stored without a copy.

        Trusts the table to be what the constructor would store: keys i < j
        inside the basis, sparse coefficient dicts indexed inside the basis,
        every value integer-first (as :func:`exact` leaves it), and the
        Jacobi identity.  Only the labels are tested.  Only builders whose
        entries come from normalized tables, maps or solver combinations may
        call it; text, JSON and caller input go through the constructor.
        The table's coefficient dicts may be shared, with another table or
        between pairs, because nothing writes a table after construction.
        """
        alg = object.__new__(cls)
        alg._store(labels, table, name)
        return alg

    def _store(self, labels, table, name):
        self.labels = list(labels)
        self.dim = len(self.labels)
        if len(set(self.labels)) != self.dim:
            raise PreconditionError("basis labels must be unique")
        self.name = name
        self._index = {lab: i for i, lab in enumerate(self.labels)}
        self.table = table
        self._ad = None

    def _ad_rows(self):
        """:func:`_signed_rows` of the table, built on first use; nothing
        writes ``table`` after construction."""
        if self._ad is None:
            self._ad = _signed_rows(self.dim, self.table)
        return self._ad

    def index(self, label):
        try:
            return self._index[label]
        except KeyError:
            raise KeyError("no basis element labeled %r in %s" % (label, self.name))

    def basis_vector(self, i):
        """The i-th basis element as the sparse vector {i: 1}."""
        return {i: _ONE}

    def bracket_basis(self, i, j):
        """Sparse [b_i, b_j]."""
        if i == j:
            return {}
        if i < j:
            return self.table.get((i, j), {})
        neg = self.table.get((j, i))
        if not neg:
            return {}
        return {k: -v for k, v in neg.items()}

    def bracket_sparse(self, u, v):
        out = {}
        table = self.table
        for i, a in u.items():
            for j, b in v.items():
                if i == j:
                    continue
                if i < j:
                    coeffs = table.get((i, j))
                    f = a * b
                else:
                    coeffs = table.get((j, i))
                    f = -(a * b)
                if not coeffs:
                    continue
                for k, c in coeffs.items():
                    s = out.get(k, _ZERO) + f * c
                    if s:
                        out[k] = s
                    elif k in out:
                        del out[k]
        return out

    def ad(self, i):
        """Adjoint map of the i-th basis element."""
        cols = [self.bracket_basis(i, j) for j in range(self.dim)]
        return LinearMap.from_sparse_columns(self.dim, self.dim, cols)

    def adjoint_connection(self):
        return Connection(self, [self.ad(i) for i in range(self.dim)])

    def same_constants(self, other):
        """Equality of structure-constant tables (labels ignored)."""
        return self.dim == other.dim and self.table == other.table

    def __repr__(self):
        return "LieAlgebra(%s, dim=%d)" % (self.name, self.dim)


class LinearMap:
    """Exact linear map stored as one sparse dict per column.

    Column j maps a row index to the entry there; entries are normalized
    by :func:`exact` and zeros are never stored.  ``matrix`` is a dense
    view built on demand, for emission.
    """

    def __init__(self, rows):
        data = [list(r) for r in rows]
        self.rows = len(data)
        self.cols = len(data[0]) if data else 0
        self._columns = [{} for _ in range(self.cols)]
        for i, row in enumerate(data):
            if len(row) != self.cols:
                raise DimensionMismatchError("ragged rows in matrix")
            for j, e in enumerate(row):
                if e:
                    self._columns[j][i] = exact(e)

    @classmethod
    def from_sparse_columns(cls, rows, cols, sparse_cols):
        if len(sparse_cols) != cols:
            raise DimensionMismatchError("need one sparse column per map column")
        columns = [{i: exact(v) for i, v in c.items() if v} for c in sparse_cols]
        for c in columns:
            if c and not (0 <= min(c) and max(c) < rows):
                raise DimensionMismatchError("row index out of range")
        return _columns_map(rows, cols, columns)

    @classmethod
    def zero(cls, n):
        return _columns_map(n, n, [{} for _ in range(n)])

    @classmethod
    def identity(cls, n):
        return _columns_map(n, n, [{j: _ONE} for j in range(n)])

    @property
    def matrix(self):
        data = [[_ZERO] * self.cols for _ in range(self.rows)]
        for j, col in enumerate(self._columns):
            for i, v in col.items():
                data[i][j] = v
        return Matrix(data)

    def sparse_columns(self):
        return self._columns

    def apply_sparse(self, vec):
        cols = self._columns
        out = {}
        for j, a in vec.items():
            _acc(out, cols[j], a)
        return out

    def compose(self, other):
        """self after other."""
        if self.cols != other.rows:
            raise DimensionMismatchError("composition shape mismatch")
        # apply_sparse drops zeros and stays in range; only exact is left to do
        cols = [{i: exact(v) for i, v in self.apply_sparse(c).items()} for c in other._columns]
        return _columns_map(self.rows, other.cols, cols)

    def __neg__(self):
        return _columns_map(
            self.rows, self.cols, [{i: -v for i, v in c.items()} for c in self._columns]
        )

    def __eq__(self, other):
        if not isinstance(other, LinearMap):
            return NotImplemented
        return (self.rows, self.cols, self._columns) == (other.rows, other.cols, other._columns)

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(frozenset(c.items()) for c in self._columns)))

    def transpose(self):
        rows = [{} for _ in range(self.rows)]
        for j, col in enumerate(self._columns):
            for i, v in col.items():
                rows[i][j] = v
        return _columns_map(self.cols, self.rows, rows)

    def is_identity(self):
        if self.rows != self.cols:
            return False
        return all(col == {j: _ONE} for j, col in enumerate(self._columns))

    def squares_to_minus_identity(self):
        """Whether J(J e_j) == -e_j for every column j, in O(nnz) work."""
        if self.rows != self.cols:
            return False
        cols = self.sparse_columns()
        return all(self.apply_sparse(col) == {j: -_ONE} for j, col in enumerate(cols))

    def __repr__(self):
        return "LinearMap(%dx%d)" % (self.rows, self.cols)


def _columns_map(rows, cols, columns):
    """LinearMap over already normalized columns, taken without a copy."""
    lm = object.__new__(LinearMap)
    lm.rows, lm.cols, lm._columns = rows, cols, columns
    return lm


def _direct_sum(a, b):
    """Block-diagonal map with b's block after a's.

    a's column dicts are taken without a copy, and b's are shifted once:
    nothing writes a map's columns after construction, so the result may
    share them.
    """
    n = a.rows
    shifted = [{n + k: v for k, v in c.items()} for c in b._columns]
    return _columns_map(n + b.rows, a.cols + b.cols, a._columns + shifted)


class AlmostComplex(LinearMap):
    """Endomorphism whose square is minus the identity (verified).

    Built from a :class:`LinearMap`, it shares that map's columns.
    """

    def __init__(self, matrix):
        if not isinstance(matrix, LinearMap):
            matrix = LinearMap(matrix)
        self.rows, self.cols, self._columns = matrix.rows, matrix.cols, matrix._columns
        if self.rows != self.cols:
            raise PreconditionError("almost complex structure must be square")
        if not self.squares_to_minus_identity():
            raise PreconditionError("map squared is not minus the identity")

    @classmethod
    def from_pairs(cls, dim, pairs):
        """Signed-permutation structure taking a to b and b to -a for each (a, b)."""
        pairs = list(pairs)
        if not all(0 <= x < dim for pair in pairs for x in pair):
            raise DimensionMismatchError("pairing index outside the basis")
        cols = [None] * dim
        for a, b in pairs:
            if cols[a] is not None or cols[b] is not None:
                raise PreconditionError("pairing touches an index twice")
            cols[a] = {b: _ONE}
            cols[b] = {a: -_ONE}
        missing = [i for i, c in enumerate(cols) if c is None]
        if missing:
            raise PreconditionError("pairing leaves indices %s unmatched" % missing)
        return cls(_columns_map(dim, dim, cols))


class Connection:
    """Basis-indexed family of linear maps on a module.

    Entry i is the operator attached to the i-th basis element; the family
    extends linearly in the subscript.  The same object models a
    representation of the algebra and a connection on it.
    """

    def __init__(self, algebra, maps):
        self.algebra = algebra
        if len(maps) != algebra.dim:
            raise DimensionMismatchError("need one map per basis element")
        maps = [m if isinstance(m, LinearMap) else LinearMap(m) for m in maps]
        md = maps[0].rows if maps else 0
        for m in maps:
            if m.rows != md or m.cols != md:
                raise DimensionMismatchError("connection maps must be square and equal size")
        self.maps = maps
        self.module_dim = md

    def at(self, x):
        """The operator sum_i x_i rho_i at a sparse algebra vector x, as one map."""
        m = self.module_dim
        cols = [{} for _ in range(m)]
        for i, c in x.items():
            for col, icol in zip(cols, self.maps[i].sparse_columns()):
                _acc(col, icol, c)
        return _columns_map(m, m, [{r: exact(v) for r, v in col.items()} for col in cols])

    def dual(self):
        """Contragredient family: each operator becomes minus its transpose."""
        return Connection(self.algebra, [-m.transpose() for m in self.maps])

    def __repr__(self):
        return "Connection(%s, module_dim=%d)" % (self.algebra.name, self.module_dim)


class BilinearForm:
    """Bilinear form with an exactly enforced symmetry kind.

    The Gram matrix is stored once, as the :class:`LinearMap` ``gram``;
    ``matrix`` is a dense view built on demand, for inversion and emission.
    """

    SYMMETRIC = "symmetric"
    SKEW = "skew"

    def __init__(self, gram, kind):
        if not isinstance(gram, LinearMap):
            gram = LinearMap(gram)
        if gram.rows != gram.cols:
            raise PreconditionError("bilinear form matrix must be square")
        if kind not in (self.SYMMETRIC, self.SKEW):
            raise PreconditionError("kind must be 'symmetric' or 'skew'")
        t = gram.transpose()
        if kind == self.SYMMETRIC and t != gram:
            raise PreconditionError("matrix is not symmetric")
        if kind == self.SKEW and t != -gram:
            raise PreconditionError("matrix is not skew")
        self.gram = gram
        self.kind = kind
        self.dim = gram.rows

    @property
    def matrix(self):
        return self.gram.matrix

    def __repr__(self):
        return "BilinearForm(%s, dim=%d)" % (self.kind, self.dim)


def _require_invertible(lm, message):
    """A SpanSolver over the columns of a square map, raising if it is singular.

    At the first column j in the span of the columns before it, the
    PreconditionError carries the kernel vector e_j minus the coefficients
    of column j over them, scaled so that its first nonzero entry is 1.
    """
    if lm.rows != lm.cols:
        raise DimensionMismatchError("only square matrices invert")
    solver = SpanSolver(lm.rows)
    for j, col in enumerate(lm.sparse_columns()):
        if not solver.add(col):
            kernel = [_ZERO] * lm.cols
            kernel[j] = _ONE
            for k, c in solver.solve(col).items():
                kernel[k] = -c
            lead = next(e for e in kernel if e)
            raise PreconditionError(message, details=[div(e, lead) for e in kernel])
    return solver


def _require(cert, message):
    """A hypothesis: PreconditionError carrying ``cert`` unless it passed."""
    if not cert.passed:
        raise PreconditionError(message, details=cert)


# ---------------------------------------------------------------------------
# checks


def _signed_rows(n, pairs):
    """Index o -> [(l, v, s)] with value(b_o, b_l) = s * v.

    ``pairs`` maps a basis pair (a, b), a < b, to a value that is
    antisymmetric in the pair, such as the structure-constant table.
    """
    rows = [[] for _ in range(n)]
    for (a, b), v in pairs.items():
        rows[a].append((b, v, 1))
        rows[b].append((a, v, -1))
    return rows


def _supports(n, vectors):
    """Index q -> [(b, y)], by descending b, with y the entry of vectors[b] at q."""
    index = [[] for _ in range(n)]
    for b in reversed(range(len(vectors))):
        for q, y in vectors[b].items():
            index[q].append((b, y))
    return index


def _rows(sums, n):
    """The nonzero entries of sums, keyed r*n + k, as (r, {k: value}) by ascending r."""
    rows = {}
    for key, x in sums.items():
        if x:
            r, k = divmod(key, n)
            rows.setdefault(r, {})[k] = x
    return sorted(rows.items())


def _cyclic_sums(L, act):
    """Nonzero cyclic sums over basis triples i < j < k, in lexicographic order.

    ``act`` holds the signed rows (:func:`_signed_rows`) of a form that
    maps a basis pair (a, b), a < b, to the sparse value of b_a against b_b
    and extends antisymmetrically; the sum at (i, j, k) is
    form(b_i, [b_j, b_k]) + form(b_j, [b_k, b_i]) + form(b_k, [b_i, b_j]),
    linear in the bracket.  A term is nonzero only when its pair has a table
    entry whose support meets the outer index's form row, so only such
    triples are visited.  Copies of the form rows, and the producers of
    each b_l, are sorted by descending partner index, so each inner loop
    stops at the first partner <= i.

    Sums stream by smallest index i: one row of them is live at a time,
    held in one flat dict keyed by (j*n + k)*n + l, which needs every index
    l of a form value below n, and regrouped by triple only for the nonzero
    entries.
    """
    n = L.dim
    rows = [[] for _ in range(n)]  # a -> table pairs (a, b), a < b
    producers = [[] for _ in range(n)]  # l -> pairs whose bracket has b_l
    for (a, b), coeffs in L.table.items():
        rows[a].append((b, coeffs))
        for l, c in coeffs.items():
            producers[l].append((a, (a * n + b) * n, c))
    for p in producers:
        p.sort(key=itemgetter(0), reverse=True)
    act = [sorted(row, key=itemgetter(0), reverse=True) for row in act]
    for i in range(n):
        sums = {}
        get = sums.get
        # outer index i against a pair (j, k) above it
        for l, v, s in act[i]:
            for j, base, c in producers[l]:
                if j <= i:
                    break
                f = s * c
                for t, x in v.items():
                    key = base + t
                    sums[key] = get(key, _ZERO) + f * x
        # outer index o against the pair (i, m), minus when i < o < m;
        # form(b_o, b_l) = -s * v by antisymmetry
        for m, coeffs in rows[i]:
            for l, c in coeffs.items():
                for o, v, s in act[l]:
                    if o <= i:
                        break
                    if o > m:
                        base, f = (m * n + o) * n, -s * c
                    elif o < m:
                        base, f = (o * n + m) * n, s * c
                    else:
                        continue
                    for t, x in v.items():
                        key = base + t
                        sums[key] = get(key, _ZERO) + f * x
        for jk, out in _rows(sums, n):
            yield (i,) + divmod(jk, n), out


def check_jacobi(L, target=None):
    """Cyclic Jacobi sum over the basis triples i < j < k that can fail."""
    cert = Certificate("jacobi", target or L.name, L.dim)
    for ijk, s in _cyclic_sums(L, L._ad_rows()):
        cert.fail(ijk, s)
    return cert.done()


def _require_almost_complex(L, J):
    if J.rows != L.dim or J.cols != L.dim:
        raise DimensionMismatchError("endomorphism does not match algebra dimension")
    if not J.squares_to_minus_identity():
        raise PreconditionError("map squared is not minus the identity")


def nijenhuis(L, J, x, y):
    """Torsion of the almost complex structure at the sparse vectors (x, y),
    as a sparse dict."""
    _require_vectors(L.dim, (x, y))
    Jx, Jy = J.apply_sparse(x), J.apply_sparse(y)
    out = J.apply_sparse(L.bracket_sparse(x, y))
    _acc(out, L.bracket_sparse(Jx, y), -_ONE)
    _acc(out, L.bracket_sparse(x, Jy), -_ONE)
    _acc(out, J.apply_sparse(L.bracket_sparse(Jx, Jy)), -_ONE)
    return out


def _torsions(L, J, vectors, images):
    """Nonzero torsions N(u_a, u_b), a < b, in lexicographic order.

    N(u, v) = J([u, v] - [Ju, Jv]) - [Ju, v] - [u, Jv] is bilinear, so a
    term contributes only through a table entry [b_p, b_q] with p in the
    support of u_a or Ju_a and q in the support of u_b or Ju_b; only such
    pairs are visited.  ``images[a]`` is J u_a.  The supports run by
    descending b, so each inner loop stops at the first b <= a.  Rows
    stream by a in two flat dicts keyed b*n + k; the part under J goes
    through J's columns into the other, regrouped by b where nonzero.
    """
    n = L.dim
    jcols = J.sparse_columns()
    ad = L._ad_rows()
    vin, jin = _supports(n, vectors), _supports(n, images)
    for a, (u, ju) in enumerate(zip(vectors, images)):
        pre = {}  # b*n + k -> ([u_a, u_b] - [Ju_a, Ju_b])[k]
        post = {}  # b*n + k -> (-[Ju_a, u_b] - [u_a, Ju_b])[k]
        for w, index, sums, sign in (
            (u, vin, pre, 1), (u, jin, post, -1),
            (ju, vin, post, -1), (ju, jin, pre, -1),
        ):
            get = sums.get
            for p, x in w.items():
                for q, c, s in ad[p]:
                    f = sign * s * x
                    for b, y in index[q]:
                        if b <= a:
                            break
                        for k, v in c.items():
                            key = b * n + k
                            sums[key] = get(key, _ZERO) + f * y * v
        get = post.get
        for bk, v in pre.items():
            if v:
                base = bk - bk % n
                for t, x in jcols[bk % n].items():
                    post[base + t] = get(base + t, _ZERO) + v * x
        for b, out in _rows(post, n):
            yield (a, b), out


def _bracket_pairs(L, vectors):
    """Pairs a < b, in lexicographic order, whose bracket [u_a, u_b] can be nonzero.

    The bracket is bilinear, so it is nonzero only through a table entry
    [b_p, b_q] with p in the support of u_a and q in the support of u_b;
    only such pairs are yielded.  The brackets themselves are left to the
    caller.
    """
    ad = L._ad_rows()
    index = _supports(L.dim, vectors)
    for a, u in enumerate(vectors):
        partners = {b for p in u for q, _, _ in ad[p] for b, _ in index[q] if b > a}
        for b in sorted(partners):
            yield a, b


def _escapes(L, solver, vectors):
    """Pairs a < b of :func:`_bracket_pairs` whose bracket [u_a, u_b] leaves
    the span of ``solver``, each with that bracket.  Against an empty solver
    these are the nonzero brackets, so nothing is yielded exactly when
    ``vectors`` span an abelian subalgebra."""
    for a, b in _bracket_pairs(L, vectors):
        w = L.bracket_sparse(vectors[a], vectors[b])
        if w and not solver.contains(w):
            yield (a, b), w


def _is_ideal(L, solver, vectors):
    """Whether [b_q, u] lies in the span of ``solver`` for every basis vector
    b_q and u in ``vectors``; the brackets come off the ad rows."""
    ad = L._ad_rows()
    for u in vectors:
        images = defaultdict(dict)  # q -> [b_q, u]
        for p, x in u.items():
            for q, c, s in ad[p]:
                _acc(images[q], c, -s * x)
        if not all(solver.contains(w) for w in images.values()):
            return False
    return True


def _orbit_sweep(cert, L, J):
    """Full sweep of a signed pairing J b_p = s_p b_sigma(p) from its
    representative pairs; False, sweeping nothing, for any other J.

    As b_sigma(p) = s_p J b_p and N(Jx, y) = N(x, Jy) = -J N(x, y), each pair
    of the orbit {p, sigma p} x {q, sigma q} has torsion +-T or +-J T, where
    T = N(b_p, b_q) at the representatives p = min(p, sigma p), q alike, so it
    fails exactly when they do.  Orbits with p = q vanish; each other holds 4
    pairs.  Only the representatives are swept; the witnesses are the smallest
    pairs of the failing orbits, each torsion evaluated at its own pair.
    """
    cols = J.sparse_columns()
    if not all(len(c) == 1 and next(iter(c.values())) in (1, -1) for c in cols):
        return False
    sigma = [next(iter(c)) for c in cols]
    reps = [p for p in range(L.dim) if p < sigma[p]]
    units = [{p: _ONE} for p in reps]
    torsions = _torsions(L, J, units, [cols[p] for p in reps])
    failing = [(reps[a], reps[b]) for (a, b), _ in torsions]
    orbits = (
        (x, y) if x < y else (y, x)
        for p, q in failing
        for x in (p, sigma[p])
        for y in (q, sigma[q])
    )
    for x, y in heapq.nsmallest(MAX_WITNESSES, orbits):
        cert.fail((x, y), nijenhuis(L, J, L.basis_vector(x), L.basis_vector(y)))
    cert.total_failures = 4 * len(failing)
    return True


def check_integrable(L, J, split=None, target=None):
    """Vanishing of the structure torsion on basis pairs.

    With ``split`` given (a half basis u of sparse vectors whose union with
    Ju spans the algebra, verified here), only pairs inside the half basis
    are swept; that suffices because vanishing there forces identical
    vanishing.

    Without it, a signed pairing J (one entry +-1 per column) sweeps only
    its representative pairs and derives the others (:func:`_orbit_sweep`);
    any other J sweeps every pair.  The certificate is the same either way.
    """
    cert = Certificate("integrable", target or L.name, L.dim)
    _require_almost_complex(L, J)
    if split is None and _orbit_sweep(cert, L, J):
        return cert.done()
    n = L.dim
    if split is None:
        vectors = [{i: _ONE} for i in range(n)]
        images = J.sparse_columns()
        notes = None
    else:
        vectors = list(split)
        _require_vectors(n, vectors)
        images = [J.apply_sparse(v) for v in vectors]
        solver = SpanSolver(n)
        for v in vectors + images:
            solver.add(v)
        if solver.rank != n:
            raise PreconditionError(
                "half basis and its image span a %d-dimensional subspace of a "
                "%d-dimensional algebra" % (solver.rank, n)
            )
        notes = {"split": True}
    for ab, out in _torsions(L, J, vectors, images):
        cert.fail(ab, out)
    return cert.done(notes=notes)


def check_complex_lie(L, J, target=None):
    """Bi-invariance: every adjoint operator commutes with the structure.

    Row i holds ad(b_i) J b_j - J ad(b_i) b_j for the j it can be nonzero
    at: those with a table entry [b_i, b_q] and q in the support of J b_j,
    and those with a table entry [b_i, b_j].  Rows stream by i, one at a
    time in a flat dict keyed j*n + k, regrouped by j for its nonzero entries.
    """
    cert = Certificate("complex_lie", target or L.name, L.dim)
    _require_almost_complex(L, J)
    n = L.dim
    jcols = J.sparse_columns()
    ad = L._ad_rows()
    jin = _supports(n, jcols)
    for i in range(n):
        sums = {}
        get = sums.get
        for q, c, s in ad[i]:
            for j, y in jin[q]:
                for k, v in c.items():
                    key = j * n + k
                    sums[key] = get(key, _ZERO) + s * y * v
            for k, v in c.items():
                for t, x in jcols[k].items():
                    key = q * n + t
                    sums[key] = get(key, _ZERO) - s * v * x
        for j, row in _rows(sums, n):
            cert.fail((i, j), row)
    return cert.done()


def holomorphic_eigenbasis(L, J):
    """Spanning sets of the +i and -i eigenspaces inside the complexification
    of a real algebra: b_k - i J b_k and its conjugate b_k + i J b_k, in the
    order of k.  The eigenspace sweeps rely on that conjugation, so a
    Gaussian entry in the table or the structure is refused."""
    cols = J.sparse_columns()
    if any(
        isinstance(c, GaussScalar)
        for coeffs in (*L.table.values(), *cols)
        for c in coeffs.values()
    ):
        raise PreconditionError("eigenspaces need a real algebra and a real structure")
    plus = []
    for k, col in enumerate(cols):
        v = {k: GaussScalar(1)}
        for r, c in col.items():
            v[r] = GaussScalar(int(r == k), -c)
        plus.append(v)
    return plus, [{r: x.conjugate() for r, x in v.items()} for v in plus]


def check_abelian_complex(L, J, target=None):
    """Whether both eigenspaces in the complexification are abelian.

    L and J are real, so the ``eigen_minus`` failures are the ``eigen_plus``
    ones with each defect conjugated, as in :func:`eigenspace_split`.
    """
    cert = Certificate("abelian_complex", target or L.name, L.dim)
    _require_almost_complex(L, J)
    plus, _ = holomorphic_eigenbasis(L, J)
    fails = list(_escapes(L, SpanSolver(L.dim), plus))
    for ab, w in fails:
        cert.fail(("eigen_plus",) + ab, w)
    for ab, w in fails:
        cert.fail(("eigen_minus",) + ab, {k: x.conjugate() for k, x in w.items()})
    return cert.done()


def check_representation(rho, target=None):
    """Defect of rho([b_i, b_j]) against the operator commutator.

    This is simultaneously the flatness test for connections.  Column k of
    rho_i rho_j - rho_j rho_i - rho([b_i, b_j]) is nonzero only through an
    operator entry or a table entry that meets it, so each term is streamed
    from an index of the nonzero entries: ``cols[j]`` holds the nonzero
    columns (k, col) of rho_j, ``by_row[l]`` the (j, k, a) with entry a of
    rho_j at (l, k), and ``live[l]`` the (j, col) with column l of rho_j
    nonzero.  Sums stream by i, one row of (j, k), j > i, at a time.
    """
    L = rho.algebra
    n, m = L.dim, rho.module_dim
    cert = Certificate("representation", target or L.name, m)
    cols = [[(k, c) for k, c in enumerate(op.sparse_columns()) if c] for op in rho.maps]
    by_row = [[] for _ in range(m)]
    live = [[] for _ in range(m)]
    for j, jcols in enumerate(cols):
        for k, col in jcols:
            live[k].append((j, col))
            for l, a in col.items():
                by_row[l].append((j, k, a))
    rows = [[] for _ in range(n)]  # i -> table pairs (i, j), i < j
    for (i, j), coeffs in L.table.items():
        rows[i].append((j, coeffs))
    # The three terms are added in turn, so each entry sums them in one
    # fixed order: a Gaussian sum that cancels to a real number ends as a
    # GaussScalar or a rational depending on that order, and the two print
    # differently in a certificate.
    for i, icols in enumerate(cols):
        sums = defaultdict(dict)
        # rho_i rho_j b_k through the entries of row l of rho_j
        for l, col in icols:
            for j, k, a in by_row[l]:
                if j > i:
                    _acc(sums[j, k], col, a)
        # - rho_j rho_i b_l through the nonzero columns of rho_j
        for l, col in icols:
            for r, a in col.items():
                for j, jcol in live[r]:
                    if j > i:
                        _acc(sums[j, l], jcol, -a)
        # - rho([b_i, b_j]) b_k through the nonzero columns of each rho_l
        for j, coeffs in rows[i]:
            for l, c in coeffs.items():
                for k, col in cols[l]:
                    _acc(sums[j, k], col, -c)
        for jk in sorted(sums):
            if sums[jk]:
                cert.fail((i,) + jk, sums[jk])
    return cert.done()


def torsion(conn, i, j):
    """Deviation of the connection from reproducing the bracket at the basis
    pair (i, j), as a sparse dict."""
    if conn.module_dim != conn.algebra.dim:
        raise DimensionMismatchError("torsion needs a connection on the algebra itself")
    acc = conn.maps[i].apply_sparse({j: _ONE})
    _acc(acc, conn.maps[j].apply_sparse({i: _ONE}), -_ONE)
    _acc(acc, conn.algebra.bracket_basis(i, j), -_ONE)
    return acc


def check_torsion_free(conn, target=None):
    """Vanishing torsion on the basis pairs i < j where it can be nonzero.

    torsion(i, j) is nonzero only through a table entry (i, j), column j
    of rho_i or column i of rho_j, so only those pairs are visited.
    """
    L = conn.algebra
    cert = Certificate("torsion_free", target or L.name, L.dim)
    if conn.module_dim != L.dim:
        raise DimensionMismatchError("torsion needs a connection on the algebra itself")
    pairs = set(L.table)
    for i, op in enumerate(conn.maps):
        for j, col in enumerate(op.sparse_columns()):
            if col and i != j:
                pairs.add((min(i, j), max(i, j)))
    for i, j in sorted(pairs):
        t = torsion(conn, i, j)
        if t:
            cert.fail((i, j), t)
    return cert.done()


def _closed_sweep(cert, L, form):
    """Fail ``cert``, made with dim 1, at each basis triple where d omega
    is nonzero, after the closedness preconditions."""
    if form.kind != BilinearForm.SKEW:
        raise PreconditionError("closedness applies to skew forms")
    if form.dim != L.dim:
        raise DimensionMismatchError("form does not match algebra dimension")
    # omega(b_a, b_b) as a one-entry vector, so the cyclic sum is d omega
    pairs = {
        (a, b): {0: v}
        for b, col in enumerate(form.gram.sparse_columns())
        for a, v in col.items()
        if a < b
    }
    for ijk, s in _cyclic_sums(L, _signed_rows(L.dim, pairs)):
        cert.fail(ijk, s)


def check_closed(L, form, target=None):
    """Vanishing of the Chevalley-Eilenberg differential on basis triples."""
    cert = Certificate("closed", target or L.name, 1)
    _closed_sweep(cert, L, form)
    return cert.done()


def check_symplectic(L, form, target=None):
    """Closed and nondegenerate; a degenerate form fails once more, with a
    kernel vector as the witness."""
    cert = Certificate("symplectic", target or L.name, 1)
    _closed_sweep(cert, L, form)
    notes = {"closed": cert.passed, "nondegenerate": True}
    try:
        _require_invertible(form.gram, "form is degenerate")
    except PreconditionError as exc:
        notes["nondegenerate"] = False
        cert.fail(("kernel",), tuple(exc.details))
    return cert.done(notes=notes)


def check_parallel(conn, tensor, target=None):
    """Vanishing covariant derivative of an endomorphism or a bilinear form.

    Both derivatives are linear in the operator rho_i, so only what meets
    its nonzero columns is visited: for an endomorphism T, column k of
    rho_i T - T rho_i is summed from the rows of T and the nonzero columns
    of rho_i; for a form with Gram map G, row j of rho_i^T G + G rho_i is
    G^T applied to column j of rho_i plus row j of G rho_i, so the pair
    (j, k) needs column j or column k of rho_i to be nonzero.
    """
    m = conn.module_dim
    cert = Certificate("parallel", target or conn.algebra.name, m)
    if isinstance(tensor, LinearMap):
        if tensor.rows != m or tensor.cols != m:
            raise DimensionMismatchError("endomorphism does not match the module")
        trows = tensor.transpose().sparse_columns()
        for i, op in enumerate(conn.maps):
            sums = defaultdict(dict)
            nonzero = [(l, col) for l, col in enumerate(op.sparse_columns()) if col]
            for l, col in nonzero:
                for k, t in trows[l].items():
                    _acc(sums[k], col, t)
            # T rho_i b_l is summed on its own, then subtracted (see
            # check_representation on the order of the terms)
            for l, col in nonzero:
                _acc(sums[l], tensor.apply_sparse(col), -_ONE)
            for k in sorted(sums):
                if sums[k]:
                    cert.fail((i, k), sums[k])
        return cert.done()
    if isinstance(tensor, BilinearForm):
        if tensor.dim != m:
            raise DimensionMismatchError("form does not match the module")
        gram = tensor.gram
        transposed = gram.transpose()
        for i, op in enumerate(conn.maps):
            ocols = op.sparse_columns()
            # (G rho_i)[j, k] for k >= j, by row j
            upper = defaultdict(dict)
            for k, col in enumerate(ocols):
                for j, v in gram.apply_sparse(col).items():
                    if j <= k:
                        upper[j][k] = v
            for j in sorted(upper.keys() | {j for j, col in enumerate(ocols) if col}):
                # row j of rho_i^T G + G rho_i, from column j on
                row = {k: v for k, v in transposed.apply_sparse(ocols[j]).items() if k >= j}
                _acc(row, upper[j])
                for k in sorted(row):
                    cert.fail((i, j, k), (row[k],))
        return cert.done()
    raise PreconditionError("parallel check expects a LinearMap or a BilinearForm")


def check_metric(conn, form, target=None):
    """Whether the connection is the Levi-Civita connection of a flat metric.

    Requires compatibility with the form plus torsion-freeness and flatness;
    the certificate notes report each sub-check separately, and each witness
    starts with the name of the sub-check it comes from.
    """
    cert = Certificate("metric", target or conn.algebra.name)
    if form.kind != BilinearForm.SYMMETRIC:
        raise PreconditionError("metric check needs a symmetric form")
    _require_invertible(form.gram, "metric check needs an invertible form")
    subs = {
        "compatible": check_parallel(conn, form),
        "torsion_free": check_torsion_free(conn),
        "flat": check_representation(conn),
    }
    notes = {key: cert.absorb((key,), sub) for key, sub in subs.items()}
    return cert.done(notes=notes)


def check_product_structure(L, E, target=None):
    """Eigenspace decomposition of an involution into subalgebras.

    Passes when both eigenspaces are closed under the bracket; the notes
    report whether each is an ideal, whether the minus part is abelian and
    whether the splitting is degenerate.
    """
    n = L.dim
    cert = Certificate("product_structure", target or L.name, n)
    if E.rows != n or E.cols != n:
        raise DimensionMismatchError("endomorphism does not match algebra dimension")
    if not E.compose(E).is_identity():
        raise PreconditionError("map squared is not the identity")
    spaces = {}
    for sign, key in ((_ONE, "plus"), (-_ONE, "minus")):
        # kernel of (E - sign id) = column span of (E + sign id)
        cols = [dict(c) for c in E.sparse_columns()]
        for j, col in enumerate(cols):
            _acc(col, {j: sign})
        solver = SpanSolver(n)
        spaces[key] = solver, [col for col in cols if solver.add(col)]
    (_, plus), (_, minus) = spaces.values()
    notes = {"dim_plus": len(plus), "dim_minus": len(minus), "degenerate": not plus or not minus}
    for key, (solver, basis) in spaces.items():
        closed = True
        for ab, w in _escapes(L, solver, basis):
            closed = False
            cert.fail((key,) + ab, w)
        notes["%s_closed" % key] = closed
        notes["%s_ideal" % key] = closed and _is_ideal(L, solver, basis)
    notes["minus_abelian"] = next(_escapes(L, SpanSolver(n), minus), None) is None
    return cert.done(notes=notes)
