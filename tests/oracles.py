"""Independent brute-force oracles used to freeze expected values.

Everything here is deliberately naive: dense lists, triple loops, no reuse
of the library's sparse code paths.  Tests compare library output against
these.  Zeros are plain ints, so integral tables stay in integer
arithmetic.
"""

from dataclasses import dataclass
from fractions import Fraction

from lieforge.constructions import AssociativeAlgebra
from lieforge.dsl import DslSyntaxError, SourceSpan
from lieforge.lie_core import LieAlgebra
from lieforge.scalar_linear import exact


def dense_constants(L):
    """Structure constants as a dense dim^3 array c[i][j][k]."""
    n = L.dim
    c = [[[0] * n for _ in range(n)] for _ in range(n)]
    for (i, j), coeffs in L.table.items():
        for k, v in coeffs.items():
            c[i][j][k] = v
            c[j][i][k] = -v
    return c


def naive_bracket(c, x, y):
    n = len(c)
    out = [0] * n
    for i in range(n):
        if not x[i]:
            continue
        for j in range(n):
            if not y[j]:
                continue
            f = x[i] * y[j]
            for k in range(n):
                if c[i][j][k]:
                    out[k] += f * c[i][j][k]
    return out


def naive_matvec(m, v):
    nz = [j for j in range(len(v)) if v[j]]
    return [sum(row[j] * v[j] for j in nz) for row in m]


def naive_nijenhuis(L, jmat, x, y, c=None):
    """J[x,y] - [Jx,y] - [x,Jy] - J[Jx,Jy] with dense arithmetic."""
    c = c or dense_constants(L)
    jx, jy = naive_matvec(jmat, x), naive_matvec(jmat, y)
    t1 = naive_matvec(jmat, naive_bracket(c, x, y))
    t2 = naive_bracket(c, jx, y)
    t3 = naive_bracket(c, x, jy)
    t4 = naive_matvec(jmat, naive_bracket(c, jx, jy))
    return [a - b - d - e for a, b, d, e in zip(t1, t2, t3, t4)]


def naive_integrable_sweep(L, jmat, vectors):
    """Every failing pair a < b of ``vectors`` with its torsion, in order."""
    c = dense_constants(L)
    fails = []
    for a in range(len(vectors)):
        for b in range(a + 1, len(vectors)):
            d = naive_nijenhuis(L, jmat, vectors[a], vectors[b], c)
            if any(d):
                fails.append(((a, b), d))
    return fails


def naive_complex_lie_sweep(L, jmat):
    """Every failing ordered basis pair (i, j) with [b_i, J b_j] - J [b_i, b_j]."""
    c = dense_constants(L)
    n = L.dim
    e = lambda a: [1 if t == a else 0 for t in range(n)]
    jb = [naive_matvec(jmat, e(j)) for j in range(n)]
    fails = []
    for i in range(n):
        for j in range(n):
            lhs = naive_bracket(c, e(i), jb[j])
            rhs = naive_matvec(jmat, naive_bracket(c, e(i), e(j)))
            d = [x - y for x, y in zip(lhs, rhs)]
            if any(d):
                fails.append(((i, j), d))
    return fails


def naive_eigenspace_sweep(L, jmat):
    """Every pair a < b of eigenvectors with a nonzero bracket, per eigenspace.

    The +i eigenvectors are e_k - i J e_k and the -i ones e_k + i J e_k.
    A complex vector is kept as a pair of dense real lists (x, y) for
    x + i y, and the bracket is taken part by part.  Membership in the
    complex span is a real rank test on the realified vectors: w = x + i y
    gives (x, y) and, for i w, (-y, x).  Returns {"plus": [...],
    "minus": [...]} with entries ((a, b), (re, im), inside), where
    ``inside`` says whether the bracket lies in the span of that eigenspace.
    """
    c = dense_constants(L)
    n = L.dim
    out = {}
    for key, sign in (("plus", -1), ("minus", 1)):
        vecs = [
            ([Fraction(int(r == k)) for r in range(n)], [sign * Fraction(jmat[r][k]) for r in range(n)])
            for k in range(n)
        ]
        real = []
        for x, y in vecs:
            real += [x + y, [-e for e in y] + x]
        basis = naive_row_basis(real)
        fails = []
        for a in range(n):
            for b in range(a + 1, n):
                (x1, y1), (x2, y2) = vecs[a], vecs[b]
                xx, yy = naive_bracket(c, x1, x2), naive_bracket(c, y1, y2)
                xy, yx = naive_bracket(c, x1, y2), naive_bracket(c, y1, x2)
                re = [p - q for p, q in zip(xx, yy)]
                im = [p + q for p, q in zip(xy, yx)]
                if any(re) or any(im):
                    w = [re + im, [-e for e in im] + re]
                    fails.append(((a, b), (re, im), naive_rank(basis + w) == len(basis)))
        out[key] = fails
    return out


def naive_product_structure(L, emat):
    """The failing pairs and the notes of a product structure, densely.

    The eigenspace of sign s is spanned by the columns of E + s I; its basis
    is the columns that raise the rank, in column order.  A pair a < b of
    basis vectors fails when its bracket is outside the span.  Returns
    (fails, notes), fails holding ((key, a, b), bracket) with the plus
    pairs first, and notes the seven verdicts of the library's certificate.
    """
    c = dense_constants(L)
    n = L.dim
    e = lambda a: [1 if t == a else 0 for t in range(n)]
    inside = lambda basis, w: naive_rank(basis + [w]) == len(basis)
    spaces = {}
    for key, sign in (("plus", 1), ("minus", -1)):
        basis = []
        for j in range(n):
            col = [emat[r][j] + sign * int(r == j) for r in range(n)]
            if not inside(basis, col):
                basis.append(col)
        spaces[key] = basis
    notes = {
        "dim_plus": len(spaces["plus"]),
        "dim_minus": len(spaces["minus"]),
        "degenerate": not spaces["plus"] or not spaces["minus"],
    }
    fails = []
    for key, basis in spaces.items():
        closed = True
        for a in range(len(basis)):
            for b in range(a + 1, len(basis)):
                w = naive_bracket(c, basis[a], basis[b])
                if not inside(basis, w):
                    closed = False
                    fails.append(((key, a, b), w))
        notes[key + "_closed"] = closed
        notes[key + "_ideal"] = closed and all(
            inside(basis, naive_bracket(c, e(i), v)) for i in range(n) for v in basis
        )
    minus = spaces["minus"]
    notes["minus_abelian"] = not any(
        any(naive_bracket(c, u, v)) for a, u in enumerate(minus) for v in minus[a + 1 :]
    )
    return fails, notes


def naive_jacobi_defect(L, i, j, k, c=None):
    c = c or dense_constants(L)
    n = L.dim
    e = lambda a: [1 if t == a else 0 for t in range(n)]
    s1 = naive_bracket(c, e(i), naive_bracket(c, e(j), e(k)))
    s2 = naive_bracket(c, e(j), naive_bracket(c, e(k), e(i)))
    s3 = naive_bracket(c, e(k), naive_bracket(c, e(i), e(j)))
    return [a + b + d for a, b, d in zip(s1, s2, s3)]


def naive_jacobi_sweep(L):
    """Every failing basis triple i < j < k with its Jacobi defect, in order."""
    c = dense_constants(L)
    n = L.dim
    fails = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                d = naive_jacobi_defect(L, i, j, k, c)
                if any(d):
                    fails.append(((i, j, k), d))
    return fails


def naive_representation_defect(rho):
    """Every failing (i, j, k), i < j, with column k of [rho_i, rho_j] - rho([b_i, b_j])."""
    L = rho.algebra
    c = dense_constants(L)
    n, m = L.dim, rho.module_dim
    mats = [op.matrix.data for op in rho.maps]
    fails = []
    for i in range(n):
        for j in range(i + 1, n):
            comm = naive_commutator(mats[i], mats[j])
            image = [
                [sum(c[i][j][l] * mats[l][r][q] for l in range(n)) for q in range(m)]
                for r in range(m)
            ]
            for k in range(m):
                d = [comm[r][k] - image[r][k] for r in range(m)]
                if any(d):
                    fails.append(((i, j, k), d))
    return fails


def naive_torsion_free_sweep(conn):
    """Every failing pair i < j with rho_i b_j - rho_j b_i - [b_i, b_j]."""
    L = conn.algebra
    c = dense_constants(L)
    n = L.dim
    mats = [op.matrix.data for op in conn.maps]
    fails = []
    for i in range(n):
        for j in range(i + 1, n):
            d = [mats[i][r][j] - mats[j][r][i] - c[i][j][r] for r in range(n)]
            if any(d):
                fails.append(((i, j), d))
    return fails


def naive_parallel_sweep(conn, tensor):
    """Every failing tuple of the covariant derivative of an endomorphism or a form.

    For an endomorphism T (a ``LinearMap``): (i, k) with column k of
    rho_i T - T rho_i.  For a bilinear form B: (i, j, k), j <= k, with
    [B(rho_i b_j, b_k) + B(b_j, rho_i b_k)].
    """
    m = conn.module_dim
    mats = [op.matrix.data for op in conn.maps]
    t = tensor.matrix.data
    fails = []
    for i, a in enumerate(mats):
        if hasattr(tensor, "kind"):
            for j in range(m):
                for k in range(j, m):
                    s = sum(a[l][j] * t[l][k] + t[j][l] * a[l][k] for l in range(m))
                    if s:
                        fails.append(((i, j, k), [s]))
        else:
            comm = naive_commutator(a, t)
            for k in range(m):
                d = [comm[r][k] for r in range(m)]
                if any(d):
                    fails.append(((i, k), d))
    return fails


def naive_differential(L, omega, i, j, k, c=None):
    """omega(b_i, [b_j, b_k]) + omega(b_j, [b_k, b_i]) + omega(b_k, [b_i, b_j])."""
    c = c or dense_constants(L)
    n = L.dim
    e = lambda a: [1 if t == a else 0 for t in range(n)]

    def val(x, y):
        return sum(
            (x[a] * omega[a][b] * y[b] for a in range(n) if x[a] for b in range(n) if y[b]),
            Fraction(0),
        )

    return (
        val(e(i), naive_bracket(c, e(j), e(k)))
        + val(e(j), naive_bracket(c, e(k), e(i)))
        + val(e(k), naive_bracket(c, e(i), e(j)))
    )


def naive_commutator(a, b):
    n = len(a)
    ab = [
        [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]
    ba = [
        [sum(b[i][k] * a[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]
    return [[ab[i][j] - ba[i][j] for j in range(n)] for i in range(n)]


def naive_rank(rows):
    """Row rank by fraction Gaussian elimination on copies."""
    return len(naive_row_basis(rows))


def naive_row_basis(rows):
    """The nonzero rows of the reduced row echelon form, by Gauss-Jordan on
    Fraction copies of rational rows."""
    m = [[Fraction(e) for e in r] for r in rows]
    cols = len(m[0]) if m else 0
    row = 0
    for col in range(cols):
        piv = None
        for r in range(row, len(m)):
            if m[r][col]:
                piv = r
                break
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        f = m[row][col]
        m[row] = [e / f for e in m[row]]
        for r in range(len(m)):
            if r != row and m[r][col]:
                g = m[r][col]
                m[r] = [e - g * p for e, p in zip(m[r], m[row])]
        row += 1
    return m[:row]


def naive_inverse(rows):
    """The inverse of a square matrix of rational or Gaussian entries, by
    Gauss-Jordan on an augmented list copy, or None when it is singular."""
    n = len(rows)
    m = [
        [e if hasattr(e, "re") else Fraction(e) for e in r]
        + [Fraction(int(i == j)) for j in range(n)]
        for i, r in enumerate(rows)
    ]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        f = m[col][col]
        m[col] = [e / f for e in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                g = m[r][col]
                m[r] = [e - g * p for e, p in zip(m[r], m[col])]
    return [r[n:] for r in m]


def naive_product(a, b):
    """Dense a * b by the textbook triple loop, for any scalar type and any
    shapes where a has as many columns as b has rows."""
    inner, cols = len(b), len(b[0]) if b else 0
    return [
        [sum((row[k] * b[k][j] for k in range(inner)), Fraction(0)) for j in range(cols)]
        for row in a
    ]


def naive_square(jmat):
    """Dense J * J."""
    return naive_product(jmat, jmat)


def is_minus_identity(m):
    n = len(m)
    return all(m[i][j] == (-1 if i == j else 0) for i in range(n) for j in range(n))


def connection_at(conn, x):
    """Dense operator sum_i x_i rho(b_i) of a connection at an algebra vector."""
    m = conn.module_dim
    out = [[0] * m for _ in range(m)]
    for i, c in enumerate(x):
        if c:
            data = conn.maps[i].matrix.data
            for r in range(m):
                for q in range(m):
                    out[r][q] += c * data[r][q]
    return out


def naive_action_compatibility(rho, jmat, imat, part0, part1):
    """The failures of the action-compatibility sweep, densely.

    Returns (fails, mixed): fails holds ((part, a, k), column k) for each
    nonzero column k of rho(u) I - I rho(u), u the a-th vector of part0,
    then of rho(J u) I - rho(u) for part1; mixed counts the nonzero columns
    of [I, rho(b_i)] - [I, rho(J b_i)] I over every basis index i.
    """
    n, m = rho.algebra.dim, rho.module_dim
    e = lambda a: [1 if t == a else 0 for t in range(n)]
    diff = lambda x, y: [[p - q for p, q in zip(rx, ry)] for rx, ry in zip(x, y)]
    column = lambda d, k: [d[r][k] for r in range(m)]
    fails = []
    for a, u in enumerate(part0):
        at_u = connection_at(rho, u)
        d = diff(naive_product(at_u, imat), naive_product(imat, at_u))
        fails += [(("part0", a, k), column(d, k)) for k in range(m) if any(column(d, k))]
    for a, u in enumerate(part1):
        at_ju = connection_at(rho, naive_matvec(jmat, u))
        d = diff(naive_product(at_ju, imat), connection_at(rho, u))
        fails += [(("part1", a, k), column(d, k)) for k in range(m) if any(column(d, k))]
    mixed = 0
    for i in range(n):
        left = naive_commutator(imat, connection_at(rho, e(i)))
        at_jb = connection_at(rho, naive_matvec(jmat, e(i)))
        d = diff(left, naive_product(naive_commutator(imat, at_jb), imat))
        mixed += sum(1 for k in range(m) if any(column(d, k)))
    return fails, mixed


def naive_holomorphic_sweep(dom, cod, imat, jdom, jcod):
    """Every failure of a holomorphic-map check, in order: (("hom", i, j),
    iota [b_i, b_j] - [iota b_i, iota b_j]) for i < j, then
    (("structure", i), column i of iota J_dom - J_cod iota)."""
    cd, cc = dense_constants(dom), dense_constants(cod)
    n = dom.dim
    e = lambda a: [1 if t == a else 0 for t in range(n)]
    image = [naive_matvec(imat, e(i)) for i in range(n)]
    fails = []
    for i in range(n):
        for j in range(i + 1, n):
            lhs = naive_matvec(imat, naive_bracket(cd, e(i), e(j)))
            d = [x - y for x, y in zip(lhs, naive_bracket(cc, image[i], image[j]))]
            if any(d):
                fails.append((("hom", i, j), d))
    left, right = naive_product(imat, jdom), naive_product(jcod, imat)
    for i in range(n):
        d = [left[r][i] - right[r][i] for r in range(cod.dim)]
        if any(d):
            fails.append((("structure", i), d))
    return fails


def naive_associativity_defect(n, table):
    """The first basis triple (i, j, k), in lexicographic order, where
    (b_i b_j) b_k != b_i (b_j b_k) under a product table on n labels, or
    None; the table is made dense and every triple is tried."""
    c = [[[0] * n for _ in range(n)] for _ in range(n)]
    for (i, j), coeffs in table.items():
        for k, v in coeffs.items():
            c[i][j][k] = v
    for i in range(n):
        for j in range(n):
            for k in range(n):
                left = [sum(c[i][j][l] * c[l][k][r] for l in range(n)) for r in range(n)]
                right = [sum(c[j][k][l] * c[i][l][r] for l in range(n)) for r in range(n)]
                if left != right:
                    return (i, j, k)
    return None


@dataclass(frozen=True, slots=True)
class Token:
    kind: str  # ident | number | punct | end
    text: str
    span: SourceSpan


def naive_tokenize(text):
    """The DSL's tokens, one character at a time; the reference for
    ``lieforge.dsl._tokenize``.  Unlike it, a number token here may hold
    characters that pass ``isdigit`` but that ``int`` rejects."""
    toks = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        span = SourceSpan(line, col, 1)
        two = text[i : i + 2]
        if two in ("->", "=>"):
            toks.append(Token("punct", two, SourceSpan(line, col, 2)))
            i += 2
            col += 2
            continue
        if ch in "{}[](),;:*+-=":
            toks.append(Token("punct", ch, span))
            i += 1
            col += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == "/":
                k = j + 1
                while k < n and text[k].isdigit():
                    k += 1
                if k == j + 1:
                    raise DslSyntaxError("malformed rational literal", span)
                j = k
            toks.append(Token("number", text[i:j], SourceSpan(line, col, j - i)))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_'"):
                j += 1
            toks.append(Token("ident", text[i:j], SourceSpan(line, col, j - i)))
            col += j - i
            i = j
            continue
        raise DslSyntaxError("unexpected character %r" % ch, span)
    toks.append(Token("end", "", SourceSpan(line, col, 0)))
    return toks


def is_integer_first(v):
    """An ``int``, a non-integral ``Fraction``, or a Gaussian scalar of such parts."""
    if hasattr(v, "re"):
        return is_integer_first(v.re) and is_integer_first(v.im)
    return type(v) is int or (type(v) is Fraction and v.denominator != 1)


def matrix_assoc_algebra(n):
    """n x n real matrices as an associative algebra on the unit basis."""
    pos = {(i, j): n * i + j for i in range(n) for j in range(n)}
    labels = ["a%d%d" % (i + 1, j + 1) for i in range(n) for j in range(n)]
    table = {}
    for (i, j), p in pos.items():
        for (k, l), q in pos.items():
            if j == k:
                table[(p, q)] = {pos[(i, l)]: Fraction(1)}
    return AssociativeAlgebra(labels, table, name="M%d" % n)


def unchecked_algebra(labels, table, name="algebra"):
    """An algebra over ``table`` that skips the Jacobi sweep, so that a
    test can hold a table that fails it.  The table is stored as the
    constructor stores it: zero entries dropped and the rest through
    ``exact``; its keys must be ordered pairs inside the basis."""
    stored = {}
    for pair, coeffs in table.items():
        cd = {k: exact(v) for k, v in coeffs.items() if v}
        if cd:
            stored[pair] = cd
    return LieAlgebra._normalized(labels, stored, name=name)
