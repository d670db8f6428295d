"""Named algebras with their complex structures and embedding maps.

Orthogonal, Lorentz, Euclidean, Poincare and Galilean algebras, gl(n) and
the affine motion algebras, and the real form of sl(2, C).  All brackets
come from matrix realizations; nothing here is entered by hand except the
maps themselves, which downstream certificates verify.

Basis ordering is normative: rotation generators f_ij ordered
lexicographically by (i, j), then boosts, then translations e_l, then a
central generator z last.
"""

from __future__ import annotations

from collections import namedtuple

from .scalar_linear import PreconditionError
from .lie_core import (
    AlmostComplex, Connection, LieAlgebra, LinearMap, _bounded, _columns_map, _direct_sum,
)
from .constructions import central_extension, from_matrix_basis, semidirect
from .structures import Decomposition

_ONE = 1


# Everything needed to test the action-compatibility conditions:
# ``rho.algebra`` acts on a module through ``rho``; ``j`` lives on that
# algebra, ``i`` on the module, and ``split`` is the stored decomposition
# of the algebra.
CompatData = namedtuple("CompatData", "rho j i split")


class CatalogEntry:
    """A named algebra with its matrix realization (a list of maps, empty
    when it has none) and its own dicts of structures, inclusions and label
    maps, which the builders fill in."""

    def __init__(self, name, algebra, realization=None):
        self.name = name
        self.algebra = algebra
        self.structures = {}
        self.inclusions = {}
        self.realization = realization or []
        self.label_maps = {}


def _unit(n, r, c):
    cols = [{} for _ in range(n)]
    cols[c][r] = _ONE
    return _columns_map(n, n, cols)


def _generator(n, r, c, sign):
    """The map with 1 at (r, c) and ``sign`` at (c, r): a rotation or a boost."""
    cols = [{} for _ in range(n)]
    cols[c][r] = _ONE
    cols[r][c] = sign
    return _columns_map(n, n, cols)


def _flabel(prefix, i, j):
    if i > 9 or j > 9:
        return "%s%d_%d" % (prefix, i, j)
    return "%s%d%d" % (prefix, i, j)


def _rot_pairs(n):
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def _translations(rep, name):
    """The algebra of ``rep`` acting through it on translations e1 .. em."""
    labels = ["e%d" % (l + 1) for l in range(rep.module_dim)]
    return semidirect(rep.algebra, rep, module_labels=labels, name=name, check_rep=False)


def _inclusion(dom, cod, rename):
    """The map sending each basis element of ``dom`` to the one of ``cod``
    labelled ``rename.get(label, label)``."""
    cols = [{cod.index(rename.get(lab, lab)): _ONE} for lab in dom.labels]
    return LinearMap.from_sparse_columns(cod.dim, dom.dim, cols)


def _matrix_entry(name, alg_name, mats, labels):
    """The entry bracketed from the realization ``mats``, with its standard_rep."""
    alg, real = from_matrix_basis(mats, labels=labels, name=alg_name)
    entry = CatalogEntry(name, alg, realization=real)
    entry.structures["standard_rep"] = Connection(alg, real)
    return entry


def _pairing(entry, pairs, key="j"):
    """Store the structure pairing ``pairs`` under ``key`` and its split, the
    first member of each pair; return the structure."""
    J = entry.structures[key] = AlmostComplex.from_pairs(entry.algebra.dim, pairs)
    entry.structures["split"] = [p[0] for p in pairs]
    return J


def _identity_on(module_dim):
    """Pairing e_{2i-1} -> e_{2i} on a module of even dimension."""
    if module_dim % 2:
        raise PreconditionError("module complex structure needs even dimension")
    return AlmostComplex.from_pairs(
        module_dim, [(2 * i, 2 * i + 1) for i in range(module_dim // 2)]
    )


def so(n):
    """Antisymmetric matrices; labels follow f_ij = e_ij - e_ji."""
    if n < 1:
        raise PreconditionError("so(n) needs n >= 1")
    _bounded(n * (n - 1) // 2, "so(%d)" % n)
    pairs = _rot_pairs(n)
    mats = [_generator(n, i - 1, j - 1, -1) for i, j in pairs]
    labels = [_flabel("f", i, j) for i, j in pairs]
    if n == 3:
        labels[0] = "h"
    entry = _matrix_entry("so_%d" % n, "so_%d" % n, mats, labels)
    if n % 4 in (0, 1) and n >= 4:
        _pairing(entry, _rotation_pairs(n, {pq: k for k, pq in enumerate(pairs)}))
    return entry


def lorentz(p):
    """so(p, 1) from the (p+1) x (p+1) realization with form diag(1,..,1,-1)."""
    if p < 2:
        raise PreconditionError("lorentz algebra needs p >= 2")
    _bounded((p + 1) * p // 2, "lorentz(%d)" % p)
    n = p + 1
    rpairs = _rot_pairs(p)
    mats = [_generator(n, i - 1, j - 1, -1) for i, j in rpairs]
    labels = [_flabel("f", i, j) for i, j in rpairs]
    if p == 2:
        labels[0] = "h"
    for i in range(1, p + 1):
        mats.append(_generator(n, i - 1, n - 1, 1))
        labels.append(_flabel("s", i, n))
    entry = _matrix_entry("lorentz_%d" % p, "so_%d_1" % p, mats, labels)
    if p == 3:
        _attach_deformation_structure(entry)
    return entry


def _attach_deformation_structure(entry):
    # fixed structure on so(3,1) that degenerates onto the Euclidean one
    ix = entry.algebra.index
    pairs = [(ix("f12"), ix("s34")), (ix("f13"), ix("f23")), (ix("s14"), ix("s24"))]
    _pairing(entry, pairs, key="deformation_j")
    entry.structures["rotation_indices"] = [ix("f12"), ix("f13"), ix("f23")]
    entry.structures["boost_indices"] = [ix("s14"), ix("s24"), ix("s34")]
    entry.label_maps["euclidean_3"] = {
        "f12": "h",
        "f13": "f13",
        "f23": "f23",
        "s14": "e1",
        "s24": "e2",
        "s34": "e3",
    }


def gl(n):
    """Full matrix algebra on the unit-matrix basis."""
    if n < 1:
        raise PreconditionError("gl(n) needs n >= 1")
    _bounded(n * n, "gl(%d)" % n)
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    mats = [_unit(n, i - 1, j - 1) for i, j in pairs]
    labels = [_flabel("e", i, j) for i, j in pairs]
    entry = _matrix_entry("gl_%d" % n, "gl_%d" % n, mats, labels)
    # e_ij is basis element i * n + j (from 0), and e_ij e_kl = δ_jk e_il: left
    # multiplication by e_ij sends each e_jl to e_il and every other e_kl to zero
    left = []
    for i in range(n):
        for j in range(n):
            cols = [{} for _ in range(n * n)]
            for l in range(n):
                cols[j * n + l] = {i * n + l: _ONE}
            left.append(_columns_map(n * n, n * n, cols))
    entry.structures["left_mult"] = Connection(entry.algebra, left)
    return entry


def affine(n):
    """Affine motion algebra gl(n) acting on translations."""
    if n < 1:
        raise PreconditionError("affine(n) needs n >= 1")
    _bounded(n * n + n, "affine(%d)" % n)
    alg = _translations(gl(n).structures["standard_rep"], "aff_%d" % n)
    return CatalogEntry("affine_%d" % n, alg)


def abelian(n):
    if n < 1:
        raise PreconditionError("abelian(n) needs n >= 1")
    _bounded(n, "abelian(%d)" % n)
    alg = LieAlgebra._normalized(["a%d" % (i + 1) for i in range(n)], {}, name="abelian_%d" % n)
    return CatalogEntry("abelian_%d" % n, alg)


def _realify(mat2):
    """Complex 2x2 matrix of GaussScalar-like (re, im) pairs as a real 4x4."""
    cols = [{} for _ in range(4)]
    for r in range(2):
        for c in range(2):
            re, im = mat2[r][c]
            cols[2 * c].update({2 * r: re, 2 * r + 1: im})
            cols[2 * c + 1].update({2 * r: -im, 2 * r + 1: re})
    return LinearMap.from_sparse_columns(4, 4, cols)


def sl2c_real():
    """The real form of sl(2, C) on the basis H, iH, X+, iX+, X-, iX-."""
    H = [[(1, 0), (0, 0)], [(0, 0), (-1, 0)]]
    iH = [[(0, 1), (0, 0)], [(0, 0), (0, -1)]]
    Xp = [[(0, 0), (1, 0)], [(0, 0), (0, 0)]]
    iXp = [[(0, 0), (0, 1)], [(0, 0), (0, 0)]]
    Xm = [[(0, 0), (0, 0)], [(-1, 0), (0, 0)]]
    iXm = [[(0, 0), (0, 0)], [(0, -1), (0, 0)]]
    mats = [_realify(m) for m in (H, iH, Xp, iXp, Xm, iXm)]
    labels = ["H", "iH", "Xp", "iXp", "Xm", "iXm"]
    alg, real = from_matrix_basis(mats, labels=labels, name="sl2c_real")
    entry = CatalogEntry("sl2c", alg, realization=real)
    entry.structures["j"] = AlmostComplex.from_pairs(6, [(0, 1), (2, 3), (5, 4)])
    entry.structures["mult_i"] = AlmostComplex.from_pairs(6, [(0, 1), (2, 3), (4, 5)])
    entry.structures["split"] = [0, 2, 4]
    lz = lorentz(3)
    frame_cols = [
        {5: 2},
        {0: -2},
        {1: -1, 3: 1},
        {2: -1, 4: 1},
        {1: -1, 3: -1},
        {2: 1, 4: 1},
    ]
    phi = LinearMap.from_sparse_columns(6, 6, frame_cols)
    entry.inclusions["contraction_frame"] = (lz, phi)
    return entry


def galilean():
    """Kinematical algebra of the 5x5 realization, with its structure map."""
    mats = [_generator(5, r, c, -1) for r, c in ((0, 1), (0, 2), (1, 2))]
    for l in range(3):  # unprimed generators in column four
        mats.append(_unit(5, l, 3))
    for l in range(3):  # primed generators in column five
        mats.append(_unit(5, l, 4))
    mats.append(_unit(5, 3, 4))  # time generator, the fourth primed one
    labels = ["h", "f13", "f23", "e1", "e2", "e3", "e1'", "e2'", "e3'", "e4'"]
    alg, real = from_matrix_basis(mats, labels=labels, name="galilean_3_1")
    entry = CatalogEntry("galilean", alg, realization=real)
    _pairing(entry, [(0, 8), (1, 2), (3, 4), (6, 7), (5, 9)])
    return entry


def _rotation_pairs(n, fidx):
    """Index pairs of the structure on the rotation part so(n).

    f_(2i-1)(2i) is paired with f_(2i+1)(2i+2), then f_ab with f_(a+1)b for
    odd a; ``fidx`` maps (a, b) to the index of f_ab.  With odd rank the
    last f_(2r-1)(2r) is left for the caller to pair.
    """
    pairs = []
    for i in range(1, n // 2, 2):
        pairs.append((fidx[(2 * i - 1, 2 * i)], fidx[(2 * i + 1, 2 * i + 2)]))
    for a in range(1, n + 1, 2):
        for b in range(a + 2, n + 1):
            pairs.append((fidx[(a, b)], fidx[(a + 1, b)]))
    return pairs


def _root_vectors(fidx, r):
    """The u/v combinations of rotation generators indexed by 1 <= j < l <= r."""
    vecs = {"u+": [], "u-": [], "v+": [], "v-": []}
    for j in range(1, r + 1):
        for l in range(j + 1, r + 1):
            u = (fidx[(2 * j - 1, 2 * l - 1)], fidx[(2 * j, 2 * l)])
            w = (fidx[(2 * j - 1, 2 * l)], fidx[(2 * j, 2 * l - 1)])
            for tag, (p, q), sign in (
                ("u+", u, _ONE), ("u-", u, -_ONE), ("v+", w, _ONE), ("v-", w, -_ONE)
            ):
                vecs[tag].append({p: _ONE, q: sign})
    return vecs


def _compat(rho, fidx, pairs=(), extra0=(), extra1=()):
    """Compatibility data for so(n), extended or not, acting on R^n.

    jg pairs the rotations as :func:`_rotation_pairs` does, then ``pairs``.
    part0 is f_(2i-1)(2i) for i <= n/2, u+ and v- then ``extra0``; part1
    is u- and v+ then ``extra1``.
    """
    g, n = rho.algebra, rho.module_dim
    r = n // 2
    jg = AlmostComplex.from_pairs(g.dim, _rotation_pairs(n, fidx) + list(pairs))
    vecs = _root_vectors(fidx, r)
    part0 = [g.basis_vector(fidx[(2 * i - 1, 2 * i)]) for i in range(1, r + 1)]
    part0 += vecs["u+"] + vecs["v-"] + list(extra0)
    part1 = vecs["u-"] + vecs["v+"] + list(extra1)
    return CompatData(rho, jg, _identity_on(n), Decomposition(part0, part1))


def euclidean(n):
    """Isometry algebra of Euclidean n-space, centrally extended when needed.

    The entry carries the structure map on the (possibly extended) algebra,
    the half-basis split that halves the verification sweep, and for
    n = 0, 2 mod 4 the decomposition feeding the compatibility check.
    """
    if n < 3:
        raise PreconditionError("euclidean entry needs n >= 3")
    # so(n), the translations and, unless n = 0, 3 mod 4, a central z
    _bounded(n * (n + 1) // 2 + (n % 4 in (1, 2)), "euclidean(%d)" % n)
    return _euclidean(n)


def _euclidean(n):
    # n = 2 is permitted here: it arises as the embedding domain for the
    # smallest Poincare algebra.
    so_entry = so(n)
    soa = so_entry.algebra
    e_alg = _translations(so_entry.structures["standard_rep"], "e_%d" % n)
    alg = central_extension(e_alg) if n % 4 in (1, 2) else e_alg
    rot = _rot_pairs(n)
    fidx = {pq: k for k, pq in enumerate(rot)}
    nf, r = len(rot), n // 2
    top, e_last, z = fidx[(2 * r - 1, 2 * r)], nf + n - 1, alg.dim - 1
    # rotations, then the translations e_l, e_(l+1) for odd l < n
    pairs = _rotation_pairs(n, fidx) + [(nf + l, nf + l + 1) for l in range(0, n - 1, 2)]
    if n % 4 == 1:
        pairs.append((e_last, z))
    elif n % 4 == 2:
        pairs.append((top, z))
    elif n % 4 == 3:
        pairs.append((top, e_last))
    entry = CatalogEntry("euclidean_%d" % n, alg)
    _pairing(entry, pairs)
    if n % 4 == 0:
        entry.structures["compat"] = _compat(so_entry.structures["standard_rep"], fidx)
    elif n % 4 == 2:
        g = central_extension(soa)
        rho = Connection(g, so_entry.realization + [LinearMap.zero(n)])
        entry.structures["compat"] = _compat(
            rho, fidx, [(top, g.dim - 1)], extra0=[g.basis_vector(g.dim - 1)]
        )
    if n == 3:
        gal = galilean()
        primed = {"e1": "e1'", "e2": "e2'", "e3": "e3'"}
        entry.inclusions["galilean"] = (gal, _inclusion(alg, gal.algebra, primed))
    return entry


def poincare(k):
    """Isometry algebra of Minkowski (4k+2, 1) spacetime with its structure."""
    if k < 0:
        raise PreconditionError("poincare entry needs k >= 0")
    q = 4 * k + 2
    _bounded((q + 1) * (q + 2) // 2, "poincare(%d)" % k)
    lz = lorentz(q)
    alg = _translations(lz.structures["standard_rep"], "e_%d_1" % q)
    rot = _rot_pairs(q)
    fidx = {pq: i for i, pq in enumerate(rot)}
    nf = len(rot)
    top = fidx[(q - 1, q)]
    # boosts s_i, s_(i+1) for odd i; the translations e1 .. e(q+1) follow them
    boosts = [(nf + i, nf + i + 1) for i in range(0, q, 2)]
    pairs = _rotation_pairs(q, fidx) + [(top, nf + 2 * q)] + boosts
    pairs += [(nf + q + l, nf + q + l + 1) for l in range(0, q, 2)]
    entry = CatalogEntry("poincare_%d" % k, alg)
    _pairing(entry, pairs)

    # compatibility data: the central-extension carrier with the spatially
    # projected action (boosts act by zero on the spatial module)
    g = central_extension(lz.algebra)
    rotations = [_generator(q, i - 1, j - 1, -1) for i, j in rot]
    rho = Connection(g, rotations + [LinearMap.zero(q)] * (q + 1))
    entry.structures["compat"] = _compat(
        rho, fidx, [(top, g.dim - 1)] + boosts,
        extra0=[g.basis_vector(g.dim - 1)],
        extra1=[g.basis_vector(nf + i) for i in range(q)],
    )
    return entry


def right_mult_structure(n):
    """Right multiplication by the standard module structure, on gl(2n).

    e_ab is basis element (a-1)·2n + b-1, and u -> u·I sends e_a(2m) to
    e_a(2m-1), so the pairs are (2t+1, 2t) over the whole basis.
    """
    if n < 1:
        raise PreconditionError("needs n >= 1")
    entry = gl(2 * n)
    pairs = [(k + 1, k) for k in range(0, entry.algebra.dim, 2)]
    return entry, AlmostComplex.from_pairs(entry.algebra.dim, pairs)


def affine_complex_structure(n):
    """Block structure on the affine motion algebra of even rank 2n.

    Minus right multiplication pairs e_a(2m-1) with e_a(2m), and the
    translations pair e(2i-1) with e(2i), so the pairs are (2t, 2t+1) over
    the whole basis.
    """
    if n < 1:
        raise PreconditionError("needs n >= 1")
    entry = affine(2 * n)
    return entry, _pairing(entry, [(k, k + 1) for k in range(0, entry.algebra.dim, 2)])


def so3_on_c3():
    """Central extension of so(3) acting complex-linearly on a complex module."""
    so3 = so(3)
    g = central_extension(so3.algebra)
    # each rotation on the real and on the imaginary copy; z acts as zero
    maps = [_direct_sum(m, m) for m in so3.realization] + [LinearMap.zero(6)]
    rho = Connection(g, maps)
    alg = semidirect(
        g,
        rho,
        module_labels=["u1", "u2", "u3", "iu1", "iu2", "iu3"],
        name="Rz+so3_C3",
        check_rep=False,
    )
    jg = AlmostComplex.from_pairs(4, [(0, 3), (1, 2)])
    i_mod = AlmostComplex.from_pairs(6, [(0, 3), (1, 4), (2, 5)])
    entry = CatalogEntry("so3_c3", alg)
    entry.structures["compat"] = CompatData(
        rho, jg, i_mod, Decomposition([g.basis_vector(i) for i in range(4)], [])
    )
    return entry


def inclusion_chain(k):
    """The holomorphic chain through dimensions 4k .. 4k+3.

    Returns (domain entry, codomain entry, map) triples; each central
    generator is identified with the next translation generator.
    """
    if k < 1:
        raise PreconditionError("chain needs k >= 1")
    entries = [euclidean(4 * k + d) for d in range(4)]
    triples = []
    for step in range(3):
        dom, cod = entries[step], entries[step + 1]
        iota = _inclusion(dom.algebra, cod.algebra, {"z": "e%d" % (4 * k + step + 1)})
        triples.append((dom, cod, iota))
    return triples


def poincare_inclusion(k):
    """Embedding of the extended Euclidean algebra into the Poincare algebra."""
    dom = _euclidean(4 * k + 2)
    cod = poincare(k)
    rename = {"z": "e%d" % (4 * k + 3)}
    if "f12" not in cod.algebra.labels:
        rename["f12"] = "h"  # the smallest rotation generator is named h there
    return dom, cod, _inclusion(dom.algebra, cod.algebra, rename)


_BUILDERS = {
    "so": (so, 1),
    "lorentz": (lorentz, 1),
    "gl": (gl, 1),
    "affine": (affine, 1),
    "abelian": (abelian, 1),
    "sl2c": (sl2c_real, 0),
    "galilean": (galilean, 0),
    "euclidean": (euclidean, 1),
    "poincare": (poincare, 1),
    "so3_c3": (so3_on_c3, 0),
}


def build(name, *params):
    """CLI-facing dispatcher over the named builders."""
    if name not in _BUILDERS:
        raise PreconditionError(
            "unknown catalog entry %r (have: %s)" % (name, ", ".join(sorted(_BUILDERS)))
        )
    fn, arity = _BUILDERS[name]
    if len(params) != arity:
        raise PreconditionError(
            "catalog entry %r takes %d parameter(s), got %d" % (name, arity, len(params))
        )
    try:
        args = [int(p) for p in params]
    except ValueError:
        raise PreconditionError("catalog entry %r takes integer parameters" % name) from None
    return fn(*args)
