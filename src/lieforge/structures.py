"""Certified assemblies on semidirect products and tangent algebras.

Block complex structures and their compatibility conditions, the
equivalence between torsion-freeness and integrability of the canonical
tangent structure (verified as a biconditional of two independent sweeps,
never short-circuited), hypercomplex pairs, Clifford towers, transferred
symplectic forms and pseudo-Kahler verification.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .scalar_linear import DimensionMismatchError, PreconditionError, SpanSolver
from .lie_core import (
    AlmostComplex,
    BilinearForm,
    Certificate,
    Connection,
    LieAlgebra,
    LinearMap,
    MAX_DIM,
    _acc,
    _direct_sum,
    _escapes,
    _is_ideal,
    _require,
    _require_almost_complex,
    _require_invertible,
    _sparse,
    check_integrable,
    check_parallel,
    check_representation,
    check_symplectic,
    check_torsion_free,
)
from .constructions import (
    _lift,
    canonical_complex_structure,
    symplectic_from_duality,
    tangent,
)

_ONE = 1


def block_complex_structure(J, I, sign=1):
    """Block diagonal structure (Jx, sign * Iv) on a semidirect product."""
    if sign not in (1, -1):
        raise PreconditionError("sign must be +1 or -1")
    return AlmostComplex(_direct_sum(J, I if sign == 1 else -I))


def dual_structure(J):
    """Induced structure on the dual space, minus the transpose."""
    return AlmostComplex(-J.transpose())


def _span_of(dim, vectors):
    solver = SpanSolver(dim)
    for v in vectors:
        solver.add(_sparse(v))
    return solver


# two disjoint jointly-spanning vector lists of a stated subspace
Decomposition = namedtuple("Decomposition", "part0 part1")


def check_action_compatibility(rho, J, I, split, target=None):
    """The two conditions letting a structure on g extend to g acting on (v, I),
    where ``rho`` is a representation of g on v.

    Condition one: operators of the first part commute with the module
    structure.  Condition two: for x in the second part the operator of Jx
    composed with the module structure equals the operator of x.  The notes
    record the mixed-pair identity used in the proof of integrability and
    whether the second part is zero (which licenses the sign-flipped block
    structure as well).
    """
    n, m = rho.algebra.dim, rho.module_dim
    cert = Certificate("action_compatibility", target or rho.algebra.name, m)
    _require_almost_complex(rho.algebra, J)
    if I.rows != m or I.cols != m:
        raise DimensionMismatchError("module structure does not match the module")
    if not I.squares_to_minus_identity():
        raise PreconditionError("map squared is not minus the identity")
    if any(len(v) != n for v in (*split.part0, *split.part1) if not isinstance(v, dict)):
        raise DimensionMismatchError("decomposition vectors must have length %d" % n)
    part0 = [_sparse(v) for v in split.part0]
    part1 = [_sparse(v) for v in split.part1]
    s0 = _span_of(n, part0)
    s1 = _span_of(n, part1)
    if s0.rank + s1.rank != n or _span_of(n, part0 + part1).rank != n:
        raise PreconditionError("decomposition parts must be disjoint and spanning")
    for name, vecs, solver in (("part0", part0, s0), ("part1", part1, s1)):
        for v in vecs:
            if not solver.contains(J.apply_sparse(v)):
                raise PreconditionError("%s is not stable under the structure" % name)
    icols = I.sparse_columns()
    for name, vecs in (("part0", part0), ("part1", part1)):
        for a, u in enumerate(vecs):
            # rho(u) I - I rho(u) on part0, rho(Ju) I - rho(u) on part1
            R = rho.at(u)
            X, Y = (R, I.compose(R)) if name == "part0" else (rho.at(J.apply_sparse(u)), R)
            for k, ycol in enumerate(Y.sparse_columns()):
                acc = X.apply_sparse(icols[k])
                _acc(acc, ycol, -_ONE)
                if acc:
                    cert.fail((name, a, k), acc)
    identity_failures = 0
    for i, jb in enumerate(J.sparse_columns()):
        # [I, P] - [I, R] I with P = rho(b_i) and R = rho(J b_i); as I^2 = -1,
        # [I, R] I = I R I + R, so column k is I (P - R I) e_k - P I e_k - R e_k
        P, R = rho.maps[i], rho.at(jb)
        for k, (pcol, rcol) in enumerate(zip(P.sparse_columns(), R.sparse_columns())):
            acc = dict(pcol)
            _acc(acc, R.apply_sparse(icols[k]), -_ONE)
            acc = I.apply_sparse(acc)
            _acc(acc, P.apply_sparse(icols[k]), -_ONE)
            _acc(acc, rcol, -_ONE)
            identity_failures += bool(acc)
    notes = {
        "g1_zero": s1.rank == 0,
        "mixed_identity_failures": identity_failures,
    }
    return cert.done(notes=notes)


def check_torsion_integrability_equivalence(conn, target=None):
    """Torsion-freeness of the connection against integrability of the swap
    structure on the tangent algebra, each computed by its own full sweep.

    The certificate passes when the two verdicts agree, in either truth
    value; both verdicts are recorded.
    """
    cert = Certificate("torsion_integrability_equivalence", target or conn.algebra.name)
    _require(check_representation(conn), "connection is not flat")
    talg = tangent(conn.algebra, conn, check_rep=False)
    K = canonical_complex_structure(talg)
    left = check_integrable(talg, K, target="K on %s" % talg.name)
    right = check_torsion_free(conn, target=conn.algebra.name)
    if left.passed != right.passed:
        cert.fail(("verdicts",), (Fraction(int(left.passed)), Fraction(int(right.passed))))
    return cert.done(
        notes={"k_integrable": left.passed, "torsion_free": right.passed}
    )


def reconstruct_connection(u, K, part, target=None):
    """Recover the flat torsion-free connection behind an adapted structure.

    ``part`` lists the basis indices of a subalgebra g with K g an ideal;
    the connection is minus the K-conjugated adjoint action restricted to
    g.  The certificate covers flatness, torsion-freeness, abelianity of
    K g and the structure-constant match between u and the doubled algebra.
    """
    part = list(part)
    p = len(part)
    n = u.dim
    cert = Certificate("reconstruct", target or u.name, n)
    _require_almost_complex(u, K)
    if 2 * p != n:
        raise PreconditionError("the subalgebra must span half the dimensions")
    _require(check_integrable(u, K), "structure is not integrable")
    pset = set(part)
    units = [{i: _ONE} for i in part]
    if next(_escapes(u, _span_of(n, units), units), None) is not None:
        raise PreconditionError("the given indices do not span a subalgebra")
    kcols = K.sparse_columns()
    kg = [dict(kcols[i]) for i in part]
    span_kg = _span_of(n, kg)
    if span_kg.rank != p or _span_of(n, kg + units).rank != n:
        raise PreconditionError("image of the subalgebra does not complement it")
    if not _is_ideal(u, span_kg, kg):
        raise PreconditionError("image of the subalgebra is not an ideal")

    pos = {i: a for a, i in enumerate(part)}
    sub_table = {}
    for ai, i in enumerate(part):
        for bj in range(ai + 1, p):
            w = u.bracket_basis(i, part[bj])
            if w:
                sub_table[(ai, bj)] = {pos[k]: v for k, v in w.items()}
    sub = LieAlgebra._normalized([u.labels[i] for i in part], sub_table, name="%s|sub" % u.name)

    maps = []
    for i in part:
        cols = []
        for j in part:
            w = u.bracket_sparse({i: _ONE}, kcols[j])
            w = K.apply_sparse(w)
            col = {}
            for k, v in w.items():
                if k not in pset:
                    raise PreconditionError(
                        "conjugated adjoint action leaves the subalgebra"
                    )
                col[pos[k]] = -v
            cols.append(col)
        maps.append(LinearMap.from_sparse_columns(p, p, cols))
    conn = Connection(sub, maps)

    abelian = True
    for ab, w in _escapes(u, SpanSolver(n), kg):
        abelian = False
        cert.fail(("k_image",) + ab, w)
    talg = tangent(sub, conn, check_rep=False)
    frame = [{i: _ONE} for i in part] + kg
    for a in range(2 * p):
        for b in range(a + 1, 2 * p):
            lhs = u.bracket_sparse(frame[a], frame[b])
            for k, v in talg.bracket_basis(a, b).items():
                _acc(lhs, frame[k], -v)
            if lhs:
                cert.fail(("iso", a, b), lhs)
    notes = {
        "flat": cert.absorb(("flat",), check_representation(conn)),
        "torsion_free": cert.absorb(("torsion_free",), check_torsion_free(conn)),
        "k_image_abelian": abelian,
    }
    return sub, conn, cert.done(notes=notes)


def _anticommutator(A, B, diag):
    """Certificate that AB + BA equals diag I.  It fails once, at the first
    nonzero entry (r, c) of the difference, column by column and then by
    row, with that entry as the defect."""
    if A.rows != A.cols or (B.rows, B.cols) != (A.rows, A.cols):
        raise DimensionMismatchError("anticommutator needs square maps of one size")
    cert = Certificate("anticommute", None)
    acols, bcols = A.sparse_columns(), B.sparse_columns()
    for c in range(A.cols):
        img = A.apply_sparse(bcols[c])
        _acc(img, B.apply_sparse(acols[c]))
        if diag:
            _acc(img, {c: -diag})
        if img:
            r = min(img)
            cert.fail((r, c), (img[r],))
            break
    return cert.done()


def _equal_maps(A, B):
    """Certificate that two maps of one shape are equal.  It fails at each
    column c where they differ, with column c of A - B as the defect."""
    cert = Certificate("equal", None, A.rows)
    bcols = B.sparse_columns()
    for c, col in enumerate(A.sparse_columns()):
        acc = dict(col)
        _acc(acc, bcols[c], -_ONE)
        if acc:
            cert.fail((c,), acc)
    return cert.done()


class CliffordFamily:
    """Pairwise anticommuting structures generating a Clifford-type algebra.

    ``generated_rank`` is the dimension of the associative span of all
    products of the members; equality with 2^m certifies the family since
    any proper quotient of the rank-m Clifford algebra is smaller.
    """

    def __init__(self, algebra, maps):
        self.algebra = algebra
        self.maps = [m if isinstance(m, AlmostComplex) else AlmostComplex(m) for m in maps]
        self._rank = None

    @property
    def generated_rank(self):
        if self._rank is None:
            self._rank = self._compute_rank()
        return self._rank

    def _flatten(self, lm):
        out = {}
        for j, col in enumerate(lm.sparse_columns()):
            for i, v in col.items():
                out[i * lm.cols + j] = v
        return out

    def _compute_rank(self):
        d = self.algebra.dim
        solver = SpanSolver(d * d)
        ident = LinearMap.identity(d)
        solver.add(self._flatten(ident))
        frontier = [ident]
        while frontier:
            fresh = []
            for elem in frontier:
                for J in self.maps:
                    prod = elem.compose(J)
                    if solver.add(self._flatten(prod)):
                        fresh.append(prod)
            frontier = fresh
        return solver.rank

    def certify(self, conn=None, target=None):
        """Anticommutation, integrability, rank and optional parallelism."""
        cert = Certificate("clifford_family", target or self.algebra.name)
        for a in range(len(self.maps)):
            for b in range(a, len(self.maps)):
                diag = -2 if a == b else 0
                cert.absorb(
                    ("anticommute", a, b), _anticommutator(self.maps[a], self.maps[b], diag)
                )
        integrable = [
            cert.absorb(("integrable", a), check_integrable(self.algebra, J))
            for a, J in enumerate(self.maps)
        ]
        if conn is not None:
            parallel = [
                cert.absorb(("parallel", a), check_parallel(conn, J))
                for a, J in enumerate(self.maps)
            ]
        rank = self.generated_rank
        expected = 2 ** len(self.maps)
        if rank != expected:
            cert.fail(("generated_rank",), (Fraction(rank), Fraction(expected)))
        notes = {
            "generated_rank": rank,
            "expected_rank": expected,
            "integrable": integrable,
        }
        if conn is not None:
            notes["parallel"] = parallel
        return cert.done(notes=notes)


def _require_flat_torsion_free(conn):
    """PreconditionError, with the failing certificate, unless conn is flat
    and torsion-free."""
    _require(check_representation(conn), "connection is not flat")
    _require(check_torsion_free(conn), "connection has torsion")


def clifford_tower(g, conn, m, name=None):
    """Iterated tangent doubling carrying one new structure per level.

    Earlier structures ride up by the sign-flipped block lift (same block
    pattern as the lifted connection but with the second copy negated,
    which is what makes the members anticommute).
    """
    if m < 1:
        raise PreconditionError("tower needs m >= 1")
    if g.dim << m > MAX_DIM:
        raise PreconditionError("tower of %d levels has more than %d dimensions" % (m, MAX_DIM))
    _require_flat_torsion_free(conn)
    alg, cur = g, conn
    members = []
    for level in range(1, m + 1):
        alg = tangent(alg, cur, name=name if level == m else None, check_rep=False)
        lifted = [block_complex_structure(A, A, sign=-1) for A in members]
        members = lifted + [canonical_complex_structure(alg)]
        cur = _lift(alg, cur.maps)
    return alg, cur, CliffordFamily(alg, members)


def hypercomplex_pair(conn, J, target=None):
    """Anticommuting pair on the tangent algebra of a parallel structure.

    Requires the connection flat and torsion-free with the given structure
    parallel.  Returns the two-member family, the lifted connection and a
    certificate; the lifted connection is the unique torsion-free
    connection parallelizing the pair, recorded in the notes.
    """
    cert = Certificate("hypercomplex", target or conn.algebra.name)
    _require_almost_complex(conn.algebra, J)
    _require_flat_torsion_free(conn)
    _require(check_parallel(conn, J), "structure is not parallel")
    talg = tangent(conn.algebra, conn, check_rep=False)
    j_minus = block_complex_structure(J, J, sign=-1)
    K = canonical_complex_structure(talg)
    lifted = _lift(talg, conn.maps)
    family = CliffordFamily(talg, [j_minus, K])
    subs = {
        "j_minus_integrable": check_integrable(talg, j_minus),
        "k_integrable": check_integrable(talg, K),
        "anticommute": _anticommutator(j_minus, K, 0),
        "j_minus_parallel": check_parallel(lifted, j_minus),
        "k_parallel": check_parallel(lifted, K),
        "lift_flat": check_representation(lifted),
        "lift_torsion_free": check_torsion_free(lifted),
    }
    notes = {key: cert.absorb((key,), sub) for key, sub in subs.items()}
    notes["obata"] = (
        "lifted connection is torsion-free and parallelizes both members, "
        "hence coincides with the Obata connection by uniqueness"
    )
    return family, lifted, cert.done(notes=notes)


def check_self_dual(conn, psi, target=None):
    """Whether psi intertwines the family with its contragredient."""
    n = conn.module_dim
    cert = Certificate("self_dual", target or conn.algebra.name)
    _require_invertible(psi, "duality map is singular")
    if psi.rows != n or psi.cols != n:
        raise DimensionMismatchError("duality map does not match the module")
    for i, (op, dual_op) in enumerate(zip(conn.maps, conn.dual().maps)):
        cert.absorb((i,), _equal_maps(psi.compose(op), dual_op.compose(psi)))
    return cert.done()


def levi_civita(g, B):
    """Unique torsion-free metric connection from the algebraic Koszul formula.

    Flatness is not guaranteed and must be checked separately.
    """
    if B.kind != BilinearForm.SYMMETRIC:
        raise PreconditionError("metric must be symmetric")
    if B.dim != g.dim:
        raise DimensionMismatchError("metric does not match algebra dimension")
    solver = _require_invertible(B.gram, "metric must be invertible")
    n = g.dim
    G = B.gram
    gcols = G.sparse_columns()
    ad_t = [g.ad(i).transpose() for i in range(n)]
    half = Fraction(1, 2)
    maps = []
    for i in range(n):
        cols = []
        for j in range(n):
            # 2 B(nabla_i b_j, b_k) = B([b_i, b_j], b_k) - B([b_j, b_k], b_i)
            # + B([b_k, b_i], b_j), which is entry k of
            # G [b_i, b_j] - ad_j^T G b_i - ad_i^T G b_j
            rhs = G.apply_sparse(g.bracket_basis(i, j))
            _acc(rhs, ad_t[j].apply_sparse(gcols[i]), -_ONE)
            _acc(rhs, ad_t[i].apply_sparse(gcols[j]), -_ONE)
            coeffs = solver.solve({k: half * v for k, v in rhs.items()})
            # rows in increasing order, which check_representation's
            # summation order relies on
            cols.append(dict(sorted(coeffs.items())))
        maps.append(LinearMap.from_sparse_columns(n, n, cols))
    return Connection(g, maps)


def check_pseudo_kahler(g, B, target=None):
    """Full verification of the tangent-algebra pseudo-Kahler structure.

    Builds the Levi-Civita connection of the flat metric, the tangent
    algebra with its swap structure, the musical duality map and the
    transferred form, then checks every compatibility exactly.  The metric
    must be flat; each sub-check's verdict is itemized in the notes.
    """
    cert = Certificate("pseudo_kahler", target or g.name)
    conn = levi_civita(g, B)
    _require_flat_torsion_free(conn)
    psi = B.gram
    talg = tangent(g, conn, check_rep=False)
    K = canonical_complex_structure(talg)
    omega = symplectic_from_duality(psi)
    lifted = _lift(talg, conn.maps)
    G = BilinearForm(_direct_sum(B.gram, B.gram), BilinearForm.SYMMETRIC)
    subs = {
        "self_dual": check_self_dual(conn, psi),
        "omega_symplectic": check_symplectic(talg, omega),
        "omega_parallel": check_parallel(lifted, omega),
        "pairing_matches_omega": _equal_maps(K.transpose().compose(G.gram), omega.gram),
        "k_integrable": check_integrable(talg, K),
        "metric_parallel": check_parallel(lifted, G),
    }
    notes = {"flat": True, "torsion_free": True}
    notes.update((key, cert.absorb((key,), sub)) for key, sub in subs.items())
    return cert.done(notes=notes)


def check_holomorphic(dom, cod, iota, J_dom, J_cod, target=None):
    """Injective homomorphism intertwining the two structures."""
    cert = Certificate("holomorphic", target or ("%s->%s" % (dom.name, cod.name)), cod.dim)
    if iota.cols != dom.dim or iota.rows != cod.dim:
        raise DimensionMismatchError("map shape does not match the algebras")
    _require_almost_complex(dom, J_dom)
    _require_almost_complex(cod, J_cod)
    cols = iota.sparse_columns()
    if _span_of(cod.dim, cols).rank != dom.dim:
        raise PreconditionError("map is not injective")
    for i in range(dom.dim):
        for j in range(i + 1, dom.dim):
            acc = dict(iota.apply_sparse(dom.bracket_basis(i, j)))
            _acc(acc, cod.bracket_sparse(cols[i], cols[j]), -_ONE)
            if acc:
                cert.fail(("hom", i, j), acc)
    cert.absorb(("structure",), _equal_maps(iota.compose(J_dom), J_cod.compose(iota)))
    return cert.done()
