"""The full verification suite, one entry per headline claim.

Everything is exact: most criteria pass only if every certificate they
collect passes (plus, where stated, a wall-clock bound); the dichotomy
criterion instead requires one side to fail with a concrete witness.  The
CLI command ``lieforge acceptance`` and the test suite both run these
functions.
"""

from __future__ import annotations

import functools
import time
from fractions import Fraction

from .lie_core import (
    AlmostComplex,
    BilinearForm,
    Connection,
    LinearMap,
    check_closed,
    check_integrable,
    check_representation,
    check_torsion_free,
)
from .constructions import (
    AssociativeAlgebra,
    ContractionFamily,
    aff_algebra,
    cotangent,
    eigenspace_split,
    semidirect,
    tangent,
)
from .structures import (
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
)
from . import catalog


class CriterionResult:
    """One criterion's verdict and certificates; :func:`_timed` sets ``elapsed_s``."""

    def __init__(self, ident, label, passed, certificates, details=""):
        self.ident = ident
        self.label = label
        self.passed = passed
        self.certificates = certificates
        self.details = details
        self.elapsed_s = 0.0


def _result(ident, label, certs, extra_ok=True, details=""):
    passed = extra_ok and all(c.passed for c in certs)
    return CriterionResult(ident, label, passed, certs, details)


def _timed(criterion):
    """Set the result's ``elapsed_s`` to the wall time of the whole criterion."""

    @functools.wraps(criterion)
    def timed():
        t0 = time.perf_counter()
        res = criterion()
        res.elapsed_s = time.perf_counter() - t0
        return res

    return timed


def complex_numbers_algebra():
    """The complex numbers as a two-dimensional real associative algebra."""
    one = Fraction(1)
    return AssociativeAlgebra(
        ["one", "i"],
        {(0, 0): {0: one}, (0, 1): {1: one}, (1, 0): {1: one}, (1, 1): {0: -one}},
        name="C",
    )


def left_symmetric_aff1():
    """The affine line with the product x*y = y, all other products zero."""
    alg = catalog.affine(1).algebra
    z = Fraction(0)
    nx = LinearMap([[z, z], [z, Fraction(1)]])
    return alg, Connection(alg, [nx, LinearMap.zero(2)])


def zero_connection(alg):
    return Connection(alg, [LinearMap.zero(alg.dim) for _ in range(alg.dim)])


def _holomorphic(dom, cod, iota, target=None):
    """check_holomorphic of iota between two catalog entries' structures j."""
    return check_holomorphic(
        dom.algebra,
        cod.algebra,
        iota,
        dom.structures["j"],
        cod.structures["j"],
        target=target or "%s -> %s" % (dom.name, cod.name),
    )


@_timed
def criterion_1():
    t0 = time.perf_counter()
    certs = []
    e3 = catalog.euclidean(3)
    certs.append(check_integrable(e3.algebra, e3.structures["j"], target="e_3"))
    p0 = catalog.poincare(0)
    certs.append(check_integrable(p0.algebra, p0.structures["j"], target="e_2_1"))
    gal = catalog.galilean()
    certs.append(check_integrable(gal.algebra, gal.structures["j"], target="galilean"))
    sl = catalog.sl2c_real()
    certs.append(check_integrable(sl.algebra, sl.structures["j"], target="sl2c_real"))
    galE, iota = e3.inclusions["galilean"]
    certs.append(_holomorphic(e3, galE, iota, target="e_3 -> galilean"))
    elapsed = time.perf_counter() - t0
    return _result(
        "1",
        "small isometry algebras carry integrable structures; the Galilean "
        "embedding is holomorphic",
        certs,
        extra_ok=elapsed < 1.0,
        details="%.3f s (bound 1 s)" % elapsed,
    )


@_timed
def criterion_2():
    certs = []
    sweep11 = None
    for n in range(3, 12):
        e = catalog.euclidean(n)
        c = check_integrable(e.algebra, e.structures["j"], target="e_%d" % n)
        if n == 11:
            sweep11 = c.elapsed_ms / 1000.0
        certs.append(c)
        if n % 4 in (0, 2):
            cd = e.structures["compat"]
            certs.append(
                check_action_compatibility(cd.rho, cd.j, cd.i, cd.split, target="e_%d compat" % n)
            )
    certs += [_holomorphic(*triple) for triple in catalog.inclusion_chain(1)]
    return _result(
        "2",
        "Euclidean family n = 3..11: integrability, stored decompositions, "
        "holomorphic chain",
        certs,
        extra_ok=sweep11 is not None and sweep11 < 30.0,
        details="e(11) sweep %.2f s (bound 30 s)" % (sweep11 or -1),
    )


@_timed
def criterion_3():
    certs = []
    for k in (0, 1):
        p = catalog.poincare(k)
        certs.append(check_integrable(p.algebra, p.structures["j"], target=p.name))
        certs.append(_holomorphic(*catalog.poincare_inclusion(k)))
    return _result(
        "3", "Poincare algebras: integrability and holomorphic embeddings", certs
    )


@_timed
def criterion_4():
    lz = catalog.lorentz(3)
    fam = ContractionFamily(
        lz.algebra,
        lz.structures["rotation_indices"],
        lz.structures["boost_indices"],
    )
    J = lz.structures["deformation_j"]
    certs = []
    for t in (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)):
        Lt = fam.at(t)
        certs.append(check_integrable(Lt, J, target="so_3_1 @ t=%s" % t))
    e3 = catalog.euclidean(3)
    lmap = lz.label_maps["euclidean_3"]
    map_ok = all(
        e3.algebra.labels[i] == lmap[lab] for i, lab in enumerate(lz.algebra.labels)
    )
    table_ok = fam.at(0).same_constants(e3.algebra)
    return _result(
        "4",
        "contraction of the Lorentz algebra keeps the transported structure "
        "integrable and lands on the Euclidean constants",
        certs,
        extra_ok=map_ok and table_ok,
        details="label map consistent: %s, degenerate table matches: %s"
        % (map_ok, table_ok),
    )


@_timed
def criterion_5():
    certs = []
    for n in (1, 2):
        entry, J = catalog.affine_complex_structure(n)
        certs.append(check_integrable(entry.algebra, J, target=entry.name))
    sc = catalog.so3_on_c3()
    cd = sc.structures["compat"]
    certs.append(check_action_compatibility(cd.rho, cd.j, cd.i, cd.split, target=sc.name))
    for sign, tag in ((1, "plus"), (-1, "minus")):
        Jfull = block_complex_structure(cd.j, cd.i, sign)
        certs.append(check_integrable(sc.algebra, Jfull, target="%s J_%s" % (sc.name, tag)))
    return _result(
        "5",
        "affine motion algebras of even rank and the compact complex-module "
        "instance carry both block structures",
        certs,
    )


@_timed
def criterion_6():
    e3 = catalog.euclidean(3)
    J = e3.structures["j"]
    ad = e3.algebra.adjoint_connection()
    talg = tangent(e3.algebra, ad, check_rep=False)
    certs = [
        check_integrable(
            talg, block_complex_structure(J, J, 1), target="T_ad e_3"
        )
    ]
    ctalg, _ = cotangent(e3.algebra, ad, check_rep=False)
    certs.append(
        check_integrable(
            ctalg,
            block_complex_structure(J, dual_structure(J), 1),
            target="T*_ad e_3",
        )
    )
    return _result(
        "6", "tangent and cotangent lifts of the Euclidean structure", certs
    )


def _equivalence_corpus():
    aff1, ls = left_symmetric_aff1()
    ad = aff1.adjoint_connection()
    ab2 = catalog.abelian(2).algebra
    gl2 = catalog.gl(2)
    return [
        ("aff1 left-symmetric", aff1, ls, True),
        ("aff1 adjoint", aff1, ad, False),
        ("abelian2 zero", ab2, zero_connection(ab2), True),
        ("gl2 left-mult", gl2.algebra, gl2.structures["left_mult"], True),
    ]


@_timed
def criterion_7():
    certs = []
    extra_ok = True
    details = []
    for tag, g, conn, expect in _equivalence_corpus():
        c = check_torsion_integrability_equivalence(conn, target=tag)
        certs.append(c)
        if c.notes["torsion_free"] != expect or c.notes["k_integrable"] != expect:
            extra_ok = False
            details.append("%s: unexpected verdicts %s" % (tag, c.notes))
        if expect:
            talg = tangent(g, conn, check_rep=False)
            K = canonical_complex_structure(talg)
            _, rec, cert = reconstruct_connection(
                talg, K, list(range(g.dim)), target=tag
            )
            certs.append(cert)
            if rec.maps != conn.maps:
                extra_ok = False
                details.append("%s: reconstructed connection differs" % tag)
            if not cert.notes.get("k_image_abelian"):
                extra_ok = False
    return _result(
        "7",
        "torsion-freeness is equivalent to integrability of the swap "
        "structure; true cases reconstruct",
        certs,
        extra_ok=extra_ok,
        details="; ".join(details),
    )


@_timed
def criterion_8():
    certs = []
    gl2 = catalog.gl(2)
    _, RI = catalog.right_mult_structure(1)
    _, _, cert = hypercomplex_pair(gl2.structures["left_mult"], RI, target="gl2")
    certs.append(cert)
    C = complex_numbers_algebra()
    affc, _, nab = aff_algebra(C)
    Jplus = AlmostComplex.from_pairs(4, [(1, 0), (2, 3)])
    _, _, cert2 = hypercomplex_pair(nab, Jplus, target="aff_C")
    certs.append(cert2)
    keys = ("j_minus_parallel", "k_parallel", "lift_flat", "lift_torsion_free")
    extra_ok = all(c.notes[k] for c in (cert, cert2) for k in keys)
    return _result(
        "8",
        "hypercomplex pairs on the doubled matrix and complex-affine "
        "algebras, with the lifted connection as the distinguished one",
        certs,
        extra_ok=extra_ok,
    )


@_timed
def criterion_9():
    certs = []
    gl2 = catalog.gl(2)
    alg, conn, fam = clifford_tower(gl2.algebra, gl2.structures["left_mult"], 3)
    c = fam.certify(conn, target="tower gl2 m=3")
    certs.append(c)
    ok = alg.dim == 32 and len(fam.maps) == 3 and fam.generated_rank == 8
    ab2 = catalog.abelian(2).algebra
    alg4, conn4, fam4 = clifford_tower(ab2, zero_connection(ab2), 4)
    c4 = fam4.certify(conn4, target="tower abelian2 m=4")
    certs.append(c4)
    ok = ok and fam4.generated_rank == 16
    return _result(
        "9",
        "towers: three anticommuting parallel structures of full generated "
        "rank on the doubled matrix algebra, rank sixteen on the abelian one",
        certs,
        extra_ok=ok,
        details="dims %d/%d, ranks %d/%d"
        % (alg.dim, alg4.dim, fam.generated_rank, fam4.generated_rank),
    )


@_timed
def criterion_10():
    aff1, ls = left_symmetric_aff1()
    ad = aff1.adjoint_connection()
    t1, om1 = cotangent(aff1, ls, check_rep=False)
    c1 = check_closed(t1, om1, target="T*_ls aff1")
    t2, om2 = cotangent(aff1, ad, check_rep=False)
    c2 = check_closed(t2, om2, target="T*_ad aff1")
    ok = c1.passed and not c2.passed and len(c2.witnesses) > 0
    return CriterionResult(
        "10",
        "the cotangent pairing is closed exactly for the torsion-free "
        "connection, with a concrete witness triple otherwise",
        ok,
        [c1, c2],
        details="failing witness: %s"
        % (c2.witnesses[0].indices if c2.witnesses else None,),
    )


@_timed
def criterion_11():
    so2 = catalog.so(2)
    e2 = semidirect(
        so2.algebra,
        so2.structures["standard_rep"],
        module_labels=["e1", "e2"],
        name="e_2",
        check_rep=False,
    )
    B = BilinearForm(LinearMap.identity(3), BilinearForm.SYMMETRIC)
    conn = levi_civita(e2, B)
    certs = [
        check_representation(conn, target="LC e_2"),
        check_torsion_free(conn, target="LC e_2"),
        check_self_dual(conn, B.gram, target="musical e_2"),
        check_pseudo_kahler(e2, B, target="e_2"),
    ]
    return _result(
        "11",
        "the flat metric on the Euclidean plane algebra yields a verified "
        "pseudo-Kahler tangent algebra",
        certs,
    )


def _agreement_suite():
    entries = [catalog.euclidean(n) for n in range(3, 8)] + [
        catalog.poincare(0),
        catalog.poincare(1),
        catalog.galilean(),
        catalog.sl2c_real(),
        catalog.affine_complex_structure(1)[0],
    ]
    return [(e.name, e.algebra, e.structures["j"], e.structures["split"]) for e in entries]


@_timed
def criterion_12():
    certs = []
    ok = True
    details = []
    for name, alg, J, split_idx in _agreement_suite():
        full = check_integrable(alg, J, target=name)
        split = [alg.basis_vector(i) for i in split_idx]
        half = check_integrable(alg, J, split=split, target=name + " half")
        certs.extend([full, half])
        if full.passed != half.passed:
            ok = False
            details.append("%s: half sweep disagrees" % name)
        _, _, (cp, cm) = eigenspace_split(alg, J)
        if cp.passed != full.passed or cm.passed != full.passed:
            ok = False
            details.append("%s: eigenspace closure disagrees" % name)
        certs.extend([cp, cm])
    from .dsl import entry_to_dsl, parse, workspace_to_dsl

    for entry in (
        catalog.so(3),
        catalog.so(4),
        catalog.gl(2),
        catalog.euclidean(3),
        catalog.euclidean(5),
        catalog.poincare(0),
        catalog.galilean(),
        catalog.sl2c_real(),
    ):
        text = entry_to_dsl(entry)
        ws = parse(text)
        if workspace_to_dsl(ws) != text:
            ok = False
            details.append("%s: round trip not byte stable" % entry.name)
        elif not ws.definitions[entry.name][1].same_constants(entry.algebra):
            ok = False
            details.append("%s: round trip altered constants" % entry.name)
    e23 = catalog.euclidean(23)
    gate = check_integrable(e23.algebra, e23.structures["j"], target="e_23")
    certs.append(gate)
    gate_s = gate.elapsed_ms / 1000.0
    if gate_s >= 60.0:
        ok = False
        details.append("e(23) sweep %.1f s exceeds 60 s" % gate_s)
    return _result(
        "12",
        "half-basis and eigenspace verdicts agree across the suite; DSL "
        "round trips are byte stable; the dimension-276 sweep meets its bound",
        certs,
        extra_ok=ok,
        details="; ".join(details) or ("e(23) sweep %.2f s" % gate_s),
    )


CRITERIA = [
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
    criterion_11,
    criterion_12,
]


def run_all():
    return [fn() for fn in CRITERIA]
