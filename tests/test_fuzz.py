"""Randomized agreement between the sparse library paths and dense oracles."""

import random
from fractions import Fraction

from lieforge import catalog
from lieforge.scalar_linear import Q
from lieforge.lie_core import (
    AlmostComplex,
    BilinearForm,
    LieAlgebra,
    check_closed,
    check_integrable,
    check_jacobi,
)
from lieforge.dsl import entry_to_dsl, parse

from oracles import (
    dense,
    dense_constants,
    naive_bracket,
    naive_differential,
    naive_nijenhuis,
    sparse,
)


def random_signed_pairing(rng, n):
    idx = list(range(n))
    rng.shuffle(idx)
    return AlmostComplex.from_pairs(n, list(zip(idx[0::2], idx[1::2])))


def test_random_structures_match_oracle_sweep():
    rng = random.Random(20240)
    algebras = [catalog.euclidean(3).algebra, catalog.galilean().algebra]
    for L in algebras:
        for _ in range(6):
            J = random_signed_pairing(rng, L.dim)
            cert = check_integrable(L, J)
            oracle_bad = 0
            for a in range(L.dim):
                for b in range(a + 1, L.dim):
                    ea = [Q(1) if t == a else Q(0) for t in range(L.dim)]
                    eb = [Q(1) if t == b else Q(0) for t in range(L.dim)]
                    if any(naive_nijenhuis(L, J.matrix.data, ea, eb)):
                        oracle_bad += 1
            assert cert.total_failures == oracle_bad
            assert cert.passed == (oracle_bad == 0)


def test_random_brackets_match_oracle():
    rng = random.Random(77)
    L = catalog.poincare(0).algebra
    c = dense_constants(L)
    for _ in range(20):
        x = [Q(rng.randint(-4, 4)) for _ in range(L.dim)]
        y = [Q(rng.randint(-4, 4)) for _ in range(L.dim)]
        assert dense(L.bracket_sparse(sparse(x), sparse(y)), L.dim) == naive_bracket(c, x, y)


def test_random_skew_forms_match_differential_oracle():
    rng = random.Random(5)
    L = catalog.euclidean(3).algebra
    n = L.dim
    for _ in range(5):
        data = [[Q(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                v = Q(rng.randint(-2, 2))
                data[i][j] = v
                data[j][i] = -v
        om = BilinearForm(data, BilinearForm.SKEW)
        cert = check_closed(L, om)
        oracle_bad = sum(
            1
            for i in range(n)
            for j in range(i + 1, n)
            for k in range(j + 1, n)
            if naive_differential(L, data, i, j, k)
        )
        assert cert.total_failures == oracle_bad


def test_random_relabelings_roundtrip_through_dsl():
    rng = random.Random(11)
    base = catalog.euclidean(3).algebra
    for trial in range(5):
        perm = list(range(base.dim))
        rng.shuffle(perm)
        scale = Q(rng.randint(1, 5), rng.randint(1, 5))
        table = {}
        for (i, j), coeffs in base.table.items():
            a, b = perm[i], perm[j]
            combo = {perm[k]: scale * v for k, v in coeffs.items()}
            if a > b:
                a, b = b, a
                combo = {k: -v for k, v in combo.items()}
            table[(a, b)] = combo
        labels = ["g%d" % i for i in range(base.dim)]
        L = LieAlgebra(labels, table, name="fuzz%d" % trial)
        text = entry_to_dsl(catalog.CatalogEntry(L.name, L))
        back = parse(text).definitions[L.name][1]
        assert back.same_constants(L)
        assert check_jacobi(back).passed
