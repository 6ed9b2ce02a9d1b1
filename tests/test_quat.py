import random

from fractions import Fraction

import pytest

from grosslat.quat import QuaternionAlgebra, inner4
from quat_elements import (
    AlgebraMismatch,
    QuaternionElement,
    element,
    gens,
    mul4,
    nrd4,
    one,
)


def alg(a=-1, b=-11, p=11):
    return QuaternionAlgebra(a, b, p)


def test_defining_relations():
    A = alg()
    e, (i, j, k) = one(A), gens(A)
    assert i * j == k
    assert j * i == -k
    assert i * i == element(A, -1)
    assert (e + i) * (e - i) == element(A, 2)


def test_conjugate_product_generic_a():
    A = QuaternionAlgebra(-3, -5, 5)
    e, (i, _, _) = one(A), gens(A)
    assert (e + i) * (e - i) == element(A, 4)  # 1 - a


def test_trd_nrd_conj():
    A = alg(-1, -1, 2)
    e, (i, j, k) = one(A), gens(A)
    assert (e + i).conj() == e - i
    assert i.trd() == 0
    assert i.nrd() == 1
    omega = element(A, Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
    assert omega.nrd() == 1
    assert omega.trd() == 1


def test_inner_examples():
    A = QuaternionAlgebra(-3, -5, 5)
    _, (i, j, _) = one(A), gens(A)
    assert i.inner(j) == 0
    # j=0 basis at p=5: (beta1, beta2) = 1
    b1 = element(A, 0, 1)
    b2 = element(A, 0, Fraction(1, 3), 1, Fraction(-1, 3))
    assert b1.inner(b2) == 1
    # j=1728 basis at p=11: (2i, i-k) = 2
    B = alg()
    _, (i, j, k) = one(B), gens(B)
    assert (2 * i).inner(i - k) == 2


def basis_table(a, b):
    """Structure constants: table[u][v] = e_u * e_v over (1, i, j, k).

    Written out from i^2 = a, j^2 = b, ij = k = -ji, independently of the
    coordinate polynomials in grosslat.quat and quat_elements.
    """
    one = (1, 0, 0, 0)
    i = (0, 1, 0, 0)
    j = (0, 0, 1, 0)
    k = (0, 0, 0, 1)
    return (
        (one, i, j, k),
        (i, (a, 0, 0, 0), k, (0, 0, a, 0)),
        (j, (0, 0, 0, -1), (b, 0, 0, 0), (0, -b, 0, 0)),
        (k, (0, 0, -a, 0), (0, b, 0, 0), (-a * b, 0, 0, 0)),
    )


def table_product(u, v, a, b):
    table = basis_table(a, b)
    out = [0, 0, 0, 0]
    for s in range(4):
        for t in range(4):
            for w in range(4):
                out[w] += u[s] * v[t] * table[s][t][w]
    return tuple(out)


def test_mul4_matches_table():
    # the structure-constant table is the independent reference for signs
    rng = random.Random(3)
    for a, b, p in ((-2, -7, 7), (-1, -11, 11), (-3, -13, 13)):
        A = QuaternionAlgebra(a, b, p)
        for _ in range(100):
            u = tuple(rng.randrange(-5, 6) for _ in range(4))
            v = tuple(rng.randrange(-5, 6) for _ in range(4))
            conj_u = (u[0], -u[1], -u[2], -u[3])
            conj_v = (v[0], -v[1], -v[2], -v[3])
            assert mul4(u, v, a, b) == table_product(u, v, a, b)
            assert nrd4(u, a, b) == table_product(u, conj_u, a, b)[0]
            assert inner4(u, v, a, b) == table_product(u, conj_v, a, b)[0]
            x = QuaternionElement(A, tuple(Fraction(c, 2) for c in u))
            y = QuaternionElement(A, tuple(Fraction(c, 3) for c in v))
            assert (x * y).coords == tuple(
                Fraction(c, 6) for c in table_product(u, v, a, b)
            )
            assert 4 * x.nrd() == table_product(u, conj_u, a, b)[0]
            assert 6 * x.inner(y) == table_product(u, conj_v, a, b)[0]


def test_norm_multiplicative_and_conj_antihom():
    A = QuaternionAlgebra(-3, -13, 13)
    rng = random.Random(5)
    for _ in range(50):
        x = element(A, *[Fraction(rng.randrange(-6, 7), rng.choice([1, 2, 3])) for _ in range(4)])
        y = element(A, *[Fraction(rng.randrange(-6, 7), rng.choice([1, 2, 3])) for _ in range(4)])
        assert (x * y).nrd() == x.nrd() * y.nrd()
        assert (x * y).conj() == y.conj() * x.conj()
        assert x + x.conj() == element(A, x.trd())
        if x.coords != (0, 0, 0, 0):
            assert x.inner(x) > 0


def test_algebra_mismatch():
    A, B = alg(), alg(-1, -7, 7)
    with pytest.raises(AlgebraMismatch):
        one(A) * one(B)


def test_rendering():
    A = alg()
    e = element(A, Fraction(1, 2), -1, 0, 3)
    assert str(e) == "1/2 + -1*i + 0*j + 3*k"


def test_algebra_repr_is_the_dataclass_repr():
    assert repr(alg(-1, -3, 3)) == "QuaternionAlgebra(a=-1, b=-3, p=3)"
