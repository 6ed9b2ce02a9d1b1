from dataclasses import fields
from fractions import Fraction
from itertools import permutations
from math import isqrt

import pytest

from grosslat import exact, lattice, orders
from grosslat.exact import legendre, primes_between
from grosslat.lattice import LatticeError, gram_inner, minima_triple
from grosslat.oracle import supersingular_j_set
from grosslat.orders import (
    OrderError,
    QuaternionOrder,
    enumerate_types,
    gross_lattice,
    pizer_gross_gram,
    pizer_maximal_order,
    reduced_discriminant,
    standard_gross_gram,
    standard_maximal_order,
)
from grosslat.quat import QuaternionAlgebra
from kneser_reference import empty_line_memo
from quat_elements import (
    contains_vec,
    element,
    is_ring,
    mul4,
    nrd4,
    order_basis_elements,
    order_from_elements,
    saturate_to_maximal,
)
from test_walk_reference import QuaternionIdeal, left_ideals_of_norm, right_order


def order_from(a, b, p, rows, den):
    return QuaternionOrder.from_generators(QuaternionAlgebra(a, b, p), rows, den)


HURWITZ = ((2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (1, 1, 1, 1))


def brute_discriminant(order):
    """Independent oracle: permanent-style 4x4 determinant of trd(e_i e_j)."""
    a, b = order.algebra.a, order.algebra.b
    den2 = Fraction(order.den) ** 2
    t = [
        [Fraction(2 * mul4(u, v, a, b)[0]) / den2 for v in order.mat]
        for u in order.mat
    ]
    total = Fraction(0)
    for perm in permutations(range(4)):
        sign = 1
        seen = list(perm)
        # parity by counting inversions
        inv = sum(
            1 for i in range(4) for j in range(i + 1, 4) if seen[i] > seen[j]
        )
        sign = -1 if inv % 2 else 1
        prod = Fraction(1)
        for i, j in enumerate(perm):
            prod *= t[i][j]
        total += sign * prod
    assert total.denominator == 1
    val = abs(int(total))
    r = isqrt(val)
    assert r * r == val
    return r


def test_discrd_hurwitz():
    o = order_from(-1, -1, 2, HURWITZ, 2)
    assert reduced_discriminant(o) == 2
    assert brute_discriminant(o) == 2


def test_discrd_p11_maximal_and_lipschitz():
    rows = ((2, 0, 0, 0), (0, 2, 0, 0), (1, 0, 1, 0), (0, 1, 0, 1))
    o = order_from(-1, -11, 11, rows, 2)
    assert reduced_discriminant(o) == 11
    assert brute_discriminant(o) == 11
    lip = order_from(-1, -11, 11, ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)), 1)
    assert reduced_discriminant(lip) == 44
    assert brute_discriminant(lip) == 44


@pytest.mark.parametrize("n", [2, 3])
def test_discrd_from_the_gross_gram_on_non_maximal_orders(n):
    # Z + nO has index n^3 in O, so discrd(Z + nO) = n^3 p; the Gross Gram
    # reading det G = 4 discrd^2 must agree with the 4x4 trace form
    for p in primes_between(2, 200):
        o = standard_maximal_order(p)
        rows = [(o.den, 0, 0, 0)] + [tuple(n * x for x in r) for r in o.mat]
        sub = QuaternionOrder.from_generators(o.algebra, rows, o.den)
        assert reduced_discriminant(sub) == brute_discriminant(sub) == n ** 3 * p


@pytest.mark.parametrize("p,expected_a", [(2, -1), (5, -3), (11, -1), (13, -7), (37, -19)])
def test_standard_maximal_order(p, expected_a):
    o = standard_maximal_order(p)
    assert o.algebra.a == expected_a
    assert reduced_discriminant(o) == p
    assert is_ring(o)


def test_order_from_elements():
    # <1, (1+i)/2, (j-k)/2, (i-k)/3> inside (-3, -5) is maximal
    alg = QuaternionAlgebra(-3, -5, 5)
    h = Fraction(1, 2)
    t = Fraction(1, 3)
    elems = [
        element(alg, 1),
        element(alg, h, h),
        element(alg, 0, 0, h, -h),
        element(alg, 0, t, 0, -t),
    ]
    o = order_from_elements(alg, elems)
    assert o == standard_maximal_order(5)
    assert order_from_elements(alg, order_basis_elements(o)) == o


def test_standard_order_rejects_composite():
    with pytest.raises(OrderError):
        standard_maximal_order(4)


PRIMES_1_MOD_4 = [p for p in primes_between(5, 2000) if p % 4 == 1]


def test_explicit_order_is_maximal_for_every_p_1_mod_4():
    # the test-side ring check, not the seed's own discriminant check
    for p in PRIMES_1_MOD_4:
        o = standard_maximal_order(p)
        assert is_ring(o), p
        assert reduced_discriminant(o) == p


def test_explicit_order_at_p_5_mod_12_is_the_ibukiyama_order():
    # 1, (1+i)/2, (j-k)/2, (i-k)/3 in (-3, -p): the basis used before the
    # p = 1 mod 4 classes shared one construction
    rows = [(6, 0, 0, 0), (3, 3, 0, 0), (0, 0, 3, -3), (0, 2, 0, -2)]
    for p in PRIMES_1_MOD_4:
        if p % 12 == 5:
            assert standard_maximal_order(p) == order_from(-3, -p, p, rows, 6)


PIZER_QS = (3, 7, 11, 19, 43, 67, 163)


@pytest.mark.parametrize("q", PIZER_QS)
def test_pizer_order_is_maximal_at_every_inert_p_and_contains_o_minus_q(q):
    # both classes of p mod 4, the test-side ring check, and (1+i)/2 in O
    for p in primes_between(3, 600):
        if p == q or legendre(p, q) != -1:
            continue
        o = pizer_maximal_order(q, p)
        assert o.algebra == QuaternionAlgebra(-q, -p, p)
        assert is_ring(o), (q, p)
        assert reduced_discriminant(o) == brute_discriminant(o) == p
        assert contains_vec(o, (1, 1, 0, 0), 2)


@pytest.mark.parametrize("q,p", [
    (5, 7),      # q = 1 mod 4
    (15, 7),     # q = 3 mod 4, not prime
    (3, 7),      # (7|3) = 1
    (7, 7),      # q = p
    (2, 7),      # even
    (7, 9),      # p not prime
])
def test_pizer_order_rejects_other_q(q, p):
    with pytest.raises(OrderError):
        pizer_maximal_order(q, p)
    with pytest.raises(OrderError):
        pizer_gross_gram(q, p)


def test_pizer_gross_gram_is_the_gross_gram_of_pizers_order():
    # the closed form against the HNF of the order's trace-zero image
    pairs = [
        (q, p) for q in PIZER_QS for p in primes_between(3, 3000)
        if p != q and legendre(p, q) == -1
    ]
    assert len(pairs) == 1531
    mismatched = [
        (q, p) for q, p in pairs
        if pizer_gross_gram(q, p) != gross_lattice(pizer_maximal_order(q, p)).gram
    ]
    assert mismatched == []


def test_pizer_gross_gram_checks_t_and_its_determinant(monkeypatch):
    real_c = orders._pizer_c
    monkeypatch.setattr(orders, "_pizer_c", lambda q, p: real_c(q, p) + 1)
    with pytest.raises(OrderError, match="does not divide 1 \\+ p t\\^2"):
        pizer_gross_gram(7, 13)
    monkeypatch.setattr(orders, "_pizer_c", real_c)
    monkeypatch.setattr(orders, "det3", lambda m: 4 * 13 * 13 + 1)
    with pytest.raises(OrderError, match="expected 4p\\^2"):
        pizer_gross_gram(7, 13)


@pytest.mark.parametrize("p", primes_between(2, 500))
def test_standard_gross_gram_is_the_gross_gram_of_the_standard_order(p):
    # the walk's closed-form seed against the HNF of the order's image
    assert standard_gross_gram(p) == gross_lattice(standard_maximal_order(p)).gram


def test_standard_gross_gram_checks_p_and_its_determinant(monkeypatch):
    with pytest.raises(OrderError, match="91 is not prime"):
        standard_gross_gram(91)
    monkeypatch.setattr(orders, "det3", lambda m: 0)
    for p in (2, 11):
        with pytest.raises(OrderError, match="standard Gross Gram is 0, expected 4p\\^2"):
            standard_gross_gram(p)
    # p = 1 mod 4 takes Pizer's Gram, which checks its own determinant
    with pytest.raises(OrderError, match="Pizer's Gross Gram is 0"):
        standard_gross_gram(13)


def test_enumerate_types_builds_no_order(monkeypatch):
    # once the neighbour-HNF memo holds the walk's line data, a second walk
    # runs no HNF at all: its seed is written down, not read off an order
    want = enumerate_types(101, 2)

    def forbidden(rows):
        raise AssertionError("the walk ran an HNF")

    monkeypatch.setattr(exact, "hnf", forbidden)
    monkeypatch.setattr(lattice, "hnf", forbidden)
    assert enumerate_types(101, 2) == want


def test_pizer_order_checks_its_discriminant(monkeypatch):
    monkeypatch.setattr(orders, "reduced_discriminant", lambda o: 4 * o.algebra.p)
    with pytest.raises(OrderError, match="discriminant 52, expected 13"):
        pizer_maximal_order(7, 13)
    with pytest.raises(OrderError, match="discriminant 52, expected 13"):
        standard_maximal_order(13)
    with pytest.raises(OrderError, match="discriminant 44, expected 11"):
        standard_maximal_order(11)


@pytest.mark.parametrize("p", [p for p in primes_between(5, 300) if p % 12 == 1])
def test_saturated_seed_walks_to_the_same_types(p, monkeypatch):
    # the walk seeded by the saturation of <1, i, j, k> in the same algebra
    # reaches the same (minima, Gram) list as the explicit seed
    def key(types):
        return [(t.minima, t.gram) for t in types]

    want = {ell: key(enumerate_types(p, ell)) for ell in (2, 3)}
    alg = standard_maximal_order(p).algebra
    lip = QuaternionOrder.from_generators(
        alg, ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)), 1
    )
    seed = gross_lattice(saturate_to_maximal(lip)).gram
    assert seed != standard_gross_gram(p)
    monkeypatch.setattr(orders, "standard_gross_gram", lambda _p: seed)
    for ell in (2, 3):
        assert key(enumerate_types(p, ell)) == want[ell]


def test_saturate_fixed_point():
    o = standard_maximal_order(11)
    assert saturate_to_maximal(o) == o


def test_saturate_lipschitz_in_b11():
    lip = order_from(-1, -11, 11, ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)), 1)
    o = saturate_to_maximal(lip)
    assert reduced_discriminant(o) == 11
    # contains the seed lattice
    assert contains_vec(o, (0, 1, 0, 0), 1)


def test_saturate_alternative_presentation_of_b13():
    seed = order_from(-11, -13, 13, ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)), 1)
    o = saturate_to_maximal(seed)
    assert reduced_discriminant(o) == 13
    # same type as the standard construction: equal Gross minima triples
    std = standard_maximal_order(13)
    assert minima_triple(gross_lattice(o).gram) == minima_triple(
        gross_lattice(std).gram
    )


@pytest.mark.parametrize("p,ell", [(11, 2), (13, 2), (11, 3), (2, 3)])
def test_left_ideals_count_and_index(p, ell):
    o = standard_maximal_order(p)
    ideals = left_ideals_of_norm(o, ell)
    assert len(ideals) == ell + 1
    assert len({(i.mat, i.den) for i in ideals}) == ell + 1
    for ideal in ideals:
        assert ideal.norm == ell


def test_left_ideals_reject_ell_equal_p():
    with pytest.raises(OrderError):
        left_ideals_of_norm(standard_maximal_order(11), 11)


def test_left_ideals_reject_non_integral_norm():
    # i/2 lies in this lattice but has reduced norm 1/4: not an order
    lat = order_from(
        -1, -11, 11, ((2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2)), 2
    )
    with pytest.raises(OrderError, match="non-integral norm"):
        left_ideals_of_norm(lat, 3)


def test_left_ideals_count_is_checked():
    # Z + 3(Zi + Zj + Zk) is an order, but 3 divides its discriminant, so
    # it has no left ideal of norm 3 of index 9
    o = order_from(
        -1, -11, 11, ((1, 0, 0, 0), (0, 3, 0, 0), (0, 0, 3, 0), (0, 0, 0, 3)), 1
    )
    assert is_ring(o)
    with pytest.raises(OrderError, match="expected 4 ideals of norm 3"):
        left_ideals_of_norm(o, 3)


def test_right_order_of_two_sided_principal():
    o = standard_maximal_order(11)
    rows = tuple(tuple(2 * x for x in row) for row in o.mat)
    # O * 2 has reduced norm 4
    ideal = QuaternionIdeal(o, rows, o.den, 4)
    assert right_order(ideal) == o


def test_right_order_of_principal_ideal_is_conjugate():
    # O*alpha has right order conjugate to O: identical minima triple
    from grosslat.exact import canonical_lattice

    o = standard_maximal_order(11)
    a, b = o.algebra.a, o.algebra.b
    alpha = tuple(x + y for x, y in zip(o.mat[1], o.mat[2]))
    n = nrd4(alpha, a, b) // (o.den ** 2)
    rows = [mul4(row, alpha, a, b) for row in o.mat]
    mat, den = canonical_lattice(rows, o.den ** 2)
    ideal = QuaternionIdeal(o, mat, den, n)
    ro = right_order(ideal)
    assert reduced_discriminant(ro) == 11
    assert minima_triple(gross_lattice(ro).gram) == minima_triple(
        gross_lattice(o).gram
    )


def test_enumerate_types_examples():
    assert [t.minima for t in enumerate_types(11, 2)] == [(3, 15, 15), (4, 11, 12)]
    assert [t.minima for t in enumerate_types(2, 3)] == [(3, 3, 3)]
    types37 = enumerate_types(37, 2)
    assert len(types37) == supersingular_j_set(37).orbit_count == 2
    # ell has no default
    with pytest.raises(TypeError):
        enumerate_types(31)


def test_type_records_hold_the_minima_and_the_gram_alone():
    # the walk keeps neither the Gram it reached a type with nor the basis
    # coordinates in it; tests take walk Grams from tests/walks.py
    assert [f.name for f in fields(orders.TypeRecord)] == ["minima", "gram"]
    assert enumerate_types(11, 2)[1] == orders.TypeRecord(
        (4, 11, 12), ((4, 0, 2), (0, 11, 0), (2, 0, 12))
    )


def test_enumerate_types_checks_the_greedy_key_of_each_new_type(monkeypatch):
    # a greedy diagonal that is not the minima raises; it must not silently
    # merge or drop a type.  The walk hands its key's reduction to
    # minimal_basis, which takes it as it is
    real = orders.greedy_reduce

    def lengthened(gram):
        # u2 + s u0 has norm D3 + D1 + 2|(u0, u2)| > D3: a sorted diagonal,
        # the Gram of its basis, but not the minima
        (u0, u1, u2), _ = real(gram)
        s = 1 if gram_inner(gram, u0, u2) >= 0 else -1
        u = (u0, u1, tuple(a + s * b for a, b in zip(u2, u0)))
        return u, tuple(tuple(gram_inner(gram, x, y) for y in u) for x in u)

    def off_by_one(gram):
        u, g = real(gram)
        return u, tuple(
            tuple(x + (i == j == 2) for j, x in enumerate(row))
            for i, row in enumerate(g)
        )

    monkeypatch.setattr(orders, "greedy_reduce", lengthened)
    with pytest.raises(LatticeError, match="greedy diagonal"):
        enumerate_types(37, 2)
    # a diagonal that is not even the Gram of u: the basis found has norms
    # other than the key's
    monkeypatch.setattr(orders, "greedy_reduce", off_by_one)
    with pytest.raises(LatticeError, match="differ from the minima"):
        enumerate_types(37, 2)


def test_enumerate_types_reduces_each_popped_gram_once(monkeypatch):
    # the greedy reduction behind a new type's key also gives its minimal
    # basis: one reduction for each Gram popped, the seed, its ell + 1
    # neighbours and ell neighbours of each other type, whose line back to
    # its parent is skipped
    calls = []
    real = lattice.greedy_reduce

    def counted(gram):
        calls.append(gram)
        return real(gram)

    monkeypatch.setattr(orders, "greedy_reduce", counted)
    monkeypatch.setattr(lattice, "greedy_reduce", counted)
    types = enumerate_types(101, 2)
    assert len(calls) == 1 + 3 + 2 * (len(types) - 1)


@pytest.mark.parametrize("ell", [2, 3])
def test_keys_only_walk_gives_the_full_walks_minima(ell):
    # keys from greedy-reduced Grams, with no minimal basis, against the
    # minima the full walk certifies, at every prime up to 300
    for p in primes_between(2, 300):
        if p != ell:
            want = tuple(t.minima for t in enumerate_types(p, ell))
            assert enumerate_types(p, ell, keys_only=True) == want, p


def test_keys_only_walk_keeps_the_neighbour_checks(monkeypatch):
    # no minimal basis is built, but a seed that is not a Gross Gram of B_p
    # still fails half_form, so does one whose half form has an odd
    # diagonal, and an odd neighbour still fails the neighbour checks
    def no_basis(*args, **kwargs):
        raise AssertionError("minimal_basis called in a keys-only walk")

    monkeypatch.setattr(orders, "minimal_basis", no_basis)
    assert enumerate_types(37, 3, keys_only=True) == ((8, 19, 39), (15, 20, 23))
    with monkeypatch.context() as m:
        seed = ((3, 0, 0), (0, 4, 0), (0, 0, 5))
        m.setattr(orders, "standard_gross_gram", lambda p: seed)
        with pytest.raises(LatticeError, match="not divisible by 2p"):
            enumerate_types(37, 2, keys_only=True)
    with monkeypatch.context() as m:
        # adj(diag(2p, 2p, 1)) / 2p = diag(1, 1, 2p)
        seed = ((74, 0, 0), (0, 74, 0), (0, 0, 1))
        m.setattr(orders, "standard_gross_gram", lambda p: seed)
        with pytest.raises(LatticeError, match="2p has an odd diagonal"):
            enumerate_types(37, 2, keys_only=True)
    # an unlifted line at ell = 2 gives a neighbour of odd norm; an empty
    # line memo, since its entries keep the HNFs of lifted lines
    empty_line_memo(monkeypatch)
    monkeypatch.setattr(lattice, "_lift", lambda q, v, ell, t, inv: v)
    with pytest.raises(LatticeError, match="ell-neighbour has an odd diagonal"):
        enumerate_types(37, 2, keys_only=True)


@pytest.mark.parametrize("p", [11, 13, 37, 101])
def test_enumerate_types_ell_independent(p):
    assert [t.minima for t in enumerate_types(p, 2)] == [
        t.minima for t in enumerate_types(p, 3)
    ]
