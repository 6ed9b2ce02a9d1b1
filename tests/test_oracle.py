import random
from math import gcd, isqrt

import pytest

from grosslat import oracle
from grosslat.exact import legendre, primes_between
from grosslat.oracle import OracleError, spine_count, supersingular_j_set
import ss_p_reference as ssp
from hasse_reference import (
    deuring_polynomial, fp2_mul, hasse_j_set, hasse_lambdas,
)
from ss_p_reference import ss_p_route, supersingular_polynomial


def test_deuring_polynomial_small():
    assert deuring_polynomial(5) == [1, 4, 1]
    assert deuring_polynomial(3) == [1, 1]
    assert deuring_polynomial(7) == [1, 2, 2, 1]
    with pytest.raises(ValueError):
        deuring_polynomial(2)


def test_supersingular_polynomial_small():
    assert supersingular_polynomial(3) == [0, 1]            # j
    assert supersingular_polynomial(5) == [0, 1]            # j
    assert supersingular_polynomial(7) == [1, 1]            # j - 1728
    assert supersingular_polynomial(11) == [0, 10, 1]       # j (j - 1728)
    assert supersingular_polynomial(13) == [8, 1]           # j - 5
    for p in (2, 4, 9):
        with pytest.raises(ValueError):
            supersingular_polynomial(p)


def fp2_poly_from_roots(js, p, sigma):
    """prod (x - j) over js in F_p(s)[x], constant term first."""
    out = [(1, 0)]
    for j in js:
        neg = (-j[0] % p, -j[1] % p)
        shifted = [(0, 0)] + out
        scaled = [fp2_mul(c, neg, p, sigma) for c in out] + [(0, 0)]
        out = [
            ((a[0] + b[0]) % p, (a[1] + b[1]) % p) for a, b in zip(shifted, scaled)
        ]
    return out


def test_j_line_route_matches_the_hasse_route_up_to_500():
    for p in primes_between(3, 500):
        ref = hasse_j_set(p)
        assert supersingular_j_set(p) == ref, p
        product = fp2_poly_from_roots(ref.js, p, ref.nonresidue)
        assert all(im == 0 for _, im in product), p
        assert [re for re, _ in product] == supersingular_polynomial(p), p


def test_walk_matches_the_ss_p_route_up_to_500():
    for p in primes_between(3, 500):
        assert supersingular_j_set(p).js == ss_p_route(p), p


def test_empty_start_table_raises(monkeypatch):
    # with no H_d to start from there is no other route to the j set
    monkeypatch.setattr(oracle, "_HILBERT", ())
    for p in primes_between(3, 500):
        with pytest.raises(OracleError, match="no Hilbert class polynomial"):
            supersingular_j_set(p)


def test_every_start_reaches_the_ss_p_set(monkeypatch):
    # each H_d of the table alone, at every prime up to 500 where it is inert
    want = {p: ss_p_route(p) for p in primes_between(3, 500)}
    for entry in oracle._HILBERT:
        d = entry[0]
        monkeypatch.setattr(oracle, "_HILBERT", (entry,))
        inert = [p for p in want if legendre(-d, p) == -1]
        assert inert, d
        for p in inert:
            assert supersingular_j_set(p).js == want[p], (d, p)


@pytest.mark.parametrize("p", [15073, 107209, 108529])
def test_class_number_two_starts_at_scale(p):
    # the least primes whose start is a root of H_15, H_51 and H_52
    assert oracle._start(p, oracle._Fp2(p, oracle._smallest_nonresidue(p))) is not None
    assert [d for d, *_ in oracle._HILBERT if legendre(-d, p) == -1][0] in (15, 51, 52)
    ss = supersingular_j_set(p)
    assert ss.count == p // 12 and ss.spine_count == spine_formula(p)


@pytest.mark.parametrize("p, d, counts", [
    (620929, 115, (51744, 208, 25976)),
    (832129, 123, (69344, 238, 34791)),
])
def test_walk_at_the_primes_the_short_table_missed(p, d, counts):
    # below 10^6 only these two have no inert H_d among the first eighteen
    # rows; the counts are Eichler-Deuring's and the class-number formulas'
    inert = [e for e, *_ in oracle._HILBERT if legendre(-e, p) == -1]
    assert inert[0] == d
    ss = supersingular_j_set(p)
    assert (ss.count, ss.spine_count, ss.orbit_count) == counts
    assert ss.count == p // 12 and ss.spine_count == spine_formula(p)


def test_first_prime_without_a_start_raises(monkeypatch):
    # 134447041 is the least prime at which no H_d of the table is inert
    p = 134447041
    assert start_of(p) is None
    monkeypatch.setattr(oracle, "_walk", None)   # nothing past the start runs
    with pytest.raises(OracleError, match="no Hilbert class polynomial"):
        supersingular_j_set(p)


def test_class_number_two_starts_divide_ss_p_at_inert_primes():
    # H_d divides ss_p; at the 76 pairs where H_d = (x - a)^2 mod p, as
    # H_15 = (x + 1)^2 mod 7, the separable ss_p has the root a instead
    checks = squares = 0
    for d, coeffs, _ in oracle._HILBERT:
        if len(coeffs) != 2:
            continue
        c, b = coeffs
        for p in primes_between(5, 1500):
            if legendre(-d, p) != -1:
                continue
            ss = supersingular_polynomial(p)
            if (b * b - 4 * c) % p:
                assert ssp._divmod(ss, [c, b, 1], p)[1] == [], (d, p)
            else:
                assert ssp._divmod(ss, [b * (p + 1) // 2, 1], p)[1] == [], (d, p)
                squares += 1
            checks += 1
    assert (checks, squares) == (2131, 76)


PHI2_ENTRIES = [
    (row, k) for row in range(3) for k in range(len(oracle._PHI2[row]))
]


def start_of(p):
    """`oracle._start(p, ...)`: (start, listed neighbour or None), or None."""
    return oracle._start(p, oracle._Fp2(p, oracle._smallest_nonresidue(p)))


@pytest.mark.parametrize("row, k", PHI2_ENTRIES)
def test_error_wrong_phi2_coefficient(monkeypatch, row, k):
    # 1009 starts at H_11 and splits its cubic by Cantor-Zassenhaus; 1013
    # starts at H_3, and 1019 and 10007 at H_4, each with a listed neighbour
    seeded = [start_of(p)[1] is not None for p in (1009, 1013, 1019, 10007)]
    assert seeded == [False, True, True, True]
    phi = [list(r) for r in oracle._PHI2]
    phi[row][k] += 1
    monkeypatch.setattr(oracle, "_PHI2", tuple(map(tuple, phi)))
    for p in (1009, 1013, 1019, 10007):
        with pytest.raises(OracleError):
            supersingular_j_set(p)


def phi2(x, y):
    """Phi_2(x, y) over Z, written out symmetrically."""
    return (
        x ** 3 + y ** 3 - x * x * y * y + 1488 * (x * x * y + x * y * y)
        - 162000 * (x * x + y * y) + 40773375 * x * y
        + 8748000000 * (x + y) - 157464000000000
    )


def test_listed_neighbours_are_integer_roots_of_phi2():
    # in integers, with no reduction mod p; _PHI2 gives the same values
    listed = [
        (d, -coeffs[0], nb) for d, coeffs, nb in oracle._HILBERT if nb is not None
    ]
    assert listed == [
        (4, 1728, 1728), (3, 0, 54000), (7, -3375, -3375), (8, 8000, 8000),
    ]
    for _, j, nb in listed:
        assert phi2(j, nb) == phi2(nb, j) == 0
        c0, c1, c2 = (
            sum(c * j ** k for k, c in enumerate(row)) for row in oracle._PHI2
        )
        assert nb ** 3 + c2 * nb * nb + c1 * nb + c0 == 0
    assert phi2(1728, 1729) != 0


def test_seeded_walk_matches_the_cantor_zassenhaus_walk(monkeypatch):
    # with the neighbours dropped from the table every start's cubic is
    # split by Cantor-Zassenhaus; below 300 only 193 has no listed neighbour
    primes = primes_between(3, 500)
    assert [p for p in primes if p <= 300 and start_of(p)[1] is None] == [193]
    want = {p: supersingular_j_set(p) for p in primes}
    table = tuple((d, coeffs, None) for d, coeffs, _ in oracle._HILBERT)
    monkeypatch.setattr(oracle, "_HILBERT", table)
    for p in primes:
        assert start_of(p)[1] is None
        assert supersingular_j_set(p) == want[p], p


def test_error_wrong_listed_neighbour(monkeypatch):
    # each entry with a neighbour alone, its neighbour off by one (1728 ->
    # 1729), at every prime up to 500 where it is the start.  At 47,
    # -3374 is a root of Phi_2(-3375, Y) mod p, so the walk there is right
    # and must still find every j
    want = {p: supersingular_j_set(p) for p in primes_between(3, 500)}
    true_roots = []
    for d, coeffs, nb in oracle._HILBERT:
        if nb is None:
            continue
        monkeypatch.setattr(oracle, "_HILBERT", ((d, coeffs, nb + 1),))
        inert = [p for p in want if legendre(-d, p) == -1]
        assert inert, d
        for p in inert:
            if phi2(-coeffs[0], nb + 1) % p:
                with pytest.raises(OracleError, match="parent"):
                    supersingular_j_set(p)
            else:
                true_roots.append((d, p))
                assert supersingular_j_set(p) == want[p]
    assert true_roots == [(7, 47)]


def test_no_start_is_a_square_multiple_of_an_earlier_one():
    # for odd p prime to k, (-k^2 d / p) = (-d / p): an entry whose d is a
    # square multiple of an earlier entry's d is inert only where that one
    # is, so it is never the start
    ds = [d for d, *_ in oracle._HILBERT]
    assert len(set(ds)) == len(ds)
    for i, d in enumerate(ds):
        for e in ds[:i]:
            q, r = divmod(d, e)
            assert r or isqrt(q) ** 2 != q, (e, d)


def test_error_vertex_cubic_without_its_parent(monkeypatch):
    # 8748000001 Y against 8748000000 X: Phi_2 is no longer symmetric, so a
    # vertex's parent is not a root of the vertex's own cubic
    phi = [list(r) for r in oracle._PHI2]
    phi[1][0] += 1
    monkeypatch.setattr(oracle, "_PHI2", tuple(map(tuple, phi)))
    with pytest.raises(OracleError, match="parent"):
        supersingular_j_set(1009)


def test_walk_stops_at_the_eichler_count(monkeypatch):
    # the walk gives up as soon as it passes the count, not after the whole
    # component, which for an ordinary start can be far larger
    monkeypatch.setattr(oracle, "_eichler_count", lambda p: 5)
    with pytest.raises(OracleError, match="passes the Eichler-Deuring count 5"):
        supersingular_j_set(1009)


def test_error_non_supersingular_start(monkeypatch):
    for p in primes_between(5, 300):
        js = supersingular_j_set(p).js
        ordinary = next(j for j in range(p) if (j, 0) not in js)
        with monkeypatch.context() as m:
            m.setattr(oracle, "_start", lambda p, field: ((ordinary, 0), None))
            with pytest.raises(OracleError):
                supersingular_j_set(p)


def test_p11_js():
    ss = supersingular_j_set(11)
    assert ss.js == ((0, 0), (1, 0))   # 1728 = 1 mod 11
    assert ss.spine_count == 2
    assert ss.orbit_count == 2


def test_p13_single_j():
    ss = supersingular_j_set(13)
    assert ss.js == ((5, 0),)
    assert ss.orbit_count == 1


def test_p37():
    ss = supersingular_j_set(37)
    assert ss.count == 3
    assert ss.spine_count == 1
    assert ss.orbit_count == 2


def test_p2_hardcoded():
    ss = supersingular_j_set(2)
    assert ss.js == ((0, 0),) and ss.spine_count == 1
    assert spine_count(2) == 1
    # the non-residue is 0 at p = 2 alone, also where every j lies in F_p
    assert ss.nonresidue == 0
    small = [supersingular_j_set(p) for p in (3, 5, 7, 11, 13)]
    assert all(s.spine_count == s.count for s in small)
    assert [s.nonresidue for s in small] == [2, 2, 3, 2, 2]


def class_number(disc):
    """Class number of the negative discriminant `disc` (reduced forms)."""
    h = 0
    a = 1
    while 3 * a * a <= -disc:
        for b in range(-a + 1, a + 1):
            if (b * b - disc) % (4 * a):
                continue
            c = (b * b - disc) // (4 * a)
            if c < a or (b < 0 and c == a) or gcd(gcd(a, abs(b)), c) != 1:
                continue
            h += 1
        a += 1
    return h


def spine_formula(p):
    """Supersingular j in F_p for a prime p > 3 (Delfs-Galbraith 2016)."""
    if p % 4 == 1:
        return class_number(-4 * p) // 2
    if p % 8 == 7:
        return class_number(-p)
    return 2 * class_number(-p)


def test_counts_match_eichler_formula():
    # the total against Eichler-Deuring and the F_p count against class
    # numbers, at every prime up to 2000
    eps = {1: 0, 5: 1, 7: 1, 11: 2}
    for p in primes_between(5, 2000):
        ss = supersingular_j_set(p)
        assert ss.count == p // 12 + eps[p % 12], p
        assert ss.spine_count == spine_formula(p), p
        assert ss.orbit_count == ss.spine_count + (ss.count - ss.spine_count) // 2


def test_special_j_presence():
    for p in primes_between(2, 100):
        ss = supersingular_j_set(p)
        has_j0 = (0, 0) in ss.js
        has_1728 = (1728 % p, 0) in ss.js
        assert has_j0 == (p % 3 == 2 or p == 3)
        assert has_1728 == (p % 4 == 3 or p == 2)


def test_conjugate_pairs_listed_both_ways():
    ss = supersingular_j_set(37)
    off_spine = [(re, im) for re, im in ss.js if im]
    assert len(off_spine) == 2
    (re1, im1), (re2, im2) = off_spine
    assert re1 == re2 and (im1 + im2) % 37 == 0


def test_spine_count_matches_lattice_side_at_31():
    from grosslat.orders import enumerate_types

    lattice_spine = sum(1 for t in enumerate_types(31, 2) if t.minima[2] >= 31)
    assert spine_count(31) == lattice_spine == 3


def test_spine_and_orbit_counts_match_lattice_side_at_2003():
    from grosslat.classify import field_of_definition
    from grosslat.orders import enumerate_types

    types = enumerate_types(2003, 2)
    ss = supersingular_j_set(2003)
    assert ss.count == 2003 // 12 + 2
    assert ss.orbit_count == len(types)
    assert ss.spine_count == sum(
        1 for t in types if field_of_definition(2003, t.minima[2])
    )


def horner(coeffs, x, p, sigma):
    acc = (0, 0)
    for c in reversed(coeffs):
        acc = fp2_mul(acc, x, p, sigma)
        acc = ((acc[0] + c) % p, acc[1])
    return acc


def test_roots_are_roots_of_the_hasse_polynomial():
    # the reference route's lambda set
    p = 103
    sigma = oracle._smallest_nonresidue(p)
    coeffs = deuring_polynomial(p)
    roots = hasse_lambdas(p, sigma)
    assert len(set(roots)) == len(roots) == (p - 1) // 2
    for lam in roots:
        assert horner(coeffs, lam, p, sigma) == (0, 0)


def test_roots_are_roots_of_the_supersingular_polynomial():
    for p in (103, 1009):
        ss = supersingular_j_set(p)
        coeffs = supersingular_polynomial(p)
        assert len(set(ss.js)) == len(ss.js) == len(coeffs) - 1
        for j in ss.js:
            assert horner(coeffs, j, p, ss.nonresidue) == (0, 0)


def _random_poly(rng, p, degree):
    return [rng.randrange(p) for _ in range(degree)] + [1]


def test_modulus_reduction_matches_long_division():
    p = 1009
    rng = random.Random(7)
    for n in (1, ssp._PLAIN_DEGREE - 1, ssp._PLAIN_DEGREE, 40, 97):
        f = _random_poly(rng, p, n)
        ring = ssp._Modulus(f, p)
        a = [rng.randrange(p) for _ in range(n)]
        b = [rng.randrange(p) for _ in range(n)]
        want = ssp._divmod(ssp._mul_plain(a, b), f, p)[1]
        assert ssp._trim(ring.mul(a, b)) == want
        want = [1]
        for _ in range(37):
            want = ssp._divmod(ssp._mul_plain(want, a), f, p)[1]
        assert ssp._trim(ring.pow(a, 37)) == want
        long = [rng.randrange(p) for _ in range(5 * n + 3)]
        assert ssp._trim(ring.reduce(long)) == ssp._divmod(long, f, p)[1]


def _euclid(a, b, p):
    a, b = ssp._trim(list(a)), ssp._trim(list(b))
    while b:
        a, b = b, ssp._divmod(a, b, p)[1]
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def test_lehmer_gcd_matches_euclid():
    rng = random.Random(11)
    for trial in range(40):
        p = rng.choice([3, 13, 1009, 10007])
        g = _random_poly(rng, p, rng.randrange(0, 40))
        u = _random_poly(rng, p, rng.randrange(0, 300))
        v = _random_poly(rng, p, rng.randrange(0, 300)) if trial % 4 else [0] * 7 + [1]
        a = [c % p for c in ssp._mul_plain(g, u)]
        b = [c % p for c in ssp._mul_plain(g, v)]
        assert ssp._gcd(a, b, p) == _euclid(a, b, p)


def test_trace_split_of_two_quadratics():
    p, sigma = 13, 2
    q1, q2 = [2, 0, 1], [3, 1, 1]  # x^2 + 2 and x^2 + x + 3, irreducible mod 13
    g = [c % p for c in ssp._mul_plain(q1, q2)]
    ring = ssp._Modulus(g, p)
    xp = ring.pow([0, 1], p)
    assert ssp._trace_split(g, xp, ring, sigma) in (q1, q2)
    # equal traces (both 0): no split from the traces
    g = [c % p for c in ssp._mul_plain(q1, [5, 0, 1])]
    ring = ssp._Modulus(g, p)
    assert ssp._trace_split(g, ring.pow([0, 1], p), ring, sigma) is None


def test_wide_slots_pack_and_unpack():
    p = 2 ** 45 - 55  # slot bound beyond 8 bytes: the int.to_bytes path
    a, b = [3, 5, 2 ** 40], [p - 1, 7, 11]
    w = ssp._slot_width(3 * (p - 1) ** 2 + 1)
    assert w > 8
    assert list(ssp._unpack(ssp._pack(a, w), 3, w)) == a
    prod = ssp._pack(a, w) * ssp._pack(b, w)
    assert list(ssp._unpack(prod, 5, w)) == ssp._mul_plain(a, b)


def test_error_eichler_count_mismatch(monkeypatch):
    monkeypatch.setattr(oracle, "_eichler_count", lambda p: 99)
    with pytest.raises(OracleError, match="Eichler"):
        supersingular_j_set(37)


def test_error_odd_off_spine_count(monkeypatch):
    monkeypatch.setattr(oracle, "_walk", lambda p, field, start, n: [(1, 1)])
    monkeypatch.setattr(oracle, "_eichler_count", lambda p: 1)
    with pytest.raises(OracleError, match="odd"):
        supersingular_j_set(37)


def test_error_quadratic_without_root():
    # (x - 1)(x - 2) splits over F_13, so disc / sigma is a non-residue
    with pytest.raises(OracleError, match="no root"):
        ssp._quadratic_roots([2, 13 - 3, 1], 13, 2, False)
    # x^2 - 2 has no root in F_13
    with pytest.raises(OracleError, match="no root"):
        ssp._quadratic_roots([13 - 2, 0, 1], 13, 2, True)
    with pytest.raises(OracleError, match="degree-1 factor"):
        ssp._quadratic_roots([5, 1], 13, 2, False)


def test_error_nonzero_division_remainder():
    with pytest.raises(OracleError, match="remainder"):
        ssp._divexact([1, 0, 1], [1, 1], 13)


def test_error_factor_that_does_not_split():
    # x^3 - 2 is irreducible over F_13 (2 is not a cube), so no linear split
    with pytest.raises(OracleError, match="does not split"):
        ssp._equal_degree_factors([11, 0, 0, 1], None, 13, 2, random.Random(0))


def test_error_no_nonresidue(monkeypatch):
    monkeypatch.setattr(oracle, "legendre", lambda a, q: 1)
    with pytest.raises(OracleError, match="non-residue"):
        supersingular_j_set(37)


def test_oracle_error_is_a_value_error():
    assert issubclass(OracleError, ValueError)
