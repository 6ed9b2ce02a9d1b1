from math import isqrt

import pytest

from grosslat.exact import primes_between
from grosslat.gramgross import (
    PreconditionError,
    candidate_invariant_violations,
    gram_gross,
    quadratic_residue_precheck,
)
from gramgross_reference import gram_gross_reference


def grams(p, d1):
    return [c.gram for c in gram_gross(p, d1)]


def test_known_outputs():
    assert grams(31, 7) == [((7, 3, 2), (3, 19, -8), (2, -8, 36))]
    assert grams(7, 4) == [((4, 0, 2), (0, 7, 0), (2, 0, 8))]
    assert grams(11, 3) == [((3, 1, 1), (1, 15, -7), (1, -7, 15))]
    assert grams(13, 3) == []


def test_p3_sign_variants():
    assert grams(3, 3) == [
        ((3, 0, 0), (0, 4, -2), (0, -2, 4)),
        ((3, 0, 0), (0, 4, 2), (0, 2, 4)),
    ]


def test_p2_closed_form():
    assert grams(2, 3) == [((3, 1, 1), (1, 3, -1), (1, -1, 3))]


def test_provenance_of_31_7():
    (cand,) = gram_gross(31, 7)
    assert (cand.x, cand.d2, cand.y, cand.d3, cand.n, cand.z) == (
        3, 19, 2, 36, 2, -8,
    )


def test_require_violations():
    with pytest.raises(PreconditionError):
        gram_gross(7, 5)       # 5 is not 0 or 3 mod 4
    with pytest.raises(PreconditionError):
        gram_gross(13, 20)     # violates 3*D1^2 <= 16p
    with pytest.raises(PreconditionError):
        gram_gross(9, 4)       # p not prime


@pytest.mark.parametrize("d1, message", [
    # 0 and -4 are 0 mod 4, so the residue message would be false there
    (0, "D1 = 0 is not positive"),
    (-4, "D1 = -4 is not positive"),
    (-1, "D1 = -1 is not positive"),
    (5, "D1 = 5 is not 0 or 3 mod 4"),
])
def test_d1_precondition_messages(d1, message):
    with pytest.raises(PreconditionError, match=message):
        gram_gross(31, d1)
    with pytest.raises(PreconditionError, match=message):
        gram_gross_reference(31, d1)


def test_precheck_examples():
    assert quadratic_residue_precheck(31, 7)
    assert quadratic_residue_precheck(113, 19)
    assert not quadratic_residue_precheck(11, 7)
    with pytest.raises(PreconditionError):
        quadratic_residue_precheck(31, 3)


def test_precheck_matches_a_scan_of_every_residue():
    # the table holds the t <= D1/2 only; t and D1 - t have one square
    for p in primes_between(2, 200):
        for d1 in range(4, 60):
            scan = any(t * t % d1 == -4 * p % d1 for t in range(d1))
            assert quadratic_residue_precheck(p, d1) == scan, (p, d1)


def test_precheck_false_forces_empty():
    for p in primes_between(5, 80):
        for d1 in range(4, 20):
            if d1 % 4 not in (0, 3) or 3 * d1 * d1 > 16 * p:
                continue
            if not quadratic_residue_precheck(p, d1):
                assert gram_gross(p, d1) == []


def test_all_candidates_sound():
    for p in primes_between(2, 120):
        for d1 in range(3, 20):
            if d1 % 4 not in (0, 3) or 3 * d1 * d1 > 16 * p:
                continue
            for cand in gram_gross(p, d1):
                assert candidate_invariant_violations(cand, p) == []


def spine_d1s(p):
    """Every D1 = 0 or 3 mod 4 with 3*D1^2 <= 16p."""
    return [d1 for d1 in range(3, isqrt(16 * p // 3) + 1) if d1 % 4 in (0, 3)]


def test_square_root_table_matches_the_scan_to_2000():
    # the same candidates in the same order as the scan over every y <= D1/2
    # for each n, at every D1 of every prime p <= 2000
    calls = 0
    for p in primes_between(2, 2000):
        for d1 in spine_d1s(p):
            assert gram_gross(p, d1) == gram_gross_reference(p, d1), (p, d1)
            calls += 1
    assert calls == 9581


@pytest.mark.verify_large
@pytest.mark.parametrize(
    "p, count", [(100003, 78), (1000003, 210), (4000037, 1035)]
)
def test_square_root_table_matches_the_scan_at_large_primes(p, count):
    got = [c for d1 in spine_d1s(p) for c in gram_gross(p, d1)]
    assert got == [c for d1 in spine_d1s(p) for c in gram_gross_reference(p, d1)]
    assert len(got) == count
