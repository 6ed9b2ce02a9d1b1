import random

from grosslat.exact import hnf, is_prime, legendre, primes_between
from quat_elements import factorize, hnf_solve


def test_hnf_index_two_sublattice():
    assert hnf([(2, 0), (0, 2), (1, 1)]) == ((1, 1), (0, 2))


def test_hnf_identity_fixed():
    eye = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert hnf(eye) == eye


def test_hnf_rank_drop():
    # row-reduced by hand; same lattice checked by mutual membership
    rows = [(4, 0, 0), (0, 4, 0), (2, 2, 0)]
    h = hnf(rows)
    assert h == ((2, 2, 0), (0, 4, 0))
    for r in rows:
        assert hnf_solve(h, r) is not None

    def integer_combo(target):
        for a in range(-4, 5):
            for b in range(-4, 5):
                for c in range(-4, 5):
                    if all(
                        a * u + b * v + c * w == t
                        for u, v, w, t in zip(*rows, target)
                    ):
                        return True
        return False

    for r in h:
        assert integer_combo(r)


def test_hnf_idempotent_random():
    rng = random.Random(7)
    for _ in range(50):
        rows = [
            tuple(rng.randrange(-9, 10) for _ in range(4)) for _ in range(5)
        ]
        h = hnf(rows)
        assert hnf(h) == h
        # row lattice preserved in both directions
        for r in rows:
            assert hnf_solve(h, r) is not None


def test_primes_and_factorization():
    assert primes_between(2, 30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert factorize(44) == [2, 2, 11]
    assert not is_prime(1)
    assert legendre(13, 7) == -1
    assert legendre(13, 11) == -1
    assert legendre(9, 7) == 1
