import random
from functools import lru_cache

import grosslat.lattice as lattice
from grosslat.exact import hnf, is_prime, legendre, primes_between
from grosslat.orders import enumerate_types
from grosslat.verify import run_verify
from hnf_reference import hnf_reference
from kneser_reference import empty_line_memo
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


def random_row_sets(rng, count):
    """`count` sets of 2 to 4 rows of 2 to 4 entries, with zero rows."""
    out = []
    for _ in range(count):
        ncols = rng.randrange(2, 5)
        spread = rng.choice((1, 3, 9, 60))
        out.append([
            (0,) * ncols if rng.random() < 0.2
            else tuple(rng.randrange(-spread, spread + 1) for _ in range(ncols))
            for _ in range(rng.randrange(2, 5))
        ])
    return out


def test_hnf_matches_the_list_and_min_pivot_search_on_random_rows():
    rng = random.Random(61)
    row_sets = random_row_sets(rng, 20000)
    assert sum(any(not any(r) for r in rows) for rows in row_sets) > 5000
    for rows in row_sets:
        assert hnf(rows) == hnf_reference(rows), rows


def test_hnf_matches_the_list_and_min_pivot_search_on_the_walks(monkeypatch):
    # every row set `lattice` hands to `hnf` in `verify 2..300` and in the
    # ell = 2 walk at 10007, each run with the neighbour-HNF memo empty.
    # Each is a miss of that memo: the rank-2 rules count planes and read
    # the Gram diagonal, and span no HNF.  The walks skip each type's line
    # back to its parent, and one key of the sweep was met only on such lines
    seen = []

    def recorded(rows):
        seen.append([tuple(r) for r in rows])
        return hnf(rows)

    def empty_memo():
        # the line memo too, whose entries keep their lines' HNFs
        empty_line_memo(monkeypatch)
        fresh = lru_cache(maxsize=None)(lattice._neighbour_hnf.__wrapped__)
        monkeypatch.setattr(lattice, "_neighbour_hnf", fresh)

    monkeypatch.setattr(lattice, "hnf", recorded)
    empty_memo()
    assert run_verify(2, 300).ok
    sweep = len(seen)
    assert lattice._neighbour_hnf.cache_info().misses == sweep
    empty_memo()
    enumerate_types(10007, 2)
    assert (sweep, len(seen) - sweep) == (191, 42)
    for rows in seen:
        assert hnf(rows) == hnf_reference(rows), rows


def test_primes_and_factorization():
    assert primes_between(2, 30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert factorize(44) == [2, 2, 11]
    assert not is_prime(1)
    assert legendre(13, 7) == -1
    assert legendre(13, 11) == -1
    assert legendre(9, 7) == 1
