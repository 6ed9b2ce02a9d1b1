"""Differential tests of the Gram walk against the order walk it replaced.

For odd ell, `enumerate_types` walks Kneser ell-neighbours of Gross Grams
and does no quaternion arithmetic.  `order_walk` is the walk it replaced:
right orders of the left ideals of norm ell, each checked as a maximal
order, keyed by the minima of its Gross lattice.  Both must give the same
sorted (minima, normalized Gram) list.  Tier-1 compares them at every prime
5 <= p <= 300 at ell = 3 and at a few primes at ell = 5 and 7; the gate over
every prime up to 2000 at ell = 3 is opt-in:

    GROSSLAT_WALK_REFERENCE=1 pytest tests/test_walk_reference.py -m walk_reference
"""

from collections import deque

import pytest

from grosslat.exact import primes_between
from grosslat.lattice import gross_lattice, minimal_basis
from grosslat.orders import (
    enumerate_types,
    left_ideals_of_norm,
    right_order,
    standard_maximal_order,
)


def order_walk(p, ell):
    """(order, Gross lattice, minimal basis) per type, sorted by minima."""
    queue = deque([standard_maximal_order(p)])
    found = {}
    while queue:
        order = queue.popleft()
        lat = gross_lattice(order)
        mb = minimal_basis(lat.gram)
        if mb.minima in found:
            continue
        found[mb.minima] = (order, lat, mb)
        queue.extend(right_order(i) for i in left_ideals_of_norm(order, ell))
    return tuple(found[k] for k in sorted(found))


def basis_elements(lat, coords):
    """The quaternions of a Gross lattice with the given coordinate rows."""
    return tuple(lat.vector_element(c) for c in coords)


def assert_walks_agree(p, ell):
    want = [(tuple(mb.minima), mb.gram) for _, _, mb in order_walk(p, ell)]
    got = [(rec.minima, rec.gram) for rec in enumerate_types(p, ell)]
    assert got == want, (p, ell)


@pytest.mark.parametrize("p", primes_between(5, 300))
def test_gram_walk_matches_the_order_walk_at_ell_3(p):
    assert_walks_agree(p, 3)


@pytest.mark.parametrize("ell", [5, 7])
@pytest.mark.parametrize("p", [2, 11, 101])
def test_gram_walk_matches_the_order_walk_at_ell_5_and_7(p, ell):
    assert_walks_agree(p, ell)


def test_gram_walk_records_reduce_from_their_walk_gram():
    for p in (2, 11, 101):
        for rec in enumerate_types(p, 3):
            mb = minimal_basis(rec.walk_gram)
            assert (mb.minima, mb.gram, mb.coords) == (rec.minima, rec.gram, rec.basis)


@pytest.mark.walk_reference
def test_gram_walk_matches_the_order_walk_up_to_2000():
    for p in primes_between(5, 2000):
        assert_walks_agree(p, 3)
