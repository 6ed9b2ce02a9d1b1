"""Type walks shared by the tests.

`grosslat.orders.enumerate_types` keeps nothing between calls.  Tests that
only read the types of B_p take them from `walk` here, so each (p, ell) is
walked once per test session however many tests read it.  A test of the
walk itself, or one that patches what the walk calls, calls
`enumerate_types` directly.

A type record holds the minima and the normalized Gram alone.  Tests that
read a type on the Gram the walk reached it with take it from
`walk_grams`, the same breadth-first search, also once per session.
"""

from collections import deque
from functools import lru_cache

from grosslat.lattice import greedy_reduce, gross_neighbours, minimal_basis
from grosslat.orders import default_ell, enumerate_types, standard_gross_gram


@lru_cache(maxsize=None)
def walk(p, ell):
    """The types of B_p at ell, walked once per session."""
    return enumerate_types(p, ell)


def types_of(p):
    """The types of B_p at `default_ell(p)`, the ell of `types` and `verify`."""
    return walk(p, default_ell(p))


@lru_cache(maxsize=None)
def walk_grams(p, ell):
    """{minima: the Gross Gram the ell-walk at p first popped for the type}.

    The search of `enumerate_types`: seeded by the standard Gross Gram,
    keyed by the greedy diagonal, and a new type expanded from the Gram of
    its minimal basis.  Keys in the order the walk met them.  Each new type
    expands to all ell + 1 neighbours, the parent's included, so this is
    the skip-free reference for the walk's skip of the line back.
    """
    queue = deque([standard_gross_gram(p)])
    grams = {}
    while queue:
        gram = queue.popleft()
        u, g = greedy_reduce(gram)
        key = (g[0][0], g[1][1], g[2][2])
        if key in grams:
            continue
        grams[key] = gram
        mb = minimal_basis(gram, reduced=(u, g))
        queue.extend(n for n, _ in gross_neighbours(mb.gram, p, ell))
    return grams


def with_walk_grams(p, ell=None):
    """(type record, its walk Gram) for each type of `walk(p, ell)`, ell
    `default_ell(p)` unless given."""
    if ell is None:
        ell = default_ell(p)
    grams = walk_grams(p, ell)
    return [(rec, grams[rec.minima]) for rec in walk(p, ell)]
