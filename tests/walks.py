"""Type walks shared by the tests.

`grosslat.orders.enumerate_types` keeps nothing between calls.  Tests that
only read the types of B_p take them from `walk` here, so each (p, ell) is
walked once per test session however many tests read it.  A test of the
walk itself, or one that patches what the walk calls, calls
`enumerate_types` directly.
"""

from functools import lru_cache

from grosslat.orders import default_ell, enumerate_types


@lru_cache(maxsize=None)
def walk(p, ell):
    """The types of B_p at ell, walked once per session."""
    return enumerate_types(p, ell)


def types_of(p):
    """The types of B_p at `default_ell(p)`, the ell of `types` and `verify`."""
    return walk(p, default_ell(p))
