"""The list-based greedy reduction that `lattice.greedy_reduce` replaced.

It keeps the Gram as nested lists and the basis as lists of coordinates,
and applies each step through `_apply_swap` and `_apply_addmul`.  The
scalar version in the package applies the same steps in the same order, so
the two must return identical (u, g); `tests/test_lattice.py` compares
them.
"""

from grosslat.lattice import LatticeError


def _apply_addmul(g, u, i, j, q):
    # b_i <- b_i + q b_j
    u[i] = [x + q * y for x, y in zip(u[i], u[j])]
    for t in range(3):
        g[i][t] += q * g[j][t]
    for t in range(3):
        g[t][i] += q * g[t][j]


def _apply_swap(g, u, i, j):
    u[i], u[j] = u[j], u[i]
    g[i], g[j] = g[j], g[i]
    for t in range(3):
        g[t][i], g[t][j] = g[t][j], g[t][i]


def _nearest(t: int, n: int) -> int:
    # nearest integer to t/n for n > 0, ties rounded down
    return (2 * t + n) // (2 * n)


def greedy_reduce_reference(gram):
    """`lattice.greedy_reduce` on nested lists: the same (u, g)."""
    g = [list(row) for row in gram]
    u = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    for _ in range(10000):
        changed = False
        i0 = min(range(3), key=lambda i: (g[i][i], i))
        if i0 != 0:
            _apply_swap(g, u, 0, i0)
            changed = True
        if g[1][1] > g[2][2]:
            _apply_swap(g, u, 1, 2)
            changed = True
        # Gauss-reduce the first two rows
        for _ in range(10000):
            if g[0][0] > g[1][1]:
                _apply_swap(g, u, 0, 1)
                changed = True
            q = _nearest(g[1][0], g[0][0])
            if q:
                _apply_addmul(g, u, 1, 0, -q)
                changed = True
            if g[1][1] >= g[0][0] and _nearest(g[1][0], g[0][0]) == 0:
                break
        # reduce the third row against the plane of the first two
        d2 = g[0][0] * g[1][1] - g[0][1] ** 2
        an = g[2][0] * g[1][1] - g[2][1] * g[0][1]
        bn = g[2][1] * g[0][0] - g[2][0] * g[0][1]
        a0 = _nearest(an, d2)
        b0 = _nearest(bn, d2)
        best = (g[2][2], 0, 0)
        for c0 in (a0 - 1, a0, a0 + 1):
            for c1 in (b0 - 1, b0, b0 + 1):
                if c0 == 0 and c1 == 0:
                    continue
                n = (
                    g[2][2]
                    + c0 * c0 * g[0][0]
                    + c1 * c1 * g[1][1]
                    - 2 * c0 * g[2][0]
                    - 2 * c1 * g[2][1]
                    + 2 * c0 * c1 * g[0][1]
                )
                if n < best[0]:
                    best = (n, c0, c1)
        if best[1] or best[2]:
            _apply_addmul(g, u, 2, 0, -best[1])
            _apply_addmul(g, u, 2, 1, -best[2])
            changed = True
        if not changed:
            break
    else:
        raise LatticeError("greedy reduction did not converge")
    return tuple(tuple(r) for r in u), tuple(tuple(r) for r in g)


