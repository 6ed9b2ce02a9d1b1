"""The greedy reductions that `lattice.greedy_reduce` replaced.

`greedy_reduce_reference` keeps the Gram as nested lists and the basis as
lists of coordinates, and applies each step through `_apply_swap` and
`_apply_addmul`.  `greedy_reduce_until_idle` is the scalar loop as it was
before it stopped early: it runs until no step of a whole round changed
anything, and its third-row step tries all nine points of the window
(a0 - 1..a0 + 1) x (b0 - 1..b0 + 1).  The package applies the same steps in
the same order but skips the idle last round, stopping at the first round
whose third-row step moves nothing or right after a step that leaves the
rows sorted, and tries one point per s0, the first least one of its row,
so all three must return identical (u, g); `tests/test_lattice.py` compares
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
    # nearest integer to t/n for n > 0, ties rounded up
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




def greedy_reduce_until_idle(gram, rows=None, steps=None):
    """`lattice.greedy_reduce`, ending only after a round that changes nothing,
    with the nine-point third-row step.

    Given a list `rows`, each third-row step appends to it, for each s0 in
    order, (b, w, b0, norms, c): the norm of the row s1 = b0 - 1, b0, b0 + 1
    is c + s0 (s0 a - 2y) + s1 (s1 b - w), and `norms` lists those three.
    Given a list `steps`, each third-row step that moves appends (b, c)
    after it.
    """
    (a, x, y), (_, b, z), (_, _, c) = gram
    u0, u1, u2 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    for _ in range(10000):
        changed = False
        if b < a and b <= c:
            a, b, y, z, u0, u1 = b, a, z, y, u1, u0
            changed = True
        elif c < a and c < b:
            a, c, x, z, u0, u2 = c, a, z, x, u2, u0
            changed = True
        if b > c:
            b, c, x, y, u1, u2 = c, b, y, x, u2, u1
            changed = True
        for _ in range(10000):
            if a > b:
                a, b, y, z, u0, u1 = b, a, z, y, u1, u0
                changed = True
            q = (2 * x + a) // (2 * a)
            if q:
                b += q * (q * a - 2 * x)
                x -= q * a
                z -= q * y
                u1 = (u1[0] - q * u0[0], u1[1] - q * u0[1], u1[2] - q * u0[2])
                changed = True
            if b >= a:
                break
        d2 = a * b - x * x
        a0 = (2 * (y * b - z * x) + d2) // (2 * d2)
        b0 = (2 * (z * a - y * x) + d2) // (2 * d2)
        best, c0, c1 = c, 0, 0
        for s0 in (a0 - 1, a0, a0 + 1):
            r = c + s0 * (s0 * a - 2 * y)
            w = 2 * (z - s0 * x)
            norms = [r + s1 * (s1 * b - w) for s1 in (b0 - 1, b0, b0 + 1)]
            if rows is not None:
                rows.append((b, w, b0, norms, c))
            for s1, n in zip((b0 - 1, b0, b0 + 1), norms):
                if n < best:
                    best, c0, c1 = n, s0, s1
        if c0 or c1:
            c = best
            y, z = y - c0 * a - c1 * x, z - c0 * x - c1 * b
            u2 = (
                u2[0] - c0 * u0[0] - c1 * u1[0],
                u2[1] - c0 * u0[1] - c1 * u1[1],
                u2[2] - c0 * u0[2] - c1 * u1[2],
            )
            changed = True
            if steps is not None:
                steps.append((b, c))
        if not changed:
            break
    else:
        raise LatticeError("greedy reduction did not converge")
    return (u0, u1, u2), ((a, x, y), (x, b, z), (y, z, c))
