"""Exact integer linear algebra on small matrices.

Matrices are tuples of tuples of Python ints, rows first.  Lattices are row
lattices of such matrices, optionally over a common positive denominator.
Everything here is exact; no floats anywhere.
"""

from __future__ import annotations

from math import gcd, isqrt


def ceil_div(a: int, b: int) -> int:
    # b > 0
    return -((-a) // b)


def is_perfect_square(n: int) -> bool:
    if n < 0:
        return False
    r = isqrt(n)
    return r * r == n


def hnf(rows):
    """Row-style Hermite normal form of the row lattice spanned by `rows`.

    Zero rows are dropped, pivots are positive, and entries above each pivot
    are reduced into [0, pivot).  Returns a tuple of row tuples.
    """
    m = [list(r) for r in rows if any(r)]
    if not m:
        return ()
    ncols = len(m[0])
    r = 0
    for c in range(ncols):
        if r == len(m):
            break
        while True:
            # the pivot: the first row from r on with the least nonzero
            # |entry| in column c
            i0, least = r, 0
            for i in range(r, len(m)):
                t = m[i][c]
                if t:
                    if t < 0:
                        t = -t
                    if not least or t < least:
                        i0, least = i, t
            if not least:
                break
            if i0 != r:
                m[r], m[i0] = m[i0], m[r]
            clean = True
            pivot_row = m[r]
            piv = pivot_row[c]
            for i in range(r + 1, len(m)):
                # |m[i][c]| >= |piv|, so q = 0 exactly when m[i][c] = 0
                q = m[i][c] // piv
                if q:
                    row = m[i] = [x - q * y for x, y in zip(m[i], pivot_row)]
                    if row[c]:
                        clean = False
            if clean:
                break
        if r < len(m) and m[r][c]:
            if m[r][c] < 0:
                m[r] = [-x for x in m[r]]
            piv = m[r][c]
            for i in range(r):
                q = m[i][c] // piv
                if q:
                    m[i] = [x - q * y for x, y in zip(m[i], m[r])]
            r += 1
    if any(any(row) for row in m[r:]):
        raise ValueError("HNF elimination left a nonzero trailing row")
    return tuple(tuple(row) for row in m[:r])


def canonical_lattice(rows, den: int):
    """HNF rows and denominator of (1/den)*rowspan(rows), in lowest terms."""
    mat = hnf(rows)
    g = den
    for row in mat:
        for x in row:
            g = gcd(g, x)
    if g > 1:
        mat = tuple(tuple(x // g for x in row) for row in mat)
        den //= g
    return mat, den


# -- desk-scale integer utilities (trial division only) -----------------------

def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def primes_between(lo: int, hi: int):
    return [n for n in range(max(lo, 2), hi + 1) if is_prime(n)]


def legendre(a: int, q: int) -> int:
    """Legendre symbol (a | q) for an odd prime q."""
    r = pow(a % q, (q - 1) // 2, q)
    return -1 if r == q - 1 else r
