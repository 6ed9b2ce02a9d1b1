"""The GramGross search that `gramgross.gram_gross` replaced.

`gram_gross_reference` finds the x of each (x, D2) pair by testing every
x <= D1/2, and the y of each (y, D3) pair by testing every y <= D1/2 again
for each n of the window.  `gram_gross` reads both from one table of the
square roots mod D1, built once per call, in the same ascending order, so
the two must return the same candidates in the same order;
`tests/test_gramgross.py` compares them.
"""

from math import isqrt

from grosslat.exact import ceil_div, is_prime
from grosslat.gramgross import GramCandidate, PreconditionError


def _candidate(d1, x, d2, y, d3, z, p):
    gram = ((d1, x, y), (x, d2, z), (y, z, d3))
    n = (d1 * d3 - y * y) // (4 * p)
    return GramCandidate(gram, x, d2, y, d3, n, z)


def gram_gross_reference(p: int, d1: int):
    """`gram_gross` with a scan over y <= D1/2 for every n: the same list."""
    if not is_prime(p):
        raise PreconditionError(f"p = {p} is not prime")
    if d1 <= 0:
        raise PreconditionError(f"D1 = {d1} is not positive")
    if d1 % 4 not in (0, 3):
        raise PreconditionError(f"D1 = {d1} is not 0 or 3 mod 4")
    if 3 * d1 * d1 > 16 * p:
        raise PreconditionError(f"D1 = {d1} violates 3*D1^2 <= 16p at p = {p}")

    if d1 == 3:
        if p == 3:
            return [
                _candidate(3, 0, 4, 0, 4, -2, p),
                _candidate(3, 0, 4, 0, 4, 2, p),
            ]
        if p % 3 == 2:
            d2 = (4 * p + 1) // 3
            z = -(2 * p - 1) // 3
            return [_candidate(3, 1, d2, 1, d2, z, p)]
        return []   # p = 1 mod 3: no curve with j = 0, hence no matrix

    half = d1 // 2
    pairs_x = []
    for x in range(half + 1):
        num = 4 * p + x * x
        if num % d1:
            continue
        d2 = num // d1
        if d2 >= d1 and d2 % 4 in (0, 3):
            pairs_x.append((x, d2))
    if not pairs_x:
        return []

    a = ceil_div(4 * p * d1 - d1 * d1, 16 * p)
    b = (32 * p * d1 + 49 * d1) // (112 * p)
    pairs_y = []
    for n in range(a, b + 1):
        for y in range(half + 1):
            num = 4 * n * p + y * y
            if num % d1:
                continue
            d3 = num // d1
            if d3 >= d1 and d3 % 4 in (0, 3):
                pairs_y.append((y, d3))
    if not pairs_y:
        return []

    found = {}
    four_p = 4 * p
    for x, d2 in pairs_x:
        for y, d3 in pairs_y:
            if d2 > d3:
                continue
            c = 4 * p * p + d3 * x * x + d2 * y * y - d1 * d2 * d3
            disc = 4 * x * x * y * y - 4 * d1 * c
            if disc < 0:
                continue
            s = isqrt(disc)
            if s * s != disc:
                continue
            for root in {2 * x * y + s, 2 * x * y - s}:
                if root % (2 * d1):
                    continue
                z = root // (2 * d1)
                if 2 * abs(z) > d2:
                    continue
                if (d2 * d3 - z * z) % four_p:
                    continue
                cand = _candidate(d1, x, d2, y, d3, z, p)
                found[cand.gram] = cand
    return [found[k] for k in sorted(found)]
