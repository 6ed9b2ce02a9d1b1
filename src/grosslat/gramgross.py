"""All candidate normalized Gram matrices for a spine type with given D1.

Reads (x, D2) pairs with D1*D2 - x^2 = 4p and (y, D3) pairs with
D1*D3 - y^2 = 4np, n over the exact window, off one table of the square
roots mod D1 in [0, D1/2], then solves the determinant quadratic for z and
keeps integer roots passing the size and 4p-divisibility checks.  D1 = 3
short-circuits to the closed j = 0 forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .exact import ceil_div, is_prime
from .lattice import det3


class PreconditionError(ValueError):
    pass


@dataclass(frozen=True)
class GramCandidate:
    gram: tuple
    x: int
    d2: int
    y: int
    d3: int
    n: int
    z: int


def _candidate(d1, x, d2, y, d3, z, p):
    gram = ((d1, x, y), (x, d2, z), (y, z, d3))
    n = (d1 * d3 - y * y) // (4 * p)
    return GramCandidate(gram, x, d2, y, d3, n, z)


def _square_roots(d1: int):
    """{r: the t in [0, D1/2] with t^2 = r mod D1}, every square r mod D1."""
    roots = {}
    for t in range(d1 // 2 + 1):
        roots.setdefault(t * t % d1, []).append(t)
    return roots


def quadratic_residue_precheck(p: int, d1: int) -> bool:
    """True iff -4p is a square mod D1; False forces an empty search."""
    if d1 < 4:
        raise PreconditionError("precheck needs D1 >= 4")
    return -4 * p % d1 in _square_roots(d1)


def gram_gross(p: int, d1: int):
    """Candidate Gram matrices of normalized successive minimal bases.

    Requires p prime, D1 > 0 with D1 = 0 or 3 mod 4, and 3*D1^2 <= 16p.
    Returns a sorted, deduplicated list of GramCandidate.
    """
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

    roots = _square_roots(d1)

    def pairs(m):
        # the (t, D) with D1*D - t^2 = m, D >= D1 and D = 0 or 3 mod 4
        tds = [(t, (m + t * t) // d1) for t in roots.get(-m % d1, ())]
        return [(t, d) for t, d in tds if d >= d1 and d % 4 in (0, 3)]

    pairs_x = pairs(4 * p)
    if not pairs_x:
        return []

    a = ceil_div(4 * p * d1 - d1 * d1, 16 * p)
    b = (32 * p * d1 + 49 * d1) // (112 * p)
    pairs_y = [pair for n in range(a, b + 1) for pair in pairs(4 * n * p)]
    found = {}
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
                if 2 * abs(z) > d2 or (d2 * d3 - z * z) % (4 * p):
                    continue
                cand = _candidate(d1, x, d2, y, d3, z, p)
                found[cand.gram] = cand
    return [found[k] for k in sorted(found)]


def candidate_invariant_violations(cand: GramCandidate, p: int):
    """GramCandidate invariant check; returns violated rule names."""
    (d1, x, y), (_, d2, z), (_, _, d3) = cand.gram
    bad = []
    if det3(cand.gram) != 4 * p * p:
        bad.append("det-4p2")
    if d1 * d2 - x * x != 4 * p:
        bad.append("minor12-4p")
    m13 = d1 * d3 - y * y
    if m13 <= 0 or m13 % (4 * p):
        bad.append("minor13-4np")
    m23 = d2 * d3 - z * z
    if m23 <= 0 or m23 % (4 * p):
        bad.append("minor23-4np")
    if not (0 <= x <= d1 // 2 and 0 <= y <= d1 // 2):
        bad.append("xy-range")
    if 2 * abs(z) > d2:
        bad.append("z-range")
    if any(d % 4 not in (0, 3) for d in (d1, d2, d3)):
        bad.append("minima-residues")
    if not d1 <= d2 <= d3:
        bad.append("minima-sorted")
    return bad
