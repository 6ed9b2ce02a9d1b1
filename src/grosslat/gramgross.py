"""All candidate normalized Gram matrices for a spine type with given D1.

Searches (x, D2) pairs with D1*D2 - x^2 = 4p, (y, D3) pairs with
D1*D3 - y^2 = 4np over the exact n-window, then solves the determinant
quadratic for z and keeps integer roots passing the size and 4p-divisibility
checks.  D1 = 3 short-circuits to the closed j = 0 forms.
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


def quadratic_residue_precheck(p: int, d1: int) -> bool:
    """True iff -4p is a square mod D1; False forces an empty search."""
    if d1 < 4:
        raise PreconditionError("precheck needs D1 >= 4")
    target = (-4 * p) % d1
    return any((t * t) % d1 == target for t in range(d1))


def gram_gross(p: int, d1: int):
    """Candidate Gram matrices of normalized successive minimal bases.

    Requires p prime, D1 = 0 or 3 mod 4, and 3*D1^2 <= 16p.  Returns a
    sorted, deduplicated list of GramCandidate.
    """
    if not is_prime(p):
        raise PreconditionError(f"p = {p} is not prime")
    if d1 <= 0 or d1 % 4 not in (0, 3):
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
