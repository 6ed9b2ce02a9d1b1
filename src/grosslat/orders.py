"""Maximal orders of B_p and their isomorphism types.

Orders are rank-4 row lattices over (1, i, j, k), stored as an HNF integer
matrix plus a common positive denominator; this module builds the one order
type enumeration needs, the standard maximal order of B_p, from an explicit
basis for each residue class of p (Pizer 1980, Prop. 5.2), so no quaternion
product is ever taken.  The Gross lattice of O is the Gross-Lucianovic
ternary form of O, so the ell-neighbours of maximal orders are the Kneser
ell-neighbours of their Gross lattices (Birch 1991; Greenberg-Voight
2014).  Type enumeration therefore walks Gross Grams alone, through the
ell-neighbours of their half forms (`lattice.half_form`,
`lattice.kneser_neighbours`), and deduplicates by the successive minima
triple, a complete isomorphism invariant.  By
Gross-Lucianovic every positive form of half-discriminant p is the form of a
maximal order of B_p, so the checks on each neighbour Gram stand in for
validating a maximal order.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

from .exact import canonical_lattice, det, is_perfect_square, is_prime, legendre
from .lattice import adj3, gross_lattice, half_form, kneser_neighbours, minimal_basis
from .quat import QuaternionAlgebra, conj4, inner4


class OrderError(ValueError):
    pass


@dataclass(frozen=True)
class QuaternionOrder:
    algebra: QuaternionAlgebra
    mat: tuple    # 4x4 HNF rows over (1, i, j, k)
    den: int

    @classmethod
    def from_generators(cls, algebra, rows, den):
        mat, den = canonical_lattice(rows, den)
        if len(mat) != 4:
            raise OrderError("generators do not span a rank-4 lattice")
        return cls(algebra, mat, den)


def reduced_discriminant(order: QuaternionOrder) -> int:
    """Positive square root of |det(trd(e_i e_j))| over the Z-basis."""
    a, b = order.algebra.a, order.algebra.b
    rows = order.mat
    s = [[inner4(u, conj4(v), a, b) for v in rows] for u in rows]
    tdet, rem = divmod(16 * det(s), order.den ** 8)
    if rem:
        raise OrderError("trace pairing determinant is not an integer")
    val = abs(tdet)
    if not is_perfect_square(val):
        raise OrderError("trace pairing determinant is not a perfect square")
    return isqrt(val)


def standard_maximal_order(p: int) -> QuaternionOrder:
    """A maximal order of B_p with reduced discriminant p, by explicit basis.

    Z-generators per residue class of p (Pizer 1980, Prop. 5.2):

    - p = 2: 1, i, j, (1+i+j+k)/2 in (-1, -1), the Hurwitz order;
    - p = 3 mod 4: 1, i, (1+j)/2, (i+k)/2 in (-1, -p);
    - p = 1 mod 4: 1, (1+i)/2, (j-k)/2, (i-ck)/q, k in (-q, -p), where q
      is the least prime q = 3 mod 4 with (p|q) = -1 and c the least
      c >= 0 with q | c^2 p + 1.

    The reduced discriminant is checked to be p.
    """
    if not is_prime(p):
        raise OrderError(f"{p} is not prime")
    if p == 2:
        alg = QuaternionAlgebra(-1, -1, 2)
        rows = [(2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (1, 1, 1, 1)]
        den = 2
    elif p % 4 == 3:
        alg = QuaternionAlgebra(-1, -p, p)
        rows = [(2, 0, 0, 0), (0, 2, 0, 0), (1, 0, 1, 0), (0, 1, 0, 1)]
        den = 2
    else:
        q = 3
        while not (is_prime(q) and legendre(p, q) == -1):
            q += 4
        c = 0
        while (c * c * p + 1) % q:
            c += 1
        alg = QuaternionAlgebra(-q, -p, p)
        rows = [
            (2 * q, 0, 0, 0), (q, q, 0, 0), (0, 0, q, -q),
            (0, 2, 0, -2 * c), (0, 0, 0, 2 * q),
        ]
        den = 2 * q
    order = QuaternionOrder.from_generators(alg, rows, den)
    d = reduced_discriminant(order)
    if d != p:
        raise OrderError(f"standard order has discriminant {d}, expected {p}")
    return order


@dataclass(frozen=True)
class TypeRecord:
    walk_gram: tuple   # Gross Gram the walk reached the type with
    minima: tuple
    gram: tuple        # normalized minimal-basis Gram
    basis: tuple       # minimal basis rows, coordinates w.r.t. walk_gram


@lru_cache(maxsize=256)
def enumerate_types(p: int, ell: int = 2):
    """All isomorphism types of maximal orders in B_p, sorted by minima.

    Breadth-first search over ell-neighbours seeded by the Gross Gram of the
    standard maximal order; a node whose Gross minima triple was already
    seen is discarded (the triple characterizes the type).  The nodes are
    Gross Grams G, and the neighbours of G are the adjugates of the Kneser
    ell-neighbours of its half form adj(G) / 2p.  Results are cached and
    must be treated as read-only.
    """
    if not is_prime(p):
        raise OrderError(f"{p} is not prime")
    if not is_prime(ell) or ell == p:
        raise OrderError("ell must be a prime different from p")
    queue = deque([gross_lattice(standard_maximal_order(p)).gram])
    seen = set()
    records = []
    while queue:
        walk_gram = queue.popleft()
        mb = minimal_basis(walk_gram)
        if mb.minima in seen:
            continue
        seen.add(mb.minima)
        records.append(
            TypeRecord(walk_gram, tuple(mb.minima), mb.gram, mb.coords)
        )
        # from the reduced Gram, so entries do not grow along the walk
        queue.extend(
            adj3(m) for m in kneser_neighbours(half_form(mb.gram, p), ell)
        )
    records.sort(key=lambda r: r.minima)
    return tuple(records)
