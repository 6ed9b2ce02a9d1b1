"""Maximal orders of B_p and their isomorphism types.

Orders are rank-4 row lattices over (1, i, j, k), stored as an HNF integer
matrix plus a common positive denominator; this module builds the one order
type enumeration needs, the standard maximal order of B_p.  The Gross
lattice of O is the Gross-Lucianovic ternary form of O, so the ell-neighbours
of maximal orders are the Kneser ell-neighbours of their Gross lattices
(Birch 1991; Greenberg-Voight 2014).  Type enumeration therefore walks Gross
Grams alone, through the ell-neighbours of their half forms
(`lattice.half_form`, `lattice.kneser_neighbours`), and deduplicates by the
successive minima triple, a complete isomorphism invariant.  By
Gross-Lucianovic every positive form of half-discriminant p is the form of a
maximal order of B_p, so the checks on each neighbour Gram stand in for
validating a maximal order.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import gcd, isqrt

from .exact import (
    canonical_lattice,
    det,
    factorize,
    hnf_solve,
    is_perfect_square,
    is_prime,
    legendre,
)
from .lattice import adj3, gross_lattice, half_form, kneser_neighbours, minimal_basis
from .quat import QuaternionAlgebra, conj4, inner4, mul4, nrd4


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

    def contains_vec(self, vec, vden: int) -> bool:
        scaled = []
        for x in vec:
            num = x * self.den
            if num % vden:
                return False
            scaled.append(num // vden)
        return hnf_solve(self.mat, scaled) is not None

    def is_ring(self) -> bool:
        """1 in the lattice, basis integral, closed under multiplication."""
        a, b = self.algebra.a, self.algebra.b
        d2 = self.den * self.den
        if hnf_solve(self.mat, (self.den, 0, 0, 0)) is None:
            return False
        for row in self.mat:
            if (2 * row[0]) % self.den or nrd4(row, a, b) % d2:
                return False
        for u in self.mat:
            for v in self.mat:
                if not self.contains_vec(mul4(u, v, a, b), d2):
                    return False
        return True


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


def _quaternion_algebra_for(p: int) -> QuaternionAlgebra:
    if p == 2:
        return QuaternionAlgebra(-1, -1, 2)
    if p % 4 == 3:
        return QuaternionAlgebra(-1, -p, p)
    if p % 3 == 2:
        return QuaternionAlgebra(-3, -p, p)
    q = 3
    while True:
        if q % 4 == 3 and is_prime(q) and legendre(p, q) == -1:
            break
        q += 2
    return QuaternionAlgebra(-q, -p, p)


def standard_maximal_order(p: int) -> QuaternionOrder:
    """A maximal order of B_p with reduced discriminant p.

    p = 2 uses the Hurwitz order; p = 3 mod 4 and p = 2 mod 3 use the
    explicit Ibukiyama-style bases; p = 1 mod 12 saturates <1,i,j,k> inside
    (-q, -p) for the least prime q = 3 mod 4 with (p|q) = -1.
    """
    if not is_prime(p):
        raise OrderError(f"{p} is not prime")
    alg = _quaternion_algebra_for(p)
    if p == 2:
        rows = [(2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (1, 1, 1, 1)]
        order = QuaternionOrder.from_generators(alg, rows, 2)
    elif p % 4 == 3:
        rows = [(2, 0, 0, 0), (0, 2, 0, 0), (1, 0, 1, 0), (0, 1, 0, 1)]
        order = QuaternionOrder.from_generators(alg, rows, 2)
    elif p % 3 == 2:
        rows = [(6, 0, 0, 0), (3, 3, 0, 0), (0, 0, 3, -3), (0, 2, 0, -2)]
        order = QuaternionOrder.from_generators(alg, rows, 6)
    else:
        seed = QuaternionOrder.from_generators(
            alg, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)], 1
        )
        order = saturate_to_maximal(seed)
    d = reduced_discriminant(order)
    if d != p:
        raise OrderError(f"standard order has discriminant {d}, expected {p}")
    return order


def _enlarge_once(order: QuaternionOrder, ell: int):
    """Search x = (sum a_l e_l)/ell joining which gives a superorder."""
    a, b = order.algebra.a, order.algebra.b
    rows = order.mat
    den = order.den
    dl = den * ell
    dl2 = dl * dl
    # trd(e_l) is integral, so the trace condition on x is linear mod ell
    s = [(2 * row[0]) // den for row in rows]
    for a1, a2, a3 in product(range(ell), repeat=3):
        rhs = -(a1 * s[1] + a2 * s[2] + a3 * s[3]) % ell
        g = gcd(s[0], ell)
        if rhs % g:
            continue
        if g == ell:
            a0_choices = range(ell)
        else:
            a0_choices = (rhs * pow(s[0], -1, ell) % ell,)
        for a0 in a0_choices:
            if not (a0 or a1 or a2 or a3):
                continue
            v = tuple(
                a0 * rows[0][t] + a1 * rows[1][t] + a2 * rows[2][t] + a3 * rows[3][t]
                for t in range(4)
            )
            if (2 * v[0]) % dl or nrd4(v, a, b) % dl2:
                continue
            if order.contains_vec(v, dl):
                continue
            gens = [tuple(ell * x for x in row) for row in rows]
            gens.append(v)
            try:
                cand = QuaternionOrder.from_generators(order.algebra, gens, dl)
            except OrderError:
                continue
            if cand.is_ring():
                return cand
    return None


def saturate_to_maximal(order: QuaternionOrder) -> QuaternionOrder:
    """Grow an order until its reduced discriminant equals the ramified prime."""
    p = order.algebra.p
    current = order
    while True:
        d = reduced_discriminant(current)
        if d == p:
            return current
        if d % p:
            raise OrderError("discriminant not divisible by p: wrong presentation")
        found = None
        for ell in sorted(set(factorize(2 * (d // p)))):
            found = _enlarge_once(current, ell)
            if found is not None:
                break
        if found is None:
            raise OrderError("saturation stalled: wrong algebra presentation")
        current = found


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
