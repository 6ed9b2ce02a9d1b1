"""Maximal orders of B_p, their Gross lattices and their isomorphism types.

Orders are rank-4 row lattices over (1, i, j, k), stored as an HNF integer
matrix plus a common positive denominator.  This module builds maximal
orders of B_p from explicit bases (Pizer 1980, Prop. 5.2), so no quaternion
product is ever taken.  `pizer_maximal_order(q, p)` is Pizer's order of
(-q, -p) for a prime q = 3 mod 4 inert at p, and contains the maximal order
of Q(sqrt(-q)); it is `standard_maximal_order` at every p = 1 mod 4, and
`cm` reads the type embedding -q off its Gross Gram, which
`pizer_gross_gram` writes down in closed form.  Type enumeration is seeded
by `standard_gross_gram`, the Gross Gram of the standard maximal order in
closed form at every p, so a walk builds no order and no HNF.  The
Gross lattice of O, the image of O under x -> 2x - trd(x) with the reduced
norm, carries the discriminant of O as det G = 4 discrd(O)^2, so
`reduced_discriminant` reads it from the Gram G.

The Gross lattice of O is the Gross-Lucianovic ternary form of O, so the
ell-neighbours of maximal orders are the Kneser ell-neighbours of their
Gross lattices (Birch 1991; Greenberg-Voight 2014).  Type enumeration
therefore walks Gross Grams alone, through the ell-neighbours of their half
forms (`lattice.gross_neighbours`, one step over `lattice.half_form` and the
Kneser arithmetic of `lattice.kneser_neighbours`), and deduplicates
by the successive minima triple, a complete isomorphism invariant, read off
the diagonal of the greedy-reduced Gram.  By
Gross-Lucianovic every positive form of half-discriminant p is the form of a
maximal order of B_p, so the checks on each neighbour Gram stand in for
validating a maximal order.

Every type but the seed is reached from a parent, and one of its ell + 1
neighbours is that parent again: if L' = L_v + Z v/ell, then L is the
ell-neighbour of L' along the line of ell e_t (Greenberg-Voight 2014, sec. 2).
`gross_neighbours` hands each neighbour over with that reverse line, and the
walk skips it when it expands the neighbour, so the parent's edge is known
with no Gram and no reduction.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import isqrt

from .exact import canonical_lattice, is_perfect_square, is_prime, legendre
from .lattice import (
    LatticeError, det3, greedy_reduce, gross_neighbours, line_in_basis,
    minimal_basis,
)
from .quat import QuaternionAlgebra, inner4


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


@dataclass(frozen=True)
class GrossLattice:
    algebra: QuaternionAlgebra
    mat: tuple        # 3x3 integer rows, coordinates over (i, j, k), HNF
    den: int
    gram: tuple       # 3x3 integer Gram matrix of mat/den


def _gross_image(order: QuaternionOrder):
    """Unchecked (mat, den, nums): image rows mat/den, Gram nums/den^2."""
    a, b = order.algebra.a, order.algebra.b
    rows = [(2 * r[1], 2 * r[2], 2 * r[3]) for r in order.mat]
    mat, den = canonical_lattice(rows, order.den)
    nums = tuple(
        tuple(inner4((0,) + u, (0,) + v, a, b) for v in mat) for u in mat
    )
    return mat, den, nums


def gross_lattice(order: QuaternionOrder) -> GrossLattice:
    """Apply x -> 2x - trd(x) to an order basis and HNF the rank-3 image.

    Raises LatticeError unless the image has rank 3, an integral Gram and
    det 4p^2, the Gross Gram of a maximal order of B_p.
    """
    mat, den, nums = _gross_image(order)
    if len(mat) != 3:
        raise LatticeError("trace-zero image does not have rank 3")
    d2 = den * den
    if any(x % d2 for row in nums for x in row):
        raise LatticeError("non-integer Gram entry: input is not an order")
    gram = tuple(tuple(x // d2 for x in row) for row in nums)
    d = det3(gram)
    p = order.algebra.p
    if d != 4 * p * p:
        raise LatticeError(f"det(gram) = {d}, expected 4p^2 = {4 * p * p}")
    return GrossLattice(order.algebra, mat, den, gram)


def reduced_discriminant(order: QuaternionOrder) -> int:
    """discrd(O), the positive root of det G / 4 for the Gross Gram G of O.

    Over a basis 1, e_1, e_2, e_3 of O the trace form trd(x y) splits as
    2 (+) -2 B(f_i, f_j), f_i = e_i - trd(e_i)/2, and G = 4 B(f_i, f_j), so
    discrd(O)^2 = |det trd(x y)| = det G / 4.
    """
    _, den, nums = _gross_image(order)
    val, rem = divmod(det3(nums), 4 * den ** 6)
    if rem:
        raise OrderError("Gross Gram determinant / 4 is not an integer")
    if not is_perfect_square(val):
        raise OrderError("Gross Gram determinant / 4 is not a perfect square")
    return isqrt(val)


def _checked_maximal(order: QuaternionOrder) -> QuaternionOrder:
    """`order` itself, after checking its reduced discriminant is p."""
    p = order.algebra.p
    d = reduced_discriminant(order)
    if d != p:
        raise OrderError(f"explicit order has discriminant {d}, expected {p}")
    return order


def _pizer_c(q: int, p: int) -> int:
    """The least c >= 0 with q | c^2 p + 1, for the q of Pizer's order of
    (-q, -p); OrderError unless p is prime and q is a prime q = 3 mod 4 with
    (p|q) = -1."""
    if not is_prime(p):
        raise OrderError(f"{p} is not prime")
    if not (is_prime(q) and q % 4 == 3 and legendre(p, q) == -1):
        raise OrderError(f"q = {q} is not a prime 3 mod 4 with ({p}|q) = -1")
    c = 0
    while (c * c * p + 1) % q:
        c += 1
    return c


def pizer_maximal_order(q: int, p: int) -> QuaternionOrder:
    """Pizer's maximal order 1, (1+i)/2, (j-k)/2, (i-ck)/q, k of (-q, -p).

    q is a prime q = 3 mod 4 with (p|q) = -1 and c the least c >= 0 with
    q | c^2 p + 1 (Pizer 1980, Prop. 5.2).  By reciprocity (p|q) = (-q|p),
    so p is inert in Q(sqrt(-q)), and the order contains (1+i)/2, a root of
    x^2 - x + (1+q)/4, hence the maximal order of Q(sqrt(-q)).
    `standard_maximal_order` is this order at every p = 1 mod 4;
    `pizer_gross_gram` is its Gross Gram in closed form.  Raises OrderError
    for any other q, and unless the reduced discriminant is p, which for an
    order of (-q, -p) shows the algebra is B_p.
    """
    c = _pizer_c(q, p)
    rows = [
        (2 * q, 0, 0, 0), (q, q, 0, 0), (0, 0, q, -q),
        (0, 2, 0, -2 * c), (0, 0, 0, 2 * q),
    ]
    alg = QuaternionAlgebra(-q, -p, p)
    return _checked_maximal(QuaternionOrder.from_generators(alg, rows, 2 * q))


def pizer_gross_gram(q: int, p: int):
    """The Gross Gram of `pizer_maximal_order(q, p)`, in closed form.

    The trace-zero image of Pizer's basis has the HNF basis (i + t k)/q,
    j + k, 2k, with t = -(q+1) c mod 2q, and i, j, k have norms q, p, qp, so

        G = ((1+pt^2)/q, pt, 2pt), (pt, p(q+1), 2pq), (2pt, 2pq, 4pq).

    No order and no HNF is built: `cm.locate_embedding_type` reads the type
    embedding -q off G at any odd inert p, and the vector (q, 0, -t/2) of
    this basis is i.  Raises OrderError for the q that `pizer_maximal_order`
    rejects, unless q | 1 + pt^2, and unless det G = 4p^2.
    """
    c = _pizer_c(q, p)
    t = -(q + 1) * c % (2 * q)
    n, rem = divmod(1 + p * t * t, q)
    if rem:
        raise OrderError(f"q = {q} does not divide 1 + p t^2 for t = {t}")
    pt = p * t
    gram = (
        (n, pt, 2 * pt),
        (pt, p * (q + 1), 2 * p * q),
        (2 * pt, 2 * p * q, 4 * p * q),
    )
    if det3(gram) != 4 * p * p:
        raise OrderError(f"det of Pizer's Gross Gram is {det3(gram)}, expected 4p^2")
    return gram


def _standard_q(p: int) -> int:
    """The least prime q = 3 mod 4 with (p|q) = -1, for a prime p = 1 mod 4."""
    q = 3
    while not (is_prime(q) and legendre(p, q) == -1):
        q += 4
    return q


def standard_maximal_order(p: int) -> QuaternionOrder:
    """A maximal order of B_p with reduced discriminant p, by explicit basis.

    Z-generators per residue class of p (Pizer 1980, Prop. 5.2):

    - p = 2: 1, i, j, (1+i+j+k)/2 in (-1, -1), the Hurwitz order;
    - p = 3 mod 4: 1, i, (1+j)/2, (i+k)/2 in (-1, -p);
    - p = 1 mod 4: `pizer_maximal_order(q, p)`, where q is the least prime
      q = 3 mod 4 with (p|q) = -1.

    The reduced discriminant is checked to be p.
    """
    if not is_prime(p):
        raise OrderError(f"{p} is not prime")
    if p % 4 == 1:
        return pizer_maximal_order(_standard_q(p), p)
    if p == 2:
        alg = QuaternionAlgebra(-1, -1, 2)
        rows = [(2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (1, 1, 1, 1)]
    else:
        alg = QuaternionAlgebra(-1, -p, p)
        rows = [(2, 0, 0, 0), (0, 2, 0, 0), (1, 0, 1, 0), (0, 1, 0, 1)]
    return _checked_maximal(QuaternionOrder.from_generators(alg, rows, 2))


def standard_gross_gram(p: int):
    """The Gross Gram of `standard_maximal_order(p)`, in closed form.

    - p = 2: ((3, 2, 2), (2, 4, 0), (2, 0, 4)), from the Hurwitz order;
    - p = 3 mod 4: ((p+1, 0, 2p), (0, p, 0), (2p, 0, 4p)), the Gram of
      the HNF basis i + k, j, 2k of the image of 1, i, (1+j)/2, (i+k)/2
      in (-1, -p);
    - p = 1 mod 4: `pizer_gross_gram(q, p)` for the q of the order.

    Entry for entry the Gram `gross_lattice` reads off that order's HNF
    image, with no order and no HNF built.  Raises OrderError unless p is
    prime and det G = 4p^2.
    """
    if not is_prime(p):
        raise OrderError(f"{p} is not prime")
    if p % 4 == 1:
        return pizer_gross_gram(_standard_q(p), p)
    if p == 2:
        gram = ((3, 2, 2), (2, 4, 0), (2, 0, 4))
    else:
        gram = ((p + 1, 0, 2 * p), (0, p, 0), (2 * p, 0, 4 * p))
    if det3(gram) != 4 * p * p:
        raise OrderError(
            f"det of the standard Gross Gram is {det3(gram)}, expected 4p^2"
        )
    return gram


@dataclass(frozen=True)
class TypeRecord:
    """A type's successive minima and the Gram of its normalized successive
    minimal basis, which determines the type (Gross-Lucianovic)."""

    minima: tuple
    gram: tuple        # normalized minimal-basis Gram


def default_ell(p: int) -> int:
    """The walk prime of `types`, `verify` and `cm`: 2, or 3 at p = 2."""
    return 3 if p == 2 else 2


def enumerate_types(p: int, ell: int, keys_only: bool = False):
    """All isomorphism types of maximal orders in B_p, sorted by minima.

    Breadth-first search over ell-neighbours seeded by the Gross Gram of the
    standard maximal order, written down by `standard_gross_gram` with no
    order built.  The nodes are Gross Grams G, and the neighbours of G are
    the adjugates of the Kneser ell-neighbours of its half form adj(G) / 2p,
    from `lattice.gross_neighbours`.  A node is keyed by the diagonal of its
    greedy-reduced Gram, which in dimension 3 is its successive minima
    triple (see `lattice.greedy_reduce`), a complete type invariant, and is
    discarded when that key was already seen.  Only a new key pays for a minimal
    basis, from the key's own reduction (`minimal_basis` with `reduced`),
    which checks that its diagonal is the minima (LatticeError otherwise).
    The record keeps the key and that basis's Gram; the Gram the walk
    reached the type with and the basis coordinates are not kept.

    A queued neighbour carries its reverse line, the line of its half form
    whose neighbour is the Gram it was reached from (see the module
    docstring).  A new key expands from U G U^T, not from G, with U the
    minimal basis's coordinates or the greedy `u`; its half form is
    U^-T adj(G) U^-1 / 2p, so the line y becomes y U^T there
    (`lattice.line_in_basis`), and `gross_neighbours` skips it.  The skipped
    neighbour has the parent's key, which is already seen, so the walk pops
    the same new keys with the same Grams in the same order as without the
    skip, and drops only the pops that would have been discarded.

    With `keys_only` the walk returns the sorted keys alone and builds no
    minimal basis: a new key's neighbours come from its greedy-reduced Gram,
    an isometric Gram of the same type, so the same keys are reached.
    `gross_neighbours` and `greedy_reduce` raise as before,
    but no key is certified to be the minima, which is the row-by-row check
    inside `minimal_basis`.  `verify` walks this way at ell = 3 only, where
    `ell-independence` compares the keys with the certified minima of the
    ell = 2 records.
    """
    if not is_prime(p):
        raise OrderError(f"{p} is not prime")
    if not is_prime(ell) or ell == p:
        raise OrderError("ell must be a prime different from p")
    queue = deque([(standard_gross_gram(p), None)])
    seen = set()
    records = []
    while queue:
        walk_gram, back = queue.popleft()
        u, g = greedy_reduce(walk_gram)
        key = (g[0][0], g[1][1], g[2][2])
        if key in seen:
            continue
        seen.add(key)
        if not keys_only:
            mb = minimal_basis(walk_gram, reduced=(u, g))
            records.append(TypeRecord(key, mb.gram))
            u, g = mb.coords, mb.gram
        if back is not None:
            back = line_in_basis(back, u, ell)
        # from a reduced Gram, so entries do not grow along the walk
        queue.extend(gross_neighbours(g, p, ell, back))
    if keys_only:
        return tuple(sorted(seen))
    records.sort(key=lambda r: r.minima)
    return tuple(records)
