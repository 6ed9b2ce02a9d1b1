"""Independent finite-field ground truth for supersingular j-invariants.

There are floor(p/12) + delta + epsilon supersingular j in characteristic p
(Eichler-Deuring), all in F_{p^2} = F_p(s), with s^2 the smallest positive
non-residue.  `supersingular_j_set` finds them, with Python integers only,
as the vertices of the supersingular 2-isogeny graph, which is connected
(Mestre 1986; Pizer, Ramanujan graphs and Hecke operators, 1990):

1. Start at a j known to be supersingular: by Deuring's reduction
   criterion, a root of a Hilbert class polynomial H_d (class number one or
   two) with (-d/p) = -1, so 1728 when p = 3 mod 4 and 0 when p = 2 mod 3.
2. The 2-isogenous j' of a j are the roots of the cubic Phi_2(j, Y).
   Every vertex but the start was reached from a parent, which is a root
   of its cubic since Phi_2 is symmetric: dividing by Y - parent leaves a
   quadratic, solved with one square root in F_{p^2} (two in F_p).  For
   the starts 1728, 0, -3375 and 8000 a root of the cubic is a known
   integer, divided out the same way; only the cubic of any other start is
   split by Cantor-Zassenhaus over F_{p^2}.
3. The breadth-first search stops when no new j appears.  A count other
   than Eichler-Deuring's, a division with a remainder or a quadratic with
   no root in F_{p^2} raises OracleError.

Each of the about p/12 vertices costs one division and one square root.
Every prime below 134447041 has an inert H_d in the table; at a prime with
none, `supersingular_j_set` raises OracleError.  The spine flags and the
Galois orbit count are read off the j set.  The tests check the walk
against the roots of the supersingular polynomial ss_p(j)
(`tests/ss_p_reference.py`).
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass

from .exact import is_prime, legendre


class OracleError(ValueError):
    """A finite-field invariant of the oracle does not hold."""


@dataclass(frozen=True)
class SupersingularSet:
    p: int
    nonresidue: int            # s^2, the smallest non-residue; 0 at p = 2
    js: tuple                  # ((re, im), ...) sorted, im coordinate over s
    spine_count: int
    orbit_count: int

    @property
    def count(self):
        return len(self.js)


def _smallest_nonresidue(p: int) -> int:
    for s in range(2, p):
        if legendre(s, p) == -1:
            return s
    raise OracleError(f"no quadratic non-residue mod {p}")


def _sqrt_mod(t, p, z):
    """A square root of t mod p by Tonelli-Shanks, z a non-residue.

    For a non-residue t the result is not a root; callers check r^2 = t.
    """
    if t == 0:
        return 0
    q, m = p - 1, 0
    while q % 2 == 0:
        q //= 2
        m += 1
    w = pow(t, (q - 1) // 2, p)
    r = t * w % p          # t^((q+1)/2)
    u = r * w % p          # t^q
    if u == 1:
        return r
    c = pow(z, q, p)
    while u != 1:
        i, v = 0, u
        while v != 1:
            v = v * v % p
            i += 1
            if i == m:
                return r
        b = pow(c, 1 << (m - i - 1), p)
        m, c, u, r = i, b * b % p, u * b * b % p, r * b % p
    return r


# Consecutive failed random splits of one factor before giving up; a product
# of two or more factors of the right degree splits with probability >= 1/2.
_SPLIT_TRIES = 64


def _eichler_count(p: int) -> int:
    if p in (2, 3):
        return 1
    eps = {1: 0, 5: 1, 7: 1, 11: 2}[p % 12]
    return p // 12 + eps


# The modular polynomial Phi_2(X, Y) = X^3 + Y^3 - X^2 Y^2
# + 1488 (X^2 Y + X Y^2) - 162000 (X^2 + Y^2) + 40773375 X Y
# + 8748000000 (X + Y) - 157464000000000, as the monic cubic
# Y^3 + c2(X) Y^2 + c1(X) Y + c0(X): the rows are c0, c1, c2, each a
# polynomial in X, constant term first.
_PHI2 = (
    (-157464000000000, 8748000000, -162000, 1),
    (8748000000, 40773375, 1488),
    (-162000, 1488, -1),
)

# Monic Hilbert class polynomials H_d of the imaginary quadratic orders of
# fundamental discriminant -d with class number one or two (all eighteen of
# class number two), as (d, coefficients below the leading 1, constant term
# first, neighbour): H_4 = x - 1728 and H_15 = x^2 + 191025 x - 121287375.
# By Deuring's reduction criterion the roots of H_d mod p are supersingular
# when (-d/p) = -1, and some d of the table has that at every prime below
# 134447041.  The neighbour, or None, is an integer root of Phi_2(j_d, Y)
# for the rational root j_d of H_d: Phi_2(1728, 1728) = Phi_2(0, 54000)
# = Phi_2(-3375, -3375) = Phi_2(8000, 8000) = 0 over Z.
_HILBERT = (
    (4, (-1728,), 1728),
    (3, (0,), 54000),
    (7, (3375,), -3375),
    (8, (-8000,), 8000),
    (11, (32768,), None),
    (19, (884736,), None),
    (43, (884736000,), None),
    (67, (147197952000,), None),
    (163, (262537412640768000,), None),
    (15, (-121287375, 191025), None),
    (20, (-681472000, -1264000), None),
    (24, (14670139392, -4834944), None),
    (35, (-134217728000, 117964800), None),
    (40, (9103145472000, -425692800), None),
    (51, (6262062317568, 5541101568), None),
    (52, (-567663552000000, -6896880000), None),
    (88, (15798135578688000000, -6294842640000), None),
    (91, (-3845689020776448, 10359073013760), None),
    (115, (130231327260672000, 427864611225600), None),
    (123, (148809594175488000000, 1354146840576000), None),
    (148, (-7898242515936467904000000, -39660183801072000), None),
    (187, (-3845689020776448000000, 4545336381788160000), None),
    (232, (14871070713157137145512000000000, -604729957849891344000), None),
    (235, (11946621170462723407872000, 823177419449425920000), None),
    (267, (531429662672621376897024000000, 19683091854079488000000), None),
    (403, (-108844203402491055833088000000, 2452811389229331391979520000),
     None),
    (427, (155041756222618916546936832000000, 15611455512523783919812608000),
     None),
)


class _Fp2:
    """F_{p^2} = F_p(s), s^2 = sigma, on pairs (re, im), and polynomials
    over it as lists of pairs, constant term first."""

    def __init__(self, p, sigma):
        self.p, self.sigma = p, sigma

    def mul(self, a, b):
        p = self.p
        return (
            (a[0] * b[0] + self.sigma * a[1] * b[1]) % p,
            (a[0] * b[1] + a[1] * b[0]) % p,
        )

    def inv(self, a):
        p = self.p
        n = pow((a[0] * a[0] - self.sigma * a[1] * a[1]) % p, -1, p)
        return a[0] * n % p, -a[1] * n % p

    def sqrt(self, x, y):
        """A square root of x + y s, or None when it is not a square.

        From the norm: n^2 = x^2 - sigma y^2, then u^2 = (x +- n)/2 for the
        sign that makes it a residue, and v = y/2u; two square roots in F_p.
        """
        p, sigma = self.p, self.sigma
        if y == 0:
            r = _sqrt_mod(x, p, sigma)
            if r * r % p == x:
                return r, 0
            t = x * pow(sigma, -1, p) % p   # x a non-residue: x = sigma v^2
            r = _sqrt_mod(t, p, sigma)
            return (0, r) if r * r % p == t else None
        norm = (x * x - sigma * y * y) % p
        n = _sqrt_mod(norm, p, sigma)
        if n * n % p != norm:
            return None
        half = (p + 1) // 2
        # (x + n)/2 times (x - n)/2 is sigma (y/2)^2: one of them is a residue
        for t in ((x + n) * half % p, (x - n) * half % p):
            u = _sqrt_mod(t, p, sigma)
            if u * u % p == t:
                return u, y * pow(2 * u, -1, p) % p
        return None

    def quadratic_roots(self, b, c):
        """Both roots of Y^2 + b Y + c, or None when it has none."""
        p = self.p
        bb = self.mul(b, b)
        r = self.sqrt((bb[0] - 4 * c[0]) % p, (bb[1] - 4 * c[1]) % p)
        if r is None:
            return None
        half = (p + 1) // 2
        return [
            ((e * r[0] - b[0]) * half % p, (e * r[1] - b[1]) * half % p)
            for e in (1, -1)
        ]

    def rem(self, a, f):
        """a mod f, trimmed, for a trimmed f != 0."""
        p, n = self.p, len(f) - 1
        a = list(a)
        inv = self.inv(f[-1])
        for i in range(len(a) - 1, n - 1, -1):
            c = self.mul(a[i], inv)
            for k, fk in enumerate(f, i - n):
                t = self.mul(c, fk)
                a[k] = ((a[k][0] - t[0]) % p, (a[k][1] - t[1]) % p)
        del a[n:]
        while a and a[-1] == (0, 0):
            a.pop()
        return a

    def mulmod(self, a, b, f):
        p = self.p
        out = [(0, 0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for k, y in enumerate(b, i):
                t = self.mul(x, y)
                out[k] = ((out[k][0] + t[0]) % p, (out[k][1] + t[1]) % p)
        return self.rem(out, f)

    def deflate(self, f, r):
        """(b, c, rem) with f = (Y - r)(Y^2 + b Y + c) + rem, f a monic cubic."""
        p = self.p
        f0, f1, f2 = f[:3]
        b = ((f2[0] + r[0]) % p, (f2[1] + r[1]) % p)
        t = self.mul(r, b)
        c = ((f1[0] + t[0]) % p, (f1[1] + t[1]) % p)
        t = self.mul(r, c)
        return b, c, ((f0[0] + t[0]) % p, (f0[1] + t[1]) % p)

    def cubic_roots(self, f, rng):
        """The distinct roots of the monic cubic f, which must split.

        Cantor-Zassenhaus over F_q, q = p^2: for a random delta,
        g = gcd(f, (Y + delta)^((q-1)/2) - 1) collects the roots r of f in
        F_q at which r + delta is a nonzero square, so it is a proper factor
        with probability at least about 1/2 when f splits.  A root of g
        deflates f to a quadratic.
        """
        p = self.p
        for _ in range(_SPLIT_TRIES):
            delta = [(rng.randrange(p), rng.randrange(p)), (1, 0)]
            h = [(1, 0)]
            for bit in bin((p * p - 1) // 2)[2:]:
                h = self.mulmod(h, h, f)
                if bit == "1":
                    h = self.mulmod(h, delta, f)
            h = h or [(0, 0)]
            h[0] = ((h[0][0] - 1) % p, h[0][1])
            g, h = f, self.rem(h, f)
            while h:
                g, h = h, self.rem(g, h)
            if not 2 <= len(g) <= 3:
                continue
            inv = self.inv(g[-1])
            if len(g) == 2:
                r = self.mul(g[0], inv)
                roots = [(-r[0] % p, -r[1] % p)]
            else:
                roots = self.quadratic_roots(self.mul(g[1], inv), self.mul(g[0], inv))
            if roots is None:
                break
            b, c, _ = self.deflate(f, roots[0])
            rest = self.quadratic_roots(b, c)
            if rest is None:
                break
            return {roots[0], *rest}
        raise OracleError(f"Phi_2(j, Y) does not split over F_(p^2) at p={p}")


def _start(p: int, field: _Fp2):
    """(j, neighbour): a certified supersingular j, a root of the first H_d
    with (-d/p) = -1, and the table's root of Phi_2(j, Y) mod p or None; or
    None when no H_d of the table qualifies."""
    for d, coeffs, neighbour in _HILBERT:
        if legendre(-d, p) != -1:
            continue
        if neighbour is not None:
            neighbour = neighbour % p, 0
        if len(coeffs) == 1:
            return (-coeffs[0] % p, 0), neighbour
        c, b = coeffs
        # a quadratic over F_p has its roots in F_(p^2)
        return field.quadratic_roots((b % p, 0), (c % p, 0))[0], neighbour
    return None


def _walk(p: int, field: _Fp2, seed, expected: int):
    """The j connected to the start in the 2-isogeny graph, breadth first.

    `seed` is the (start, neighbour) of `_start`.  Phi_2 is symmetric, so a
    vertex's parent is a root of its cubic Phi_2(j, Y); dividing by
    Y - parent leaves a quadratic for the other two neighbours.  A listed
    neighbour is the start's parent in that sense: the start's cubic is
    divided by Y - neighbour like any other.  Only the cubic of a start
    with no listed neighbour is split by Cantor-Zassenhaus.  Raises
    OracleError if a division leaves a remainder, a quadratic has no root
    in F_{p^2}, or the walk passes `expected` vertices.
    """
    start, neighbour = seed
    sigma = field.sigma
    (a00, a01, a02, a03), (a10, a11, a12), (a20, a21, a22) = (
        [c % p for c in row] for row in _PHI2
    )

    def cubic(j):
        """Phi_2(j, Y) as its coefficients (c0, c1, c2, 1) over F_p(s)."""
        x, y = j
        x2, y2 = (x * x + sigma * y * y) % p, 2 * x * y % p
        x3, y3 = x2 * x + sigma * y2 * y, x2 * y + y2 * x
        return (
            ((a00 + a01 * x + a02 * x2 + a03 * x3) % p,
             (a01 * y + a02 * y2 + a03 * y3) % p),
            ((a10 + a11 * x + a12 * x2) % p, (a11 * y + a12 * y2) % p),
            ((a20 + a21 * x + a22 * x2) % p, (a21 * y + a22 * y2) % p),
            (1, 0),
        )

    seen = {start}
    todo = deque()
    if neighbour is None:
        for r in field.cubic_roots(cubic(start), random.Random(p)):
            if r not in seen:
                seen.add(r)
                todo.append((r, start))
    else:
        todo.append((start, neighbour))
        if neighbour != start:
            seen.add(neighbour)
            todo.append((neighbour, start))
    while todo:
        j, parent = todo.popleft()
        b, c, rem = field.deflate(cubic(j), parent)
        if rem != (0, 0):
            raise OracleError(f"Phi_2(j, parent) != 0 at j = {j}, p={p}")
        roots = field.quadratic_roots(b, c)
        if roots is None:
            raise OracleError(
                f"Phi_2(j, Y) does not split over F_(p^2) at j = {j}, p={p}"
            )
        for r in roots:
            if r not in seen:
                seen.add(r)
                todo.append((r, j))
        if len(seen) > expected:
            raise OracleError(
                f"the walk from {start} passes the Eichler-Deuring count "
                f"{expected} at p={p}"
            )
    return seen


def supersingular_j_set(p: int) -> SupersingularSet:
    """Supersingular j-invariants over F_{p^2} with field-of-definition flags.

    The j are the vertices of the 2-isogeny graph walked from a root of a
    Hilbert class polynomial (`_walk`).  Raises OracleError at a prime where
    no H_d of the table is inert, the first being 134447041.
    """
    if p == 2:
        return SupersingularSet(2, 0, ((0, 0),), 1, 1)
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    sigma = _smallest_nonresidue(p)
    expected = _eichler_count(p)
    field = _Fp2(p, sigma)
    seed = _start(p, field)
    if seed is None:
        raise OracleError(
            f"no Hilbert class polynomial of the table is inert at p={p}"
        )
    js = tuple(sorted(_walk(p, field, seed, expected)))
    total = len(js)
    if total != expected:
        raise OracleError(f"count {total} != Eichler-Deuring {expected} at p={p}")
    spine = sum(1 for _, im in js if im == 0)
    if (total - spine) % 2:
        raise OracleError(f"odd number {total - spine} of j outside F_p at p={p}")
    orbit = spine + (total - spine) // 2
    return SupersingularSet(p, sigma, js, spine, orbit)


def spine_count(p: int) -> int:
    return supersingular_j_set(p).spine_count
