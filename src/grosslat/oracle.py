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
Below 10^6 only p = 620929 and 832129 have no inert H_d in the table; there
the j are found as the roots of the supersingular polynomial ss_p(j),
monic and separable of the same degree.
Kaneko and Zagier (Supersingular j-invariants, hypergeometric series, and
Atkin's orthogonal polynomials, 1998) give it mod p as a truncated
hypergeometric series: for p - 1 = 12n + 4 delta + 6 epsilon with delta,
epsilon in {0, 1},

    ss_p(j) = j^delta (j - 1728)^epsilon sum_{i <= n} c_i j^(n-i),

where sum c_i j^(n-i) is j^n 2F1(a/12, b/12; 1; 1728/j) truncated at
degree n, with (a, b) = (1, 5) for p = 1 mod 4 and (7, 11) for p = 3 mod 4.
ss_p splits over F_p into linear factors (j in F_p) and irreducible
quadratics (conjugate pairs), and its roots are found exactly:

1. x^p mod ss_p by repeated squaring; gcd(ss_p, x^p - x) collects the
   linear factors and the cofactor is the product of the quadratics.
2. Both parts are split by Cantor-Zassenhaus equal-degree factorisation,
   seeded per prime, down to factors of degree <= 2.  A quadratic factor
   with root a is split off by ((x+d)(x^p+d))^((p-1)/2), which takes the
   value chi(N(a+d)) = +-1 at both a and its conjugate; a product of two
   quadratics is split by the traces of their roots instead.
3. Each factor of degree 2 is solved with a square root in F_p.

Products of residues use Kronecker substitution (coefficients packed into
one integer) and are reduced by a precomputed Newton inverse of the
reversed modulus; gcds take Euclidean steps in blocks (Lehmer).  This
route grows as about p^1.7.  The spine flags and the Galois orbit count
are read off the j set.
"""

from __future__ import annotations

import random
import sys
from array import array
from collections import deque
from dataclasses import dataclass
from math import isqrt

from .exact import is_prime, legendre


class OracleError(ValueError):
    """A finite-field invariant of the oracle does not hold."""


@dataclass(frozen=True)
class SupersingularSet:
    p: int
    nonresidue: int            # s^2, or 0 when every j lies in F_p
    js: tuple                  # ((re, im), ...) sorted, im coordinate over s
    spine_count: int
    orbit_count: int

    @property
    def count(self):
        return len(self.js)


def supersingular_polynomial(p: int):
    """Coefficients of the monic ss_p(j) mod p, constant term first.

    Kaneko-Zagier's truncated series (see the module docstring), with
    c_0 = 1 and c_i = c_(i-1) 12 (12i - 12 + a)(12i - 12 + b) / i^2, for
    p >= 5; ss_3(j) = j, as 1728 = 0 mod 3.
    """
    if p < 3 or not is_prime(p):
        raise ValueError("need an odd prime")
    if p == 3:
        return [0, 1]
    delta, eps = {1: (0, 0), 5: (1, 0), 7: (0, 1), 11: (1, 1)}[p % 12]
    n = (p - 1 - 4 * delta - 6 * eps) // 12
    a, b = (1, 5) if p % 4 == 1 else (7, 11)
    coeffs = [1]  # c_0, c_1, ..., c_n: the coefficients of j^n down to j^0
    for i in range(1, n + 1):
        num = 12 * (12 * i - 12 + a) * (12 * i - 12 + b)
        coeffs.append(coeffs[-1] * num * pow(i * i, -1, p) % p)
    coeffs.reverse()
    if delta:
        coeffs.insert(0, 0)
    if eps:
        # times (j - 1728)
        coeffs = [
            (lo - 1728 * hi) % p for lo, hi in zip([0] + coeffs, coeffs + [0])
        ]
    return coeffs


def _smallest_nonresidue(p: int) -> int:
    for s in range(2, p):
        if legendre(s, p) == -1:
            return s
    raise OracleError(f"no quadratic non-residue mod {p}")


# Polynomials over F_p are coefficient lists, constant term first, with
# coefficients in [0, p).  Moduli are monic; results are trimmed unless a
# docstring says otherwise.

def _trim(a):
    while a and not a[-1]:
        a.pop()
    return a


def _add_const(a, c, p):
    a = list(a) or [0]
    a[0] = (a[0] + c) % p
    return a


def _mul_plain(a, b):
    """Schoolbook product, coefficients not reduced or trimmed."""
    lb = len(b)
    out = [0] * (len(a) + lb - 1)
    for i, x in enumerate(a):
        if x:
            out[i:i + lb] = [u + x * y for u, y in zip(out[i:i + lb], b)]
    return out


def _divmod(a, f, p):
    """(quotient, remainder) of a by f != 0, by long division."""
    a = [c % p for c in a]
    n = len(f) - 1
    low = f[:n]
    inv = pow(f[-1], -1, p)
    q = [0] * max(len(a) - n, 0)
    for i in range(len(a) - 1, n - 1, -1):
        c = a[i] * inv % p
        if c:
            q[i - n] = c
            a[i - n:i] = [(x - c * y) % p for x, y in zip(a[i - n:i], low)]
    return q, _trim(a[:n])


# Kronecker substitution: a coefficient list becomes one integer with a
# fixed-width slot per coefficient, wide enough that no slot of a product
# carries into the next.  Native 4- and 8-byte slots pack and unpack through
# `array` at C speed; wider slots (p > 2^20) go through `int.to_bytes`.
_NATIVE = {
    w: code for w, code in ((4, "I"), (8, "Q"))
    if sys.byteorder == "little" and array(code).itemsize == w
}

# Below this degree schoolbook arithmetic beats packing.
_PLAIN_DEGREE = 4


def _slot_width(bound):
    """Bytes per slot for slot values below `bound`."""
    for w in (4, 8):
        if bound < 1 << (8 * w):
            return w
    return (bound.bit_length() + 7) // 8


def _pack(a, w):
    code = _NATIVE.get(w)
    if code:
        return int.from_bytes(array(code, a).tobytes(), "little")
    return int.from_bytes(b"".join(c.to_bytes(w, "little") for c in a), "little")


def _unpack(x, count, w):
    """The `count` slots of x, low first (not reduced mod p)."""
    data = x.to_bytes(count * w, "little")
    code = _NATIVE.get(w)
    if code:
        return memoryview(data).cast(code)
    return [int.from_bytes(data[i:i + w], "little") for i in range(0, len(data), w)]


def _product(a, b, w):
    """Slots of a * b, not reduced mod p."""
    return _unpack(_pack(a, w) * _pack(b, w), len(a) + len(b) - 1, w)


def _series_inverse(f, k, p, w):
    """f^-1 mod x^k by Newton iteration, for f(0) = 1."""
    inv, m = [1], 1
    while m < k:
        m = min(2 * m, k)
        e = [(-c) % p for c in _product(f[:m], inv, w)[:m]]
        e[0] = (e[0] + 2) % p
        inv = [c % p for c in _product(inv, e, w)[:m]]
    return inv


def _divexact(g, a, p):
    """g / a for a factor a of g."""
    q, r = _divmod(g, a, p)
    if r:
        raise OracleError(f"nonzero remainder dividing by a factor mod {p}")
    return q


# Below this degree a gcd takes plain Euclidean steps only.
_LEHMER_DEGREE = 96


def _quotient_matrix(a, b, k, p):
    """Euclid's quotients on (a, b) that hold whatever lies below the top.

    a, b are the coefficients of degree >= s of two polynomials of degree
    n = s + 2k and at most n.  A quotient depends only on coefficients that
    are exact as long as the divisor keeps degree >= n - k, so Euclid runs
    that far.  Returns (u, v, w, z) with (u a + v b, w a + z b) the pair of
    remainders reached, or None when no quotient qualifies.  The matrix is
    unimodular, so applied to the full pair it keeps the gcd whatever the
    quotients; the bound on the divisor is what makes the degree drop.
    """
    u, v, w, z = [1], [], [], [1]
    steps = 0
    while len(b) > k:
        q, r = _divmod(a, b, p)
        u, v, w, z = w, z, _sub_mul(u, q, w, p), _sub_mul(v, q, z, p)
        a, b = b, r
        steps += 1
    return (u, v, w, z) if steps else None


def _sub_mul(u, q, w, p):
    """u - q w."""
    qw = _mul_plain(q, w)
    n = max(len(u), len(qw))
    u, qw = u + [0] * (n - len(u)), qw + [0] * (n - len(qw))
    return _trim([(x - y) % p for x, y in zip(u, qw)])


def _apply_matrix(m, a, b, p):
    """(u a + v b, w a + z b) for m = (u, v, w, z)."""
    u, v, w, z = m
    width = _slot_width(2 * max(map(len, m)) * (p - 1) ** 2 + 1)
    pa, pb = _pack(a, width), _pack(b, width)

    def row(x, y):
        val = _pack(x, width) * pa + _pack(y, width) * pb
        count = max(len(x) + len(a), len(y) + len(b)) - 1
        return _trim([c % p for c in _unpack(val, count, width)])

    return row(u, v), row(w, z)


def _gcd(a, b, p):
    """Monic gcd, by blocks of Euclidean steps (Lehmer) at large degree."""
    a, b = _trim(list(a)), _trim(list(b))
    if len(a) < len(b):
        a, b = b, a
    while b:
        n = len(a) - 1
        if n >= _LEHMER_DEGREE:
            k = isqrt(n)
            s = n - 2 * k
            m = _quotient_matrix(a[s:], b[s:], k, p)
            if m:
                a, b = _apply_matrix(m, a, b, p)
                continue
        a, b = b, _divmod(a, b, p)[1]
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


class _Modulus:
    """Arithmetic in F_p[x]/(f) for a monic f of degree n >= 1.

    Residues are lists of at most n coefficients, not trimmed.  A product
    of two residues has degree at most 2n - 2, which is what the Newton
    inverse of rev(f) mod x^(n-1) reduces in one step; `reduce` takes
    longer dividends n - 1 coefficients at a time.
    """

    def __init__(self, f, p):
        self.f, self.p, self.n = f, p, len(f) - 1
        if self.n < _PLAIN_DEGREE:
            return
        self.w = w = _slot_width(self.n * (p - 1) ** 2 + 1)
        self.f_packed = _pack(f, w)
        self.inv_packed = _pack(_series_inverse(f[::-1], self.n - 1, p, w), w)

    def _reduce(self, prod, length):
        """Residue of the packed `prod`, which has length <= 2n - 1 slots."""
        p, n, w = self.p, self.n, self.w
        s = _unpack(prod, length, w)
        k = length - n
        if k <= 0:
            return [c % p for c in s]
        top = [c % p for c in s[:n - 1:-1]]
        t = _unpack(_pack(top, w) * self.inv_packed, k + n - 2, w)
        q = [c % p for c in t[k - 1::-1]]
        qf = _unpack(_pack(q, w) * self.f_packed, length, w)
        return [(x - y) % p for x, y in zip(s[:n], qf[:n])]

    def reduce(self, a):
        """a mod f for any a."""
        if self.n < _PLAIN_DEGREE:
            return _divmod(a, self.f, self.p)[1]
        n, w = self.n, self.w
        a = list(a)
        while len(a) > n:
            j = max(len(a) - 2 * n + 1, 0)
            a = a[:j] + self._reduce(_pack(a[j:], w), len(a) - j)
        return a

    def mul(self, a, b):
        if self.n < _PLAIN_DEGREE:
            return _divmod(_mul_plain(a, b), self.f, self.p)[1]
        x = _pack(a, self.w)
        y = x if b is a else _pack(b, self.w)
        return self._reduce(x * y, len(a) + len(b) - 1)

    def pow(self, a, e):
        """a^e for e >= 1, left to right."""
        r = a
        for bit in bin(e)[3:]:
            r = self.mul(r, r)
            if bit == "1":
                r = self.mul(r, a)
        return r


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


def _trace_split(g, xp, ring, sigma):
    """A quadratic factor of g = q1 q2 (degree 4) read off the traces t1, t2
    of their roots, or None when t1 = t2.

    T = x + x^p is t_i modulo q_i, so T^2 = (t1 + t2) T - t1 t2 mod g, and
    gcd(g, T - t1) = q1.
    """
    p = ring.p
    t = list(xp) + [0] * (4 - len(xp))
    t[1] = (t[1] + 1) % p
    j = max((i for i in (1, 2, 3) if t[i]), default=0)
    if not j:
        return None
    t2 = ring.mul(t, t) + [0] * 4
    e1 = t2[j] * pow(t[j], -1, p) % p
    e2 = (e1 * t[0] - t2[0]) % p
    disc = (e1 * e1 - 4 * e2) % p
    r = _sqrt_mod(disc, p, sigma)
    a = _gcd(g, _add_const(t, -(e1 + r) * ((p + 1) // 2), p), p)
    return a if len(a) == 3 else None


# Consecutive failed random splits of one factor before giving up; a product
# of two or more factors of the right degree splits with probability >= 1/2.
_SPLIT_TRIES = 64


def _equal_degree_factors(g, xp, p, sigma, rng):
    """Factors of degree <= 2 of g, a product of distinct monic linear
    factors (xp None) or of irreducible quadratics.

    For the quadratic case xp is x^p modulo g or a multiple of g.
    """
    e = (p - 1) // 2
    done, todo = [], [(g, xp)]
    while todo:
        g, xp = todo.pop()
        deg = len(g) - 1
        if deg <= 2:
            if deg:
                done.append(g)
            continue
        ring = _Modulus(g, p)
        if xp is not None:
            xp = ring.reduce(xp)
        a = _trace_split(g, xp, ring, sigma) if xp is not None and deg == 4 else None
        for _ in range(_SPLIT_TRIES):
            if a:
                break
            delta = rng.randrange(p)
            if xp is None:
                h = ring.pow([delta, 1], e)
            else:
                h = ring.pow(ring.mul([delta, 1], _add_const(xp, delta, p)), e)
            a = _gcd(g, _add_const(h, -1, p), p)
            if not 0 < len(a) - 1 < deg:
                a = None
        if not a:
            raise OracleError(f"a degree-{deg} factor mod {p} does not split")
        todo += [(a, xp), (_divexact(g, a, p), xp)]
    return done


def _quadratic_roots(g, p, sigma, split):
    """The two roots (re, im) over s, s^2 = sigma, of a monic quadratic g
    that splits over F_p (`split`) or is irreducible."""
    if len(g) != 3:
        raise OracleError(
            f"degree-{len(g) - 1} factor mod {p} where a quadratic is needed"
        )
    c, b = g[0], g[1]
    t = (b * b - 4 * c) % p
    if not split:
        t = t * pow(sigma, -1, p) % p
    r = _sqrt_mod(t, p, sigma)
    if r * r % p != t:
        raise OracleError(f"quadratic factor mod {p} has no root where expected")
    half = (p + 1) // 2
    re, im = -b * half % p, r * half % p
    if split:
        return [((re + im) % p, 0), ((re - im) % p, 0)]
    return [(re, im), (re, -im % p)]


def _roots(f, p: int, sigma: int):
    """All roots (re, im) in F_p(s), s^2 = sigma, of a monic f that is a
    product of distinct factors of degree <= 2 over F_p."""
    rng = random.Random(p)
    xp = _Modulus(f, p).pow([0, 1], p)
    xp_minus_x = list(xp) + [0] * (2 - len(xp))
    xp_minus_x[1] = (xp_minus_x[1] - 1) % p
    linear = _gcd(f, xp_minus_x, p)
    quadratic = _divexact(f, linear, p)
    roots = []
    for g in _equal_degree_factors(linear, None, p, sigma, rng):
        if len(g) == 2:
            roots.append((-g[0] % p, 0))
        else:
            roots += _quadratic_roots(g, p, sigma, True)
    for g in _equal_degree_factors(quadratic, xp, p, sigma, rng):
        roots += _quadratic_roots(g, p, sigma, False)
    return roots


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
# discriminant -d with class number one or two, as (d, coefficients below
# the leading 1, constant term first, neighbour): H_4 = x - 1728 and
# H_15 = x^2 + 191025 x - 121287375.  By Deuring's reduction criterion the
# roots of H_d mod p are supersingular when (-d/p) = -1.  The neighbour,
# or None, is an integer root of Phi_2(j_d, Y) for the rational root j_d
# of H_d: Phi_2(1728, 1728) = Phi_2(0, 54000) = Phi_2(-3375, -3375)
# = Phi_2(8000, 8000) = 0 over Z.
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
    Hilbert class polynomial (`_walk`); at a prime where no H_d of the table
    is inert they are the roots of `supersingular_polynomial(p)`.
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
        js = _roots(supersingular_polynomial(p), p, sigma)
    else:
        js = _walk(p, field, seed, expected)
    js = tuple(sorted(js))
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
