"""The supersingular polynomial ss_p(j) and an exact root finder over F_p.

This was the oracle's route at primes with no inert Hilbert class
polynomial in its start table; the table now covers every prime below
134447041, and the route is the test-side reference for the 2-isogeny walk
(`ss_p_route`) and the root finder of `hasse_reference`.

ss_p(j) is monic and separable of degree floor(p/12) + delta + epsilon, and
its roots are the supersingular j.  Kaneko and Zagier (Supersingular
j-invariants, hypergeometric series, and Atkin's orthogonal polynomials,
1998) give it mod p as a truncated hypergeometric series: for
p - 1 = 12n + 4 delta + 6 epsilon with delta, epsilon in {0, 1},

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
route grows as about p^1.7.
"""

import random
import sys
from array import array
from math import isqrt

from grosslat.exact import is_prime
from grosslat.oracle import (
    OracleError, _SPLIT_TRIES, _smallest_nonresidue, _sqrt_mod,
)


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


def ss_p_route(p):
    """The sorted roots of ss_p(j), the supersingular j of an odd prime p."""
    sigma = _smallest_nonresidue(p)
    return tuple(sorted(_roots(supersingular_polynomial(p), p, sigma)))
