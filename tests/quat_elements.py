"""Exact quaternion arithmetic and order reference code, for tests only.

The package works on integer coordinate 4-vectors over a common
denominator and takes no quaternion product: it needs only the trace
pairing `inner4` from `grosslat.quat`.  Tests that want to state a fact as
quaternion arithmetic (a product, a conjugate, a norm, a trace) use the
coordinate polynomials `mul4`, `conj4` and `nrd4` below, and the `Fraction`
elements built on them; `tests/test_quat.py` checks all of them against a
structure-constant table written out from i^2 = a, j^2 = b, ij = k = -ji.

The order code here is the reference the package's explicit bases
replaced: HNF membership (`hnf_solve`, `contains_vec`), the ring check
`is_ring`, and `saturate_to_maximal`, which grows an order to a maximal
one by an ell^3 search for each prime ell dividing its discriminant.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd, lcm

from grosslat.orders import OrderError, QuaternionOrder, reduced_discriminant
from grosslat.quat import QuaternionAlgebra, inner4


def mul4(u, v, a: int, b: int):
    """Product of coordinate 4-vectors over (1, i, j, k)."""
    u0, u1, u2, u3 = u
    v0, v1, v2, v3 = v
    return (
        u0 * v0 + a * u1 * v1 + b * u2 * v2 - a * b * u3 * v3,
        u0 * v1 + u1 * v0 - b * u2 * v3 + b * u3 * v2,
        u0 * v2 + u2 * v0 + a * u1 * v3 - a * u3 * v1,
        u0 * v3 + u3 * v0 + u1 * v2 - u2 * v1,
    )


def conj4(u):
    """Conjugate of a coordinate 4-vector: the pure part changes sign."""
    return (u[0], -u[1], -u[2], -u[3])


def nrd4(u, a: int, b: int):
    """Reduced norm u * conj(u) of a coordinate 4-vector."""
    return inner4(u, u, a, b)


class AlgebraMismatch(ValueError):
    pass


@dataclass(frozen=True)
class QuaternionElement:
    algebra: QuaternionAlgebra
    coords: tuple

    def _same(self, other):
        if self.algebra != other.algebra:
            raise AlgebraMismatch("elements live in different algebras")

    def __add__(self, other):
        self._same(other)
        return QuaternionElement(
            self.algebra, tuple(x + y for x, y in zip(self.coords, other.coords))
        )

    def __sub__(self, other):
        self._same(other)
        return QuaternionElement(
            self.algebra, tuple(x - y for x, y in zip(self.coords, other.coords))
        )

    def __neg__(self):
        return QuaternionElement(self.algebra, tuple(-x for x in self.coords))

    def __mul__(self, other):
        if isinstance(other, QuaternionElement):
            self._same(other)
            alg = self.algebra
            return QuaternionElement(alg, mul4(self.coords, other.coords, alg.a, alg.b))
        return QuaternionElement(
            self.algebra, tuple(x * Fraction(other) for x in self.coords)
        )

    __rmul__ = __mul__

    def conj(self):
        return QuaternionElement(self.algebra, conj4(self.coords))

    def trd(self) -> Fraction:
        return 2 * self.coords[0]

    def nrd(self) -> Fraction:
        return nrd4(self.coords, self.algebra.a, self.algebra.b)

    def inner(self, other) -> Fraction:
        self._same(other)
        return inner4(self.coords, other.coords, self.algebra.a, self.algebra.b)

    def __str__(self):
        return " + ".join(
            f"{c}{s}" for c, s in zip(self.coords, ("", "*i", "*j", "*k"))
        )

    def __repr__(self):
        return f"<{self} in {self.algebra!r}>"


def element(alg, c0, c1=0, c2=0, c3=0):
    return QuaternionElement(
        alg, (Fraction(c0), Fraction(c1), Fraction(c2), Fraction(c3))
    )


def one(alg):
    return element(alg, 1)


def gens(alg):
    """The elements i, j, k."""
    return element(alg, 0, 1), element(alg, 0, 0, 1), element(alg, 0, 0, 0, 1)


def order_from_elements(alg, elements):
    """The order spanned by rational quaternions, over their common denominator."""
    den = lcm(*(c.denominator for e in elements for c in e.coords))
    rows = [[int(c * den) for c in e.coords] for e in elements]
    return QuaternionOrder.from_generators(alg, rows, den)


def order_basis_elements(order):
    return tuple(
        QuaternionElement(order.algebra, tuple(Fraction(c, order.den) for c in row))
        for row in order.mat
    )


def vector_element(lat, coords):
    """The pure quaternion of a Gross lattice with the given basis coordinates."""
    row = [0, 0, 0]
    for c, b in zip(coords, lat.mat):
        for t in range(3):
            row[t] += c * b[t]
    return QuaternionElement(
        lat.algebra, (Fraction(0),) + tuple(Fraction(c, lat.den) for c in row)
    )


def lattice_basis_elements(lat):
    return tuple(vector_element(lat, e) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))


# -- order membership, the ring check and saturation ---------------------------

def hnf_solve(hnf_rows, target):
    """Integer coordinates of integer vector `target` in an HNF row lattice.

    Staircase back-substitution; returns None for non-members.
    """
    w = list(target)
    coords = []
    for row in hnf_rows:
        pc = next(c for c, x in enumerate(row) if x)
        q, rem = divmod(w[pc], row[pc])
        if rem:
            return None
        if q:
            w = [x - q * y for x, y in zip(w, row)]
        coords.append(q)
    if any(w):
        return None
    return tuple(coords)


def factorize(n: int):
    """Sorted prime factors with multiplicity, by trial division."""
    if n <= 0:
        raise ValueError("factorize needs n > 0")
    out = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def contains_vec(order, vec, vden: int) -> bool:
    """Whether the quaternion vec / vden lies in the order."""
    scaled = []
    for x in vec:
        num = x * order.den
        if num % vden:
            return False
        scaled.append(num // vden)
    return hnf_solve(order.mat, scaled) is not None


def is_ring(order) -> bool:
    """1 in the lattice, basis integral, closed under multiplication."""
    a, b = order.algebra.a, order.algebra.b
    d2 = order.den * order.den
    if hnf_solve(order.mat, (order.den, 0, 0, 0)) is None:
        return False
    for row in order.mat:
        if (2 * row[0]) % order.den or nrd4(row, a, b) % d2:
            return False
    for u in order.mat:
        for v in order.mat:
            if not contains_vec(order, mul4(u, v, a, b), d2):
                return False
    return True


def _enlarge_once(order, ell: int):
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
            if contains_vec(order, v, dl):
                continue
            gens = [tuple(ell * x for x in row) for row in rows]
            gens.append(v)
            try:
                cand = QuaternionOrder.from_generators(order.algebra, gens, dl)
            except OrderError:
                continue
            if is_ring(cand):
                return cand
    return None


def saturate_to_maximal(order):
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
