"""Exact rational quaternion elements, for tests only.

The package works on integer coordinate 4-vectors over a common
denominator.  Tests that want to state a fact as quaternion arithmetic (a
product, a norm, a trace) use these `Fraction` elements instead; they apply
the package's own coordinate polynomials (`mul4`, `conj4`, `nrd4`,
`inner4`), so the sign conventions still live only in `grosslat.quat`.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from grosslat.orders import QuaternionOrder
from grosslat.quat import QuaternionAlgebra, conj4, inner4, mul4, nrd4


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
