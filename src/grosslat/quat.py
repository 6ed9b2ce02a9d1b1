"""Arithmetic in a definite rational quaternion algebra (a, b | Q).

Basis 1, i, j, k with i^2 = a, j^2 = b, ij = k = -ji, both a and b negative.
The sign conventions live in exactly one place: the coordinate polynomials
mul4, conj4, nrd4 and inner4.  They take integer 4-vectors in the hot paths
of `orders` and `lattice`, and QuaternionElement applies the same functions
to its exact rational (Fraction) coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


class AlgebraMismatch(ValueError):
    pass


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
    return (u[0], -u[1], -u[2], -u[3])


def nrd4(u, a: int, b: int) -> int:
    """Reduced norm u * conj(u) of a coordinate 4-vector."""
    u0, u1, u2, u3 = u
    return u0 * u0 - a * u1 * u1 - b * u2 * u2 + a * b * u3 * u3


def inner4(u, v, a: int, b: int) -> int:
    """(u, v) = trd(u * conj(v)) / 2; its numerator for integer vectors."""
    return u[0] * v[0] - a * u[1] * v[1] - b * u[2] * v[2] + a * b * u[3] * v[3]


@dataclass(frozen=True)
class QuaternionAlgebra:
    a: int
    b: int
    p: int

    def __post_init__(self):
        if self.a >= 0 or self.b >= 0:
            raise ValueError("need a < 0 and b < 0 for a definite algebra")

    def element(self, c0, c1=0, c2=0, c3=0) -> "QuaternionElement":
        return QuaternionElement(
            self, (Fraction(c0), Fraction(c1), Fraction(c2), Fraction(c3))
        )

    def one(self):
        return self.element(1)

    def gens(self):
        return self.element(0, 1), self.element(0, 0, 1), self.element(0, 0, 0, 1)

    def __repr__(self):
        return f"QuaternionAlgebra(a={self.a}, b={self.b}, p={self.p})"


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

