"""Arithmetic in a definite rational quaternion algebra (a, b | Q).

Basis 1, i, j, k with i^2 = a, j^2 = b, ij = k = -ji, both a and b negative.
The sign conventions live in exactly one place: the coordinate polynomials
mul4, conj4, nrd4 and inner4, on integer 4-vectors (an order or lattice
keeps its common denominator beside its integer rows).
"""

from __future__ import annotations

from dataclasses import dataclass


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

    def __repr__(self):
        return f"QuaternionAlgebra(a={self.a}, b={self.b}, p={self.p})"
