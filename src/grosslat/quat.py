"""Arithmetic in a definite rational quaternion algebra (a, b | Q).

Basis 1, i, j, k with i^2 = a, j^2 = b, ij = k = -ji, both a and b negative.
The package takes no quaternion product: it needs only the trace pairing
inner4 on integer 4-vectors (an order keeps its common denominator beside
its integer rows), for the Gram of a Gross lattice, and the sign
conventions of the algebra live in it.  The product, the conjugate and the
reduced norm are test helpers (`tests/quat_elements.py`), checked
against a structure-constant table written out from the defining relations.
"""

from __future__ import annotations

from dataclasses import dataclass


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
