"""The 13 class-number-one CM rows and their lattice-side recomputation.

Each row carries the quadratic order data and the tabulated threshold prime
N_E above which the first Gross minimum of the reduction equals d.  Its
supersingular primes are not tabulated: by Deuring, the reduction at a prime
p not dividing d is supersingular exactly when p does not split in
Q(sqrt(-d)), that is when the Kronecker symbol (-d | p) is -1.
recompute_ne re-derives N_E per prime from the unique type embedding
discriminant -d primitively, comparing its D1 with d.

For the seven odd prime rows (d = 3, 7, 11, 19, 43, 67, 163: f = 1,
d = 3 mod 4, h(-d) = 1) that type is built directly at every odd inert p:
it is Pizer's maximal order of (-d, -p), which contains O_{-d}
(`orders.pizer_maximal_order`), and its Gross Gram, written down in closed
form by `orders.pizer_gross_gram`, is the type's ternary form
(Gross-Lucianovic).  The element i of that order is a primitive vector of
norm d in a known basis, which certifies the embedding with no enumeration.
The rows d = 4, 8, 12, 16, 27, 28 (even d or f > 1) locate it on the type
enumeration walk instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .exact import is_prime, legendre, primes_between
from .lattice import gram_inner, minimal_basis, primitive_norms
from .orders import TypeRecord, default_ell, enumerate_types, pizer_gross_gram


class CmError(ValueError):
    pass


@dataclass(frozen=True)
class CmRow:
    j_label: str
    d: int                 # -d is the order discriminant
    f: int                 # conductor
    field_disc: int        # fundamental discriminant (negative)
    n_e: int               # tabulated threshold prime

    def is_supersingular_prime(self, p: int) -> bool:
        """Kronecker (-d | p) = -1: (-d | 2) = -1 exactly when d = 3 mod 8."""
        if p == 2:
            return self.d % 8 == 3
        return legendre(-self.d, p) == -1

    @property
    def default_p_max(self) -> int:
        """(d+1)^2/4 + d: the default sweep end, past the bound on N_E."""
        return (self.d + 1) ** 2 // 4 + self.d


CM_ROWS = (
    CmRow("0", 3, 1, -3, 5),
    CmRow("1728", 4, 1, -4, 7),
    CmRow("-15^3", 7, 1, -7, 13),
    CmRow("20^3", 8, 1, -8, 23),
    CmRow("-32^3", 11, 1, -11, 29),
    CmRow("2*30^3", 12, 2, -3, 41),
    CmRow("66^3", 16, 2, -4, 67),
    CmRow("-96^3", 19, 1, -19, 79),
    CmRow("-3*160^3", 27, 3, -3, 167),
    CmRow("255^3", 28, 2, -7, 181),
    CmRow("-960^3", 43, 1, -43, 433),
    CmRow("-5280^3", 67, 1, -67, 1103),
    CmRow("-640320^3", 163, 1, -163, 6481),
)

EXTENDED_DS = (43, 67, 163)
# odd prime d with h(-d) = 1, all d = 3 mod 4: the rows located directly
PIZER_DS = frozenset(r.d for r in CM_ROWS if r.f == 1 and r.d % 2)


def cm_rows():
    return CM_ROWS


def cm_row(label: str) -> CmRow:
    for row in CM_ROWS:
        if row.j_label == label:
            return row
    raise KeyError(f"unknown CM row label {label!r}")


D1_20_LABEL = "d1-20"


def closed_form_gram(label: str, p: int):
    """Symbolic normalized Gram of a known family, instantiated at p.

    Labels: "0" (p = 2 mod 3), "1728" (p = 3 mod 4, p > 3), "-15^3"
    (p >= 13, p = 3, 5, 6 mod 7) and "d1-20" (p >= 113, p = 13, 17 mod 20,
    the non-spine first-minimum-20 family).
    """
    if label == "0":
        if p % 3 != 2:
            raise ValueError(f"p = {p} is not 2 mod 3")
        d2 = (4 * p + 1) // 3
        z = -(2 * p - 1) // 3
        return ((3, 1, 1), (1, d2, z), (1, z, d2))
    if label == "1728":
        if p % 4 != 3 or p <= 3:
            raise ValueError(f"p = {p} is not 3 mod 4 with p > 3")
        return ((4, 0, 2), (0, p, 0), (2, 0, p + 1))
    if label == "-15^3":
        if p < 13 or p % 7 not in (3, 5, 6):
            raise ValueError(f"p = {p} is not a -15^3 prime >= 13")
        r = p % 7
        if r == 3:
            x, y = 3, 2
            d2, z, d3 = (4 * p + 9) // 7, -(2 * p - 6) // 7, (8 * p + 4) // 7
        elif r == 5:
            x, y = 1, 3
            d2, z, d3 = (4 * p + 1) // 7, -(2 * p - 3) // 7, (8 * p + 9) // 7
        else:
            x, y = 2, 1
            d2, z, d3 = 4 * (p + 1) // 7, 2 * (p + 1) // 7, (8 * p + 1) // 7
        return ((7, x, y), (x, d2, z), (y, z, d3))
    if label == D1_20_LABEL:
        if p < 113 or p % 20 not in (13, 17):
            raise ValueError(f"p = {p} is not 13 or 17 mod 20 with p >= 113")
        r, s = (3, 1) if p % 20 == 13 else (1, 2)
        d2 = (2 * p + r * r) // 5
        d3 = (3 * p + s * s) // 5
        z = (-p + r * s) // 5
        return ((20, 2 * r, 2 * s), (2 * r, d2, z), (2 * s, z, d3))
    raise KeyError(f"no closed form for label {label!r}")


def supersingular_primes(row: CmRow, lo: int, hi: int):
    return [p for p in primes_between(lo, hi) if row.is_supersingular_prime(p)]


def _embeds(gram, d: int) -> bool:
    """Whether d is a primitive norm of a walk record's normalized Gram,
    which is reduced and positive definite, so it is not checked again."""
    return d in primitive_norms(gram, d, reduced=True)


def _no_unique_type(count: int, p: int, d: int) -> CmError:
    return CmError(f"{count} types embed discriminant -{d} at p = {p}; expected 1")


def _pizer_embeds(gram, p: int, d: int) -> bool:
    """Whether i = (d, 0, -t/2), t = G_01 / p, is a primitive norm-d vector
    of the Gross Gram G of Pizer's order of (-d, -p) (see
    `orders.pizer_gross_gram`): O(1), no enumeration."""
    half_t, rem = divmod(gram[0][1], 2 * p)
    v = (d, 0, -half_t)
    return not rem and gram_inner(gram, v, v) == d and gcd(d, half_t) == 1


def locate_embedding_type(p: int, d: int) -> TypeRecord:
    """The unique type whose Gross lattice has a primitive norm-d vector.

    Direct route, for d in PIZER_DS (the odd prime rows) at an odd prime
    p != d: no walk, no order.  At an inert p the type is Pizer's maximal
    order of (-d, -p); its record is the minima and normalized Gram of the
    minimal basis of that order's closed-form Gross Gram
    (`orders.pizer_gross_gram`).  The embedding of -d is certified by the
    primitive norm-d vector i of the closed-form Gram's basis (CmError
    otherwise).  A split p raises CmError, as no type embeds -d there.

    Every other (p, d), the rows d = 4, 8, 12, 16, 27, 28 included, walks
    the types at `default_ell(p)`, the ell of `types` and `verify`, and
    keeps the one match (CmError unless there is exactly one); the record
    does not depend on ell.
    """
    if d in PIZER_DS and p % 2 and p != d:
        if legendre(-d, p) != -1:
            raise _no_unique_type(0, p, d)
        gram = pizer_gross_gram(d, p)
        if not _pizer_embeds(gram, p, d):
            raise CmError(
                f"Pizer's order of (-{d}, -{p}) does not embed -{d} primitively"
            )
        mb = minimal_basis(gram)
        return TypeRecord(mb.minima, mb.gram)
    matches = [t for t in enumerate_types(p, default_ell(p)) if _embeds(t.gram, d)]
    if len(matches) != 1:
        raise _no_unique_type(len(matches), p, d)
    return matches[0]


def recompute_ne(row: CmRow, p_max: int):
    """Re-derive N_E for a CM row by sweeping supersingular primes.

    Sweeps row-supersingular primes in [5, p_max] (the characteristic-2 and
    -3 reductions are outside the sweep, matching the tables), locates the
    unique type embedding -d primitively, and returns the least swept prime
    N with D1 = d from N on, together with the per-prime detail: one
    (p, located TypeRecord, D1 == d) entry per swept prime.  The sweep must
    reach (d+1)^2/4, past which no bad prime lies (CmError otherwise);
    `row.default_p_max` does.
    """
    d = row.d
    if 4 * p_max < (d + 1) ** 2:
        raise CmError(
            f"p_max = {p_max} is below (d+1)^2/4: need 4 p_max >= {(d + 1) ** 2}"
        )
    detail = []
    last_bad = 0
    for p in supersingular_primes(row, 5, p_max):
        rec = locate_embedding_type(p, d)
        good = rec.minima[0] == d
        detail.append((p, rec, good))
        if not good:
            last_bad = p
    n_e = None
    for p, _, _ in detail:
        if p > last_bad:
            n_e = p
            break
    if n_e is None:
        raise CmError("no good prime in sweep range")
    # N_E never exceeds the least prime q with q > (d+1)^2/4
    q = (d + 1) ** 2 // 4 + 1
    while not is_prime(q):
        q += 1
    if n_e > q:
        raise CmError(f"recomputed N_E = {n_e} exceeds its bound {q}")
    return n_e, detail
