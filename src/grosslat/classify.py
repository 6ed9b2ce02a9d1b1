"""Classify a type from its Gross lattice data alone.

Field of definition of j, the special j-invariants 0 and 1728, the Frobenius
order embedding for p = 3 mod 4, and the theorem-stated bound checks.  The
only vector fact read here, whether norm 3 or norm 4 occurs, comes from the
type's `lattice.primitive_norms`, made once by the caller: a Gross lattice
has minimum >= 3, so every vector of norm 3 or 4 is primitive.  The same
list, cut at the discriminant bound, is the type's optimally embedded
discriminants.  `classify_type` needs the list only up to 4, and `types`
passes it the sorted list cut there, at most the entries 3 and 4, so
`special_j` reads two entries, not the whole list to 2p; `verify` passes
its list to 8, and any container of the norms up to 4 will do.
All comparisons are exact integer arithmetic; fractional bounds are
cross-multiplied.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lattice import LatticeError

EMBED_SQRT = "Z[sqrt(-p)]"
EMBED_HALF = "Z[(1+sqrt(-p))/2]"
EMBED_BOTH = "both"
EMBED_NA = "n/a"


@dataclass(frozen=True)
class Classification:
    spine: bool
    special_j: str        # none | j0 | j1728 | both
    embedding: str        # EMBED_* above
    orthogonal: bool
    well_rounded: bool


def field_of_definition(p: int, d3: int) -> bool:
    """True (spine, j in F_p) exactly when D3 >= p."""
    return d3 >= p


def special_j(p: int, norms) -> str:
    """j = 0 from a norm-3 vector, j = 1728 from a norm-4 one.

    `norms` holds the lattice's primitive norms, `lattice.primitive_norms`,
    at least up to 4; vectors of norm 3 or 4 are primitive in a Gross
    lattice, whose minimum is at least 3.
    """
    has0 = 3 in norms
    has1728 = 4 in norms
    if has0 and has1728:
        if p not in (2, 3):
            raise LatticeError("norms 3 and 4 coexist only for p | 1728")
        return "both"
    if has0:
        return "j0"
    if has1728:
        return "j1728"
    return "none"


def frobenius_embedding(p: int, minima, spine: bool) -> str:
    """Arithmetic Frobenius order from D3 when p = 3 mod 4 and spine."""
    if not spine:
        return EMBED_NA
    if p % 4 != 3:
        return EMBED_SQRT
    d3 = minima[2]
    if d3 == p + 1:
        return EMBED_BOTH   # j = 1728 carries both arithmetic types
    if d3 == p:
        return EMBED_HALF
    return EMBED_SQRT


def structural_flags(gram, minima):
    orthogonal = (
        gram[0][1] == 0 and gram[0][2] == 0 and gram[1][2] == 0
    )
    well_rounded = minima[0] == minima[1] == minima[2]
    return orthogonal, well_rounded


def validate_bounds(p: int, minima, spine: bool):
    """Violated theorem-bound identifiers for a minima triple (empty = ok)."""
    d1, d2, d3 = minima
    bad = []
    if spine:
        if d1 != 3:
            if d3 < p:
                bad.append("d3-lower-spine")
            if 28 * d3 > 32 * p + 49:
                bad.append("d3-upper-spine")
            if d2 == d3:
                bad.append("d2-neq-d3")
        elif p != 3 and 3 * d3 != 4 * p + 1:
            bad.append("d3-j0-exact")
        if p != 2 and d1 == d2:
            bad.append("d1-neq-d2")
        if 3 * d1 * d2 >= 16 * p:
            bad.append("spine-d1d2-iff")
    else:
        if 5 * d3 > 3 * p + 25:
            bad.append("d3-upper-nonspine")
        if d3 >= p:
            bad.append("d3-lt-p-nonspine")
        if 3 * d1 * d2 < 16 * p:
            bad.append("spine-d1d2-iff")
    return bad


def classify_type(p: int, norms, minima, gram) -> Classification:
    """Classification of a type from its minima, Gram and primitive norms.

    `norms` is the `lattice.primitive_norms` of `gram` to at least 4.
    """
    spine = field_of_definition(p, minima[2])
    sj = special_j(p, norms)
    emb = frobenius_embedding(p, minima, spine)
    orth, wr = structural_flags(gram, minima)
    return Classification(spine, sj, emb, orth, wr)
