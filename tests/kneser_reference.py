"""The Kneser neighbour construction that `lattice.kneser_neighbours` replaced,
and the three calls that `lattice.gross_neighbours` replaced.

Per isotropic line it spans ell L' by seven rows, ell^2 e_i for every i,
ell (e_i - c_i e_t) for i != t and the lifted line vector, takes their HNF
with `exact.hnf`, and forms the neighbour Gram with nine `gram_inner`
products.  The package memoises that HNF on the line's residue data, drops
the two redundant rows ell^2 e_i (i != t) and builds the Gram from the six
entries of m; a lattice has one HNF, so the two must return identical
neighbour lists.  `tests/test_lattice.py` and `tests/test_walk_reference.py`
compare them.

The walk used to expand a Gross Gram G as
`[adj3(n) for n in kneser_neighbours(half_form(G, p), ell)]`, with
`half_form` dividing `adj3(G)` by 2p entry by entry.  `gross_neighbours`
does the same in one step, with each check made once and each adjugate read
off the cofactors of the neighbour's det check; `gross_neighbours_reference`
and `half_form_reference` keep the composed route.

The package also memoises, per residue class of the half form's six
entries (m00/2, m11/2, m22/2, m01, m02, m12) mod ell, the isotropic lines
with their pivots, and each line's HNF per residue q(v)/ell mod ell
(`lattice._kneser_lines`).  `kneser_lines_reference` is the line search and
pivot code the Kneser step ran on every call before, on m itself;
`tests/test_walk_reference.py` compares the memo with it.
`empty_line_memo` gives a test its own empty line memo, for a test that
patches a step behind it.
"""

from functools import lru_cache

import grosslat.lattice as lattice
from grosslat.exact import hnf, is_prime
from grosslat.lattice import LatticeError, det3, gram_inner, kneser_neighbours

# the line memo's search, unmemoised, as the module defines it
_KNESER_LINES = lattice._kneser_lines.__wrapped__


def adj3(rows):
    """Adjugate (transposed cofactor matrix) of a 3x3 integer matrix."""
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = rows
    return (
        (b1 * c2 - b2 * c1, a2 * c1 - a1 * c2, a1 * b2 - a2 * b1),
        (b2 * c0 - b0 * c2, a0 * c2 - a2 * c0, a2 * b0 - a0 * b2),
        (b0 * c1 - b1 * c0, a1 * c0 - a0 * c1, a0 * b1 - a1 * b0),
    )


def half_form_reference(gram, p):
    """`lattice.half_form` by `adj3` and one divmod per entry."""
    m = []
    for row in adj3(gram):
        out = []
        for x in row:
            q, rem = divmod(x, 2 * p)
            if rem:
                raise LatticeError(f"adj(gram) is not divisible by 2p = {2 * p}")
            out.append(q)
        m.append(tuple(out))
    m = tuple(m)
    if _odd_diagonal(m):
        raise LatticeError("adj(gram) / 2p has an odd diagonal entry")
    if det3(m) != 2 * p:
        raise LatticeError(f"adj(gram) / 2p has det {det3(m)}, expected {2 * p}")
    return m


def gross_neighbours_reference(gram, p, ell):
    """`lattice.gross_neighbours` as the walk composed it before."""
    return [adj3(n) for n in kneser_neighbours(half_form_reference(gram, p), ell)]


def _odd_diagonal(m) -> bool:
    return any(m[i][i] % 2 for i in range(3))


def _isotropic_lines(m, ell):
    points = [(1, a, b) for a in range(ell) for b in range(ell)]
    points += [(0, 1, b) for b in range(ell)]
    points.append((0, 0, 1))
    return [v for v in points if gram_inner(m, v, v) % (2 * ell) == 0]


def _lift(m, v, ell, t, inv):
    v = list(v)
    v[t] -= ell * (gram_inner(m, v, v) // 2 // ell * inv % ell)
    return tuple(v)


def kneser_lines_reference(m, ell):
    """(v, t, inv, cs, w) for each isotropic line v of the even m mod ell,
    worked out from m itself: the first coordinate t where b = v m is a unit
    mod ell, inv = 1 / b_t mod ell, the pairs cs = (i, b_i / b_t mod ell)
    for i != t, and the lifted line vector w."""
    out = []
    for v in _isotropic_lines(m, ell):
        b = [sum(v[i] * m[i][j] for i in range(3)) for j in range(3)]
        t = next(j for j in range(3) if b[j] % ell)
        inv = pow(b[t], -1, ell)
        cs = tuple((i, b[i] * inv % ell) for i in range(3) if i != t)
        out.append((v, t, inv, cs, _lift(m, v, ell, t, inv)))
    return out


def empty_line_memo(monkeypatch):
    """Give `lattice` an empty line memo for one test; returns {(class,
    ell): lines} of the entries it fills.

    A line memo entry keeps the neighbour HNFs of its lines, so an entry
    filled by an earlier test would bypass a patched `_isotropic_lines`,
    `_lift` or `_neighbour_hnf`; and the module's own memo never holds an
    entry filled under such a patch.
    """
    entries = {}

    def recorded(form, ell):
        entries[form, ell] = lines = _KNESER_LINES(form, ell)
        return lines

    monkeypatch.setattr(lattice, "_kneser_lines", lru_cache(maxsize=None)(recorded))
    return entries


def kneser_neighbours_reference(m, ell):
    """Even Grams of the ell-neighbours of the even Gram `m`, one per line."""
    if not is_prime(ell):
        raise LatticeError(f"ell = {ell} is not a prime")
    if _odd_diagonal(m):
        raise LatticeError("m has an odd diagonal entry: not an even Gram")
    d = det3(m)
    if d // 2 % ell == 0:
        raise LatticeError(f"ell = {ell} divides det(m)/2 = {d // 2}")
    lines = kneser_lines_reference(m, ell)
    if len(lines) != ell + 1:
        raise LatticeError(
            f"expected {ell + 1} isotropic lines mod {ell}, found {len(lines)}"
        )
    ell2 = ell * ell
    out = []
    for _, t, _, cs, w in lines:
        cs = dict(cs)
        rows = [w]
        for i in range(3):
            row = [0, 0, 0]
            row[i] = ell2
            rows.append(row)
            if i != t:
                row = [0, 0, 0]
                row[i] = ell
                row[t] = -ell * cs[i]
                rows.append(row)
        h = hnf(rows)
        nb = []
        for u in h:
            row = []
            for w in h:
                q, rem = divmod(gram_inner(m, u, w), ell2)
                if rem:
                    raise LatticeError("non-integer Gram entry in an ell-neighbour")
                row.append(q)
            nb.append(tuple(row))
        nb = tuple(nb)
        if _odd_diagonal(nb):
            raise LatticeError("ell-neighbour has an odd diagonal entry")
        if det3(nb) != d:
            raise LatticeError(f"ell-neighbour has det {det3(nb)}, expected {d}")
        out.append(nb)
    return out
