"""Positive definite ternary forms: short vectors, minima, Gram data.

Everything here works on an integer 3x3 Gram matrix alone and knows nothing
of quaternions; the Gross lattice of an order, whose Gram is the input of
most callers, is built in `orders`.  Minima machinery runs in Python ints
only, with no Fraction anywhere: short vectors come from a Fincke-Pohst
enumeration whose every range is exact by an integer square root, and the
hot kernels (`greedy_reduce`, `kneser_neighbours`, the minimal-basis
search) carry a Gram as its six entries, not as rows for a helper to read.

`kneser_neighbours` gives the even Grams of the ell-neighbours of an even
ternary form for any prime ell prime to its half-discriminant.  On the
Gross-Lucianovic half form of a Gross lattice (`half_form`, half-discriminant
p) their adjugates are the Gross Grams of the ell-neighbouring maximal
orders, so type enumeration walks Grams with no quaternion arithmetic at
every ell, ell = 2 included, one `gross_neighbours` step per type.  The HNF
of each neighbour's generators depends only on residues of its line mod ell
and ell^2, so it is memoised on them.  The isotropic lines and their pivots
depend only on the form's six entries (m00/2, m11/2, m22/2, m01, m02, m12)
mod ell, so they are memoised on that class, at most ell^6 of them, with
each line's HNF kept per residue q(v)/ell mod ell, and each neighbour costs
one q(v) and its Gram H m H^T / ell^2.

The old lattice L is the ell-neighbour of each neighbour L' along ell e_t,
so the memo also keeps that reverse line in the basis of L'.
`gross_neighbours` returns it with each neighbour, and skips the line a
walk passes in, the one that leads back to the parent the walk came from.
The walk expands a type from U G U^T, whose half form is
U^-T half_form(G) U^-1, and `line_in_basis` carries the line there by
y -> y U^T.

Two questions need no vector list.  `primitive_norms` reads the norms of
the primitive vectors, the optimally embedded discriminants of a type, off
one enumeration pass with no per-vector tuple and no sort.  `minimal_basis`
visits only the vectors of norm exactly D1, D2 or D3, the diagonal of the
greedy-reduced Gram, and checks once per enumeration row that no vector
reaches below that diagonal, which makes the diagonal the minima triple.
A caller that needs the vectors themselves (`verify`) enumerates once: one
`reduced_vectors` list of the type's minimal-basis Gram serves
`greedy_minima`, `attaining_rank2_sublattices`,
`minimal_basis_from_vectors` and, read off it by gcd, the primitive norms.
Its coordinates refer to the greedy-reduced basis, not the input one;
every fact those callers read is the same in any basis, so no vector is
lifted back.

Vector norms follow the squared-norm convention throughout: the "norm" of v
is v G v^T.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from math import gcd, isqrt

from .exact import hnf, is_prime


class LatticeError(ValueError):
    pass


def det3(rows) -> int:
    """Determinant of a 3x3 integer matrix, closed form."""
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = rows
    return (
        a0 * (b1 * c2 - b2 * c1)
        - a1 * (b0 * c2 - b2 * c0)
        + a2 * (b0 * c1 - b1 * c0)
    )


def gram_inner(gram, u, v) -> int:
    """u gram v^T; the norm of v is gram_inner(gram, v, v)."""
    t = 0
    for i in range(3):
        ui = u[i]
        if ui:
            row = gram[i]
            t += ui * (row[0] * v[0] + row[1] * v[1] + row[2] * v[2])
    return t


def _check_positive_definite(gram):
    if gram[0][0] <= 0:
        raise LatticeError("gram is not positive definite")
    if gram[0][0] * gram[1][1] - gram[0][1] ** 2 <= 0:
        raise LatticeError("gram is not positive definite")
    if det3(gram) <= 0:
        raise LatticeError("gram is not positive definite")


# -- greedy dimension-3 reduction (integer Gram arithmetic only) -------------

# Bound on the rounds of greedy_reduce, and on the Gauss steps inside one.
_GREEDY_ROUNDS = 10000


def greedy_reduce(gram):
    """Greedy (Minkowski) reduction of a positive definite 3x3 Gram matrix.

    Returns (u, g) with g = u * gram * u^T, u unimodular, and the rows of u
    sorted by norm.  In dimension 3 the greedy output attains the successive
    minima (Nguyen-Stehle, Low-dimensional lattice basis reduction
    revisited, ACM TALG 2009), so the diagonal of g is the minima triple:
    `orders.enumerate_types` keys its walk on it, and `minimal_basis`
    checks it row by row on every new type.

    The Gram is carried as its six entries, a = g00, b = g11, c = g22,
    x = g01, y = g02, z = g12, and the basis as three coordinate rows.  A
    swap of rows i, j exchanges g_ii with g_jj and g_ik with g_jk; b_i <-
    b_i - q b_j changes g_ii, g_ij and g_ik.  Babai's nearest integers
    round ties up: round(t/n) = (2t + n) // 2n for n > 0.

    The third-row step takes the least norm of b_2 - s0 b_0 - s1 b_1 below
    c over the window s0 in a0 - 1..a0 + 1, s1 in b0 - 1..b0 + 1 around
    Babai's rounding (a0, b0) of the real minimiser (alpha, beta), the
    first such point in (s0, s1) order.  For fixed s0 the norm is strictly
    convex in s1, with vertex (z - s0 x) / b, so the first least point of
    its row is the nearest integer to the vertex with ties going to the
    smaller one, and the step evaluates three points, not nine, with the
    same (u, g).  That integer never leaves the window, so it needs no
    clamp: the vertex is beta - (s0 - alpha) x / b, where |s0 - alpha| <=
    3/2 and, after the Gauss steps, |x| <= a/2 <= b/2, so it lies within
    3/4 of beta and 5/4 of b0, and its nearest integer within 1 of b0.

    A round stops the loop when its third-row step moves nothing.  The
    swaps leave a <= b <= c, the Gauss steps never raise max(a, b) and end
    with x rounding to 0 against a, so the next round would find the same
    Gram and move nothing either.  A round also stops it right after a
    step by (c0, c1) that leaves c >= b.  That step lowers y b - z x by
    exactly c0 d2 and z a - y x by exactly c1 d2, with a, b, x and d2 =
    ab - x^2 unchanged, so the next round's Babai point is (a0 - c0, b0 -
    c1): its window holds the same points b_2 - s0 b_0 - s1 b_1 of the
    coset, with the same norms, and their least is the new c.  With a <= b
    <= c no swap fires, x still rounds to 0 against a, and the strict <
    finds nothing below c, so that round would be idle too.  When the
    step leaves c < b, the loop goes on and the next round re-sorts.

    A round that finds a <= 0 or d2 <= 0 after its swaps raises
    LatticeError: the gram is not positive definite.  d2 is the
    determinant of the first two rows' Gram, which the Gauss steps keep,
    so with a > 0 and d2 > 0 they run on a positive definite binary form.
    The loop cannot stop on a Gram that is not positive definite: at the
    stop c is at most the norm at the Babai point, which exceeds the least
    real norm det / d2 of the coset by at most (a + b + 2|x|) / 4 <= 3b / 4,
    so det / d2 >= c - 3b / 4 > 0.  Raises LatticeError when no round of
    the first _GREEDY_ROUNDS stops the loop.
    """
    (a, x, y), (_, b, z), (_, _, c) = gram
    u0, u1, u2 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    for _ in range(_GREEDY_ROUNDS):
        # the first row of least norm to the front
        if b < a and b <= c:
            a, b, y, z, u0, u1 = b, a, z, y, u1, u0
        elif c < a and c < b:
            a, c, x, z, u0, u2 = c, a, z, x, u2, u0
        if b > c:
            b, c, x, y, u1, u2 = c, b, y, x, u2, u1
        # the first two rows' determinant, which the Gauss steps keep
        d2 = a * b - x * x
        if a <= 0 or d2 <= 0:
            raise LatticeError("gram is not positive definite")
        # Gauss-reduce the first two rows
        for _ in range(_GREEDY_ROUNDS):
            if a > b:
                a, b, y, z, u0, u1 = b, a, z, y, u1, u0
            q = (2 * x + a) // (2 * a)
            if q:
                b += q * (q * a - 2 * x)
                x -= q * a
                z -= q * y
                u1 = (u1[0] - q * u0[0], u1[1] - q * u0[1], u1[2] - q * u0[2])
            # x now rounds to 0 against a, whether or not a step was taken
            if b >= a:
                break
        # reduce the third row against the plane of the first two: b_2 -
        # s0 b_0 - s1 b_1 has norm c + s0 (s0 a - 2y) + s1 (s1 b - 2 (z - s0 x))
        a0 = (2 * (y * b - z * x) + d2) // (2 * d2)
        b0 = (2 * (z * a - y * x) + d2) // (2 * d2)
        best, c0, c1 = c, 0, 0
        two_b = 2 * b
        for s0 in (a0 - 1, a0, a0 + 1):
            # the row's first least point: the nearest integer to the vertex
            # w / 2b, ties going to the smaller one
            w = 2 * (z - s0 * x)
            s1 = -((b - w) // two_b)
            # s0 = s1 = 0 gives n = c, never below best
            n = c + s0 * (s0 * a - 2 * y) + s1 * (s1 * b - w)
            if n < best:
                best, c0, c1 = n, s0, s1
        if not (c0 or c1):
            # a <= b <= c after the swaps, and the Gauss steps never raise
            # max(a, b): the next round would move nothing
            break
        # b_2 <- b_2 - c0 b_0 - c1 b_1
        c = best
        y, z = y - c0 * a - c1 * x, z - c0 * x - c1 * b
        u2 = (
            u2[0] - c0 * u0[0] - c1 * u1[0],
            u2[1] - c0 * u0[1] - c1 * u1[1],
            u2[2] - c0 * u0[2] - c1 * u1[2],
        )
        if c >= b:
            # the rows are still sorted: the next round would move nothing
            break
    else:
        raise LatticeError("greedy reduction did not converge")
    return (u0, u1, u2), ((a, x, y), (x, b, z), (y, z, c))


# -- exact short vector enumeration (integers only) ---------------------------

def _interval(a: int, b: int, c: int):
    """The integers t with a t^2 + 2 b t + c <= 0, for a > 0, as a range.

    The real solutions lie between (-b -/+ sqrt(d))/a with d = b^2 - a c,
    and floor((x + sqrt(d))/a) = floor((x + isqrt(d))/a) for an integer x.
    """
    d = b * b - a * c
    if d < 0:
        return range(0)
    s = isqrt(d)
    return range(-((b + s) // a), (s - b) // a + 1)


def _rows(g, bound: int):
    """The rows (z1, z2) of the Fincke-Pohst tree of g to `bound`.

    Yields (z1, z2, b, q) for one row of each +/- pair, z2 > 0 or z2 = 0
    and z1 >= 0, in increasing (z2, z1).  Each level bounds its coordinate
    by the form minimised over the coordinates below it, which, scaled by
    the leading principal minors, is an integer quadratic in that
    coordinate, so `_interval` gives every range exactly.  On the row,
    z = (z0, z1, z2) has norm (g00 z0 + 2 b) z0 + q, and its z0 range is
    `_interval(g00, b, q - bound)`, never empty of reals: g00 q - b^2 is
    the z1 level's quadratic, at most g00 bound on every row.  Along a z2
    slab b = g01 z1 + g02 z2 and q = (g11 z1 + 2 g12 z2) z1 + g22 z2^2 step
    in place, b by g01 and q by g11 (2 z1 + 1) + 2 g12 z2, a difference
    that itself grows by 2 g11.
    """
    (g00, g01, g02), (_, g11, g12), (_, _, g22) = g
    m2 = g00 * g11 - g01 * g01
    m1 = g00 * g12 - g01 * g02
    m0 = g00 * g22 - g02 * g02
    step = 2 * g11
    # z2 >= 0: the stop of the symmetric range
    for z2 in range(_interval(det3(g), 0, -bound * m2).stop):
        z1s = _interval(m2, z2 * m1, z2 * z2 * m0 - g00 * bound)
        # the slab z2 = 0 is symmetric about z1 = 0 and keeps z1 >= 0
        lo = z1s.start if z2 else 0
        b = g01 * lo + g02 * z2
        q = (g11 * lo + 2 * g12 * z2) * lo + g22 * z2 * z2
        dq = g11 * (2 * lo + 1) + 2 * g12 * z2
        for z1 in range(lo, z1s.stop):
            yield z1, z2, b, q
            b += g01
            q += dq
            dq += step


def _enumerate_reduced(g, bound: int):
    """All (norm, z) with 0 < z G z^T <= bound, one per +/- pair.

    Fincke-Pohst in Python ints, over `_rows`; z coordinates refer to the
    rows of the (reduced) basis behind g.
    """
    g00 = g[0][0]
    out = []
    for z1, z2, b, q in _rows(g, bound):
        for z0 in _interval(g00, b, q - bound):
            if z1 == z2 == 0 and z0 <= 0:
                continue  # one representative per +/- pair, zero excluded
            out.append(((g00 * z0 + 2 * b) * z0 + q, (z0, z1, z2)))
    return out


def _canon_sign(v):
    for x in v:
        if x > 0:
            return v
        if x < 0:
            return tuple(-y for y in v)
    return v


def short_vectors(gram, bound: int):
    """All nonzero v with v gram v^T <= bound, one per +/- pair.

    Returns (norm, coords) pairs sorted by (norm, lexicographic coords);
    each representative has its first nonzero coordinate positive.
    """
    _check_positive_definite(gram)
    if bound <= 0:
        return []
    u, g = greedy_reduce(gram)
    out = [(n, _from_reduced(u, z)) for n, z in _enumerate_reduced(g, bound)]
    out.sort()
    return out


def reduced_vectors(gram, bound: int, reduced: bool = False):
    """All nonzero z with norm <= bound in the greedy-reduced basis of gram.

    Returns (norm, z) pairs sorted by (norm, z), one per +/- pair, with z in
    the coordinates of the rows of `greedy_reduce(gram)`, not of the basis
    behind `gram`.  Norms, primitivity (gcd of z) and the number of
    sublattices spanned by attaining pairs do not depend on the basis, so a
    caller reading only those skips `short_vectors`' lift of every vector.
    A caller whose `gram` is already reduced and known to be positive
    definite, such as a type's normalized Gram from the walk, passes
    `reduced=True`: z then refers to the basis behind `gram`, which is
    neither checked nor reduced again.
    """
    if not reduced:
        _check_positive_definite(gram)
    if bound <= 0:
        return []
    out = _enumerate_reduced(gram if reduced else greedy_reduce(gram)[1], bound)
    out.sort()
    return out


def primitive_norms(gram, bound: int, reduced: bool = False):
    """The sorted norms <= bound of the primitive vectors of gram.

    These are the absolute discriminants d of the imaginary quadratic orders
    that embed optimally into the maximal order whose Gross Gram is `gram`.
    One Fincke-Pohst pass (`_rows`) over the greedy-reduced Gram, as in
    `reduced_vectors`, collecting norms only: z is primitive exactly when
    gcd(z0, gcd(z1, z2)) = 1, so a row with gcd(z1, z2) = 1 adds every norm
    it reaches with no per-vector gcd, and on the row z1 = z2 = 0 only the
    first basis vector is primitive.  Along a row the norms have the
    constant second difference 2 g00, so a full row is summed up by
    `itertools.accumulate` from its first norm.  The rows come with b and q
    stepped in place along each slab, and each row's z0 range is read with
    one inline `isqrt`, not an `_interval` call.  With `reduced`, as in
    `reduced_vectors`, the pass runs on `gram` itself.
    """
    if not reduced:
        _check_positive_definite(gram)
    if bound <= 0:
        return []
    g = gram if reduced else greedy_reduce(gram)[1]
    g00 = g[0][0]
    step = 2 * g00
    out = {g00} if g00 <= bound else set()
    for z1, z2, b, q in _rows(g, bound):
        # the row's z0 range, `_interval(g00, b, q - bound)`, inline: the
        # discriminant is never negative on a row of `_rows`
        s = isqrt(b * b - g00 * (q - bound))
        lo = -((b + s) // g00)
        k = (s - b) // g00 - lo  # the leaves are z0 = lo..lo + k
        if k < 0:
            continue
        h = gcd(z1, z2)
        if h == 1:
            # n(z0 + 1) - n(z0) = g00 (2 z0 + 1) + 2b grows by 2 g00
            d = g00 * (2 * lo + 1) + 2 * b
            out.update(accumulate(
                range(d, d + step * k, step),
                initial=(g00 * lo + 2 * b) * lo + q,
            ))
        elif h:  # h = 0 is the row of e_0's multiples, done above
            out.update([
                (g00 * z0 + 2 * b) * z0 + q
                for z0 in range(lo, lo + k + 1) if gcd(z0, h) == 1
            ])
    return sorted(out)


def _from_reduced(u, z):
    """z0 u_0 + z1 u_1 + z2 u_2 with its first nonzero coordinate positive."""
    z0, z1, z2 = z
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = u
    return _canon_sign((
        z0 * a0 + z1 * b0 + z2 * c0,
        z0 * a1 + z1 * b1 + z2 * c1,
        z0 * a2 + z1 * b2 + z2 * c2,
    ))


# -- successive minima and minimal bases --------------------------------------

class MinimaTriple(tuple):
    def __new__(cls, d1, d2, d3):
        if not d1 <= d2 <= d3:
            raise LatticeError(f"minima ({d1}, {d2}, {d3}) are not sorted")
        return super().__new__(cls, (d1, d2, d3))

    @property
    def d1(self):
        return self[0]

    @property
    def d2(self):
        return self[1]

    @property
    def d3(self):
        return self[2]


def _cross(v, w):
    """v x w: zero exactly when v, w are dependent, else normal to their plane."""
    (v0, v1, v2), (w0, w1, w2) = v, w
    return v1 * w2 - v2 * w1, v2 * w0 - v0 * w2, v0 * w1 - v1 * w0


def greedy_minima(vecs):
    """(d1, d2, d3, v1, v2) from a (norm, coords)-sorted vector list.

    v1 is the first vector, v2 the first one independent of it, and d3 the
    norm of the first vector outside their plane; None when the list has
    rank below 3.
    """
    d1, v1 = vecs[0]
    v2 = d2 = None
    for n, v in vecs:
        if any(_cross(v1, v)):
            v2, d2 = v, n
            break
    if v2 is None:
        return None
    # v lies off the plane of v1, v2 exactly when det(v1, v2, v) = v . c,
    # for their cross product c, is nonzero
    c0, c1, c2 = _cross(v1, v2)
    for n, (w0, w1, w2) in vecs:
        if c0 * w0 + c1 * w1 + c2 * w2:
            return d1, d2, n, v1, v2
    return None


def _norm_pools(u, g):
    """{n: the vectors of norm n that can be in a basis} for n = d1, d2, d3,
    the diagonal of g.

    (u, g) is the `greedy_reduce` output of a Gram G.  The z are visited by
    the (z2, z1) rows of `_rows` to the bound d3, and each row is checked
    once, at its least norm: a row with z2 != 0 must not reach below d3, and
    one with z2 = 0, z1 != 0 not below d2.  Then every vector off Z e_0 has
    norm >= d2 and every vector off the plane of e_0, e_1 has norm >= d3, so
    the diagonal is the successive minima triple; LatticeError otherwise.

    A row's leaves of one norm, d3 on a row with z2 != 0 and d2 on one with
    z2 = 0, are then read off that least norm: the norm is a quadratic in z0
    symmetric about -b / g00, so it takes the value n only when its least
    value, at the z0 nearest -b / g00, is n, and then at that z0 and at its
    mirror -2b / g00 - z0 when this is another integer.  No basis takes a
    norm-d3 vector from the plane of e_0, e_1: when d3 > d2, b1 and b2
    already lie in it.  Of the row z1 = z2 = 0 only the primitive e_0 is
    kept.  Each vector, one per +/- pair, is lifted to the coordinates
    behind G with its first nonzero coordinate positive; the pools are
    unsorted.
    """
    g00, d2, d3 = g[0][0], g[1][1], g[2][2]
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = u
    pools = {g00: [], d2: [], d3: []}
    pools[g00].append(_canon_sign((a0, a1, a2)))
    for z1, z2, b, q in _rows(g, d3):
        if z2:
            n = d3
        elif z1:
            n = d2
        else:
            continue  # the row of e_0's multiples
        z0 = (g00 - 2 * b) // (2 * g00)  # the nearest integer to -b / g00
        least = (g00 * z0 + 2 * b) * z0 + q
        if least != n:
            if least < n:
                raise LatticeError(
                    f"greedy diagonal ({g00}, {d2}, {d3}) is not the minima: "
                    f"the row (z1, z2) = ({z1}, {z2}) reaches norm {least}"
                )
            continue
        mirror, rest = divmod(-2 * b, g00)
        mirror -= z0
        # t e_0 + r, lifted: r = z1 e_1 + z2 e_2 in the coordinates behind G
        r0 = z1 * b0 + z2 * c0
        r1 = z1 * b1 + z2 * c1
        r2 = z1 * b2 + z2 * c2
        for t in (z0,) if rest or mirror == z0 else (z0, mirror):
            pools[n].append(_canon_sign((t * a0 + r0, t * a1 + r1, t * a2 + r2)))
    return pools


def minima_triple(gram) -> MinimaTriple:
    """Successive minima of a positive definite ternary Gram matrix: the
    greedy diagonal, checked by `_norm_pools`."""
    _check_positive_definite(gram)
    u, g = greedy_reduce(gram)
    _norm_pools(u, g)
    return MinimaTriple(g[0][0], g[1][1], g[2][2])


@dataclass(frozen=True)
class MinimalBasis:
    coords: tuple     # 3 rows, coordinates w.r.t. the basis behind the Gram
    gram: tuple
    minima: MinimaTriple


def minimal_basis(gram, tie_break: str = "asc", reduced=None) -> MinimalBasis:
    """Normalized successive minimal basis of a positive definite ternary Gram.

    The minima are the diagonal of the greedy-reduced Gram, checked by
    `_norm_pools`, which lists the vectors of norm exactly D1, D2 and D3.
    Each list is sorted lexicographically, ascending or descending by
    `tie_break`, and the basis is the first (b1, b2, b3) in that order with
    b1, b2 independent and |det(b1, b2, b3)| = 1.  Signs are flipped so the
    (1,2) and (1,3) inner products are nonnegative.  A caller that already
    holds (u, g) = `greedy_reduce(gram)`, as the type walk does for its key,
    passes it as `reduced`, and gram is not reduced again.
    """
    if tie_break not in ("asc", "desc"):
        raise ValueError(f"unknown tie_break {tie_break!r}")
    _check_positive_definite(gram)
    u, g = greedy_reduce(gram) if reduced is None else reduced
    minima = MinimaTriple(g[0][0], g[1][1], g[2][2])
    mb = _completed_basis(gram, _norm_pools(u, g), minima, tie_break)
    if mb is None:
        raise LatticeError("no index-1 completion among minima-attaining vectors")
    return mb


def _index_one_completion(d1_pool, d2_pool, d3_pool):
    """The first (b1, b2, b3) from the pools, in loop order, with b1, b2
    independent and |det(b1, b2, b3)| = 1; None when there is none.

    b1, b2 are independent exactly when their cross product c is nonzero,
    and det(b1, b2, b3) = b3 . c.
    """
    for b1 in d1_pool:
        p0, p1, p2 = b1
        for b2 in d2_pool:
            q0, q1, q2 = b2
            c0, c1, c2 = p1 * q2 - p2 * q1, p2 * q0 - p0 * q2, p0 * q1 - p1 * q0
            if c0 or c1 or c2:
                for b3 in d3_pool:
                    if abs(c0 * b3[0] + c1 * b3[1] + c2 * b3[2]) == 1:
                        return b1, b2, b3
    return None


def minimal_basis_from_vectors(gram, vecs, minima, tie_break: str = "asc"):
    """`minimal_basis` of `gram` read off its own vector list, or None.

    `vecs` is a `reduced_vectors(gram, bound, reduced=True)` list, so its
    coordinates refer to the basis behind `gram`, and `minima` is
    `greedy_minima(vecs)`.  The pools are the vectors of the list whose
    norms are minima's first three entries, each with its first nonzero
    coordinate positive, as `minimal_basis` lifts them; the completion,
    the basis Gram, the sign rule and the minima check are `minimal_basis`'s
    own.  Beside the pools `minimal_basis` lists, these hold only multiples
    of the first basis vector and vectors of norm D3 in the plane of the
    first two, which no index-1 completion takes, so on a Gram whose
    diagonal is its minima the two give the same basis.  No second
    reduction or enumeration runs.  None when `minima` is None, so the list
    does not reach the third minimum, or when no index-1 completion exists.
    """
    if minima is None:
        return None
    d1, d2, d3 = minima[:3]
    pools = {d1: [], d2: [], d3: []}
    for n, z in vecs:
        if n > d3:
            break
        pool = pools.get(n)
        if pool is not None:
            pool.append(_canon_sign(z))
    return _completed_basis(gram, pools, MinimaTriple(d1, d2, d3), tie_break)


def _completed_basis(gram, pools, minima, tie_break: str):
    """The basis of the first index-1 completion from {norm: vectors} pools,
    each sorted by `tie_break`, with its Gram and signs; None when there is
    none, LatticeError when its norms are not `minima`."""
    desc = tie_break == "desc"
    d1, d2, d3 = minima
    chosen = _index_one_completion(
        sorted(pools[d1], reverse=desc),
        sorted(pools[d2], reverse=desc),
        sorted(pools[d3], reverse=desc),
    )
    if chosen is None:
        return None
    b1, b2, b3 = chosen
    (p0, p1, p2), (q0, q1, q2), (r0, r1, r2) = chosen
    # the six entries b_i gram b_j^T, i <= j, of the basis Gram
    (m00, m01, m02), (_, m11, m12), (_, _, m22) = gram
    (w0, w1, w2), (x0, x1, x2), (y0, y1, y2) = [
        (
            t0 * m00 + t1 * m01 + t2 * m02,
            t0 * m01 + t1 * m11 + t2 * m12,
            t0 * m02 + t1 * m12 + t2 * m22,
        )
        for t0, t1, t2 in chosen
    ]
    n1 = w0 * p0 + w1 * p1 + w2 * p2
    n2 = x0 * q0 + x1 * q1 + x2 * q2
    n3 = y0 * r0 + y1 * r1 + y2 * r2
    e12 = w0 * q0 + w1 * q1 + w2 * q2
    e13 = w0 * r0 + w1 * r1 + w2 * r2
    e23 = x0 * r0 + x1 * r1 + x2 * r2
    # signs so that the (1,2) and (1,3) entries are nonnegative
    if e12 < 0:
        b2 = (-q0, -q1, -q2)
        e12, e23 = -e12, -e23
    if e13 < 0:
        b3 = (-r0, -r1, -r2)
        e13, e23 = -e13, -e23
    if (n1, n2, n3) != minima:
        raise LatticeError(
            f"basis norms {(n1, n2, n3)} differ from the minima {minima}"
        )
    return MinimalBasis(
        (b1, b2, b3),
        ((n1, e12, e13), (e12, n2, e23), (e13, e23, n3)),
        minima,
    )


# -- Kneser ell-neighbours of an even ternary form ----------------------------

def half_form(gram, p: int):
    """Even Gram adj(gram) / 2p of the Gross-Lucianovic form of a Gross lattice.

    For a Gross Gram (det 4p^2), M = adj(gram) / 2p is integral with an even
    diagonal and det 2p, so q(x) = x M x^T / 2 has half-discriminant p, and
    adj(M) = gram.  Raises LatticeError when any of the three fails.
    """
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = gram
    p2 = 2 * p
    # the nine entries of adj(gram), each divided by 2p
    m00, r00 = divmod(b1 * c2 - b2 * c1, p2)
    m01, r01 = divmod(a2 * c1 - a1 * c2, p2)
    m02, r02 = divmod(a1 * b2 - a2 * b1, p2)
    m10, r10 = divmod(b2 * c0 - b0 * c2, p2)
    m11, r11 = divmod(a0 * c2 - a2 * c0, p2)
    m12, r12 = divmod(a2 * b0 - a0 * b2, p2)
    m20, r20 = divmod(b0 * c1 - b1 * c0, p2)
    m21, r21 = divmod(a1 * c0 - a0 * c1, p2)
    m22, r22 = divmod(a0 * b1 - a1 * b0, p2)
    if r00 or r01 or r02 or r10 or r11 or r12 or r20 or r21 or r22:
        raise LatticeError(f"adj(gram) is not divisible by 2p = {p2}")
    if m00 % 2 or m11 % 2 or m22 % 2:
        raise LatticeError("adj(gram) / 2p has an odd diagonal entry")
    d = (
        m00 * (m11 * m22 - m12 * m21)
        - m01 * (m10 * m22 - m12 * m20)
        + m02 * (m10 * m21 - m11 * m20)
    )
    if d != p2:
        raise LatticeError(f"adj(gram) / 2p has det {d}, expected {p2}")
    return (m00, m01, m02), (m10, m11, m12), (m20, m21, m22)


@lru_cache(maxsize=16)
def _points(ell: int):
    """One vector per line of F_ell^3, in the order `_isotropic_lines`
    tries them."""
    points = [(1, a, b) for a in range(ell) for b in range(ell)]
    points += [(0, 1, b) for b in range(ell)]
    points.append((0, 0, 1))
    return tuple(points)


def _isotropic_lines(form, ell: int):
    """The vectors v of `_points(ell)` on whose lines q(x) = x m x^T / 2
    vanishes mod ell, for `form` = (m00/2, m11/2, m22/2, m01, m02, m12)."""
    h0, h1, h2, m01, m02, m12 = form
    return [
        v for v in _points(ell)
        if (
            (h0 * v[0] + m01 * v[1] + m02 * v[2]) * v[0]
            + (h1 * v[1] + m12 * v[2]) * v[1]
            + h2 * v[2] * v[2]
        ) % ell == 0
    ]


def _lift(q: int, v, ell: int, t: int, inv: int):
    """v + ell c e_t with q = 0 mod ell^2, for q = q(v) and b_t = (v m)_t
    with inverse inv mod ell.

    q(v + ell c e_t) = q(v) + ell c b_t + ell^2 c^2 q(e_t), so
    c = -(q(v)/ell) / b_t mod ell; this holds for ell = 2 as well.
    """
    w = list(v)
    w[t] -= ell * (q // ell * inv % ell)
    return tuple(w)


# Entries of the neighbour-HNF memo and of the line memo.  Their keys are
# residue data mod ell and ell^2, so they are bounded for each ell: the
# ell = 2 and 3 walks of every p <= 300 and the ell = 2 walk at p = 10007
# fill fewer than 200 HNFs, and the line memo holds at most ell^6 classes.
_NEIGHBOUR_MEMO = 4096


@lru_cache(maxsize=_NEIGHBOUR_MEMO)
def _kneser_lines(form, ell: int):
    """(v, t, inv, cs, slots) for each isotropic line v of q mod ell, for
    the residue class `form` = (m00/2, m11/2, m22/2, m01, m02, m12) mod ell
    of an even m.

    Everything but the lift is fixed by that class: the lines, the first
    coordinate t where b = v m is a unit mod ell, its inverse inv and the
    pairs cs = (i, b_i / b_t mod ell) for i != t.  The lift v + ell c e_t
    (`_lift`) reads q(v) only through r = (q(v) / ell) mod ell, so `slots`
    keeps `_neighbour_hnf` of each lift under its r, filled by `_neighbours`
    as the residues are met; a dict, not ell slots, since at a large ell
    only a few are.  LatticeError when q has other than ell + 1 lines;
    `lru_cache` keeps no exception, so such a class raises on every call.
    """
    lines = _isotropic_lines(form, ell)
    if len(lines) != ell + 1:
        raise LatticeError(
            f"expected {ell + 1} isotropic lines mod {ell}, found {len(lines)}"
        )
    h0, h1, h2, m01, m02, m12 = form
    out = []
    for v in lines:
        v0, v1, v2 = v
        b0 = 2 * h0 * v0 + m01 * v1 + m02 * v2
        b1 = m01 * v0 + 2 * h1 * v1 + m12 * v2
        b2 = m02 * v0 + m12 * v1 + 2 * h2 * v2
        if b0 % ell:
            t, bt, i, bi, j, bj = 0, b0, 1, b1, 2, b2
        elif b1 % ell:
            t, bt, i, bi, j, bj = 1, b1, 0, b0, 2, b2
        else:
            t, bt, i, bi, j, bj = 2, b2, 0, b0, 1, b1
        inv = pow(bt, -1, ell)
        out.append((v, t, inv, ((i, bi * inv % ell), (j, bj * inv % ell)), {}))
    return tuple(out)


@lru_cache(maxsize=_NEIGHBOUR_MEMO)
def _neighbour_hnf(w, t: int, cs, ell: int):
    """HNF of ell L' in the basis of L, and the line back to L, from the
    residue data of one line.

    `w` is the lifted line vector, `t` the coordinate where b = w m is a
    unit mod ell, and `cs` the pairs (i, b_i / b_t mod ell) for i != t.
    ell L' is spanned by w, ell^2 e_t and ell (e_i - c_i e_t); the rows
    ell^2 e_i = ell (ell e_i - ell c_i e_t) + c_i ell^2 e_t already lie in
    that span.  The rows depend on the key alone, and a lattice has one HNF.
    ell L' has full rank and index ell^3 in L, so the HNF H is upper
    triangular with positive pivots of product ell^3; `_neighbours` reads
    only that triangle.

    L and L' share L_w = {x in L : B(x, w) = 0 mod ell}, and L = L_w +
    Z e_t, since B(e_t, w) = b_t is a unit.  So L is the ell-neighbour of L'
    along ell e_t, which lies in L_w.  In the basis H / ell of L', ell e_t
    has the coordinates y = ell^2 e_t H^-1, solved down the triangle; y is
    not 0 mod ell, because e_t is not in L'.  The second value is y's line
    mod ell, as `_points` writes it.
    """
    rows = [w, tuple(ell * ell if j == t else 0 for j in range(3))]
    for i, c in cs:
        row = [0, 0, 0]
        row[i] = ell
        row[t] = -ell * c
        rows.append(row)
    h = hnf(rows)
    (h00, h01, h02), (_, h11, h12), (_, _, h22) = h
    e0, e1, e2 = rows[1]  # ell^2 e_t
    y0 = e0 // h00
    y1 = (e1 - y0 * h01) // h11
    return h, _line((y0, y1, (e2 - y0 * h02 - y1 * h12) // h22), ell)


def _line(v, ell: int):
    """v mod ell scaled so its first nonzero entry is 1, the form of the
    vectors of `_points`; v is not 0 mod ell."""
    v0, v1, v2 = v[0] % ell, v[1] % ell, v[2] % ell
    unit = v0 or v1 or v2
    if unit == 1:  # always, at ell = 2
        return v0, v1, v2
    if not unit:
        raise LatticeError(f"{v} is 0 mod {ell}: no line")
    inv = pow(unit, -1, ell)
    return v0 * inv % ell, v1 * inv % ell, v2 * inv % ell


def line_in_basis(y, u, ell: int):
    """The line y of half_form(G) mod ell as a line of half_form(u G u^T),
    for a unimodular u.

    adj(u G u^T) = adj(u)^T adj(G) adj(u) and adj(u) = det(u) u^-1 with
    det(u) = +/-1, so half_form(u G u^T) = u^-T half_form(G) u^-1: its basis
    is u^-T times the old one, and the vector y has the coordinates y u^T
    there.  The line comes back in the form `gross_neighbours` compares.
    """
    y0, y1, y2 = y
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = u
    return _line((
        y0 * a0 + y1 * a1 + y2 * a2,
        y0 * b0 + y1 * b1 + y2 * b2,
        y0 * c0 + y1 * c1 + y2 * c2,
    ), ell)


def kneser_neighbours(m, ell: int):
    """Even Grams of the ell-neighbours of the lattice L with even Gram `m`.

    `m` is the symmetric Gram of the bilinear form B(x, y) = x m y^T of the
    integral form q(x) = B(x, x) / 2, so its diagonal is even.  For a prime
    ell not dividing det(m)/2, q is nonsingular mod ell, and each of its
    ell + 1 isotropic lines v of L/ell L, lifted so that q(v) = 0 mod ell^2,
    gives the neighbour L' = {x in L : B(x, v) = 0 mod ell} + Z v/ell.
    Scaled by ell, L' is spanned by v, ell^2 e_t and ell (e_i - (b_i/b_t) e_t)
    for i != t, where b = v m and b_t is a unit mod ell.  Their HNF H
    depends only on v, t and the residues b_i/b_t mod ell, so it is
    memoised on them (`_neighbour_hnf`); the Gram of L' is H m H^T / ell^2,
    from the six entries of m and the six of the upper triangular H.  One
    Gram per line, in line order; each neighbour is checked to be integral
    and even, with det(m).

    The lines, each t and the residues b_i/b_t are memoised on the class
    of m mod ell, with each line's HNF per residue q(v)/ell mod ell
    (`_kneser_lines`); a call works out q(v) and the Gram per line.

    Duals of ell-neighbours are ell-neighbours, so on the half form of a
    Gross lattice (`half_form`) the adjugates of the neighbours are the
    Gross Grams of the ell-neighbouring maximal orders, for ell = 2 too;
    `gross_neighbours` walks that way in one step.
    """
    if not is_prime(ell):
        raise LatticeError(f"ell = {ell} is not a prime")
    if m[0][0] % 2 or m[1][1] % 2 or m[2][2] % 2:
        raise LatticeError("m has an odd diagonal entry: not an even Gram")
    return _neighbours(m, det3(m), ell, False)


def gross_neighbours(gram, p: int, ell: int, skip=None):
    """(Gross Gram, reverse line) for each ell-neighbour of the maximal
    order of B_p whose Gross Gram is `gram`, but the one along `skip`.

    The Grams are `[adj(n) for n in kneser_neighbours(half_form(gram, p),
    ell)]`, with every check of `half_form` and of the neighbours, in one
    step: the half form's even diagonal and det 2p are checked once, by
    `half_form`, and each adjugate is read off the cofactors that the
    neighbour's det check computes.  The lines and their HNFs come from
    the line memo of the half form's class mod ell, as in
    `kneser_neighbours`.  Since adj(adj(n)) = det(n) n = 2p n,
    the half form of the neighbour's Gross Gram is n itself.

    Each neighbour L' of the half-form lattice L comes with the line of L'
    mod ell whose neighbour is L again (`_neighbour_hnf`), in the basis
    behind n.  A walk that reached `gram` from a parent passes that line,
    carried into the basis of `gram` by `line_in_basis`, as `skip`: the
    neighbour along it is the parent, whose type the walk has seen, so its
    Gram is neither computed nor returned.  LatticeError when ell is not a
    prime, or when `skip` is not one of the ell + 1 isotropic lines.
    """
    if not is_prime(ell):
        raise LatticeError(f"ell = {ell} is not a prime")
    return _neighbours(half_form(gram, p), 2 * p, ell, True, skip)


def _neighbours(m, d: int, ell: int, adjugates: bool, skip=None):
    """`kneser_neighbours(m, ell)` for an even m of det d and a prime ell,
    or, when `adjugates` is set, `gross_neighbours`' pairs of the
    neighbours' adjugates and reverse lines, skipping the line `skip`.

    The lines and pivots are looked up in the line memo by the class
    (m00/2, m11/2, m22/2, m01, m02, m12) mod ell, at most ell^6 classes per
    ell (`_kneser_lines`), and a line's HNF by r = q(v)/ell mod ell, filled
    from `_neighbour_hnf` of its lift the first time r is met; so the two
    memos count the same HNFs, and `exact.hnf` runs once per HNF key.  The
    checks stay per call: ell prime to d/2, `skip` an isotropic line, and
    each neighbour integral and even, with det d."""
    if d // 2 % ell == 0:
        raise LatticeError(f"ell = {ell} divides det(m)/2 = {d // 2}")
    (m00, m01, m02), (_, m11, m12), (_, _, m22) = m
    h0, h1, h2 = m00 // 2, m11 // 2, m22 // 2
    lines = _kneser_lines(
        (h0 % ell, h1 % ell, h2 % ell, m01 % ell, m02 % ell, m12 % ell), ell
    )
    if skip is not None:
        kept = [line for line in lines if line[0] != skip]
        if len(kept) == len(lines):
            raise LatticeError(f"skip line {skip} is not an isotropic line")
        lines = kept
    ell2 = ell * ell
    out = []
    for v, t, inv, cs, slots in lines:
        v0, v1, v2 = v
        q = (
            (h0 * v0 + m01 * v1 + m02 * v2) * v0
            + (h1 * v1 + m12 * v2) * v1
            + h2 * v2 * v2
        )
        r = q // ell % ell
        hb = slots.get(r)
        if hb is None:
            hb = slots[r] = _neighbour_hnf(_lift(q, v, ell, t, inv), t, cs, ell)
        # ell L' has full rank, so its HNF H is upper triangular
        h, back = hb
        (h00, h01, h02), (_, h11, h12), (_, _, h22) = h
        # the entries of H m that the upper triangle of H m H^T reads
        r00 = h00 * m00 + h01 * m01 + h02 * m02
        r01 = h00 * m01 + h01 * m11 + h02 * m12
        r02 = h00 * m02 + h01 * m12 + h02 * m22
        r11 = h11 * m11 + h12 * m12
        r12 = h11 * m12 + h12 * m22
        n00, e00 = divmod(r00 * h00 + r01 * h01 + r02 * h02, ell2)
        n01, e01 = divmod(r01 * h11 + r02 * h12, ell2)
        n02, e02 = divmod(r02 * h22, ell2)
        n11, e11 = divmod(r11 * h11 + r12 * h12, ell2)
        n12, e12 = divmod(r12 * h22, ell2)
        n22, e22 = divmod(h22 * h22 * m22, ell2)
        if e00 or e01 or e02 or e11 or e12 or e22:
            raise LatticeError("non-integer Gram entry in an ell-neighbour")
        if n00 % 2 or n11 % 2 or n22 % 2:
            raise LatticeError("ell-neighbour has an odd diagonal entry")
        # the cofactors of the first row, which give both the det and, with
        # three more, the adjugate
        k00 = n11 * n22 - n12 * n12
        k01 = n01 * n22 - n12 * n02
        k02 = n01 * n12 - n11 * n02
        nd = n00 * k00 - n01 * k01 + n02 * k02
        if nd != d:
            raise LatticeError(f"ell-neighbour has det {nd}, expected {d}")
        if adjugates:
            k12 = n01 * n02 - n00 * n12
            out.append(((
                (k00, -k01, k02),
                (-k01, n00 * n22 - n02 * n02, k12),
                (k02, k12, n00 * n11 - n01 * n01),
            ), back))
        else:
            out.append(((n00, n01, n02), (n01, n11, n12), (n02, n12, n22)))
    return out


def rank2_det(gram, i1: int, i2: int) -> int:
    """2x2 Gram minor D_i D_j - (i,j)^2 of the basis behind `gram`."""
    if i1 == i2:
        raise ValueError("need two distinct indices")
    return gram[i1][i1] * gram[i2][i2] - gram[i1][i2] ** 2


def attaining_rank2_sublattices(vecs):
    """Distinct sublattices <v, w> over all pairs attaining the first two
    minima, each as its sign-normalized cross product v x w; sorted.

    `vecs` is a `short_vectors` or `reduced_vectors` list reaching at least
    the third minimum, so `greedy_minima` reads (D1, D2) from it; a shorter
    list raises LatticeError.  Equal planes give equal sublattices, so no
    HNF is needed: the lattice M of all points of the plane of such a pair
    lies in the whole lattice, so its two minima are at least D1 and D2 and
    v, w attain them, and in dimension 2 such vectors form a basis: <v, w>
    = M.  Two pairs in one plane are bases of one M, so their cross
    products agree up to sign.  A unimodular change of the basis behind
    `vecs` moves the cross products but not their number.
    """
    minima = greedy_minima(vecs)
    if minima is None:
        raise LatticeError("the vector list does not reach the third minimum")
    d1, d2 = minima[:2]
    firsts = [v for n, v in vecs if n == d1]
    seconds = [v for n, v in vecs if n == d2]
    crosses = [_cross(v, w) for v in firsts for w in seconds]
    return sorted({_canon_sign(c) for c in crosses if any(c)})


def basis_pair_sublattice_count(gram) -> int:
    """Number of sublattices <b_i, b_j> over basis pairs attaining (D1, D2).

    `gram` is a minimal basis's Gram matrix, so its diagonal holds the
    minima.  Distinct index pairs of a basis span distinct sublattices, so
    the count is that of the index pairs {i, j} with norms (D1, D2), read
    off the diagonal alone.  For a j = 0 type the second and third basis
    vectors share the norm D2, so the count is 2; for other spine types it
    is 1, the pair {b_1, b_2}.
    """
    d = gram[0][0], gram[1][1], gram[2][2]
    return len(
        {
            frozenset((i, j))
            for i in range(3)
            for j in range(3)
            if i != j and d[i] == d[0] and d[j] == d[1]
        }
    )
