"""The vector-list routes that `minimal_basis` and `primitive_norms` replaced.

`minimal_basis_reference` lists every vector up to the greedy third minimum
(`short_vectors`, sorted by norm and coordinates), reads the minima off the
list with `greedy_minima`, and picks the basis from the norm-D1, D2 and D3
vectors in list order.  `lattice.minimal_basis` lists only the vectors of
norm exactly D1, D2 or D3 and takes the minima from the greedy diagonal.
`norm_pools_reference` is those lists (`lattice._norm_pools`) read off the
full `reduced_vectors` list, each vector lifted by `short_vectors`' route.

`primitive_norms_reference` reduces a sorted `reduced_vectors` list to the
set of its primitive norms, as `embedded_discriminants` did;
`lattice.primitive_norms` collects the norms in the enumeration itself.
`primitive_norms_per_leaf` is that pass as it was before a full row's norms
were summed up by `itertools.accumulate`: one norm per leaf of every row,
each row's z0 range by `lattice._interval`.

`rows_reference` is `lattice._rows` as it was before a slab's row values
stepped in place: b and q from their products on every row.  The per-leaf
pass runs over it, so it shares no row code with the pass it checks.
"""

from math import gcd

from grosslat.lattice import (
    LatticeError,
    MinimaTriple,
    MinimalBasis,
    _check_positive_definite,
    _cross,
    _from_reduced,
    _interval,
    det3,
    gram_inner,
    greedy_minima,
    greedy_reduce,
    reduced_vectors,
    short_vectors,
)


def minima_pass(gram):
    """The short_vectors list up to the greedy third minimum, and its
    greedy_minima; the list spans rank 3, since it holds the greedy basis."""
    vecs = short_vectors(gram, greedy_reduce(gram)[1][2][2])
    return vecs, greedy_minima(vecs)


def minimal_basis_reference(gram, tie_break="asc"):
    """`lattice.minimal_basis` by a greedy selection over the full list."""
    vecs, (d1, d2, d3, _, _) = minima_pass(gram)
    if tie_break == "desc":
        vecs.sort(key=lambda t: (t[0], tuple(-x for x in t[1])))
    pools = [[v for n, v in vecs if n == d] for d in (d1, d2, d3)]
    chosen = next(
        (
            (b1, b2, b3)
            for b1 in pools[0]
            for b2 in pools[1]
            if any(_cross(b1, b2))
            for b3 in pools[2]
            if abs(det3((b1, b2, b3))) == 1
        ),
        None,
    )
    if chosen is None:
        raise LatticeError("no index-1 completion among minima-attaining vectors")
    b1, b2, b3 = chosen
    if gram_inner(gram, b1, b2) < 0:
        b2 = tuple(-x for x in b2)
    if gram_inner(gram, b1, b3) < 0:
        b3 = tuple(-x for x in b3)
    basis = (b1, b2, b3)
    g = tuple(tuple(gram_inner(gram, x, y) for y in basis) for x in basis)
    return MinimalBasis(basis, g, MinimaTriple(d1, d2, d3))


def norm_pools_reference(u, g):
    """`lattice._norm_pools(u, g)`, each pool sorted, from every vector of
    norm <= d3: the vectors of norm d1, d2 or d3, the diagonal of g, less
    the multiples k e_0 with k > 1 and, when d3 > d2, the norm-d3 vectors
    in the plane of e_0, e_1."""
    d1, d2, d3 = g[0][0], g[1][1], g[2][2]
    pools = {d1: [], d2: [], d3: []}
    for n, z in reduced_vectors(g, d3, reduced=True):
        z0, z1, z2 = z
        if z1 == z2 == 0 and z0 != 1 or z2 == 0 and n == d3 != d2:
            continue
        if n in pools:
            pools[n].append(_from_reduced(u, z))
    return {n: sorted(vs) for n, vs in pools.items()}


def embedded_discriminants(vecs, bound):
    """All d <= bound with a primitive vector of norm d in a vector list
    (`short_vectors` or `reduced_vectors`) reaching at least `bound`."""
    return sorted({n for n, v in vecs if n <= bound and gcd(gcd(v[0], v[1]), v[2]) == 1})


def primitive_norms_reference(gram, bound):
    """`lattice.primitive_norms` from the sorted reduced_vectors list."""
    return embedded_discriminants(reduced_vectors(gram, bound), bound)


def rows_reference(g, bound):
    """`lattice._rows(g, bound)` with b and q worked out on each row."""
    (g00, g01, g02), (_, g11, g12), (_, _, g22) = g
    m2 = g00 * g11 - g01 * g01
    m1 = g00 * g12 - g01 * g02
    m0 = g00 * g22 - g02 * g02
    for z2 in range(_interval(det3(g), 0, -bound * m2).stop):
        for z1 in _interval(m2, z2 * m1, z2 * z2 * m0 - g00 * bound):
            if z2 or z1 >= 0:
                b = g01 * z1 + g02 * z2
                q = (g11 * z1 + 2 * g12 * z2) * z1 + g22 * z2 * z2
                yield z1, z2, b, q


def primitive_norms_per_leaf(gram, bound):
    """`lattice.primitive_norms` with each row's norms listed leaf by leaf."""
    _check_positive_definite(gram)
    if bound <= 0:
        return []
    g = greedy_reduce(gram)[1]
    g00 = g[0][0]
    out = {g00} if g00 <= bound else set()
    for z1, z2, b, q in rows_reference(g, bound):
        h = gcd(z1, z2)
        leaves = _interval(g00, b, q - bound)
        if h == 1:
            out.update([(g00 * z0 + 2 * b) * z0 + q for z0 in leaves])
        elif h:
            out.update(
                [(g00 * z0 + 2 * b) * z0 + q for z0 in leaves if gcd(z0, h) == 1]
            )
    return sorted(out)
