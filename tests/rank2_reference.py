"""The HNF count that `lattice.attaining_rank2_sublattices` replaced.

`hnf_rank2_sublattices` spans each pair attaining the first two minima and
keeps the distinct HNFs of the spans; `attaining_rank2_sublattices` keeps
the distinct planes of the pairs, each as its sign-normalized cross
product, with no HNF.  Every attaining pair is a basis of the lattice
points of its plane, so the two must find the same number of sublattices;
`tests/test_lattice.py` compares them.
"""

from grosslat.exact import hnf
from grosslat.lattice import LatticeError, greedy_minima


def _independent2(v, w) -> bool:
    return (
        v[0] * w[1] - v[1] * w[0] != 0
        or v[0] * w[2] - v[2] * w[0] != 0
        or v[1] * w[2] - v[2] * w[1] != 0
    )


def hnf_rank2_sublattices(vecs):
    """Distinct HNFs of <v, w> over all pairs attaining the first two minima.

    `vecs` is a `short_vectors` or `reduced_vectors` list reaching at least
    the third minimum, so `greedy_minima` reads (D1, D2) from it; a shorter
    list raises LatticeError.  Two pairs span the same sublattice exactly
    when their HNFs agree; a unimodular change of the basis behind `vecs`
    changes the HNFs but not their number.  Sorted for determinism.
    """
    minima = greedy_minima(vecs)
    if minima is None:
        raise LatticeError("the vector list does not reach the third minimum")
    d1, d2 = minima[:2]
    firsts = [v for n, v in vecs if n == d1]
    seconds = [v for n, v in vecs if n == d2]
    return sorted(
        {hnf([v, w]) for v in firsts for w in seconds if _independent2(v, w)}
    )
