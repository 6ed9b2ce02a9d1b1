"""Differential tests of the exact-norm and norm-only passes against the lists.

`lattice.minimal_basis` enumerates only the vectors of norm exactly D1, D2
or D3 and takes the minima from the greedy diagonal, checked row by row;
`minimal_basis_reference` (tests/enumeration_reference.py) is the route it
replaced, a greedy selection over every vector up to D3.  Both tie-breaks
must give the same basis, Gram and minima.

`lattice.primitive_norms` collects primitive norms in one enumeration pass;
`primitive_norms_reference` reduces a sorted `reduced_vectors` list to them.
They must agree at the bounds 3, 8, D3 and 2p.  The pass sums a full row's
norms up by `itertools.accumulate`; `primitive_norms_per_leaf`, the pass
that listed them leaf by leaf, must give the same norms at the bounds 3, 8
and 2p, at every p <= 300 and at p = 10007 and 10039.  The per-leaf pass
runs over `rows_reference`, the rows as `lattice._rows` gave them before a
slab's row values stepped in place; the two must yield the same rows, in
order, on every type Gram at every p <= 300 at ell = 2 and 3 and at
p = 10007 and 10039 at ell = 2, at the bounds 0, 3, 8, D3 and 2p.

Each type's walk Gram is compared, and the same Gram under a seeded random
unimodular change of basis.  Tier-1 covers every type at every prime
p <= 500 at ell = 2 and 3.

`verify`'s tiebreak-unique rule reads the desc basis off the type's own
vector list on its normalized Gram (`lattice.minimal_basis_from_vectors`),
with no second reduction or enumeration.  On every type that is the basis
`minimal_basis` builds on the normalized Gram in both tie-breaks, and on
every spine type (p != 3) its Gram is the normalized Gram and the desc Gram
`minimal_basis` reads off the walk Gram.  Tier-1 covers every p <= 300 and
p = 10007 at the default ell.

The gate over every p <= 2000 is opt-in:

    GROSSLAT_WALK_REFERENCE=1 pytest tests/test_enumeration_reference.py -m walk_reference
"""

import random

import pytest

from grosslat.classify import field_of_definition
from grosslat.exact import primes_between
from grosslat.lattice import (
    _rows,
    greedy_minima,
    minimal_basis,
    minimal_basis_from_vectors,
    primitive_norms,
    reduced_vectors,
)
from enumeration_reference import (
    minimal_basis_reference, primitive_norms_per_leaf, primitive_norms_reference,
    rows_reference,
)
from test_lattice import EYE, change_basis, random_unimodular
from walks import walk, walk_grams, with_walk_grams


def grams_of(p, ell):
    """(minima, Gram) pairs: each type's walk Gram and one moved copy of it."""
    rng = random.Random(p * 10 + ell)
    out = []
    for minima, gram in sorted(walk_grams(p, ell).items()):
        out.append((minima, gram))
        out.append((minima, change_basis(random_unimodular(rng), gram)))
    return out


def assert_minimal_bases_match(p, ell):
    for minima, gram in grams_of(p, ell):
        for tie_break in ("asc", "desc"):
            got = minimal_basis(gram, tie_break)
            assert got == minimal_basis_reference(gram, tie_break), (p, ell, gram)
            assert got.minima == minima


def assert_primitive_norms_match(p, ell):
    for minima, gram in grams_of(p, ell):
        for bound in (3, 8, minima[2], 2 * p):
            assert primitive_norms(gram, bound) == primitive_norms_reference(
                gram, bound
            ), (p, ell, gram, bound)


def primes_for(ell, pmax):
    return [p for p in primes_between(2, pmax) if p != ell]


@pytest.mark.parametrize("ell", [2, 3])
def test_minimal_basis_matches_the_full_enumeration_to_500(ell):
    for p in primes_for(ell, 500):
        assert_minimal_bases_match(p, ell)


@pytest.mark.parametrize("ell", [2, 3])
def test_primitive_norms_match_the_vector_list_to_500(ell):
    for p in primes_for(ell, 500):
        assert_primitive_norms_match(p, ell)


def assert_primitive_norms_match_per_leaf(p, ell):
    for _, gram in grams_of(p, ell):
        for bound in (3, 8, 2 * p):
            assert primitive_norms(gram, bound) == primitive_norms_per_leaf(
                gram, bound
            ), (p, ell, gram, bound)


def test_primitive_norms_match_the_per_leaf_pass_to_300():
    for p in primes_between(2, 300):
        assert_primitive_norms_match_per_leaf(p, 3 if p == 2 else 2)


def test_primitive_norms_match_the_per_leaf_pass_at_10007_and_10039():
    for p in (10007, 10039):
        assert_primitive_norms_match_per_leaf(p, 2)


def test_rows_match_the_rows_worked_out_per_row():
    # the z2 = 0 slab starts at z1 = 0, bound 0 leaves it the one row
    # (0, 0), and a slab may hold no row, as a few do at the bound 2p
    walks = [(p, ell) for p in primes_between(2, 300) for ell in (2, 3) if ell != p]
    compared = 0
    for p, ell in walks + [(10007, 2), (10039, 2)]:
        for rec in walk(p, ell):
            g = rec.gram
            for bound in (0, 3, 8, rec.minima[2], 2 * p):
                assert list(_rows(g, bound)) == list(rows_reference(g, bound)), (
                    p, ell, g, bound,
                )
                compared += 1
    assert compared > 9000


def assert_desc_bases_from_the_vector_lists_match(primes):
    """The number of spine types (p != 3) whose desc basis, read off the
    type's vector list as verify reads it, passed every comparison."""
    spine = 0
    for p in primes:
        for rec, walk_gram in with_walk_grams(p):
            g = rec.gram
            vecs = reduced_vectors(g, max(rec.minima[2], 8), reduced=True)
            bf = greedy_minima(vecs)
            for tie_break in ("asc", "desc"):
                got = minimal_basis_from_vectors(g, vecs, bf, tie_break)
                assert got == minimal_basis(g, tie_break, reduced=(EYE, g)), (
                    p, rec.minima, tie_break,
                )
            if p != 3 and field_of_definition(p, rec.minima[2]):
                desc = got.gram
                assert desc == g == minimal_basis(walk_gram, "desc").gram, (
                    p, rec.minima,
                )
                spine += 1
    return spine


def test_desc_bases_from_the_vector_lists_match_to_300_and_at_10007():
    assert assert_desc_bases_from_the_vector_lists_match(
        primes_between(2, 300) + [10007]
    ) == 344 + 77


@pytest.mark.walk_reference
def test_desc_bases_from_the_vector_lists_match_to_2000():
    assert assert_desc_bases_from_the_vector_lists_match(
        primes_between(2, 2000) + [10007]
    ) == 4509


@pytest.mark.walk_reference
@pytest.mark.parametrize("ell", [2, 3])
def test_minimal_basis_matches_the_full_enumeration_to_2000(ell):
    for p in primes_for(ell, 2000):
        assert_minimal_bases_match(p, ell)


@pytest.mark.walk_reference
@pytest.mark.parametrize("ell", [2, 3])
def test_primitive_norms_match_the_vector_list_to_2000(ell):
    for p in primes_for(ell, 2000):
        assert_primitive_norms_match(p, ell)
