from bisect import bisect_right
from collections import Counter
from math import gcd

import pytest

from grosslat.classify import (
    EMBED_BOTH,
    EMBED_HALF,
    EMBED_NA,
    EMBED_SQRT,
    classify_type,
    field_of_definition,
    frobenius_embedding,
    special_j,
    structural_flags,
    validate_bounds,
)
from grosslat.exact import hnf, primes_between
from grosslat.lattice import (
    LatticeError,
    attaining_rank2_sublattices,
    gram_inner,
    primitive_norms,
    short_vectors,
)
from grosslat.oracle import supersingular_j_set
from enumeration_reference import embedded_discriminants
from test_lattice import brute_short_vectors
from walks import types_of, walk, with_walk_grams


def gram_of(p, index=0):
    return with_walk_grams(p)[index][1]


def norms_of(p, index=0, bound=4):
    return primitive_norms(gram_of(p, index), bound)


def test_field_of_definition():
    assert field_of_definition(31, 36)
    assert not field_of_definition(113, 68)
    assert field_of_definition(7, 8)


def test_special_j():
    assert special_j(5, norms_of(5)) == "j0"
    assert special_j(11, norms_of(11, 1)) == "j1728"
    assert special_j(11, norms_of(11, 0)) == "j0"
    assert special_j(2, norms_of(2)) == "both"
    assert special_j(3, norms_of(3)) == "both"
    assert special_j(13, norms_of(13)) == "none"


def test_special_j_rejects_norms_3_and_4_away_from_1728():
    norms = primitive_norms(((3, 0, 0), (0, 4, 0), (0, 0, 5)), 5)
    assert norms == [3, 4, 5]
    with pytest.raises(LatticeError):
        special_j(7, norms)


def test_frobenius_embedding():
    assert frobenius_embedding(11, (4, 11, 12), True) == EMBED_BOTH
    assert frobenius_embedding(31, (7, 19, 36), True) == EMBED_SQRT
    assert frobenius_embedding(7, (4, 7, 8), True) == EMBED_BOTH
    assert frobenius_embedding(31, (8, 16, 31), True) == EMBED_HALF
    assert frobenius_embedding(113, (20, 47, 68), False) == EMBED_NA
    # p = 1 mod 4 spine types default to the Z[sqrt(-p)] side
    assert frobenius_embedding(13, (7, 8, 15), True) == EMBED_SQRT


def two_torsion_splits(j, p):
    """Whether x^3 + 3k x + 2k (1728 - j), k = j (1728 - j), splits into
    linear factors over F_p (x^3 + 1 at j = 0): whether x^p = x modulo it.

    Its roots are the x of the 2-torsion of a curve over F_p with invariant
    j != 1728."""
    k = j * (1728 - j)
    a, b = (3 * k % p, 2 * k * (1728 - j) % p) if j else (0, 1)

    def mul(u, v):
        w = [0] * 5
        for i, x in enumerate(u):
            for n, y in enumerate(v):
                w[i + n] += x * y
        for d in (4, 3):  # x^3 = -a x - b
            w[d - 2] -= a * w[d]
            w[d - 3] -= b * w[d]
        return [c % p for c in w[:3]]

    r, x = [1, 0, 0], [0, 1, 0]
    for bit in bin(p)[2:]:
        r = mul(r, r)
        if bit == "1":
            r = mul(r, x)
    return r == x


def test_frobenius_labels_count_the_split_two_torsion_cubics():
    # p = 3 mod 4: the F_p-endomorphism ring of a curve with j in F_p is
    # Z[(1+sqrt(-p))/2] when its 2-torsion is rational and Z[sqrt(-p)] when
    # not, and j = 1728 has both; so over the spine types the labels count
    # the j in F_p other than 1728 by whether their cubic splits
    for p in primes_between(7, 500):
        if p % 4 != 3:
            continue
        labels = Counter(
            frobenius_embedding(p, t.minima, field_of_definition(p, t.minima[2]))
            for t in types_of(p)
        )
        split = Counter(
            two_torsion_splits(j, p)
            for j, im in supersingular_j_set(p).js if im == 0 and j != 1728 % p
        )
        assert (
            labels[EMBED_HALF] + labels[EMBED_BOTH],
            labels[EMBED_SQRT] + labels[EMBED_BOTH],
        ) == (split[True] + 1, split[False] + 1), p


def brute_embedded(gram, bound):
    out = set()
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            for c in range(-bound, bound + 1):
                if (a, b, c) == (0, 0, 0):
                    continue
                n = gram_inner(gram, (a, b, c), (a, b, c))
                if n <= bound and gcd(gcd(a, b), c) == 1:
                    out.add(n)
    return sorted(out)


def test_embedded_discriminants_frozen_from_box_oracle():
    # the embedded discriminants of a type are its primitive norms
    assert norms_of(11, 1, 12) == [4, 11, 12]
    assert norms_of(11, 1, 12) == brute_embedded(gram_of(11, 1), 12)
    assert norms_of(5, 0, 7) == [3, 7]
    assert norms_of(5, 0, 7) == brute_embedded(gram_of(5), 7)
    # norms 1 and 2 cannot occur in a Gross lattice
    assert norms_of(5, 0, 2) == []


def test_validate_bounds_examples():
    assert validate_bounds(31, (7, 19, 36), True) == []
    assert validate_bounds(113, (20, 47, 68), False) == []
    assert validate_bounds(11, (4, 11, 14), True) == []
    assert "d3-upper-spine" in validate_bounds(11, (4, 11, 15), True)
    assert validate_bounds(2, (3, 3, 3), True) == []
    assert validate_bounds(3, (3, 4, 4), True) == []


def test_structural_flags():
    assert structural_flags(((3, 1, 1), (1, 3, -1), (1, -1, 3)), (3, 3, 3)) == (
        False,
        True,
    )
    assert structural_flags(((4, 0, 2), (0, 11, 0), (2, 0, 12)), (4, 11, 12)) == (
        False,
        False,
    )
    assert structural_flags(((3, 0, 0), (0, 4, 0), (0, 0, 4)), (3, 4, 4)) == (
        True,
        False,
    )


def test_classify_type_p11():
    recs = walk(11, 2)
    c0 = classify_type(11, norms_of(11, 0), recs[0].minima, recs[0].gram)
    assert (c0.spine, c0.special_j, c0.embedding) == (True, "j0", EMBED_SQRT)
    c1 = classify_type(11, norms_of(11, 1), recs[1].minima, recs[1].gram)
    assert (c1.spine, c1.special_j, c1.embedding) == (True, "j1728", EMBED_BOTH)
    assert not c1.orthogonal and not c1.well_rounded


@pytest.mark.parametrize("p", [*primes_between(2, 300), 10007])
def test_classify_on_the_norms_cut_at_4_matches_the_full_list(p):
    # `types` hands classify_type only the norms <= 4 of a type's list
    # (special_j reads whether 3 and 4 occur) and prints the list to 2p
    for rec in types_of(p):
        full = primitive_norms(rec.gram, max(2 * p, 4), reduced=True)
        cut = full[:bisect_right(full, 4)]
        assert len(cut) <= 2 and set(cut) <= {3, 4}, (p, rec)
        assert classify_type(p, cut, rec.minima, rec.gram) == classify_type(
            p, full, rec.minima, rec.gram
        ), (p, rec)
    if p in (2, 3):
        assert classify_type(p, cut, rec.minima, rec.gram).special_j == "both"


def test_loop_discriminants_imply_spine():
    # 4, 7 or 8 among the embedded discriminants forces j in F_p
    for p in (11, 13, 37, 113):
        for rec, walk_gram in with_walk_grams(p, 2):
            emb = primitive_norms(walk_gram, 8)
            c = classify_type(p, emb, rec.minima, rec.gram)
            if any(d in emb for d in (4, 7, 8)):
                assert c.spine


def rank2_sublattice_count(gram, d1, d2):
    """Reference: distinct HNFs of <v, w> over pairs of norms (d1, d2)."""
    vecs = short_vectors(gram, d2)
    firsts = [v for n, v in vecs if n == d1]
    seconds = [v for n, v in vecs if n == d2]
    return len(
        {
            hnf([v, w])
            for v in firsts
            for w in seconds
            if any(v[i] * w[j] != v[j] * w[i] for i, j in ((0, 1), (0, 2), (1, 2)))
        }
    )


@pytest.mark.parametrize("p", [2, 3, 5, 11, 101, 1009])
def test_one_list_on_the_minimal_gram_matches_per_call_enumeration(p):
    # verify reads every vector fact of a type from one list on rec.gram;
    # norms, primitivity and sublattice counts do not see the change of
    # basis, so one enumeration of the walk Gram per question agrees
    for rec, old in with_walk_grams(p):
        d1, d2, d3 = rec.minima
        bound = max(2 * p, 8)
        vecs = short_vectors(rec.gram, bound)
        assert special_j(p, {n for n, _ in vecs}) == special_j(
            p, primitive_norms(old, 4)
        )
        for b in (8, 2 * p):
            assert embedded_discriminants(vecs, b) == embedded_discriminants(
                short_vectors(old, b), b
            ) == primitive_norms(old, b) == primitive_norms(rec.gram, b)
        subs = attaining_rank2_sublattices(vecs)
        assert len(subs) == rank2_sublattice_count(old, d1, d2)
        if p <= 13:
            assert vecs == brute_short_vectors(rec.gram, bound)
            for b in (8, 2 * p):
                assert embedded_discriminants(vecs, b) == brute_embedded(old, b)
