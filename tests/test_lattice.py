import random

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

import pytest

import grosslat.lattice as lattice
import grosslat.orders as orders
from grosslat.lattice import (
    LatticeError,
    MinimaTriple,
    attaining_rank2_sublattices,
    basis_pair_sublattice_count,
    det3,
    gram_inner,
    greedy_minima,
    greedy_reduce,
    gross_neighbours,
    half_form,
    kneser_neighbours,
    minima_triple,
    minimal_basis,
    primitive_norms,
    rank2_det,
    reduced_vectors,
    short_vectors,
)
from grosslat.classify import special_j
from grosslat.exact import hnf, legendre, primes_between
from grosslat.orders import (
    GrossLattice,
    enumerate_types,
    gross_lattice,
    pizer_gross_gram,
    standard_maximal_order,
)
from enumeration_reference import embedded_discriminants, minima_pass
from greedy_reference import greedy_reduce_reference, greedy_reduce_until_idle
from kneser_reference import adj3, empty_line_memo, kneser_neighbours_reference
from quat_elements import element, lattice_basis_elements, one
from rank2_reference import hnf_rank2_sublattices
from test_walk_reference import basis_elements, order_walk, walk_half_forms
from walks import types_of, walk, walk_grams, with_walk_grams


def gram_of(p, index=0):
    return with_walk_grams(p)[index][1]


def brute_short_vectors(gram, bound):
    """Plain box-sweep oracle, independent of the enumeration code path."""
    out = []
    box = bound  # diagonal entries are >= 3, so |v_i| <= bound is generous
    for a in range(-box, box + 1):
        for b in range(-box, box + 1):
            for c in range(-box, box + 1):
                v = (a, b, c)
                if v == (0, 0, 0):
                    continue
                first = next(x for x in v if x)
                if first < 0:
                    continue
                n = gram_inner(gram, v, v)
                if n <= bound:
                    out.append((n, v))
    return sorted(out)


def test_gross_lattice_known_values():
    o11 = standard_maximal_order(11)
    lat = gross_lattice(o11)
    mb = minimal_basis(lat.gram)
    assert mb.gram == ((4, 0, 2), (0, 11, 0), (2, 0, 12))
    o5 = standard_maximal_order(5)
    assert det3(gross_lattice(o5).gram) == 100


def test_gross_map_kills_scalars():
    # 2x - trd(x) = 0 for x = 1, so the image of an order basis has rank 3
    o = standard_maximal_order(11)
    e = one(o.algebra)
    image = 2 * e - element(o.algebra, e.trd())
    assert image.coords == (0, 0, 0, 0)
    lat = gross_lattice(o)
    assert len(lat.mat) == 3
    assert all(b.trd() == 0 for b in lattice_basis_elements(lat))


def test_gross_lattice_rejects_non_order():
    from grosslat.orders import QuaternionOrder
    from grosslat.quat import QuaternionAlgebra

    bad = QuaternionOrder.from_generators(
        QuaternionAlgebra(-1, -11, 11),
        ((1, 0, 0, 0), (0, 3, 0, 0), (0, 0, 5, 0), (0, 0, 0, 7)),
        1,
    )
    with pytest.raises(LatticeError):
        gross_lattice(bad)


def test_short_vectors_j1728_at_11():
    vecs = short_vectors(gram_of(11, 1), 11)
    assert [n for n, _ in vecs] == [4, 11]  # only +-beta1 and +-j survive


def test_short_vectors_bound_two_empty():
    for p, idx in ((11, 0), (11, 1), (13, 0)):
        assert short_vectors(gram_of(p, idx), 2) == []


def test_short_vectors_p2_norm3():
    vecs = short_vectors(gram_of(2), 3)
    assert len(vecs) == 4 and all(n == 3 for n, _ in vecs)
    triple = minima_triple(gram_of(2))
    assert tuple(triple) == (3, 3, 3)


def test_short_vectors_not_positive_definite():
    with pytest.raises(LatticeError):
        short_vectors(((1, 0, 0), (0, -1, 0), (0, 0, 1)), 5)


def test_short_vectors_against_box_oracle():
    rng = random.Random(17)
    for _ in range(25):
        m = [[rng.randrange(-3, 4) for _ in range(3)] for _ in range(3)]
        gram = [
            [sum(m[i][k] * m[j][k] for k in range(3)) + (4 if i == j else 0)
             for j in range(3)]
            for i in range(3)
        ]
        gram = tuple(tuple(row) for row in gram)
        bound = rng.randrange(4, 25)
        assert short_vectors(gram, bound) == brute_short_vectors(gram, bound)
    for p, idx in ((11, 0), (11, 1), (13, 0), (7, 0)):
        g = gram_of(p, idx)
        assert short_vectors(g, 2 * p) == brute_short_vectors(g, 2 * p)
    for p in (2, 3, 5, 7, 11, 13):
        for rec, g in with_walk_grams(p):
            d1, _, d3 = rec.minima
            for bound in (d1 - 1, d1, d3):
                assert short_vectors(g, bound) == brute_short_vectors(g, bound)


# -- the integer enumerator against the Fraction LDL reference --------------

def test_interval_matches_a_brute_scan():
    for a in range(1, 7):
        for b in range(-9, 10):
            for c in range(-40, 41):
                want = [t for t in range(-60, 61) if a * t * t + 2 * b * t + c <= 0]
                assert list(lattice._interval(a, b, c)) == want, (a, b, c)


def reference_floor_c_plus_sqrt(c, t):
    """floor(c + sqrt(t)) for Fractions c and t >= 0, exactly."""
    cn, cd = c.numerator, c.denominator
    tn, td = t.numerator, t.denominator
    # c + sqrt(tn/td) = (cn*td + cd*sqrt(tn*td)) / (cd*td)
    a = cn * td
    bden = cd * td
    m = cd * cd * tn * td
    k = (a + isqrt(m)) // bden
    while True:
        d = (k + 1) * bden - a
        if d <= 0 or d * d <= m:
            k += 1
        else:
            break
    while True:
        d = k * bden - a
        if d > 0 and d * d > m:
            k -= 1
        else:
            break
    return k


def reference_enumerate(g, bound):
    """Fincke-Pohst over the Fraction LDL decomposition of g (slow path)."""
    fl = reference_floor_c_plus_sqrt
    d0 = Fraction(g[0][0])
    mu10 = Fraction(g[0][1], g[0][0])
    d1 = Fraction(g[1][1]) - mu10 * mu10 * d0
    mu20 = Fraction(g[0][2], g[0][0])
    mu21 = (Fraction(g[1][2]) - mu20 * mu10 * d0) / d1
    d2 = Fraction(g[2][2]) - mu20 * mu20 * d0 - mu21 * mu21 * d1
    out = []
    bf = Fraction(bound)
    for z2 in range(0, fl(Fraction(0), bf / d2) + 1):
        r2 = bf - d2 * z2 * z2
        c1 = -mu21 * z2
        for z1 in range(-fl(-c1, r2 / d1), fl(c1, r2 / d1) + 1):
            r1 = r2 - d1 * (z1 - c1) ** 2
            c0 = -mu10 * z1 - mu20 * z2
            for z0 in range(-fl(-c0, r1 / d0), fl(c0, r1 / d0) + 1):
                if z2 == 0 and (z1 < 0 or (z1 == 0 and z0 <= 0)):
                    continue
                v = (z0, z1, z2)
                n = gram_inner(g, v, v)
                if 0 < n <= bound:
                    out.append((n, v))
    return out


@pytest.mark.parametrize("p", [2, 3, 5, 11, 101, 1009])
def test_enumerator_matches_the_fraction_reference(p):
    for rec, walk_gram in with_walk_grams(p):
        _, g = greedy_reduce(walk_gram)
        d1, _, d3 = rec.minima
        for bound in (0, d1 - 1, d1, d3, 2 * p):
            assert lattice._enumerate_reduced(g, bound) == reference_enumerate(
                g, bound
            ), (rec.minima, bound)


def test_enumerator_matches_the_fraction_reference_on_random_grams():
    # unreduced Grams too: both enumerators are exact on any positive form
    rng = random.Random(31)
    for _ in range(200):
        m = [[rng.randrange(-5, 6) for _ in range(3)] for _ in range(3)]
        if det3(m) == 0:
            continue
        gram = tuple(
            tuple(sum(x * y for x, y in zip(r, s)) for s in m) for r in m
        )
        bound = rng.randrange(0, 3 * max(gram[i][i] for i in range(3)))
        assert lattice._enumerate_reduced(gram, bound) == reference_enumerate(
            gram, bound
        ), (gram, bound)


def basis_free_facts(p, vecs, bound):
    """What the consumers of one vector list read: none of it needs a basis."""
    try:
        sj = special_j(p, {n for n, _ in vecs})
    except LatticeError as e:
        sj = str(e)
    rank3 = bool(vecs) and greedy_minima(vecs) is not None
    return (
        sorted(n for n, _ in vecs),
        {n for n, v in vecs if gcd(*v) == 1},
        sj,
        embedded_discriminants(vecs, bound),
        len(attaining_rank2_sublattices(vecs)) if rank3 else None,
    )


def assert_reduced_vectors_agree(p, gram, bound):
    want = basis_free_facts(p, short_vectors(gram, bound), bound)
    assert basis_free_facts(p, reduced_vectors(gram, bound), bound) == want, (
        gram, bound
    )


def test_reduced_vectors_agree_with_short_vectors_on_random_grams():
    # unreduced Grams too: only the coordinates differ, by the greedy basis
    rng = random.Random(37)
    for _ in range(200):
        m = [[rng.randrange(-5, 6) for _ in range(3)] for _ in range(3)]
        if det3(m) == 0:
            continue
        gram = tuple(
            tuple(sum(x * y for x, y in zip(r, s)) for s in m) for r in m
        )
        bound = rng.randrange(0, 3 * max(gram[i][i] for i in range(3)))
        assert_reduced_vectors_agree(11, gram, bound)


@pytest.mark.parametrize("p", [2, 3, 11, 101, 1009])
def test_reduced_vectors_agree_with_short_vectors_on_type_grams(p):
    for rec, walk_gram in with_walk_grams(p):
        for gram in (rec.gram, walk_gram):
            assert_reduced_vectors_agree(p, gram, max(2 * p, 8))


def test_reduced_vectors_are_sorted_in_the_greedy_basis():
    gram = ((5, 2, 0), (2, 3, 1), (0, 1, 7))
    _, g = greedy_reduce(gram)
    vecs = reduced_vectors(gram, 9)
    assert vecs == sorted(vecs)
    assert all(gram_inner(g, z, z) == n for n, z in vecs)
    assert reduced_vectors(gram, 0) == []
    with pytest.raises(LatticeError):
        reduced_vectors(((1, 0, 0), (0, -1, 0), (0, 0, 1)), 5)


def test_minimal_basis_known_grams():
    assert minimal_basis(gram_of(7)).gram == ((4, 0, 2), (0, 7, 0), (2, 0, 8))
    assert minimal_basis(gram_of(5)).gram == ((3, 1, 1), (1, 7, -3), (1, -3, 7))
    assert minimal_basis(gram_of(13)).gram == ((7, 2, 1), (2, 8, 4), (1, 4, 15))


def test_minimal_basis_elements_have_stated_norms():
    _, lat, mb = order_walk(13, 2)[0]
    for elem, d in zip(basis_elements(lat, mb.coords), mb.minima):
        assert elem.nrd() == d
        assert elem.trd() == 0


def test_det3_known_values():
    assert det3(((4, 0, 2), (0, 11, 0), (2, 0, 12))) == 484
    assert det3(((1, 0, 0), (0, 1, 0), (0, 0, 1))) == 1
    assert det3(((3, 1, 1), (1, 3, -1), (1, -1, 3))) == 16


def test_det3_unimodular_invariance():
    rng = random.Random(11)
    for _ in range(30):
        m = [[rng.randrange(-6, 7) for _ in range(3)] for _ in range(3)]
        d = det3(m)
        i, j = rng.sample(range(3), 2)
        q = rng.randrange(-3, 4)
        m2 = [row[:] for row in m]
        m2[i] = [x + q * y for x, y in zip(m2[i], m2[j])]
        assert det3(m2) == d
        m2[i], m2[j] = m2[j], m2[i]
        assert det3(m2) == -d


def test_rank2_det_examples():
    g1728 = minimal_basis(gram_of(11, 1)).gram
    assert rank2_det(g1728, 0, 1) == 44
    assert rank2_det(g1728, 1, 2) == 132
    g0 = minimal_basis(gram_of(5)).gram
    assert rank2_det(g0, 0, 1) == 20
    with pytest.raises(ValueError):
        rank2_det(g1728, 1, 1)


def test_rank2_sublattices():
    # spine, j = 1728: unique across every attaining pair
    g11 = gram_of(11, 1)
    vecs11 = short_vectors(g11, 12)
    subs = attaining_rank2_sublattices(vecs11)
    mb11 = minimal_basis(g11)
    b1, b2 = mb11.coords[:2]
    assert subs == [plane(b1, b2)]
    assert hnf_rank2_sublattices(vecs11) == [hnf([b1, b2])]
    assert basis_pair_sublattice_count(mb11.gram) == 1
    # spine, j generic (p = 13): unique, det 52
    g13 = gram_of(13)
    assert len(attaining_rank2_sublattices(short_vectors(g13, 15))) == 1
    assert rank2_det(minimal_basis(g13).gram, 0, 1) == 52
    # j = 0: the minimal basis carries two distinct det-20 sublattices,
    # and the exhaustive pair sweep finds one more (norm-D2 vector
    # beta2 + beta3 - beta1)
    g5 = gram_of(5)
    mb5 = minimal_basis(g5)
    pairs = basis_pair_rank2_sublattices(mb5.gram, mb5.coords)
    assert len(pairs) == 2 == basis_pair_sublattice_count(mb5.gram)
    assert rank2_det(mb5.gram, 0, 1) == rank2_det(mb5.gram, 0, 2) == 20
    assert len(attaining_rank2_sublattices(short_vectors(g5, 7))) == 3


def plane(v, w):
    """v x w with its first nonzero entry positive."""
    c = (
        v[1] * w[2] - v[2] * w[1],
        v[2] * w[0] - v[0] * w[2],
        v[0] * w[1] - v[1] * w[0],
    )
    return next((c if x > 0 else tuple(-y for y in c)) for x in c if x)


def test_plane_count_matches_the_hnf_count_to_300():
    # the planes rank2-sublattice-unique counts, on the list verify reads,
    # against the HNFs of every attaining pair, at every type of p <= 300
    checked = 0
    for p in primes_between(2, 300):
        for rec in types_of(p):
            vecs = reduced_vectors(rec.gram, max(rec.minima[2], 8), reduced=True)
            assert len(attaining_rank2_sublattices(vecs)) == len(
                hnf_rank2_sublattices(vecs)
            ), (p, rec.minima)
            checked += 1
    assert checked == 534


# e1 of norm 4 and e2, e3 both of norm 11: the attaining pairs (e1, e2)
# and (e1, e3) lie in two planes.  These are the vectors to 11 of the
# orthogonal Gram diag(4, 11, 11)
TWO_PLANES = [(4, (1, 0, 0)), (11, (0, 0, 1)), (11, (0, 1, 0))]
TWO_PLANES_GRAM = ((4, 0, 0), (0, 11, 0), (0, 0, 11))


def test_a_hand_built_list_with_two_attaining_planes_counts_two():
    assert reduced_vectors(TWO_PLANES_GRAM, 11, reduced=True) == TWO_PLANES
    assert attaining_rank2_sublattices(TWO_PLANES) == [(0, 0, 1), (0, 1, 0)]
    assert len(hnf_rank2_sublattices(TWO_PLANES)) == 2


def basis_pair_rank2_sublattices(gram, coords):
    """Distinct HNFs of <b_i, b_j> over basis pairs attaining (D1, D2).

    `gram` and `coords` are a minimal basis's Gram matrix and rows, so the
    Gram diagonal holds the minima.  The reference for
    `lattice.basis_pair_sublattice_count`, which reads the count off the
    diagonal where this spans each pair's sublattice.
    """
    d1, d2 = gram[0][0], gram[1][1]
    return sorted(
        {
            hnf([coords[i], coords[j]])
            for i in range(3)
            for j in range(3)
            if i != j and gram[i][i] == d1 and gram[j][j] == d2
        }
    )


def test_basis_pair_count_matches_the_hnf_count_to_300():
    # the diagonal count that rank2-sublattice-two-for-j0 reads against the
    # HNFs over the coordinates of the walk Gram's minimal basis, at every
    # j = 0 type (p != 2, as the rule) of every p <= 300: two each
    j0 = 0
    for p in primes_between(3, 300):
        for rec, walk_gram in with_walk_grams(p):
            if special_j(p, primitive_norms(rec.gram, 4)) not in ("j0", "both"):
                continue
            mb = minimal_basis(walk_gram)
            assert mb.gram == rec.gram
            pairs = basis_pair_rank2_sublattices(mb.gram, mb.coords)
            assert basis_pair_sublattice_count(rec.gram) == len(pairs) == 2, (
                p, rec.minima,
            )
            j0 += 1
    assert j0 == sum(1 for p in primes_between(3, 300) if p % 3 == 2 or p == 3)


def test_rank2_sublattices_need_the_third_minimum():
    # the j = 1728 type of p = 11 has minima (4, 11, 12): a list to 11 holds
    # no third minimum, which is a LatticeError, not a failed unpacking
    vecs = reduced_vectors(((4, 0, 2), (0, 11, 0), (2, 0, 12)), 11)
    assert greedy_minima(vecs) is None
    with pytest.raises(LatticeError, match="third minimum"):
        attaining_rank2_sublattices(vecs)


def test_enumerating_on_the_walks_reduced_gram_reads_the_same_facts():
    # `types` and `verify` pass each type's normalized Gram with
    # reduced=True, which skips its second greedy reduction; norms,
    # primitivity, minima and the sublattice count are basis-invariant
    checked = 0
    for p in primes_between(2, 300) + [10007]:
        for rec in types_of(p):
            g = rec.gram
            for bound in (8, 2 * p):
                assert primitive_norms(g, bound, reduced=True) == (
                    primitive_norms(g, bound)
                ), (p, g, bound)
            moved = reduced_vectors(g, max(rec.minima[2], 8))
            kept = reduced_vectors(g, max(rec.minima[2], 8), reduced=True)
            assert [n for n, _ in kept] == [n for n, _ in moved], (p, g)
            assert greedy_minima(kept)[:3] == greedy_minima(moved)[:3], (p, g)
            assert len(attaining_rank2_sublattices(kept)) == len(
                attaining_rank2_sublattices(moved)
            ), (p, g)
            checked += 1
    assert checked == 534 + 456


def test_greedy_reduction_is_unimodular_and_attains_minima():
    rng = random.Random(23)
    for _ in range(40):
        m = [[rng.randrange(-4, 5) for _ in range(3)] for _ in range(3)]
        gram = tuple(
            tuple(
                sum(m[i][k] * m[j][k] for k in range(3)) + (5 if i == j else 0)
                for j in range(3)
            )
            for i in range(3)
        )
        u, g = greedy_reduce(gram)
        assert abs(det3(u)) == 1
        assert det3(g) == det3(gram)
        minima = minima_pass(gram)[1][:3]
        assert tuple(sorted((g[0][0], g[1][1], g[2][2]))) == minima
        assert minima_triple(gram) == minima


def test_minima_match_short_vector_greedy():
    for p in (2, 3, 5, 7, 11, 13, 31, 37, 43):
        for _, walk_gram in with_walk_grams(p):
            mb = minimal_basis(walk_gram)
            vecs = short_vectors(walk_gram, mb.minima.d3)
            got = greedy_minima(vecs)
            assert (got[0], got[1], got[2]) == tuple(mb.minima)


def test_minimal_basis_coords_are_index_one():
    for p in (11, 13, 37):
        for walk_gram in walk_grams(p, 2).values():
            assert abs(det3(minimal_basis(walk_gram).coords)) == 1


EYE = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_minima_triple_must_be_sorted():
    with pytest.raises(LatticeError):
        MinimaTriple(5, 3, 4)


def test_greedy_reduce_reports_non_convergence(monkeypatch):
    # the first round's third-row step takes b_2 - b_0, of norm 1 < b = 2,
    # so the rows are no longer sorted; only the second round, which sorts
    # them again and whose third-row step moves nothing, ends the loop
    gram = ((1, 0, 1), (0, 2, 0), (1, 0, 2))
    monkeypatch.setattr(lattice, "_GREEDY_ROUNDS", 1)
    with pytest.raises(LatticeError, match="did not converge"):
        greedy_reduce(gram)
    monkeypatch.setattr(lattice, "_GREEDY_ROUNDS", 2)
    assert greedy_reduce(gram)[1] == diagonal(1, 1, 2)


@pytest.mark.parametrize("gram", [
    ((0, 0, 0), (0, 1, 0), (0, 0, 1)),          # a zero row
    ((1, 1, 0), (1, 1, 0), (0, 0, 1)),          # b_0 - b_1 has norm 0
    ((1, 0, 0), (0, 1, 0), (0, 0, -1)),         # indefinite
    ((2, -1, -1), (-1, 2, -1), (-1, -1, 2)),    # rank 2: b_0 + b_1 + b_2
])
def test_greedy_reduce_rejects_a_gram_that_is_not_positive_definite(
    gram, monkeypatch
):
    # a round that sees a <= 0 or ab - x^2 <= 0 raises at once: a zero
    # divisor no longer reaches the Gauss step, and an indefinite Gram no
    # longer runs out the round bound
    monkeypatch.setattr(lattice, "_GREEDY_ROUNDS", 2)
    with pytest.raises(LatticeError, match="gram is not positive definite"):
        greedy_reduce(gram)


def test_greedy_reduce_raises_exactly_on_grams_not_positive_definite():
    # the loop cannot stop on a Gram that is not positive definite, and a
    # positive definite one never trips the check
    rng = random.Random(59)
    raised = 0
    for _ in range(20000):
        a, b, c = (rng.randrange(-3, 12) for _ in range(3))
        x, y, z = (rng.randrange(-8, 9) for _ in range(3))
        gram = ((a, x, y), (x, b, z), (y, z, c))
        definite = a > 0 and a * b - x * x > 0 and det3(gram) > 0
        try:
            greedy_reduce(gram)
        except LatticeError as e:
            assert not definite and "not positive definite" in str(e), gram
            raised += 1
        else:
            assert definite, gram
    assert 1000 < 20000 - raised < raised


def random_positive_grams(rng, count, spread):
    """Grams m m^T + I of random integer 3x3 m with entries below `spread`."""
    out = []
    while len(out) < count:
        m = [[rng.randrange(-spread, spread + 1) for _ in range(3)] for _ in range(3)]
        if det3(m):
            out.append(tuple(
                tuple(sum(x * y for x, y in zip(r, s)) + (r is s) for s in m)
                for r in m
            ))
    return out


def visited_grams(p):
    """Every Gram greedy_reduce sees on the ell = 2 and ell = 3 walks at p:
    each type's walk and normalized Gram and the Gross Grams of its
    ell-neighbours."""
    out = []
    for ell in (2, 3):
        if ell == p:
            continue
        for rec, walk_gram in with_walk_grams(p, ell):
            out += [walk_gram, rec.gram]
            out += [adj3(m) for m in kneser_neighbours(half_form(rec.gram, p), ell)]
    return out


def test_greedy_reduce_matches_the_list_reference():
    rng = random.Random(41)
    grams = random_positive_grams(rng, 2000, 6)
    grams += random_positive_grams(rng, 1000, 200)
    grams += [
        pizer_gross_gram(q, p)
        for q in (3, 7, 11, 19, 43, 67, 163)
        for p in primes_between(3, 400)
        if p != q and legendre(p, q) == -1
    ]
    for p in (2, 3, 11, 101, 1009):
        grams += visited_grams(p)
    assert len(grams) > 3900
    for gram in grams:
        assert greedy_reduce(gram) == greedy_reduce_reference(gram), gram


def test_greedy_reduce_matches_the_loop_that_ran_until_idle():
    # greedy_reduce stops at the first round whose third-row step moves
    # nothing, or right after a step that leaves c >= b, and tries three
    # points per step; the loop before it ran on until a round changed
    # nothing and tried nine.  The walks at 10007 and 10039 reduce 9999
    # Grams: 456 and 453 types, each with its walk and normalized Gram and
    # ell + 1 neighbours at ell = 2 and at ell = 3
    rng = random.Random(43)
    grams = random_positive_grams(rng, 16000, 6)
    grams += random_positive_grams(rng, 4000, 200)
    for p in primes_between(2, 300):
        grams += visited_grams(p)
    assert len(grams) > 25000
    near_10007 = visited_grams(10007) + visited_grams(10039)
    assert len(near_10007) == (456 + 453) * (5 + 6)
    grams += near_10007
    # Grams whose reduction takes the c >= b exit, and Grams with a step
    # that leaves c < b, after which the next round sorts the rows again
    exits = resorts = 0
    for gram in grams:
        steps = []
        assert greedy_reduce(gram) == greedy_reduce_until_idle(
            gram, steps=steps
        ), gram
        exits += any(c >= b for b, c in steps)
        resorts += any(c < b for b, c in steps)
    assert exits > 15000
    assert resorts > 15000


def nearest_to_vertex(b, w):
    """The nearest integer to w / 2b, ties going to the smaller one."""
    return -((b - w) // (2 * b))


def test_greedy_three_point_step_matches_the_nine_points_on_ties():
    # a row whose two least points tie below c: w / 2b is a half-integer,
    # and the nine-point loop keeps the smaller s1, which it meets first
    rng = random.Random(47)
    ties = []
    for gram in random_positive_grams(rng, 3000, 6):
        rows = []
        greedy_reduce_until_idle(gram, rows)
        for b, w, b0, norms, c in rows:
            least = min(norms)
            if least < c and norms.count(least) == 2:
                assert w % (2 * b) == b
                assert norms[nearest_to_vertex(b, w) - b0 + 1] == least
                ties.append(gram)
                break
    assert len(ties) > 50
    for gram in ties:
        assert greedy_reduce(gram) == greedy_reduce_until_idle(gram), gram


def test_greedy_three_point_step_needs_no_clamp():
    # after the Gauss steps |x| <= a/2 <= b/2, so each row's vertex lies
    # within 5/4 of b0 and its nearest integer within 1.  The Grams with
    # a = b = 2k and x = -k are Gauss-reduced at that bound; on them the
    # vertex itself leaves the window b0 - 1..b0 + 1, its nearest integer
    # does not, and three points give the nine points' (u, g)
    rng = random.Random(53)
    grams = random_positive_grams(rng, 2000, 6)
    edge = [
        ((2 * k, -k, y), (-k, 2 * k, z), (y, z, c))
        for k in (1, 2, 3)
        for y in range(-3 * k, 3 * k + 1)
        for z in range(-3 * k, 3 * k + 1)
        for c in range(2 * k, 2 * k + 12)
    ]
    grams += [g for g in edge if det3(g) > 0]
    farthest = 0
    at_edge = 0
    for gram in grams:
        rows = []
        greedy_reduce_until_idle(gram, rows)
        for b, w, b0, norms, c in rows:
            farthest = max(farthest, abs(Fraction(w, 2 * b) - b0))
            s1 = nearest_to_vertex(b, w)
            assert b0 - 1 <= s1 <= b0 + 1, (gram, b, w, b0)
            if s1 != b0 and norms[s1 - b0 + 1] < c:
                at_edge += 1
        assert greedy_reduce(gram) == greedy_reduce_until_idle(gram), gram
    assert 1 < farthest <= Fraction(5, 4)
    assert at_edge > 1000


def diagonal(d1, d2, d3):
    return ((d1, 0, 0), (0, d2, 0), (0, 0, d3))


def test_minimal_basis_needs_an_index_one_completion(monkeypatch):
    # the claimed minima vectors span an index-2 sublattice only
    pools = {3: [(0, 0, 1), (0, 1, 0), (2, 0, 0)]}
    monkeypatch.setattr(lattice, "_norm_pools", lambda u, g: pools)
    with pytest.raises(LatticeError, match="index-1"):
        minimal_basis(diagonal(3, 3, 3))


def test_minimal_basis_from_vectors_is_none_without_a_basis():
    # a list below the third minimum has no minima to read, and one whose
    # norm-D3 vector completes b1, b2 to index 2 only has no basis
    gram = diagonal(3, 3, 3)
    short = [(3, (1, 0, 0)), (3, (0, 1, 0))]
    assert greedy_minima(short) is None
    assert lattice.minimal_basis_from_vectors(gram, short, None) is None
    index2 = short + [(12, (0, 0, 2))]
    minima = greedy_minima(index2)
    assert minima[:3] == (3, 3, 12)
    assert lattice.minimal_basis_from_vectors(gram, index2, minima) is None
    full = reduced_vectors(gram, 3, reduced=True)
    got = lattice.minimal_basis_from_vectors(gram, full, greedy_minima(full))
    assert got == minimal_basis(gram)


def test_minimal_basis_norms_must_equal_the_minima(monkeypatch):
    # (0, 0, 1) is listed with norm 4 but has norm 5
    pools = {3: [(1, 0, 0)], 4: [(0, 0, 1), (0, 1, 0)]}
    monkeypatch.setattr(lattice, "_norm_pools", lambda u, g: pools)
    with pytest.raises(LatticeError, match="differ from the minima"):
        minimal_basis(diagonal(3, 4, 5), reduced=(EYE, diagonal(3, 4, 4)))


def test_minimal_basis_checks_each_row_against_the_greedy_diagonal(monkeypatch):
    # sorted diagonals (4, 4, 5) that are not the minima, each handed over
    # as the greedy reduction of its own Gram: (-1, 1, 0) has norm 2 < D2 = 4
    # on a row with z2 = 0, and (-1, 0, 1) has norm 3 < D3 = 5 on one with
    # z2 = 1
    for gram, row, minima in (
        (((4, 3, 0), (3, 4, 0), (0, 0, 5)), r"\(1, 0\) reaches norm 2", (2, 4, 5)),
        (((4, 0, 3), (0, 4, 0), (3, 0, 5)), r"\(0, 1\) reaches norm 3", (3, 4, 4)),
    ):
        assert minima_triple(gram) == minima
        with pytest.raises(LatticeError, match=r"greedy diagonal \(4, 4, 5\).*" + row):
            minimal_basis(gram, reduced=(EYE, gram))
        # a greedy_reduce that hands back its input unreduced is caught too
        with monkeypatch.context() as m:
            m.setattr(lattice, "greedy_reduce", lambda g: (EYE, g))
            for call in (minimal_basis, minima_triple):
                with pytest.raises(LatticeError, match="is not the minima"):
                    call(gram)


# -- basis-change invariance (seeded random unimodular transforms) ------------

def random_unimodular(rng, steps=10):
    u = [list(row) for row in EYE]
    for _ in range(steps):
        i, j = rng.sample(range(3), 2)
        op = rng.randrange(3)
        if op == 0:
            q = rng.choice((-2, -1, 1, 2))
            u[i] = [x + q * y for x, y in zip(u[i], u[j])]
        elif op == 1:
            u[i], u[j] = u[j], u[i]
        else:
            u[i] = [-x for x in u[i]]
    assert abs(det3(u)) == 1
    return u


def matmul(x, y):
    return tuple(
        tuple(sum(a * b for a, b in zip(row, col)) for col in zip(*y)) for row in x
    )


def change_basis(u, gram):
    """Gram matrix U gram U^T of the basis with rows U."""
    return matmul(matmul(u, gram), tuple(zip(*u)))


@pytest.mark.parametrize("p", [11, 101, 1009])
def test_minima_and_minimal_basis_survive_basis_change(p):
    # every type: the normalized Gram, the printed bytes, does not depend
    # on the basis the walk hands to minimal_basis
    rng = random.Random(p)
    types = walk(p, 2)
    walked = order_walk(p, 2)
    assert [rec.minima for rec in types] == [mb.minima for _, _, mb in walked]
    for rec, (_, lat, _) in zip(types, walked):
        for _ in range(2):
            u = random_unimodular(rng)
            moved = GrossLattice(
                lat.algebra, matmul(u, lat.mat), lat.den, change_basis(u, lat.gram)
            )
            assert minima_triple(moved.gram) == rec.minima
            mb = minimal_basis(moved.gram)
            assert mb.minima == rec.minima
            assert (mb.gram[0][0], mb.gram[1][1], mb.gram[2][2]) == mb.minima
            elements = basis_elements(moved, mb.coords)
            assert [e.nrd() for e in elements] == list(mb.minima)
            assert mb.gram == rec.gram


def test_minima_survive_basis_change_on_random_grams():
    rng = random.Random(29)
    for _ in range(60):
        m = [[rng.randrange(-4, 5) for _ in range(3)] for _ in range(3)]
        if det3(m) == 0:
            continue
        gram = change_basis(m, EYE)
        minima = minima_triple(gram)
        u = random_unimodular(rng)
        assert minima_triple(change_basis(u, gram)) == minima
        for g in (gram, change_basis(u, gram)):
            mb = minimal_basis(g)
            assert mb.minima == minima
            assert (mb.gram[0][0], mb.gram[1][1], mb.gram[2][2]) == minima
            assert abs(det3(mb.coords)) == 1


# -- half forms and Kneser ell-neighbours -------------------------------------

def double(gram):
    return tuple(tuple(2 * x for x in row) for row in gram)


def test_adj3_is_the_adjugate():
    rng = random.Random(43)
    for _ in range(50):
        m = tuple(tuple(rng.randrange(-9, 10) for _ in range(3)) for _ in range(3))
        d = det3(m)
        assert matmul(m, adj3(m)) == matmul(adj3(m), m) == tuple(
            tuple(d * x for x in row) for row in EYE
        )


@pytest.mark.parametrize("p", [2, 11, 101, 1009])
def test_half_form_inverts_to_the_gross_gram(p):
    for rec, walk_gram in with_walk_grams(p):
        for gram in (walk_gram, rec.gram):
            m = half_form(gram, p)
            assert adj3(m) == gram
            assert det3(m) == 2 * p and m == tuple(zip(*m))
            assert all(m[i][i] % 2 == 0 for i in range(3))


@pytest.mark.parametrize("p", [2, 11, 101, 1009])
def test_neighbours_of_half_forms_are_even_of_det_2p(p):
    for ell in (2, 3):
        if ell == p:
            continue
        for rec in types_of(p):
            nbs = kneser_neighbours(half_form(rec.gram, p), ell)
            assert len(nbs) == ell + 1
            for nb in nbs:
                assert det3(nb) == 2 * p and nb == tuple(zip(*nb))
                assert all(nb[i][i] % 2 == 0 for i in range(3))
                assert det3(adj3(nb)) == 4 * p * p


def test_half_form_rejects_an_adjugate_not_divisible_by_2p():
    with pytest.raises(LatticeError, match="not divisible by 2p = 26"):
        half_form(gram_of(11), 13)


def test_half_form_rejects_an_odd_diagonal():
    # adj(diag(2p, 2p, 1)) / 2p = diag(1, 1, 2p)
    with pytest.raises(LatticeError, match="odd diagonal entry"):
        half_form(diagonal(22, 22, 1), 11)


def test_half_form_rejects_a_wrong_determinant():
    # adj(2p I) / 2p = 2p I, with det 8p^3
    with pytest.raises(LatticeError, match="has det 10648, expected 22"):
        half_form(diagonal(22, 22, 22), 11)


def random_even_forms():
    """40 (gram, ell): positive even forms, not only Gross lattices, each with
    a prime ell in {2, 3, 5, 7} not dividing its half-discriminant.

    U A U^T for A = A2 + A1 has half-discriminant 3 det(U)^2, which is odd
    for odd det(U), so ell = 2 is covered too.
    """
    base = ((2, 1, 0), (1, 2, 0), (0, 0, 2))
    rng = random.Random(41)
    out = []
    while len(out) < 40:
        m = [[rng.randrange(-4, 5) for _ in range(3)] for _ in range(3)]
        odd = len(out) % 2
        gram = change_basis(m, base) if odd else double(change_basis(m, EYE))
        ell = rng.choice((2, 3, 5, 7))
        d = det3(gram)
        if d == 0 or d // 2 % ell == 0:
            continue
        out.append((gram, ell))
    return out


def test_kneser_neighbours_of_random_forms_are_integral_of_equal_det():
    # ell + 1 integral even neighbours of the same det
    for gram, ell in random_even_forms():
        d = det3(gram)
        nbs = kneser_neighbours(gram, ell)
        assert len(nbs) == ell + 1
        for nb in nbs:
            assert det3(nb) == d and nb == tuple(zip(*nb))
            assert all(nb[i][i] % 2 == 0 for i in range(3))
            minima_triple(nb)   # positive definite


def test_kneser_neighbours_of_random_forms_match_the_reference():
    # every random form at every ell in {2, 3, 5, 7} prime to its
    # half-discriminant, not only the ell it was drawn with
    forms = random_even_forms()
    compared = 0
    for gram, _ in forms:
        for ell in (2, 3, 5, 7):
            if det3(gram) // 2 % ell:
                assert kneser_neighbours(gram, ell) == (
                    kneser_neighbours_reference(gram, ell)
                ), (gram, ell)
                compared += 1
    assert compared > len(forms)


def test_neighbour_hnf_memo_stays_small(monkeypatch):
    # the memo key is residue data mod ell and ell^2: the walks of every
    # p <= 300 at ell = 2 and 3 and of p = 10007 at ell = 2 take 191 keys.
    # The line memo asks it once per slot it fills, a line of a residue
    # class under one residue q(v)/ell mod ell, never more often than the
    # forms have lines, and keeps one entry per class it meets
    forms = walk_half_forms(primes_between(2, 300)) + walk_half_forms([10007], (2,))
    entries = empty_line_memo(monkeypatch)
    memo = lattice._neighbour_hnf
    memo.cache_clear()
    for m, ell in forms:
        kneser_neighbours(m, ell)
    info = memo.cache_info()
    slots = sum(len(line[4]) for lines in entries.values() for line in lines)
    assert info.hits + info.misses == slots <= sum(ell + 1 for _, ell in forms)
    lines = lattice._kneser_lines.cache_info()
    assert lines.hits + lines.misses == len(forms)
    assert lines.currsize == len(entries) < len(forms)
    assert 100 <= info.currsize <= 300, info


def test_neighbour_hnfs_are_upper_triangular(monkeypatch):
    # the Kneser step reads only the upper triangle of each memoised HNF:
    # every HNF the walks of every p <= 300 at ell = 2 and 3 and of 10007
    # at ell = 2 fill is triangular, with positive pivots of product ell^3,
    # and its reverse line is that of ell^2 e_t H^-1 = e_t adj(H) / ell
    filled = []
    real = lattice._neighbour_hnf.__wrapped__

    def recorded(w, t, cs, ell):
        h, y = real(w, t, cs, ell)
        filled.append((h, y, t, ell))
        return h, y

    empty_line_memo(monkeypatch)
    monkeypatch.setattr(lattice, "_neighbour_hnf", lru_cache(maxsize=None)(recorded))
    forms = walk_half_forms(primes_between(2, 300)) + walk_half_forms([10007], (2,))
    for m, ell in forms:
        kneser_neighbours(m, ell)
    assert 100 <= len(filled) <= 300
    for h, y, t, ell in filled:
        assert len(h) == 3
        (h00, _, _), (h10, h11, _), (h20, h21, h22) = h
        assert h10 == h20 == h21 == 0, h
        assert min(h00, h11, h22) > 0, h
        assert h00 * h11 * h22 == ell ** 3, h
        assert y in lattice._points(ell), y
        back, rem = zip(*(divmod(a, ell) for a in adj3(h)[t]))
        assert rem == (0, 0, 0), h
        k = next(a for a in back if a % ell)
        assert all((k * c - a) % ell == 0 for c, a in zip(y, back)), (h, y)


def test_kneser_neighbours_stay_in_the_genus_of_a_gross_lattice():
    types = {rec.minima for rec in walk(101, 2)}
    for ell in (2, 3, 5):
        nbs = kneser_neighbours(half_form(gram_of(101), 101), ell)
        assert len(nbs) == ell + 1
        assert {minima_triple(adj3(g)) for g in nbs} <= types


def test_kneser_neighbours_need_an_odd_prime():
    # 2G has half-discriminant 16p^2, so ell = 2 divides it; 9 is composite
    for ell in (2, 9):
        with pytest.raises(LatticeError, match="not a prime|divides det"):
            kneser_neighbours(double(gram_of(11)), ell)


def test_kneser_neighbours_reject_a_composite_ell():
    with pytest.raises(LatticeError, match="ell = 9 is not a prime"):
        kneser_neighbours(half_form(gram_of(11), 11), 9)


def test_kneser_neighbours_reject_ell_dividing_the_determinant():
    with pytest.raises(LatticeError, match="divides det"):
        kneser_neighbours(diagonal(2, 2, 6), 3)
    with pytest.raises(LatticeError, match="ell = 11 divides det"):
        kneser_neighbours(half_form(gram_of(11), 11), 11)


def test_kneser_neighbours_reject_an_odd_diagonal():
    # a Gross Gram is the Gram of x G x^T, not of x G x^T / 2
    with pytest.raises(LatticeError, match="m has an odd diagonal entry"):
        kneser_neighbours(gram_of(11), 3)


# The checks below patch a step of kneser_neighbours; the p = 11 half form
# is built before the patch, because a walk behind it would run through the
# patched step and raise first.  Each patch comes with an empty line memo,
# whose warm entries would skip the patched step.

def drop_a_line(monkeypatch):
    empty_line_memo(monkeypatch)
    real = lattice._isotropic_lines
    monkeypatch.setattr(lattice, "_isotropic_lines", lambda g, ell: real(g, ell)[1:])


def test_kneser_neighbours_check_the_line_count(monkeypatch):
    # the line memo raises inside itself, and lru_cache keeps no exception,
    # so a second call searches the class again and raises again
    m = half_form(gram_of(11), 11)
    drop_a_line(monkeypatch)
    for _ in range(2):
        with pytest.raises(
            LatticeError, match="expected 4 isotropic lines mod 3, found 3"
        ):
            kneser_neighbours(m, 3)
    info = lattice._kneser_lines.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 2, 0)


def patch_neighbour_hnf(monkeypatch, h):
    """Make every neighbour HNF `h`, with the reverse line (0, 0, 1).

    The memo itself is replaced, so an entry cached by an earlier test
    cannot bypass the patch, and the module's memo never holds `h`; so is
    the line memo, whose entries keep their lines' HNFs.
    """
    empty_line_memo(monkeypatch)
    monkeypatch.setattr(lattice, "_neighbour_hnf", lambda w, t, cs, ell: (h, (0, 0, 1)))


def unlift(monkeypatch):
    """Leave every line vector unlifted, behind an empty line memo."""
    empty_line_memo(monkeypatch)
    monkeypatch.setattr(lattice, "_lift", lambda q, v, ell, t, inv: v)


def test_kneser_neighbours_check_integral_grams(monkeypatch):
    # the unscaled basis: entries of m / 9, not all integers
    m = half_form(gram_of(11), 11)
    patch_neighbour_hnf(monkeypatch, EYE)
    with pytest.raises(LatticeError, match="non-integer Gram entry"):
        kneser_neighbours(m, 3)


def test_kneser_neighbours_check_even_grams(monkeypatch):
    # unlifted, the line (1, 1, 1) of the p = 11 half form has q = 2 mod 4,
    # so v/2 has the odd norm q(v)/2 and every entry is still integral
    m = half_form(gram_of(11), 11)
    unlift(monkeypatch)
    with pytest.raises(LatticeError, match="ell-neighbour has an odd diagonal"):
        kneser_neighbours(m, 2)


def test_kneser_neighbours_check_the_determinant(monkeypatch):
    # H / 3 = diag(1, 1, 3) spans an integral even sublattice of index 3
    m = half_form(gram_of(11), 11)
    patch_neighbour_hnf(monkeypatch, diagonal(3, 3, 9))
    with pytest.raises(LatticeError, match="ell-neighbour has det 198, expected 22"):
        kneser_neighbours(m, 3)


def test_gross_neighbours_need_ell_prime_to_p():
    with pytest.raises(LatticeError, match="ell = 11 divides det"):
        gross_neighbours(gram_of(11), 11, 11)


@pytest.mark.parametrize("ell", [0, 1, 4, -2])
def test_gross_neighbours_need_a_prime_ell(ell):
    with pytest.raises(LatticeError, match=f"ell = {ell} is not a prime"):
        gross_neighbours(gram_of(11), 11, ell)


@pytest.mark.parametrize("ell", [2, 3, 5])
def test_each_neighbours_reverse_line_leads_back(ell):
    # on each neighbour's own Gram, skipping its reverse line drops one
    # neighbour, and that one has the key of the Gram it came from
    for p in (11, 37, 101):
        gram = gram_of(p)
        _, r = greedy_reduce(gram)
        key = (r[0][0], r[1][1], r[2][2])
        for n, back in gross_neighbours(gram, p, ell):
            full = gross_neighbours(n, p, ell)
            kept = gross_neighbours(n, p, ell, back)
            dropped = [pair for pair in full if pair not in kept]
            assert len(kept) == ell and len(dropped) == 1, (p, n)
            _, r = greedy_reduce(dropped[0][0])
            assert (r[0][0], r[1][1], r[2][2]) == key, (p, n)


def test_gross_neighbours_reject_a_skip_line_that_is_not_isotropic():
    gram = gram_of(11)
    m = half_form(gram, 11)
    for ell in (2, 3):
        anisotropic = [
            v for v in lattice._points(ell) if gram_inner(m, v, v) // 2 % ell
        ]
        assert len(anisotropic) == ell * ell
        for v in anisotropic + [(0, 0, 0), (ell + 1, 0, 0)]:
            with pytest.raises(LatticeError, match="not an isotropic line"):
                gross_neighbours(gram, 11, ell, v)


def seed(gram):
    def patch(monkeypatch):
        monkeypatch.setattr(orders, "standard_gross_gram", lambda p: gram)
    return patch


# (ell, patch, the LatticeError the p = 11 walk raises): every check of
# gross_neighbours, on the seed's half form or on its first neighbours
WALK_CHECKS = {
    "divisible": (2, seed(diagonal(3, 4, 5)), "not divisible by 2p = 22"),
    # adj(diag(2p, 2p, 1)) / 2p = diag(1, 1, 2p)
    "even half form": (2, seed(diagonal(22, 22, 1)), "2p has an odd diagonal entry"),
    # adj(2p I) / 2p = 2p I, with det 8p^3
    "half form det": (2, seed(diagonal(22, 22, 22)), "has det 10648, expected 22"),
    "line count": (3, drop_a_line, "expected 4 isotropic lines mod 3, found 3"),
    "integral": (
        3, lambda mp: patch_neighbour_hnf(mp, EYE), "non-integer Gram entry"
    ),
    "even neighbour": (2, unlift, "ell-neighbour has an odd diagonal"),
    "neighbour det": (
        3,
        lambda mp: patch_neighbour_hnf(mp, diagonal(3, 3, 9)),
        "ell-neighbour has det 198, expected 22",
    ),
}


@pytest.mark.parametrize("check", sorted(WALK_CHECKS))
def test_walk_raises_each_neighbour_check(check, monkeypatch):
    ell, patch, message = WALK_CHECKS[check]
    patch(monkeypatch)
    for keys_only in (False, True):
        with pytest.raises(LatticeError, match=message):
            enumerate_types(11, ell, keys_only=keys_only)
