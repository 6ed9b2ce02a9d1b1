"""Differential tests of the Gram walk against the order walk it replaced.

`enumerate_types` walks Gross Grams: the neighbours of G are the adjugates
of the Kneser ell-neighbours of its half form adj(G) / 2p, and no
quaternion arithmetic is done.  `order_walk` is the walk it replaced, kept
here as the reference: right orders of the left ideals of norm ell, each
checked as a maximal order, keyed by the minima of its Gross lattice.  Both
must give the same sorted (minima, normalized Gram) list, and per type the
same multiset of neighbour types.  Tier-1 compares the lists at every prime
3 <= p <= 300 at ell = 2 and 5 <= p <= 300 at ell = 3, at a few primes at
ell = 5 and 7, and the neighbour multisets at ell = 2 and 3 for every
p <= 100.

The walk keys each Gram on the diagonal of its greedy reduction, which in
dimension 3 is the successive minima triple.  The reference for that key is
`enumeration_reference.minima_pass`, which reads the minima off the full
list of vectors up to the greedy third minimum; the two must agree, and
`minima_triple` with them, on every Gram the walk visits (each type's walk
Gram and each neighbour it expands to), for every prime p <= 300 at
ell = 2 and 3.

`lattice.kneser_neighbours` memoises each line's neighbour HNF on the
line's residue data; `tests/kneser_reference.py` is the construction it
replaced, seven rows through `exact.hnf` per line.  Tier-1 requires identical
neighbour lists from both on every half form the ell = 2 and 3 walks expand,
for every prime p <= 300, and on the ell = 2 walk at p = 10007.  The walk
expands a type with `lattice.gross_neighbours`, one step;
`gross_neighbours_reference` there is the route it replaced, `adj3` of each
`kneser_neighbours` Gram of `half_form_reference`.  Tier-1 requires
identical lists on each type's walk and normalized Gram at ell = 2 and 3
for every prime p <= 300 and at ell = 2 at p = 10007.

The Kneser step looks its lines, pivots and HNFs up in a line memo keyed
by the half form's six entries mod ell (`lattice._kneser_lines`).  Tier-1
requires, on every half form the ell = 2 and 3 walks of every prime
p <= 300 and the ell = 2 walks at 10007 and 10039 expand, that the form's
class holds the lines, pivots, inverses and ratios of a fresh line search
on the form itself (`kneser_lines_reference`), that each filled slot holds
the HNF and reverse line of that search's lift, and that each ell keeps
at most ell^6 classes.

A type record keeps its minima and normalized Gram alone; `walk_grams` in
`tests/walks.py` repeats the walk's search and keeps the Gram it first
reached each type with.  Tier-1 requires `minimal_basis` of that Gram to
give each record's (minima, Gram), at ell = 2 and 3 for every prime
p <= 300, so the test-side search cannot drift from the walk.  On the same
Grams the vector pools `minimal_basis` lists, row by row from each row's
least norm, must equal those of the full vector list
(`enumeration_reference.norm_pools_reference`), and the basis, ascending
and descending, must not change when the walk's greedy reduction is passed
in as `reduced`.

The walk skips, when it expands a type, the neighbour along the reverse
line it reached the type by, which is the parent.  `walk_grams` is the
skip-free search.  Tier-1 requires, at ell = 2 and 3 for every prime
p <= 300, with records and keys only, that each skipped neighbour reduces
to its parent's key, that the records walk expands the same types in the
same order from the same Grams as `walk_grams`, and that both walks
return its records and keys.

`cm.locate_embedding_type` builds the type embedding -d, for the odd prime
CM rows d = 3, 7, 11, 19, 43, 67, 163, from Pizer's order of (-d, -p)
instead of keeping the one type of the walk whose Gram has a primitive
norm-d vector.  Tier-1 compares the two, (minima, normalized Gram), at every
inert 5 <= p <= 1200 of those rows: 686 (p, d) pairs.

The walk is seeded by `orders.standard_gross_gram`, the Gross Gram of the
standard maximal order in closed form; `order_walk` starts from the order
itself.  `tests/test_orders.py` compares the two seeds at every p <= 500.

The gate over every prime up to 2000 at ell = 2 and 3, for the walk, its
records, its key, its seed, its neighbour construction, its line memo
and its skipped reverse lines, and over every
inert prime of each odd prime CM row up to its `default_p_max` (6887 for
d = 163), is opt-in:

    GROSSLAT_WALK_REFERENCE=1 pytest tests/test_walk_reference.py -m walk_reference
"""

from collections import deque
from dataclasses import dataclass
from itertools import product

import pytest

import grosslat.lattice as lattice
import grosslat.orders as orders
from grosslat.cm import (
    PIZER_DS, cm_rows, locate_embedding_type, supersingular_primes,
)
from grosslat.exact import canonical_lattice, is_prime, primes_between
from grosslat.lattice import (
    gram_inner,
    greedy_reduce,
    gross_neighbours,
    half_form,
    kneser_neighbours,
    minima_triple,
    minimal_basis,
)
from grosslat.orders import (
    OrderError,
    QuaternionOrder,
    default_ell,
    enumerate_types,
    gross_lattice,
    reduced_discriminant,
    standard_gross_gram,
    standard_maximal_order,
)
from enumeration_reference import (
    minima_pass, norm_pools_reference, primitive_norms_reference,
)
from kneser_reference import (
    adj3, empty_line_memo, gross_neighbours_reference, half_form_reference,
    kneser_lines_reference, kneser_neighbours_reference,
)
from quat_elements import conj4, is_ring, mul4, nrd4, vector_element
from walks import walk, walk_grams


# -- the order walk: left ideals of norm ell and their right orders -----------

def _hnf_diag_det(mat) -> int:
    d = 1
    for i, row in enumerate(mat):
        d *= row[i]
    return d


@dataclass(frozen=True)
class QuaternionIdeal:
    left_order: QuaternionOrder
    mat: tuple
    den: int
    norm: int


def left_ideals_of_norm(order, ell):
    """The ell+1 left ideals I = O*alpha + O*ell of reduced norm ell.

    alpha sweeps representatives of O/ellO with nrd(alpha) = 0 mod ell and
    alpha not in ellO; results are deduplicated by HNF and index-checked.
    """
    p = order.algebra.p
    if not is_prime(ell) or ell == p:
        raise OrderError("ell must be a prime different from p")
    a, b = order.algebra.a, order.algebra.b
    rows = order.mat
    den = order.den
    d2 = den * den
    odet = _hnf_diag_det(order.mat)
    seen = {}
    for coeffs in product(range(ell), repeat=4):
        if not any(coeffs):
            continue
        alpha = tuple(
            sum(c * rows[i][t] for i, c in enumerate(coeffs)) for t in range(4)
        )
        n = nrd4(alpha, a, b)
        if n % d2:
            raise OrderError("order basis element with non-integral norm")
        if (n // d2) % ell:
            continue
        gens = [mul4(row, alpha, a, b) for row in rows]
        gens.extend(tuple(ell * den * x for x in row) for row in rows)
        mat, iden = canonical_lattice(gens, d2)
        if len(mat) != 4:
            continue
        # index [O : I] = ell^2, cross-multiplied
        if _hnf_diag_det(mat) * den ** 4 != ell * ell * odet * iden ** 4:
            continue
        seen[(mat, iden)] = QuaternionIdeal(order, mat, iden, ell)
    ideals = [seen[k] for k in sorted(seen)]
    if len(ideals) != ell + 1:
        raise OrderError(
            f"expected {ell + 1} ideals of norm {ell}, found {len(ideals)}"
        )
    return ideals


def right_order(ideal):
    """Right order (1/nrd I) * conj(I) * I, validated as maximal."""
    alg = ideal.left_order.algebra
    a, b = alg.a, alg.b
    rows = ideal.mat
    gens = [mul4(conj4(u), v, a, b) for u in rows for v in rows]
    order = QuaternionOrder.from_generators(
        alg, gens, ideal.den * ideal.den * ideal.norm
    )
    if not is_ring(order):
        raise OrderError("right order is not a ring: corrupt ideal")
    if reduced_discriminant(order) != alg.p:
        raise OrderError("right order is not maximal: corrupt ideal")
    return order


def order_walk(p, ell, visited=None):
    """(order, Gross lattice, minimal basis) per type, sorted by minima.

    Every order the walk visits, duplicates included, is appended to
    `visited` when it is given.
    """
    queue = deque([standard_maximal_order(p)])
    found = {}
    while queue:
        order = queue.popleft()
        if visited is not None:
            visited.append(order)
        lat = gross_lattice(order)
        mb = minimal_basis(lat.gram)
        if mb.minima in found:
            continue
        found[mb.minima] = (order, lat, mb)
        queue.extend(right_order(i) for i in left_ideals_of_norm(order, ell))
    return tuple(found[k] for k in sorted(found))


def basis_elements(lat, coords):
    """The quaternions of a Gross lattice with the given coordinate rows."""
    return tuple(vector_element(lat, c) for c in coords)


# -- the differential tests ---------------------------------------------------

def assert_walks_agree(p, ell):
    want = [(tuple(mb.minima), mb.gram) for _, _, mb in order_walk(p, ell)]
    got = [(rec.minima, rec.gram) for rec in walk(p, ell)]
    assert got == want, (p, ell)


@pytest.mark.parametrize("p", primes_between(3, 300))
def test_gram_walk_matches_the_order_walk_at_ell_2(p):
    assert_walks_agree(p, 2)


@pytest.mark.parametrize("p", primes_between(5, 300))
def test_gram_walk_matches_the_order_walk_at_ell_3(p):
    assert_walks_agree(p, 3)


@pytest.mark.parametrize("ell", [5, 7])
@pytest.mark.parametrize("p", [2, 11, 101])
def test_gram_walk_matches_the_order_walk_at_ell_5_and_7(p, ell):
    assert_walks_agree(p, ell)


@pytest.mark.parametrize("ell", [2, 3])
def test_gram_neighbours_match_the_right_orders_per_type(ell):
    # the same neighbour graph, not only the same vertices: per type, the
    # Kneser neighbours of the half form of its Gross lattice and the right
    # orders of its ideals of norm ell reach the same types, with multiplicity
    for p in primes_between(2, 100):
        if p == ell:
            continue
        for order, lat, _ in order_walk(p, ell):
            by_orders = sorted(
                minima_triple(gross_lattice(right_order(i)).gram)
                for i in left_ideals_of_norm(order, ell)
            )
            by_grams = sorted(
                minima_triple(adj3(m))
                for m in kneser_neighbours(half_form(lat.gram, p), ell)
            )
            assert by_grams == by_orders, (p, ell, lat.gram)


def assert_greedy_key_is_the_minima(p, ell):
    for rec in walk(p, ell):
        visited = [walk_grams(p, ell)[rec.minima]] + [
            adj3(m) for m in kneser_neighbours(half_form(rec.gram, p), ell)
        ]
        for gram in visited:
            _, g = greedy_reduce(gram)
            minima = minima_pass(gram)[1][:3]
            assert (g[0][0], g[1][1], g[2][2]) == minima, (p, ell, gram)
            assert minima_triple(gram) == minima, (p, ell, gram)


@pytest.mark.parametrize("ell", [2, 3])
def test_greedy_key_is_the_minima_on_every_visited_gram(ell):
    for p in primes_between(2, 300):
        if p != ell:
            assert_greedy_key_is_the_minima(p, ell)


def walk_half_forms(primes, ells=(2, 3)):
    """(m, ell) for the half form m of each type the ell-walk at p expands."""
    return [
        (half_form(rec.gram, p), ell)
        for p in primes for ell in ells if ell != p
        for rec in walk(p, ell)
    ]


def assert_neighbours_match_the_reference(forms):
    for m, ell in forms:
        assert kneser_neighbours(m, ell) == kneser_neighbours_reference(m, ell), (
            m, ell
        )


def test_neighbours_match_the_reference_on_every_walk_to_300():
    forms = walk_half_forms(primes_between(2, 300))
    assert len(forms) > 1000
    assert_neighbours_match_the_reference(forms)


def test_neighbours_match_the_reference_on_the_walk_at_10007():
    forms = walk_half_forms([10007], (2,))
    assert len(forms) == 456
    assert_neighbours_match_the_reference(forms)


def assert_line_memo_matches_a_fresh_search(forms, monkeypatch):
    """Each form's class in the line memo has the lines, pivots, inverses
    and pairs cs of a fresh line search on the form itself, and its slot
    for the form's residue q(v)/ell mod ell holds the HNF and reverse line
    of that search's lift; each filled slot is checked against
    `_neighbour_hnf` of its lift once, and met again only with that lift."""
    entries = empty_line_memo(monkeypatch)
    hnf_of = lattice._neighbour_hnf.__wrapped__
    lifts = {}
    for m, ell in forms:
        kneser_neighbours(m, ell)
        (m00, m01, m02), (_, m11, m12), (_, _, m22) = m
        form = tuple(x % ell for x in (m00 // 2, m11 // 2, m22 // 2, m01, m02, m12))
        lines = entries[form, ell]
        fresh = kneser_lines_reference(m, ell)
        assert [line[:4] for line in lines] == [line[:4] for line in fresh], (m, ell)
        for (v, t, _, cs, slots), (_, _, _, _, w) in zip(lines, fresh):
            r = gram_inner(m, v, v) // 2 // ell % ell
            slot = (form, ell, v, r)
            if slot not in lifts:
                lifts[slot] = w
                assert slots[r] == hnf_of(w, t, cs, ell), (m, ell, v)
            assert lifts[slot] == w, (m, ell, v)
    assert len(lifts) == sum(
        len(line[4]) for lines in entries.values() for line in lines
    )
    for ell in {ell for _, ell in forms}:
        classes = [form for form, e in entries if e == ell]
        assert len(classes) <= ell ** 6
        assert all(0 <= x < ell for form in classes for x in form)


def test_line_memo_matches_a_fresh_search_on_the_walks(monkeypatch):
    forms = walk_half_forms(primes_between(2, 300))
    forms += walk_half_forms([10007, 10039], (2,))
    assert len(forms) > 1900
    assert_line_memo_matches_a_fresh_search(forms, monkeypatch)


def assert_gross_neighbours_match_the_composed_steps(primes, ells=(2, 3)):
    for p in primes:
        for ell in ells:
            if ell == p:
                continue
            for rec in walk(p, ell):
                for gram in (walk_grams(p, ell)[rec.minima], rec.gram):
                    assert half_form(gram, p) == half_form_reference(gram, p)
                    assert [n for n, _ in gross_neighbours(gram, p, ell)] == (
                        gross_neighbours_reference(gram, p, ell)
                    ), (p, ell, gram)


def test_gross_neighbours_match_the_composed_steps_to_300():
    assert_gross_neighbours_match_the_composed_steps(primes_between(2, 300))


def test_gross_neighbours_match_the_composed_steps_at_10007():
    assert_gross_neighbours_match_the_composed_steps([10007], (2,))


def assert_records_reduce_from_their_walk_grams(p, ell):
    """Each record is the minimal basis of its walk Gram; there the pools
    `minimal_basis` reads equal those of the full vector list, and the
    basis is the same whether the walk's reduction is passed in or not."""
    grams = walk_grams(p, ell)
    types = walk(p, ell)
    assert sorted(grams) == [rec.minima for rec in types], (p, ell)
    for rec in types:
        gram = grams[rec.minima]
        reduced = greedy_reduce(gram)
        pools = lattice._norm_pools(*reduced)
        assert {n: sorted(vs) for n, vs in pools.items()} == norm_pools_reference(
            *reduced
        ), (p, ell, gram)
        for tie_break in ("desc", "asc"):
            mb = minimal_basis(gram, tie_break)
            assert minimal_basis(gram, tie_break, reduced=reduced) == mb, (
                p, ell, gram, tie_break,
            )
        assert (mb.minima, mb.gram) == (rec.minima, rec.gram), (p, ell)


def test_gram_walk_records_reduce_from_their_walk_gram():
    for p in primes_between(2, 300):
        for ell in (2, 3):
            if ell != p:
                assert_records_reduce_from_their_walk_grams(p, ell)


def skip_checked_walk(p, ell, keys_only):
    """`enumerate_types(p, ell, keys_only)`, with the Grams it expands, in
    order, and every skip of its `gross_neighbours` calls checked.

    With `skip`, the list must be the skip-free list less one entry, and
    that entry's Gram must reduce to the key of the type whose expansion
    queued the Gram being expanded: the skipped line leads back to the
    parent.  Returns (the walk's result, [(key, the Gram it was popped
    with)] for each type expanded).
    """
    queued_by = {}   # queued Gram -> key of the first type that queued it
    popped, expanded = [], []

    def reduce(gram):
        popped.append(gram)
        return greedy_reduce(gram)

    def neighbours(g, p_, ell_, skip=None):
        key = (g[0][0], g[1][1], g[2][2])
        expanded.append((key, popped[-1]))
        full = gross_neighbours(g, p_, ell_)
        out = gross_neighbours(g, p_, ell_, skip)
        if skip is None:
            assert out == full and popped == [standard_gross_gram(p)]
        else:
            assert (len(full), len(out)) == (ell + 1, ell), (p, ell, g)
            dropped = next(
                pair for i, pair in enumerate(full)
                if full[:i] + full[i + 1:] == out
            )
            _, r = greedy_reduce(dropped[0])
            parent = queued_by[popped[-1]]
            assert (r[0][0], r[1][1], r[2][2]) == parent, (p, ell, g)
        for n, _ in out:
            queued_by.setdefault(n, key)
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(orders, "greedy_reduce", reduce)
        mp.setattr(orders, "gross_neighbours", neighbours)
        result = enumerate_types(p, ell, keys_only)
    return result, expanded


def assert_walk_skips_only_the_parent(p, ell):
    # records: the skip-free search of `walks.walk_grams` expands the same
    # types in the same order from the same Grams, and gives the same records
    grams = walk_grams(p, ell)
    types, expanded = skip_checked_walk(p, ell, False)
    assert expanded == list(grams.items()), (p, ell)
    assert [(rec.minima, rec.gram) for rec in types] == sorted(
        (key, minimal_basis(gram).gram) for key, gram in grams.items()
    ), (p, ell)
    keys, expanded = skip_checked_walk(p, ell, True)
    assert keys == tuple(sorted(grams)) == tuple(k for k, _ in sorted(expanded))


def test_walk_skips_only_the_parent_to_300():
    for p in primes_between(2, 300):
        for ell in (2, 3):
            if ell != p:
                assert_walk_skips_only_the_parent(p, ell)


def test_enumerated_orders_satisfy_order_axioms():
    # every order the ell = 2 order walk visits, duplicates included, is
    # maximal
    visited = []
    types = order_walk(37, 2, visited)
    assert len(types) == 2 and len(visited) == 1 + 3 * len(types)
    for order in visited:
        assert is_ring(order)
        assert reduced_discriminant(order) == 37


def cm_routes_compared(p_max_of):
    """(p, d) pairs where the direct CM route matched the walk's one match.

    Every inert 5 <= p <= p_max_of(row) of each odd prime row is compared;
    the walk at each p is shared by the rows.
    """
    rows = [r for r in cm_rows() if r.d in PIZER_DS]
    pairs = []
    for p in primes_between(5, max(p_max_of(r) for r in rows)):
        ds = [r.d for r in rows if p <= p_max_of(r) and r.is_supersingular_prime(p)]
        if not ds:
            continue
        types = enumerate_types(p, default_ell(p))
        for d in ds:
            walk = [
                (t.minima, t.gram) for t in types
                if d in primitive_norms_reference(t.gram, d)
            ]
            rec = locate_embedding_type(p, d)
            assert [(rec.minima, rec.gram)] == walk, (p, d)
            pairs.append((p, d))
    return pairs


def test_cm_direct_route_matches_the_walk_up_to_1200():
    assert len(cm_routes_compared(lambda row: 1200)) == 686


@pytest.mark.walk_reference
def test_cm_direct_route_matches_the_walk_up_to_each_default_p_max():
    pairs = cm_routes_compared(lambda row: row.default_p_max)
    assert len(pairs) == sum(
        len(supersingular_primes(r, 5, r.default_p_max))
        for r in cm_rows() if r.d in PIZER_DS
    )


@pytest.mark.walk_reference
def test_standard_gross_gram_is_the_gross_gram_of_the_standard_order_up_to_2000():
    for p in primes_between(2, 2000):
        assert standard_gross_gram(p) == gross_lattice(standard_maximal_order(p)).gram, p


@pytest.mark.walk_reference
def test_gram_walk_matches_the_order_walk_up_to_2000():
    for p in primes_between(2, 2000):
        for ell in (2, 3):
            if ell != p:
                assert_walks_agree(p, ell)


@pytest.mark.walk_reference
def test_gram_walk_records_reduce_from_their_walk_grams_up_to_2000():
    for p in primes_between(2, 2000):
        for ell in (2, 3):
            if ell != p:
                assert_records_reduce_from_their_walk_grams(p, ell)


@pytest.mark.walk_reference
def test_greedy_key_is_the_minima_on_every_visited_gram_up_to_2000():
    for p in primes_between(2, 2000):
        for ell in (2, 3):
            if ell != p:
                assert_greedy_key_is_the_minima(p, ell)


@pytest.mark.walk_reference
def test_gross_neighbours_match_the_composed_steps_to_2000():
    assert_gross_neighbours_match_the_composed_steps(primes_between(2, 2000))


@pytest.mark.walk_reference
def test_walk_skips_only_the_parent_to_2000():
    for p in primes_between(2, 2000):
        for ell in (2, 3):
            if ell != p:
                assert_walk_skips_only_the_parent(p, ell)


@pytest.mark.walk_reference
def test_line_memo_matches_a_fresh_search_to_2000(monkeypatch):
    assert_line_memo_matches_a_fresh_search(
        walk_half_forms(primes_between(2, 2000)), monkeypatch
    )


@pytest.mark.walk_reference
def test_neighbours_match_the_reference_on_every_walk_to_2000():
    for p in primes_between(2, 2000):
        assert_neighbours_match_the_reference(walk_half_forms([p]))
