from types import SimpleNamespace

import pytest

import grosslat.cm as cm
from grosslat.cm import (
    D1_20_LABEL,
    CmError,
    closed_form_gram,
    cm_row,
    cm_rows,
    locate_embedding_type,
    recompute_ne,
    supersingular_primes,
)
from grosslat.exact import is_prime, primes_between
from grosslat.lattice import det3, minimal_basis
from grosslat.oracle import supersingular_j_set
from grosslat.orders import (
    TypeRecord, gross_lattice, pizer_maximal_order, standard_maximal_order,
)


def test_thirteen_rows_with_consistent_order_data():
    rows = cm_rows()
    assert len(rows) == 13
    assert {r.d for r in rows} == {3, 4, 7, 8, 11, 12, 16, 19, 27, 28, 43, 67, 163}
    for r in rows:
        assert r.d == r.f ** 2 * abs(r.field_disc)
        # N_E never exceeds the least prime above (d+1)^2/4
        q = (r.d + 1) ** 2 // 4 + 1
        while not is_prime(q):
            q += 1
        assert r.n_e <= q
        # a prime dividing d is never an inert prime of the row
        assert not any(
            r.is_supersingular_prime(ell)
            for ell in primes_between(2, r.d)
            if r.d % ell == 0
        )


def inert_classes(row, modulus, hi=2000):
    """Residues mod `modulus` of the row's supersingular primes below hi."""
    return {p % modulus for p in supersingular_primes(row, 2, hi)}


def test_specific_rows():
    r7 = cm_row("-15^3")
    assert (r7.d, r7.f, r7.n_e) == (7, 1, 13)
    assert inert_classes(r7, 7) == {3, 5, 6}
    r3 = cm_row("0")
    assert (r3.d, r3.n_e) == (3, 5)
    assert inert_classes(r3, 3) == {2}
    assert inert_classes(cm_row("1728"), 4) == {3}
    assert inert_classes(cm_row("20^3"), 8) == {5, 7}
    assert inert_classes(cm_row("2*30^3"), 12) == {5, 11}
    assert inert_classes(cm_row("-3*160^3"), 27) == {
        2, 5, 8, 11, 14, 17, 20, 23, 26,
    }
    # the characteristic-2 reduction is supersingular exactly for d = 3 mod 8
    assert [r.d for r in cm_rows() if r.is_supersingular_prime(2)] == [
        3, 11, 19, 27, 43, 67, 163,
    ]
    r163 = cm_row("-640320^3")
    assert (r163.d, r163.n_e) == (163, 6481)
    with pytest.raises(KeyError):
        cm_row("nope")


def test_closed_form_instances():
    assert closed_form_gram("-15^3", 19) == ((7, 1, 3), (1, 11, -5), (3, -5, 23))
    assert closed_form_gram(D1_20_LABEL, 113) == (
        (20, 6, 2), (6, 47, -22), (2, -22, 68),
    )
    assert closed_form_gram(D1_20_LABEL, 137) == (
        (20, 2, 4), (2, 55, -27), (4, -27, 83),
    )
    assert closed_form_gram("1728", 11) == ((4, 0, 2), (0, 11, 0), (2, 0, 12))
    assert closed_form_gram("0", 5) == ((3, 1, 1), (1, 7, -3), (1, -3, 7))


def test_closed_form_rejects_inapplicable():
    for label, p in (("0", 7), ("1728", 5), ("1728", 3), ("-15^3", 11),
                     ("-15^3", 29), (D1_20_LABEL, 13), (D1_20_LABEL, 111)):
        with pytest.raises(ValueError):
            closed_form_gram(label, p)
    with pytest.raises(KeyError):
        closed_form_gram("66^3", 7)


def test_closed_form_determinants_are_4p2():
    for p in primes_between(5, 250):
        if p % 3 == 2:
            assert det3(closed_form_gram("0", p)) == 4 * p * p
        if p % 4 == 3 and p > 3:
            assert det3(closed_form_gram("1728", p)) == 4 * p * p
        if p >= 13 and p % 7 in (3, 5, 6):
            assert det3(closed_form_gram("-15^3", p)) == 4 * p * p
        if p >= 113 and p % 20 in (13, 17):
            assert det3(closed_form_gram(D1_20_LABEL, p)) == 4 * p * p


def test_supersingular_primes_helper():
    assert supersingular_primes(cm_row("-15^3"), 5, 40) == [5, 13, 17, 19, 31]


def j_value(label):
    """The integer j-invariant a row label names: "0", "255^3", "-3*160^3"."""
    coef, _, power = label.rpartition("*")
    base, _, exp = power.partition("^")
    return int(coef or 1) * int(base) ** int(exp or 1)


def test_inert_primes_match_the_finite_field_oracle():
    # Deuring without the Kronecker symbol: j reduces to a supersingular
    # j-invariant in F_p exactly at the row's inert primes (p not dividing d)
    for p in primes_between(5, 300):
        js = set(supersingular_j_set(p).js)
        for row in cm_rows():
            if row.d % p == 0:
                continue
            on = (j_value(row.j_label) % p, 0) in js
            assert on == row.is_supersingular_prime(p), (row.j_label, p)


def test_locate_embedding_type_is_unique_and_correct():
    rec = locate_embedding_type(31, 7)
    assert rec.minima == (7, 19, 36)


def test_recompute_ne_examples():
    assert recompute_ne(cm_row("-15^3"), 300)[0] == 13
    assert recompute_ne(cm_row("0"), 300)[0] == 5
    assert recompute_ne(cm_row("-96^3"), 300)[0] == 79


def test_recompute_ne_requires_enough_range():
    with pytest.raises(ValueError):
        recompute_ne(cm_row("-96^3"), 50)


def test_recompute_ne_detail_carries_the_located_type():
    n_e, detail = recompute_ne(cm_row("-15^3"), 60)
    assert n_e == 13
    assert [p for p, _, _ in detail] == [5, 13, 17, 19, 31, 41, 47, 59]
    for p, rec, good in detail:
        assert rec == locate_embedding_type(p, 7)
        assert good == (rec.minima[0] == 7)


def test_locate_embedding_type_rejects_two_matches(monkeypatch):
    # d = 4 is an even row, so it is located on the walk, which must find
    # exactly one match; 31 = 3 mod 4 is inert in Q(i)
    types = cm.enumerate_types(31, 2)
    (match,) = [t for t in types if t.minima[0] == 4]
    monkeypatch.setattr(cm, "enumerate_types", lambda p, ell: (match, match))
    with pytest.raises(CmError, match="2 types embed"):
        locate_embedding_type(31, 4)


def test_locate_embedding_type_rejects_no_match():
    with pytest.raises(CmError, match="0 types embed"):
        locate_embedding_type(13, 43)


def test_odd_prime_rows_are_located_on_pizers_order(monkeypatch):
    assert cm.PIZER_DS == {3, 7, 11, 19, 43, 67, 163}
    monkeypatch.setattr(cm, "enumerate_types", None)  # a walk would raise
    for d in sorted(cm.PIZER_DS):
        row = next(r for r in cm_rows() if r.d == d)
        for p in supersingular_primes(row, 3, 200):
            mb = minimal_basis(gross_lattice(pizer_maximal_order(d, p)).gram)
            assert locate_embedding_type(p, d) == TypeRecord(
                mb.minima, mb.gram
            ), (p, d)


def test_locate_embedding_type_walks_at_p_2_and_p_d(monkeypatch):
    # the direct route needs an odd p != d; these and the even rows walk
    walks = []
    real = cm.enumerate_types

    def counted(p, ell):
        walks.append((p, ell))
        return real(p, ell)

    monkeypatch.setattr(cm, "enumerate_types", counted)
    assert locate_embedding_type(2, 3).minima == (3, 3, 3)
    assert locate_embedding_type(7, 7).gram == closed_form_gram("1728", 7)
    assert locate_embedding_type(31, 4).gram == closed_form_gram("1728", 31)
    assert walks == [(2, 3), (7, 2), (31, 2)]


def test_direct_route_checks_the_embedding(monkeypatch):
    # at p = 31 the seed is the j = 1728 type, D1 = 4, which does not embed -7
    seed = gross_lattice(standard_maximal_order(31)).gram
    monkeypatch.setattr(cm, "pizer_gross_gram", lambda q, p: seed)
    with pytest.raises(CmError, match="does not embed -7 primitively"):
        locate_embedding_type(31, 7)


def test_direct_route_certificate_reads_pizers_basis(monkeypatch):
    # the normalized Gram of the -7 type at p = 31 embeds -7, but not at the
    # coordinates (7, 0, -t/2) of i in Pizer's basis
    gram = locate_embedding_type(31, 7).gram
    monkeypatch.setattr(cm, "pizer_gross_gram", lambda q, p: gram)
    with pytest.raises(CmError, match="does not embed -7 primitively"):
        locate_embedding_type(31, 7)


def fake_located(first_good):
    """locate_embedding_type stand-in: D1 = d from `first_good` on."""

    def locate(p, d):
        return SimpleNamespace(minima=(d if p >= first_good else 3, 0, 0))

    return locate


def test_recompute_ne_without_good_prime(monkeypatch):
    monkeypatch.setattr(cm, "locate_embedding_type", fake_located(10 ** 9))
    with pytest.raises(CmError, match="no good prime"):
        recompute_ne(cm_row("-15^3"), 60)


def test_recompute_ne_beyond_bound(monkeypatch):
    # for d = 7 the bound is 17, the least prime above (d + 1)^2 / 4
    monkeypatch.setattr(cm, "locate_embedding_type", fake_located(31))
    with pytest.raises(CmError, match="exceeds its bound 17"):
        recompute_ne(cm_row("-15^3"), 60)


def test_gramgross_single_matrix_for_cm_rows():
    # above N_E the search returns exactly the Gram of the embedding type
    from grosslat.gramgross import gram_gross

    for row in cm_rows():
        if row.d > 28:
            continue
        for p in supersingular_primes(row, row.n_e, 300):
            cands = gram_gross(p, row.d)
            assert len(cands) == 1, (row.j_label, p)
            assert cands[0].gram == locate_embedding_type(p, row.d).gram


def test_closed_form_rows_match_gramgross_exactly():
    for p in supersingular_primes(cm_row("0"), 2, 120):
        (cand,) = gram_gross_list(p, 3)
        assert cand == closed_form_gram("0", p)
    for p in supersingular_primes(cm_row("1728"), 5, 120):
        (cand,) = gram_gross_list(p, 4)
        assert cand == closed_form_gram("1728", p)
    for p in supersingular_primes(cm_row("-15^3"), 13, 120):
        (cand,) = gram_gross_list(p, 7)
        assert cand == closed_form_gram("-15^3", p)


def gram_gross_list(p, d1):
    from grosslat.gramgross import gram_gross

    return [c.gram for c in gram_gross(p, d1)]
