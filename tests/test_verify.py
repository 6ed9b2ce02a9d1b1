import gc
import json
import weakref
from dataclasses import replace

import pytest

import grosslat.classify as classify
import grosslat.cli as cli
import grosslat.cm as cm
import grosslat.lattice as lattice
import grosslat.verify as verify
from grosslat.classify import field_of_definition
from grosslat.exact import is_prime, primes_between
from grosslat.orders import default_ell, enumerate_types
from test_lattice import TWO_PLANES_GRAM
from walks import types_of, walk_grams


@pytest.mark.parametrize("p", [11, 101])
def test_verify_reads_minimal_bases_from_the_type_records(p, monkeypatch):
    # the walks' own minimal bases go through orders' name, which is not
    # patched, so a minimal_basis call counted below would be verify_prime's
    # own; tiebreak-unique reads the desc basis off each spine type's
    # vector list instead, on its normalized Gram
    types = enumerate_types(p, 2)
    calls = []
    listed = []

    def counted(gram, tie_break="asc", reduced=None):
        calls.append(tie_break)

    real = lattice.minimal_basis_from_vectors

    def from_vectors(gram, vecs, minima, tie_break="asc"):
        listed.append((gram, tie_break))
        return real(gram, vecs, minima, tie_break)

    for module in (lattice, verify):
        monkeypatch.setattr(module, "minimal_basis", counted, raising=False)
    monkeypatch.setattr(verify, "minimal_basis_from_vectors", from_vectors)
    rep = verify.verify_prime(p)
    assert not rep.failures
    assert calls == []
    assert listed == [
        (rec.gram, "desc") for rec in types
        if field_of_definition(p, rec.minima[2])
    ]


def count_enumerations(monkeypatch):
    """Record (name, Gram, bound, reduced) of every reduced_vectors and
    primitive_norms call, wherever the function is named."""
    calls = []

    def counted(name):
        real = getattr(lattice, name)

        def wrapper(gram, bound, reduced=False):
            calls.append((name, gram, bound, reduced))
            return real(gram, bound, reduced=reduced)

        return wrapper

    for name in ("reduced_vectors", "primitive_norms"):
        wrapper = counted(name)
        for module in (lattice, verify, classify, cli, cm):
            monkeypatch.setattr(module, name, wrapper, raising=False)
    return calls


@pytest.mark.parametrize("p", [11, 101])
def test_verify_enumerates_each_type_once(p, monkeypatch):
    # one vector list to max(D3, 8), not to 2p, per type, on the Gram the
    # walk has reduced; the primitive norms to 8 are read off that list,
    # with no second pass
    types = enumerate_types(p, 2)
    calls = count_enumerations(monkeypatch)
    rep = verify.verify_prime(p)
    assert not rep.failures
    assert calls == [
        ("reduced_vectors", rec.gram, max(rec.minima[2], 8), True)
        for rec in types
    ]


def test_verify_reads_primitive_norms_off_the_vector_list(monkeypatch):
    # the norms classify_type gets from verify equal primitive_norms(g, 8)
    # for every type of every prime up to 300
    seen = []
    real = classify.classify_type

    def recorded(p, norms, minima, gram):
        seen.append((p, gram, norms))
        return real(p, norms, minima, gram)

    monkeypatch.setattr(classify, "classify_type", recorded)
    report = verify.run_verify(2, 300)
    assert not report.failures
    assert len(seen) == 534
    for p, gram, norms in seen:
        assert norms == lattice.primitive_norms(gram, 8), (p, gram)


def test_types_and_cm_enumerate_each_type_once(monkeypatch, capsys):
    # types: one primitive-norm pass per type, on the Gram the walk has
    # reduced, and no vector list
    types = enumerate_types(101, 2)
    calls = count_enumerations(monkeypatch)
    assert cli.main(["types", "--p", "101"]) == 0
    capsys.readouterr()
    assert calls == [
        ("primitive_norms", rec.gram, 2 * 101, True) for rec in types
    ]
    # cm writes down the Gross Gram of Pizer's order of (-7, -101) with no
    # walk, and certifies the embedding of -7 with no enumeration; 101 = 3
    # mod 7 is inert in Q(sqrt(-7))
    calls.clear()
    walks = []
    monkeypatch.setattr(cm, "enumerate_types", lambda *args: walks.append(args))
    rec = cm.locate_embedding_type(101, 7)
    assert walks == []
    assert calls == []
    assert (rec.minima, rec.gram) in [(t.minima, t.gram) for t in types]


def test_types_reads_special_j_below_a_small_disc_bound(capsys):
    def special_js(*extra):
        assert cli.main(["types", "--p", "11", *extra]) == 0
        return [t["special_j"] for t in json.loads(capsys.readouterr().out)["types"]]

    assert special_js("--disc-bound", "3") == special_js() == ["j0", "j1728"]


def test_verify_leaves_no_walk_alive(monkeypatch):
    # no record of a sweep outlives its report.  Weak references catch a
    # cache of walks however it was filled; tracemalloc would read 0 bytes
    # had an earlier `verify 2..300` in this process filled it
    walked = []
    real = verify.enumerate_types

    def tracked(p, ell, keys_only=False):
        types = real(p, ell, keys_only=keys_only)
        if not keys_only:   # a keys-only walk hands over key tuples alone
            walked.extend(weakref.ref(rec) for rec in types)
        return types

    monkeypatch.setattr(verify, "enumerate_types", tracked)
    report = verify.run_verify(2, 300)
    assert not report.failures
    del report
    gc.collect()
    assert len(walked) > 500
    assert sum(ref() is not None for ref in walked) == 0


def edit_type(monkeypatch, p, minima, edit):
    """Make verify_prime's default-ell walk at p hand over the type `minima`
    as `edit(record)`; every other record and the ell = 3 walk stay."""
    real = verify.enumerate_types

    def walked(q, ell, keys_only=False):
        types = real(q, ell, keys_only=keys_only)
        if ell != default_ell(q):
            return types
        assert minima in [rec.minima for rec in types]
        return tuple(edit(rec) if rec.minima == minima else rec for rec in types)

    monkeypatch.setattr(verify, "enumerate_types", walked)


def test_norms_mod4_fails_on_an_odd_off_diagonal_entry(monkeypatch):
    # the j = 1728 type of p = 11 with (1,2) entry 1 instead of 0: every
    # diagonal norm is still 0 or 3 mod 4, but e1 + e2 has norm 17 = 1 mod 4
    edit_type(
        monkeypatch, 11, (4, 11, 12),
        lambda rec: replace(rec, gram=((4, 1, 2), (1, 11, 0), (2, 0, 12))),
    )
    rep = verify.verify_prime(11)
    assert "norms-mod4" in rep.failures
    assert rep.rules["norms-mod4"]["detail"] == "type (4, 11, 12)"


def test_brute_minima_fails_when_d3_is_one_too_small(monkeypatch):
    # the list stops at the claimed D3 = 11 and so holds no third minimum;
    # the rank-2 rule of this j = 1728 type has no attaining pair to read
    edit_type(
        monkeypatch, 11, (4, 11, 12), lambda rec: replace(rec, minima=(4, 11, 11))
    )
    rep = verify.verify_prime(11)
    assert "brute-minima" in rep.failures
    assert rep.rules["brute-minima"]["detail"] == "type (4, 11, 11)"
    assert "rank2-sublattice-unique" in rep.failures


def test_norms_mod4_classes_match_the_vector_list_to_2p():
    # Q(x + 2y) = Q(x) mod 4: the verdict on the seven classes of (Z/2)^3
    # is the verdict on every vector up to 2p, which verify read before
    for p in primes_between(2, 300):
        for rec in types_of(p):
            vecs = lattice.reduced_vectors(rec.gram, max(2 * p, 8))
            old = all(n % 4 in (0, 3) for n, _ in vecs)
            assert verify._norms_mod4(rec.gram) == old, (p, rec.minima)


def test_size_reduced_reads_integer_bounds(monkeypatch):
    # (mu21, mu31, delta) = (x/D1, y/D1, z/D2): (0, 1/2, 0) on the second
    # type of p = 11, which meets the bound 2|y| <= D1 exactly, and
    # (1/3, 1/3, -3/7) at p = 5
    assert types_of(11)[1].gram == ((4, 0, 2), (0, 11, 0), (2, 0, 12))
    assert types_of(5)[0].gram == ((3, 1, 1), (1, 7, -3), (1, -3, 7))
    assert not verify.verify_prime(11).failures
    # z = -4 on D2 = 7: delta = -4/7
    edit_type(
        monkeypatch, 5, (3, 7, 7),
        lambda rec: replace(rec, gram=((3, 1, 1), (1, 7, -4), (1, -4, 7))),
    )
    rep = verify.verify_prime(5)
    assert "size-reduced" in rep.failures
    assert rep.rules["size-reduced"]["detail"] == (
        "type (3, 7, 7): x=1 y=1 z=-4 D1=3 D2=7"
    )


# -- failure details ----------------------------------------------------------

def f_string_detail(rule, p, minima, gram, facts):
    """The failure text of `rule`, from the f-string verify_prime once built
    for every check, passing or not; `facts` holds the values of the text
    that are not read off the type's minima and Gram."""
    d1, d2, d3 = minima
    x, y, z = gram[0][1], gram[0][2], gram[1][2]
    texts = {
        "product-bound": lambda: f"type {minima}: product {d1 * d2 * d3}",
        "theorem-bounds": lambda: f"type {minima}: {facts['viol']}",
        "size-reduced": lambda: (
            f"type {minima}: x={x} y={y} z={z} D1={d1} D2={d2}"
        ),
        "gram-bounds": lambda: f"type {minima}: x={x} y={y} z={z}",
        "tiebreak-unique": lambda: f"type {minima}: desc gram {facts['desc']}",
        "rank2-sublattice-unique": lambda: (
            f"type {minima}: {facts['subs']} sublattices"
        ),
        "rank2-sublattice-two-for-j0": lambda: (
            f"type {minima}: {facts['pairs']} basis-pair sublattices"
        ),
        "gramgross-sound": lambda: f"(p, D1) = {(p, d1)}",
        "oracle-type-count": lambda: (
            f"{facts['types']} types vs {facts['orbits']} orbits"
        ),
        "oracle-spine-count": lambda: f"{facts['spine']} vs {facts['ss_spine']}",
        "special-j-occurrence": lambda: (
            f"j0 x{facts['j0']}, j1728 x{facts['j1728']}"
        ),
        "closed-form-p2": lambda: f"{facts['grams']}",
        "closed-form-p3": lambda: f"{facts['grams']}",
    }
    if rule == "no-orth-wr" and p == 2:
        return "p=2 case"
    return texts.get(rule, lambda: f"type {minima}")()


def gram_gross_below_its_bound(monkeypatch):
    # gram_gross refuses D1 past 3 D1^2 <= 16p, which spine-d1-bound flags
    real = verify.gram_gross
    monkeypatch.setattr(
        verify, "gram_gross",
        lambda p, d1: real(p, d1) if 3 * d1 * d1 <= 16 * p else [],
    )


def unsound_candidates(monkeypatch):
    monkeypatch.setattr(
        verify, "candidate_invariant_violations", lambda cand, p: ["edited"]
    )


def embedding_na(monkeypatch):
    real = classify.classify_type

    def classified(p, norms, minima, gram):
        c = real(p, norms, minima, gram)
        if minima == (4, 11, 12):
            return replace(c, embedding=classify.EMBED_NA)
        return c

    monkeypatch.setattr(classify, "classify_type", classified)


def one_more_orbit(monkeypatch):
    real = verify.supersingular_j_set
    monkeypatch.setattr(
        verify, "supersingular_j_set",
        lambda p: replace(real(p), orbit_count=real(p).orbit_count + 1),
    )


def type_of(p, minima):
    return next(rec for rec in types_of(p) if rec.minima == minima)


def desc_basis_of_the_other_type(monkeypatch):
    # tiebreak-unique of the type (4, 11, 12) at p = 11 gets the desc basis
    # of the type (3, 15, 15) instead of its own
    other = lattice.minimal_basis(walk_grams(11, 2)[(3, 15, 15)], "desc")
    real = verify.minimal_basis_from_vectors

    def swapped(gram, vecs, minima, tie_break="asc"):
        if gram == type_of(11, (4, 11, 12)).gram:
            return other
        return real(gram, vecs, minima, tie_break)

    monkeypatch.setattr(verify, "minimal_basis_from_vectors", swapped)


def desc_gram(rec):
    """The Gram that tiebreak-unique reads for `rec`: the desc basis's from
    the type's vector list, or None."""
    vecs = lattice.reduced_vectors(rec.gram, max(rec.minima[2], 8), reduced=True)
    alt = lattice.minimal_basis_from_vectors(
        rec.gram, vecs, lattice.greedy_minima(vecs), "desc"
    )
    return alt.gram if alt else None


# (p, minima, edit of that type's record, further patch or None, the rules
# that fail, the facts of their texts that the test does not compute): each
# rule with a detail fails in at least one case.  In "det" and "short list"
# the type's vector list does not reach the third minimum, so there is no
# desc basis to read: tiebreak-unique fails with "desc gram None"
DETAIL_CASES = {
    "det": (
        11, (4, 11, 12),
        lambda rec: replace(rec, gram=((4, 0, 2), (0, 11, 0), (2, 0, 13))),
        None, ["det-4p2", "minors-mod4p", "tiebreak-unique"], {},
    ),
    "odd norm": (
        11, (4, 11, 12),
        lambda rec: replace(rec, gram=((4, 1, 2), (1, 11, 0), (2, 0, 12))),
        None, ["norms-mod4", "gramgross-contains"], {},
    ),
    "non-spine minima": (
        11, (4, 11, 12), lambda rec: replace(rec, minima=(4, 10, 10)), None,
        [
            "spine-iff-minor12", "product-bound", "theorem-bounds",
            "brute-minima", "loop-implies-spine", "oracle-spine-count",
        ],
        {"spine": 1, "ss_spine": 2},
    ),
    "short list": (
        11, (4, 11, 12), lambda rec: replace(rec, minima=(4, 11, 11)), None,
        ["brute-minima", "rank2-sublattice-unique", "tiebreak-unique"],
        {"subs": 0},
    ),
    # the j = 1728 spine type read as diag(4, 11, 11), whose vectors to
    # D3 = 11 are TWO_PLANES
    "two attaining planes": (
        11, (4, 11, 12),
        lambda rec: replace(rec, gram=TWO_PLANES_GRAM, minima=(4, 11, 11)),
        None, ["rank2-sublattice-unique"], {"subs": 2},
    ),
    "large D1": (
        11, (4, 11, 12), lambda rec: replace(rec, minima=(8, 11, 12)),
        gram_gross_below_its_bound, ["spine-d1-bound"], {},
    ),
    "size": (
        5, (3, 7, 7),
        lambda rec: replace(rec, gram=((3, 1, 1), (1, 7, -4), (1, -4, 7))),
        None, ["size-reduced", "gram-bounds"], {},
    ),
    "orthogonal": (
        23, (8, 12, 23),
        lambda rec: replace(rec, gram=((8, 0, 0), (0, 12, 0), (0, 0, 23))),
        None, ["no-orth-wr"], {},
    ),
    "p = 2 not well rounded": (
        2, (3, 3, 3), lambda rec: replace(rec, minima=(3, 3, 4)), None,
        ["no-orth-wr"], {},
    ),
    "desc basis of the other type": (
        11, (4, 11, 12), lambda rec: rec, desc_basis_of_the_other_type,
        ["tiebreak-unique"],
        {"desc": ((3, 1, 1), (1, 15, -7), (1, -7, 15))},
    ),
    # D3 = 16 != D2 = 15, so one basis pair attains (D1, D2), not two
    "j0 basis": (
        11, (3, 15, 15),
        lambda rec: replace(rec, gram=((3, 1, 1), (1, 15, -7), (1, -7, 16))),
        None, ["rank2-sublattice-two-for-j0"], {"pairs": 1},
    ),
    "two j = 1728 types": (
        11, (3, 15, 15), lambda rec: type_of(11, (4, 11, 12)), None,
        ["special-j-occurrence"], {"j0": 0, "j1728": 2},
    ),
    "unsound candidates": (
        11, (3, 15, 15), lambda rec: rec, unsound_candidates,
        ["gramgross-sound"], {},
    ),
    "embedding label": (
        11, (4, 11, 12), lambda rec: rec, embedding_na, ["embedding-labels"], {},
    ),
    "orbit count": (
        11, (4, 11, 12), lambda rec: rec, one_more_orbit,
        ["oracle-type-count"], {"types": 2, "orbits": 3},
    ),
    "closed form at 2": (
        2, (3, 3, 3),
        lambda rec: replace(rec, gram=((3, 1, 1), (1, 3, 1), (1, 1, 3))),
        None, ["closed-form-p2"], {"grams": [((3, 1, 1), (1, 3, 1), (1, 1, 3))]},
    ),
    "closed form at 3": (
        3, (3, 4, 4),
        lambda rec: replace(rec, gram=((3, 0, 0), (0, 4, -1), (0, -1, 4))),
        None, ["closed-form-p3"], {"grams": [((3, 0, 0), (0, 4, -1), (0, -1, 4))]},
    ),
}


@pytest.mark.parametrize("case", sorted(DETAIL_CASES))
def test_failure_details_keep_their_text(case, monkeypatch):
    p, minima, edit, patch, rules, facts = DETAIL_CASES[case]
    rec = edit(type_of(p, minima))
    facts = {
        "viol": classify.validate_bounds(p, rec.minima, rec.minima[2] >= p),
        "desc": desc_gram(rec),
        **facts,
    }
    edit_type(monkeypatch, p, minima, edit)
    if patch:
        patch(monkeypatch)
    rep = verify.verify_prime(p)
    for rule in rules:
        assert rule in rep.failures, (case, rule)
        assert rep.rules[rule]["detail"] == f_string_detail(
            rule, p, rec.minima, rec.gram, facts
        ), (case, rule)


def test_every_rule_with_a_detail_fails_in_a_detail_case():
    # the rules of verify_prime whose failure text is more than a constant
    covered = {rule for case in DETAIL_CASES.values() for rule in case[4]}
    assert covered == {
        "det-4p2", "norms-mod4", "minors-mod4p", "spine-iff-minor12",
        "product-bound", "spine-d1-bound", "theorem-bounds", "size-reduced",
        "gram-bounds", "no-orth-wr", "tiebreak-unique",
        "rank2-sublattice-unique", "rank2-sublattice-two-for-j0",
        "brute-minima", "loop-implies-spine", "gramgross-sound",
        "gramgross-contains", "embedding-labels", "oracle-type-count",
        "oracle-spine-count", "special-j-occurrence", "closed-form-p2",
        "closed-form-p3",
    }


def test_ell_independence_keeps_only_the_ell_3_minima(monkeypatch):
    # the ell = 3 walk hands over its keys alone, so no ell = 3 record is
    # alive when the closed-form rules run, which follow ell-independence;
    # the ell = 2 records are still in use
    walked = {}
    modes = {}
    real = verify.enumerate_types

    def tracked(p, ell, keys_only=False):
        types = real(p, ell, keys_only=keys_only)
        modes[ell] = keys_only
        walked[ell] = [] if keys_only else [weakref.ref(rec) for rec in types]
        return types

    seen = []
    real_closed = verify.closed_form_gram

    def closed(label, p):
        seen.append([sum(r() is not None for r in walked[ell]) for ell in (2, 3)])
        return real_closed(label, p)

    monkeypatch.setattr(verify, "enumerate_types", tracked)
    monkeypatch.setattr(verify, "closed_form_gram", closed)
    rep = verify.verify_prime(11)
    assert not rep.failures
    assert modes == {2: False, 3: True}
    assert seen == [[2, 0], [2, 0]]


@pytest.mark.verify_large
@pytest.mark.parametrize("floor", [10**5, 2 * 10**5, 5 * 10**5, 10**6])
def test_verify_passes_at_the_least_prime_above(floor):
    p = next(q for q in range(floor + 1, 2 * floor) if is_prime(q))
    rep = verify.verify_prime(p)
    assert rep.failures == []
    for rule in ("oracle-type-count", "oracle-spine-count"):
        assert rep.rules[rule] == {"ok": True, "detail": ""}
