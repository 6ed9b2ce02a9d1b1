"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Everything is exact integer arithmetic with zero tolerance.  The desk-scale
ranges are pinned here, the extended CM rows (d in {43, 67, 163}) at their
full default sweeps included.
"""

from grosslat import classify as cl
from grosslat.cm import (
    D1_20_LABEL,
    closed_form_gram,
    cm_row,
    cm_rows,
    recompute_ne,
)
from grosslat.exact import primes_between
from grosslat.gramgross import candidate_invariant_violations, gram_gross
from grosslat.lattice import (
    det3,
    attaining_rank2_sublattices,
    minimal_basis,
    primitive_norms,
    rank2_det,
    short_vectors,
)
from grosslat.oracle import supersingular_j_set
from test_lattice import basis_pair_rank2_sublattices
from walks import types_of, with_walk_grams

P2_GRAM = ((3, 1, 1), (1, 3, -1), (1, -1, 3))
P3_GRAMS = (
    ((3, 0, 0), (0, 4, -2), (0, -2, 4)),
    ((3, 0, 0), (0, 4, 2), (0, 2, 4)),
)


def classified(p):
    """(type record, its walk Gram, its classification) for each type."""
    out = []
    for rec, walk_gram in with_walk_grams(p):
        norms = primitive_norms(walk_gram, 4)
        c = cl.classify_type(p, norms, rec.minima, rec.gram)
        out.append((rec, walk_gram, c))
    return out


def report(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'} {name}{': ' + detail if detail else ''}")
    assert ok, f"{name} {detail}"


def test_criterion_1_deuring_crosscheck():
    bad = []
    for p in primes_between(2, 200):
        types = types_of(p)
        ss = supersingular_j_set(p)
        spine = sum(1 for t in types if t.minima[2] >= p)
        if len(types) != ss.orbit_count or spine != ss.spine_count:
            bad.append(p)
    report(
        "criterion-1 deuring-crosscheck (p <= 200)",
        not bad,
        f"mismatch at {bad}" if bad else "types == orbits, spine == spine",
    )


def test_criterion_2_closed_forms():
    bad = []
    for p in primes_between(2, 200):
        grams = [t.gram for t in types_of(p)]
        if p == 2:
            ok = grams == [P2_GRAM]
        elif p == 3:
            ok = len(grams) == 1 and grams[0] in P3_GRAMS
        else:
            ok = True
            if p % 3 == 2:
                ok = ok and closed_form_gram("0", p) in grams
            if p % 4 == 3:
                ok = ok and closed_form_gram("1728", p) in grams
        if not ok:
            bad.append(p)
    report("criterion-2 closed-forms j0/j1728/p2/p3 (p <= 200)", not bad,
           f"mismatch at {bad}" if bad else "")


def test_criterion_3_invariant_suite():
    bad = []
    for p in primes_between(2, 200):
        for rec, walk_gram, c in classified(p):
            d1, d2, d3 = rec.minima
            g = rec.gram
            x, y, z = g[0][1], g[0][2], g[1][2]
            checks = [
                det3(g) == 4 * p * p,
                all(n % 4 in (0, 3) for n, _ in short_vectors(walk_gram, 2 * p)),
                all(
                    rank2_det(g, i, j) > 0 and rank2_det(g, i, j) % (4 * p) == 0
                    for i, j in ((0, 1), (0, 2), (1, 2))
                ),
                (rank2_det(g, 0, 1) == 4 * p) == c.spine,
                4 * p * p <= d1 * d2 * d3 <= 8 * p * p,
                (not c.spine) or 3 * d1 * d1 <= 16 * p,
                (not c.spine) or p == 2 or d1 != d2,
                (not c.spine) or d1 == 3 or d2 != d3,
                cl.validate_bounds(p, rec.minima, c.spine) == [],
                0 <= 2 * x <= d1 and 0 <= 2 * y <= d1 and 2 * abs(z) <= d2,
                (p == 2 and c.well_rounded and not c.orthogonal)
                or (p > 2 and not c.well_rounded and not c.orthogonal),
            ]
            # size reduction: |mu21| = |x|/d1, |mu31| = |y|/d1, |delta| = |z|/d2
            checks.append(2 * abs(x) <= d1 and 2 * abs(y) <= d1 and 2 * abs(z) <= d2)
            if not all(checks):
                bad.append((p, rec.minima, [i for i, v in enumerate(checks) if not v]))
    report("criterion-3 invariant-suite (p <= 200)", not bad,
           f"violations {bad[:4]}" if bad else "")


def test_criterion_4_gram_uniqueness():
    bad = []
    for p in primes_between(2, 200):
        for rec, walk_gram, c in classified(p):
            if not c.spine:
                continue
            if p != 3:
                desc = minimal_basis(walk_gram, "desc")
                if desc.gram != rec.gram:
                    bad.append((p, rec.minima, "tiebreak"))
            if c.special_j in ("j1728", "none"):
                vecs = short_vectors(walk_gram, rec.minima[2])
                if len(attaining_rank2_sublattices(vecs)) != 1:
                    bad.append((p, rec.minima, "rank2-unique"))
            elif p != 2:
                mb = minimal_basis(walk_gram, "asc")
                if len(basis_pair_rank2_sublattices(mb.gram, mb.coords)) != 2:
                    bad.append((p, rec.minima, "rank2-two-j0"))
    report("criterion-4 gram-uniqueness (p <= 200, p != 3)", not bad,
           f"{bad[:4]}" if bad else "")


def test_criterion_5_gramgross():
    bad = []
    for p in primes_between(2, 200):
        for rec, _, c in classified(p):
            if not c.spine:
                continue
            cands = gram_gross(p, rec.minima[0])
            if rec.gram not in [cd.gram for cd in cands]:
                bad.append((p, rec.minima, "containment"))
            for cd in cands:
                if candidate_invariant_violations(cd, p):
                    bad.append((p, rec.minima, "soundness"))
    pinned = (
        [c.gram for c in gram_gross(31, 7)]
        == [((7, 3, 2), (3, 19, -8), (2, -8, 36))]
        and [c.gram for c in gram_gross(7, 4)]
        == [((4, 0, 2), (0, 7, 0), (2, 0, 8))]
        and [c.gram for c in gram_gross(11, 3)]
        == [((3, 1, 1), (1, 15, -7), (1, -7, 15))]
        and gram_gross(13, 3) == []
    )
    if not pinned:
        bad.append(("pinned-values",))
    report("criterion-5 gramgross-containment-soundness (p <= 200)", not bad,
           f"{bad[:4]}" if bad else "")


def test_criterion_6_cm_tables_base():
    def row_for(d):
        return next(r for r in cm_rows() if r.d == d)

    expected = {3: 5, 4: 7, 7: 13, 8: 23, 11: 29, 12: 41, 16: 67, 19: 79}
    got = {d: recompute_ne(row_for(d), 300)[0] for d in expected}
    extra = {27: 167, 28: 181}
    got.update({d: recompute_ne(row_for(d), 400)[0] for d in extra})
    expected.update(extra)
    report("criterion-6 cm-tables d <= 28", got == expected,
           f"{got}" if got != expected else "")


def test_criterion_6_cm_tables_extended():
    expected = {"-960^3": 433, "-5280^3": 1103, "-640320^3": 6481}
    got = {}
    for label, n_e in expected.items():
        row = cm_row(label)
        got[label] = recompute_ne(row, row.default_p_max)[0]
    report("criterion-6-extended cm-tables d in {43, 67, 163}", got == expected,
           f"{got}")


def test_criterion_7_nonspine_family():
    bad = []
    for p in (113, 137, 157, 173, 193):
        want = closed_form_gram(D1_20_LABEL, p)
        grams = [t.gram for t in types_of(p) if t.minima[2] < p]
        if want not in grams or det3(want) != 4 * p * p:
            bad.append(p)
    pinned = (
        closed_form_gram(D1_20_LABEL, 113)
        == ((20, 6, 2), (6, 47, -22), (2, -22, 68))
        and closed_form_gram(D1_20_LABEL, 137)
        == ((20, 2, 4), (2, 55, -27), (4, -27, 83))
    )
    report("criterion-7 nonspine-d1-20-family", not bad and pinned,
           f"mismatch at {bad}" if bad else "")


def test_criterion_8_tightness_witnesses():
    t31 = next(t for t in types_of(31) if t.minima[0] == 7)
    ok31 = t31.minima[2] == 36 == (8 * 31 + 4) // 7 and 28 * 36 <= 32 * 31 + 49
    t113 = next(t for t in types_of(113) if t.minima[0] == 20 and t.minima[2] < 113)
    ok113 = t113.minima[2] == 68 == (3 * 113 + 1) // 5 and 5 * 68 <= 3 * 113 + 25
    report("criterion-8 tightness-witnesses p=31, p=113", ok31 and ok113,
           f"D3(31)={t31.minima[2]}, D3(113)={t113.minima[2]}")
