"""Cross-module invariant driver: every theorem-backed check per prime.

Each rule has a stable identifier; a verification run reports per-prime
pass/fail per rule plus GramGross multiplicity statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

from . import classify as cl
from .cm import D1_20_LABEL, EXTENDED_DS, closed_form_gram, cm_rows, recompute_ne
from .exact import ceil_div, primes_between
from .gramgross import candidate_invariant_violations, gram_gross
from .lattice import (
    attaining_rank2_sublattices,
    basis_pair_sublattice_count,
    det3,
    greedy_minima,
    minimal_basis_from_vectors,
    rank2_det,
    reduced_vectors,
)
from .oracle import supersingular_j_set
from .orders import default_ell, enumerate_types

P3_GRAMS = (
    ((3, 0, 0), (0, 4, -2), (0, -2, 4)),
    ((3, 0, 0), (0, 4, 2), (0, 2, 4)),
)


@dataclass
class PrimeReport:
    p: int
    rules: dict = field(default_factory=dict)
    gramgross_sizes: dict = field(default_factory=dict)   # (p, d1) -> size
    n_equals_a: list = field(default_factory=list)

    def check(self, rule: str, ok: bool, *detail):
        """Record one check of `rule`; its first failure stays.

        `detail` holds the parts of the failure text, joined by `str` only
        when the check fails, so a passing check formats nothing, and a
        check of a rule that has already passed changes nothing unless it
        fails.
        """
        prev = self.rules.get(rule)
        if prev is not None and (ok or not prev["ok"]):
            return
        self.rules[rule] = (
            {"ok": True, "detail": ""} if ok
            else {"ok": False, "detail": "".join(map(str, detail))}
        )

    def skip(self, rule: str, why: str):
        self.rules[rule] = {"ok": True, "detail": "", "skipped": why}

    @property
    def failures(self):
        return sorted(r for r, v in self.rules.items() if not v["ok"])


def _norms_mod4(g) -> bool:
    """Every norm x g x^T is 0 or 3 mod 4, as a discriminant must be.

    For an integral Gram Q(x + 2y) = Q(x) + 4 x g y^T + 4 Q(y) = Q(x) mod 4,
    so the norm mod 4 depends on x mod 2 alone, and the seven nonzero
    classes of (Z/2)^3 decide the rule for every vector.
    """
    (a, x, y), (_, b, z), (_, _, c) = g
    return all(
        n % 4 in (0, 3)
        for n in (
            a, b, c, a + b + 2 * x, a + c + 2 * y, b + c + 2 * z,
            a + b + c + 2 * (x + y + z),
        )
    )


def verify_prime(p: int) -> PrimeReport:
    """Every rule at p."""
    rep = PrimeReport(p)
    types = enumerate_types(p, default_ell(p))
    four_p = 4 * p

    classifications = []
    gramgross = {}   # D1 -> gram_gross(p, D1), made and checked once
    for rec in types:
        minima = rec.minima
        d1, d2, d3 = minima
        g = rec.gram
        # the one vector list of this type, to D3 and at least norm 8, on
        # the normalized Gram the walk has reduced: all that brute-minima,
        # tiebreak-unique and the rank-2 rules read.  Its primitive norms
        # to 8 (z is primitive when gcd(z) = 1), `primitive_norms(g, 8)`,
        # serve special_j and the loop discriminants 4, 7 and 8
        vecs = reduced_vectors(g, max(d3, 8), reduced=True)
        norms = sorted({n for n, z in vecs if n <= 8 and gcd(*z) == 1})
        c = cl.classify_type(p, norms, minima, g)
        classifications.append(c)

        # each detail is the parts of its text, "type (d1, d2, d3)" first
        rep.check("det-4p2", det3(g) == 4 * p * p, "type ", minima)
        rep.check("norms-mod4", _norms_mod4(g), "type ", minima)
        minor12 = rank2_det(g, 0, 1)
        minors_ok = True
        for m in (minor12, rank2_det(g, 0, 2), rank2_det(g, 1, 2)):
            if m <= 0 or m % four_p:
                minors_ok = False
        rep.check("minors-mod4p", minors_ok, "type ", minima)
        rep.check(
            "spine-iff-minor12", (minor12 == four_p) == c.spine, "type ", minima
        )
        prod = d1 * d2 * d3
        rep.check(
            "product-bound",
            4 * p * p <= prod <= 8 * p * p,
            "type ", minima, ": product ", prod,
        )
        if c.spine:
            rep.check(
                "spine-d1-bound", 3 * d1 * d1 <= 16 * p, "type ", minima
            )
        viol = cl.validate_bounds(p, minima, c.spine)
        rep.check("theorem-bounds", not viol, "type ", minima, ": ", viol)
        x, y, z = g[0][1], g[0][2], g[1][2]
        # |mu21| = |x|/D1, |mu31| = |y|/D1 and |delta| = |z|/D2 at most 1/2
        rep.check(
            "size-reduced",
            2 * abs(x) <= d1 and 2 * abs(y) <= d1 and 2 * abs(z) <= d2,
            "type ", minima, ": x=", x, " y=", y, " z=", z,
            " D1=", d1, " D2=", d2,
        )
        rep.check(
            "gram-bounds",
            0 <= 2 * x <= d1 and 0 <= 2 * y <= d1 and 2 * abs(z) <= d2,
            "type ", minima, ": x=", x, " y=", y, " z=", z,
        )
        if p == 2:
            rep.check(
                "no-orth-wr", c.well_rounded and not c.orthogonal, "p=2 case"
            )
        else:
            rep.check(
                "no-orth-wr",
                not c.orthogonal and not c.well_rounded,
                "type ", minima,
            )
        bf = greedy_minima(vecs)
        if c.spine and p != 3:
            # the desc tie-break's basis from the same list, in the
            # normalized Gram's coordinates; None when there is none
            alt = minimal_basis_from_vectors(g, vecs, bf, "desc")
            desc = alt.gram if alt else None
            rep.check(
                "tiebreak-unique",
                desc == g,
                "type ", minima, ": desc gram ", desc,
            )
        if c.spine and c.special_j in ("j1728", "none"):
            # Prop-backed uniqueness: any attaining pair spans one sublattice;
            # a list below the third minimum has no attaining pair to read
            subs = attaining_rank2_sublattices(vecs) if bf else []
            rep.check(
                "rank2-sublattice-unique",
                len(subs) == 1,
                "type ", minima, ": ", len(subs), " sublattices",
            )
        elif c.special_j in ("j0", "both") and p != 2:
            # j = 0: the minimal basis carries exactly two such sublattices
            pairs = basis_pair_sublattice_count(g)
            rep.check(
                "rank2-sublattice-two-for-j0",
                pairs == 2,
                "type ", minima, ": ", pairs, " basis-pair sublattices",
            )
        rep.check(
            "brute-minima",
            bf is not None and (bf[0], bf[1], bf[2]) == tuple(minima),
            "type ", minima,
        )
        if any(d in norms for d in (4, 7, 8)):
            rep.check("loop-implies-spine", c.spine, "type ", minima)
        if c.spine:
            key = (p, d1)
            cands = gramgross.get(d1)
            if cands is None:
                cands = gramgross[d1] = gram_gross(p, d1)
                rep.gramgross_sizes[key] = len(cands)
                sound = all(
                    not candidate_invariant_violations(cand, p) for cand in cands
                )
                rep.check("gramgross-sound", sound, "(p, D1) = ", key)
            self_n = next((cand.n for cand in cands if cand.gram == g), None)
            rep.check(
                "gramgross-contains", self_n is not None, "type ", minima
            )
            if self_n is not None and d1 > 3:
                a = ceil_div(4 * p * d1 - d1 * d1, 16 * p)
                rep.n_equals_a.append(self_n == a)
        rep.check(
            "embedding-labels",
            (c.embedding != cl.EMBED_NA) == c.spine,
            "type ", minima,
        )

    # per-prime aggregates
    spine_types = sum(1 for c in classifications if c.spine)
    ss = supersingular_j_set(p)
    rep.check(
        "oracle-type-count",
        len(types) == ss.orbit_count,
        len(types), " types vs ", ss.orbit_count, " orbits",
    )
    rep.check(
        "oracle-spine-count",
        spine_types == ss.spine_count,
        spine_types, " vs ", ss.spine_count,
    )

    j0_count = sum(1 for c in classifications if c.special_j in ("j0", "both"))
    j1728_count = sum(
        1 for c in classifications if c.special_j in ("j1728", "both")
    )
    rep.check(
        "special-j-occurrence",
        j0_count == (1 if (p % 3 == 2 or p == 3) else 0)
        and j1728_count == (1 if (p % 4 == 3 or p == 2) else 0),
        "j0 x", j0_count, ", j1728 x", j1728_count,
    )

    if p > 3:
        # the ell = 3 keys alone, from a walk that builds no minimal basis:
        # equal to the ell = 2 minima, which `enumerate_types` certified,
        # they are the minima too
        other = enumerate_types(p, 3, keys_only=True)
        rep.check(
            "ell-independence",
            tuple(t.minima for t in types) == other,
            "ell=2 vs ell=3 triples differ",
        )
    else:
        rep.skip("ell-independence", "only one valid ell in {2, 3}")

    # closed-form comparisons where a family applies
    grams = [rec.gram for rec in types]
    if p == 2:
        rep.check(
            "closed-form-p2", grams == [closed_form_gram("0", 2)], grams
        )
    elif p == 3:
        rep.check(
            "closed-form-p3",
            len(grams) == 1 and grams[0] in P3_GRAMS,
            grams,
        )
    else:
        if p % 3 == 2:
            rep.check(
                "closed-form-j0",
                closed_form_gram("0", p) in grams,
                "missing Gram of the j=0 family",
            )
        if p % 4 == 3:
            rep.check(
                "closed-form-j1728",
                closed_form_gram("1728", p) in grams,
                "missing Gram of the j=1728 family",
            )
        if p >= 13 and p % 7 in (3, 5, 6):
            rep.check(
                "closed-form-minus15cube",
                closed_form_gram("-15^3", p) in grams,
                "missing Gram of the -15^3 family",
            )
        if p >= 113 and p % 20 in (13, 17):
            rep.check(
                "closed-form-d1-20",
                closed_form_gram(D1_20_LABEL, p) in grams,
                "missing Gram of the non-spine D1=20 family",
            )
    return rep


@dataclass
class VerifyReport:
    pmin: int
    pmax: int
    primes: list = field(default_factory=list)       # PrimeReport, ordered
    cm_results: dict = field(default_factory=dict)   # label -> (recomputed, table)

    @property
    def failures(self):
        out = [(r.p, rule) for r in self.primes for rule in r.failures]
        out.extend(
            (label, "cm-ne") for label, (got, want) in self.cm_results.items()
            if got != want
        )
        return out

    @property
    def ok(self):
        return not self.failures

    def gramgross_multiplicities(self):
        sizes = {}
        for r in self.primes:
            sizes.update(r.gramgross_sizes)
        return sizes

    def n_equals_a_fraction(self):
        flags = [f for r in self.primes for f in r.n_equals_a]
        if not flags:
            return None
        return sum(flags), len(flags)

    def to_json_dict(self):
        return {
            "schema": 1,
            "pmin": self.pmin,
            "pmax": self.pmax,
            "primes": [
                {
                    "p": r.p,
                    "rules": {
                        k: v for k, v in sorted(r.rules.items())
                    },
                }
                for r in self.primes
            ],
            "gramgross_multiplicity": {
                f"{p},{d1}": n
                for (p, d1), n in sorted(self.gramgross_multiplicities().items())
            },
            "n_equals_a": self.n_equals_a_fraction(),
            "cm": {
                label: {"recomputed": got, "table": want}
                for label, (got, want) in sorted(self.cm_results.items())
            },
            "failures": [list(f) for f in self.failures],
        }


def run_verify(
    pmin: int,
    pmax: int,
    extended_cm: bool = False,
    progress=None,
) -> VerifyReport:
    if pmin < 2 or pmax < pmin:
        raise ValueError("need 2 <= pmin <= pmax")
    report = VerifyReport(pmin, pmax)
    for p in primes_between(pmin, pmax):
        rep = verify_prime(p)
        report.primes.append(rep)
        if progress:
            progress(rep)
    if extended_cm:
        for row in cm_rows():
            if row.d not in EXTENDED_DS:
                continue
            got, _ = recompute_ne(row, row.default_p_max)
            report.cm_results[row.j_label] = (got, row.n_e)
    return report
