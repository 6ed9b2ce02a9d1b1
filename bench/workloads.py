"""The four benchmark workloads: inputs from a seed, and the output gate.

Every workload is one `grosslat` command line.  `types_large` and
`oracle_large` take their prime from a small band, indexed by the seed
modulo the band's length; seed 0 gives the primes the workloads are named
after.  The other two have a single input, so the seed is only recorded.

A run passes when it exits 0, its stdout has the SHA-256 recorded here for
its input, and its semantic check holds.  The digests were recorded from
the unmodified program; the semantic checks recompute what they can from
the standard library alone (Eichler's count, class numbers).
"""

import json
from dataclasses import dataclass
from math import gcd, isqrt

# 10007 and 10039, with 456 and 453 types.  The other primes near 10007
# whose type number is within 1% of 456 (9929, 10061) ran 2-4% slower, which
# showed as spread across seeds, so the band stops at these two.
TYPES_BAND = (10007, 10039)
# Primes in [1009, 1019]; the oracle sweep is cubic in p, so a 1% band
# moves its work by 3%.
ORACLE_BAND = (1009, 1013, 1019)

VERIFY_PMAX = 300
CM_ROW = "-960^3"  # d = 43
CM_ROW_NE = 433


def eichler_count(p):
    """Number of supersingular j-invariants in characteristic p > 3."""
    return p // 12 + {1: 0, 5: 1, 7: 1, 11: 2}[p % 12]


def class_number(disc):
    """Class number of the negative discriminant `disc` (reduced forms)."""
    h = 0
    a = 1
    while 3 * a * a <= -disc:
        for b in range(-a + 1, a + 1):
            if (b * b - disc) % (4 * a):
                continue
            c = (b * b - disc) // (4 * a)
            if c < a or (b < 0 and c == a) or gcd(gcd(a, abs(b)), c) != 1:
                continue
            h += 1
        a += 1
    return h


def spine_count(p):
    """Supersingular j-invariants in F_p, for a prime p > 3."""
    if p % 4 == 1:
        return class_number(-4 * p) // 2
    if p % 8 == 7:
        return class_number(-p)
    return 2 * class_number(-p)


def primes_upto(n):
    return [q for q in range(2, n + 1) if all(q % d for d in range(2, isqrt(q) + 1))]


def check_verify(out, p):
    doc = json.loads(out)
    primes = [r["p"] for r in doc["primes"]]
    if doc["failures"] != []:
        return f"verify reports failures: {doc['failures'][:5]}"
    if primes != primes_upto(VERIFY_PMAX):
        return f"verify covered {len(primes)} primes, not the {len(primes_upto(VERIFY_PMAX))} up to {VERIFY_PMAX}"
    return None


def check_types(out, p):
    types = json.loads(out)["types"]
    spine = sum(1 for t in types if t["spine"])
    want_spine = spine_count(p)
    want = (eichler_count(p) + want_spine) // 2
    if (len(types), spine) != (want, want_spine):
        return f"{len(types)} types with {spine} on the spine; want {want} with {want_spine}"
    return None


def check_oracle(out, p):
    doc = json.loads(out)
    want = eichler_count(p)
    if doc["count"] != want or len(doc["j_list"]) != want:
        return f"oracle count {doc['count']} ({len(doc['j_list'])} listed); Eichler count {want}"
    in_fp = sum(1 for j in doc["j_list"] if j["in_fp"])
    if doc["spine_count"] != in_fp or in_fp != spine_count(p):
        return f"oracle spine count {doc['spine_count']}; want {spine_count(p)}"
    return None


def check_cm(out, p):
    row = json.loads(out)["rows"][CM_ROW]
    if row != {"recomputed": CM_ROW_NE, "table": CM_ROW_NE}:
        return f"N_E for {CM_ROW}: {row}; want {CM_ROW_NE}"
    return None


@dataclass(frozen=True)
class Workload:
    name: str
    band: tuple  # primes the seed picks from; () when the input is fixed
    command: tuple  # CLI arguments; "{p}" is replaced by the chosen prime
    check: object  # (stdout text, p) -> error message or None
    digests: dict  # p (None for a fixed input) -> expected stdout SHA-256
    ref: str  # reference snippet kind in bench/child.py: the dominant work

    def inputs(self, seed):
        """(p, argv) for a seed; p is None when the input is fixed."""
        p = self.band[seed % len(self.band)] if self.band else None
        return p, [a.format(p=p) for a in self.command]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify_sweep",
            (),
            ("verify", "--pmin", "2", "--pmax", str(VERIFY_PMAX), "--json"),
            check_verify,
            {None: "e34a7d75c667359c866256955a55b85144e8421153c505a2cd87f227f93f95a1"},
            "fraction",
        ),
        Workload(
            "types_large",
            TYPES_BAND,
            ("types", "--p", "{p}", "--json"),
            check_types,
            {
                10007: "21a751ff0424398f4dc429aaf3176a97ab5710e73bb82d973a1d708fd7bba879",
                10039: "b462943a53f46162874cb6e3117b2457d47e14a2e9030af6327b109e74e96978",
            },
            "fraction",
        ),
        Workload(
            "oracle_large",
            ORACLE_BAND,
            ("oracle", "--p", "{p}"),
            check_oracle,
            {
                1009: "8bd4452edd38bfb80c0728bbcc53284514c075259add22c6914ebd2beb5c41d1",
                1013: "6bb55784de85cc3f3c2848d084904be8646e355b176d64574a87bf9dedd82004",
                1019: "c3a5546b9e80562ae0fcff459051cad43331bec158f273f93484b2b5fb5e8188",
            },
            "numpy",
        ),
        Workload(
            "cm_row43",
            (),
            ("cm", "--row", CM_ROW, "--json"),
            check_cm,
            {None: "69f325e9ba49bdcf43f9a2d94664e8c8e3a20f7af72afcf408d484948752596b"},
            "fraction",
        ),
    )
}
