"""Byte-for-byte CLI output against recorded golden files.

The files under tests/golden/ hold the stdout of each command below; any
change to the exact arithmetic behind them shows up as a byte difference.
Outputs too large to keep as a file are checked by their SHA-256; they
include every input of the benchmark in bench/workloads.py.

`cli._dump` spells each scalar itself and writes a list of small ints with
one format string, and it writes every int of absolute value 2^63 or more
as a decimal string, so the payloads hold raw ints.  Its reference is
`json.dumps(..., indent=1)` of the same object with those ints converted to
strings first, on every golden payload and on edge cases.
"""

import hashlib
import json
from pathlib import Path

import pytest

from grosslat.cli import _dump, main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "types_p11.json": ["types", "--p", "11"],
    "types_p101.json": ["types", "--p", "101"],
    "types_p1009.json": ["types", "--p", "1009"],
    "types_p1009.csv": ["types", "--p", "1009", "--csv"],
    "gramgross_p31_d7.json": ["gramgross", "--p", "31", "--d1", "7"],
    "oracle_p37.json": ["oracle", "--p", "37"],
    "verify_2_100.json": ["verify", "--pmin", "2", "--pmax", "100", "--json"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, capsys):
    assert main(CASES[name]) == 0
    want = (GOLDEN / name).read_bytes()
    assert capsys.readouterr().out.encode() == want


DIGESTS = {
    # the 456-type walk at p = 10007, the largest `types` input measured
    "types --p 10007 --json":
        "21a751ff0424398f4dc429aaf3176a97ab5710e73bb82d973a1d708fd7bba879",
    # d = 163 over its 455 inert primes up to 6887
    "cm --row -640320^3 --json":
        "134ac79636414a0ce1de6d02869cc8a148a34fab61e81d095cb4c71ec61e43fc",
    # the benchmark's verify_sweep input: every prime up to 300
    "verify --pmin 2 --pmax 300 --json":
        "e34a7d75c667359c866256955a55b85144e8421153c505a2cd87f227f93f95a1",
    # all 13 rows, each at its default sweep
    "cm --all --extended --json":
        "51f0b28899c439a454d28d2ab944c2026fc93a86e26acab90c4a52e5615824fa",
    # the other prime of the benchmark's types_large band
    "types --p 10039 --json":
        "b462943a53f46162874cb6e3117b2457d47e14a2e9030af6327b109e74e96978",
    # the benchmark's oracle_large input at seed 0
    "oracle --p 1009":
        "8bd4452edd38bfb80c0728bbcc53284514c075259add22c6914ebd2beb5c41d1",
    # the least prime that needs a start past the first eighteen rows (H_115);
    # recorded from the roots of ss_p, the route the walk replaced there
    "oracle --p 620929":
        "19770f8a495231fe80862e5aba46af0b51e571835c9730664a03d0b6022e3058",
}


@pytest.mark.parametrize("command", sorted(DIGESTS))
def test_cli_output_matches_recorded_digest(command, capsys):
    assert main(command.split()) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == DIGESTS[command]


BIG = 2 ** 63


def jint(n):
    """An int as JSON output holds it: a decimal string at |n| >= 2^63."""
    return n if abs(n) < BIG else str(n)


def big_ints_as_strings(obj):
    """`obj` with every int (not bool) of |n| >= 2^63 made a string."""
    if isinstance(obj, dict):
        return {k: big_ints_as_strings(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [big_ints_as_strings(v) for v in obj]
    if isinstance(obj, int) and not isinstance(obj, bool):
        return jint(obj)
    return obj


def reference_dump(obj):
    return json.dumps(
        big_ints_as_strings(obj), sort_keys=True, separators=(",", ": "), indent=1
    )


@pytest.mark.parametrize(
    "name", sorted(p.name for p in GOLDEN.glob("*.json"))
)
def test_dump_matches_the_indenting_encoder_on_golden_payloads(name):
    text = (GOLDEN / name).read_text()
    obj = json.loads(text)
    assert _dump(obj) == reference_dump(obj)
    assert _dump(obj) + "\n" == text


DUMP_EDGE_CASES = [
    [],
    {},
    None,
    True,
    False,
    0,
    -5,
    0.5,
    "é\n\"",
    [None, True, False, 0, "", 1.25],
    {"b": [], "a": {}, "c": [[]], "d": [{}], "e": [[], {}, [[]]]},
    {"big": jint(2 ** 63), "small": jint(2 ** 63 - 1), "neg": jint(-2 ** 63)},
    [jint(2 ** 63 + k) for k in range(3)],
    [1, [2, 3], {"k": [4, None]}, [], (5, 6)],
    {"n_equals_a": (3, 4), "z": None, "y": {"x": [True, {"w": []}]}},
    [[[[1]]], [[2, [3]]]],
    # raw ints at the 2^63 edge, which `_dump` itself writes as strings
    [BIG - 1, 1 - BIG, BIG, -BIG],
    [BIG - 1, 1 - BIG],
    {"big": BIG, "small": BIG - 1, "neg": -BIG, "neg_small": 1 - BIG},
    (BIG, (BIG - 1, -BIG), [-(BIG + 1)]),
    BIG,
    -BIG,
    BIG - 1,
    [True, 1, False, 0],
    {"t": True, "one": 1, "f": False, "zero": 0},
    [0.5, 1, BIG, "x"],
    ["\u00e9\u4e2d\U0001f600", {"\u00fc": "\u00df"}],
    ((), [], {}, ((),), (1, 2, 3)),
    # one-element lists at each edge of the one-format path: -2^63 is a
    # string, though a C long long (array('q')) holds it
    [-2 ** 63],
    [2 ** 63 - 1],
    [True],
    (False,),
    # a long int list that only its last entry takes off that path
    list(range(299)) + [2 ** 63],
]


@pytest.mark.parametrize("obj", DUMP_EDGE_CASES, ids=repr)
def test_dump_matches_the_indenting_encoder_on_edge_cases(obj):
    assert _dump(obj) == reference_dump(obj)
