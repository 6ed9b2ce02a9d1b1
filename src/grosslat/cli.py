"""Command line surface: types, gramgross, verify, cm, oracle.

Exit codes: 0 success, 1 verification failure, 2 usage or precondition
error.  All JSON output carries a top-level "schema": 1 and is emitted with
sorted keys so identical inputs give identical bytes.  `_dump` writes every
integer of absolute value 2^63 or more as a decimal string, in every JSON
output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from bisect import bisect_right
from json.encoder import encode_basestring_ascii

from . import classify as cl
from .cm import EXTENDED_DS, CmError, closed_form_gram, cm_row, cm_rows, recompute_ne
from .exact import is_prime
from .gramgross import PreconditionError, gram_gross
from .lattice import primitive_norms
from .oracle import OracleError, supersingular_j_set
from .orders import default_ell, enumerate_types
from .verify import run_verify

BIG = 2 ** 63


def _dump(obj) -> str:
    """json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=1),
    with every int of |n| >= 2^63 written as a decimal string."""
    return _encode(obj, "\n")


def _scalar(x) -> str:
    """One JSON scalar: bool and None as literals, an int by repr or as a
    decimal string at |n| >= 2^63, a str ASCII-escaped as json.dumps
    escapes it; anything else, floats included, by json.dumps."""
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if type(x) is int:
        return repr(x) if -BIG < x < BIG else f'"{x}"'
    if type(x) is str:
        return encode_basestring_ascii(x)
    return json.dumps(x)


def _encode(obj, nl: str) -> str:
    """`obj` as indented JSON, `nl` being the newline and indent before its
    closing bracket.  Dict keys are strings."""
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = nl + " "
        body = ("," + inner).join([
            encode_basestring_ascii(k) + ": " + (
                _encode(v, inner) if isinstance(v, (dict, list, tuple))
                else _scalar(v)
            )
            for k, v in sorted(obj.items())
        ])
        return "{" + inner + body + nl + "}"
    if not isinstance(obj, (list, tuple)):
        return _scalar(obj)
    if not obj:
        return "[]"
    inner = nl + " "
    sep = "," + inner
    if set(map(type, obj)) == {int} and -BIG < min(obj) and max(obj) < BIG:
        # ints in range print as repr prints them: one format for the list
        fmt = "[" + inner + "%d" + (sep + "%d") * (len(obj) - 1) + nl + "]"
        return fmt % tuple(obj)
    return "[" + inner + sep.join([_encode(v, inner) for v in obj]) + nl + "]"


def _type_payload(p: int, ell: int, disc_bound: int):
    types = enumerate_types(p, ell)
    bound = max(disc_bound, 4)
    out = []
    for idx, rec in enumerate(types):
        # one pass per type, on the normalized Gram the walk has reduced;
        # classify_type gets it cut at 4, so special_j reads at most the
        # entries 3 and 4
        norms = primitive_norms(rec.gram, bound, reduced=True)
        c = cl.classify_type(
            p, norms[:bisect_right(norms, 4)], rec.minima, rec.gram
        )
        cut = bisect_right(norms, disc_bound)
        out.append(
            {
                "index": idx,
                "minima": rec.minima,
                "gram": rec.gram,
                "spine": c.spine,
                "special_j": c.special_j,
                "embedding": c.embedding,
                "orthogonal": c.orthogonal,
                "well_rounded": c.well_rounded,
                "embedded_discriminants": norms if cut == len(norms) else norms[:cut],
            }
        )
    return {"schema": 1, "p": p, "ell": ell, "types": out}


CSV_COLUMNS = [
    "p", "type_index", "D1", "D2", "D3", "x", "y", "z",
    "spine", "special_j", "embedding",
]


def _types_csv(payload) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(CSV_COLUMNS)
    for t in payload["types"]:
        g = t["gram"]
        w.writerow(
            [
                payload["p"], t["index"],
                g[0][0], g[1][1], g[2][2], g[0][1], g[0][2], g[1][2],
                t["spine"], t["special_j"], t["embedding"],
            ]
        )
    return buf.getvalue()


def cmd_types(args) -> int:
    p = args.p
    if not is_prime(p):
        print(f"error: p = {p} is not prime", file=sys.stderr)
        return 2
    ell = default_ell(p) if args.ell is None else args.ell
    if ell == p or not is_prime(ell):
        print(f"error: ell = {ell} must be a prime different from p", file=sys.stderr)
        return 2
    disc_bound = 2 * p if args.disc_bound is None else args.disc_bound
    if disc_bound < 0:
        print(f"error: disc-bound = {disc_bound} is negative", file=sys.stderr)
        return 2
    if args.csv:
        # the CSV prints no discriminants: enumerate only to the 4 that
        # classify_type reads
        sys.stdout.write(_types_csv(_type_payload(p, ell, 0)))
    else:
        print(_dump(_type_payload(p, ell, disc_bound)))
    return 0


def cmd_gramgross(args) -> int:
    try:
        cands = gram_gross(args.p, args.d1)
    except PreconditionError as e:
        print(f"error: REQUIRE violated: {e}", file=sys.stderr)
        return 2
    payload = {
        "schema": 1,
        "p": args.p,
        "d1": args.d1,
        "matrices": [c.gram for c in cands],
        "provenance": [
            {"x": c.x, "d2": c.d2, "y": c.y, "d3": c.d3, "n": c.n, "z": c.z}
            for c in cands
        ],
    }
    print(_dump(payload))
    return 0


def cmd_verify(args) -> int:
    if args.pmin < 2 or args.pmax < args.pmin:
        print("error: need 2 <= pmin <= pmax", file=sys.stderr)
        return 2

    lines = []

    def progress(rep):
        bad = rep.failures
        status = "FAIL " + ",".join(bad) if bad else "ok"
        lines.append(f"p={rep.p}: {len(rep.rules)} rules, {status}")

    report = run_verify(
        args.pmin, args.pmax, extended_cm=args.extended_cm, progress=progress,
    )
    summary = sys.stderr if args.json else sys.stdout
    for line in lines:
        print(line, file=summary)
    mult = report.gramgross_multiplicities()
    many = {k: v for k, v in mult.items() if v > 1}
    if many:
        print(f"gramgross multiplicity > 1 at (p, D1): {sorted(many)}", file=summary)
    nea = report.n_equals_a_fraction()
    if nea:
        print(f"n == a in {nea[0]}/{nea[1]} spine GramGross hits", file=summary)
    for label, (got, want) in sorted(report.cm_results.items()):
        print(f"N_E[{label}] recomputed {got}, table {want}", file=summary)
    nfail = len(report.failures)
    print(f"{'PASS' if report.ok else 'FAIL'}: {len(report.primes)} primes, "
          f"{nfail} failing checks", file=summary)
    if args.json:
        print(_dump(report.to_json_dict()))
    return 0 if report.ok else 1


def cmd_cm(args) -> int:
    # `--row ""` names no row: it is an unknown label, not `--all`
    if args.row is not None:
        try:
            rows = [cm_row(args.row)]
        except KeyError:
            print(f"error: unknown CM row {args.row!r}", file=sys.stderr)
            return 2
    else:
        rows = [r for r in cm_rows() if args.extended or r.d not in EXTENDED_DS]
    all_ok = True
    summary = {}
    details = []
    for row in rows:
        try:
            n_e, detail = recompute_ne(row, args.pmax or row.default_p_max)
        except CmError as e:
            print(f"error: CM row {row.j_label}: {e}", file=sys.stderr)
            return 2
        details.append((row.j_label, detail))
        summary[row.j_label] = {"recomputed": n_e, "table": row.n_e}
        if n_e != row.n_e:
            all_ok = False
    if args.json:
        print(_dump({"schema": 1, "rows": summary}))
    else:
        sys.stdout.write(_cm_csv(details))
        for label, v in sorted(summary.items()):
            print(
                f"N_E[{label}] recomputed {v['recomputed']}, table {v['table']}",
                file=sys.stderr,
            )
    return 0 if all_ok else 1


def _cm_csv(details) -> str:
    """The per-prime CSV of `cm`, from (j_label, recompute_ne detail) pairs."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["j_label", "p", "D1", "D2", "D3", "matches_closed_form"])
    for label, detail in details:
        for p, rec, _good in detail:
            closed = _closed_form_or_none(label, p)
            matches = "" if closed is None else str(rec.gram == closed)
            w.writerow([label, p, *rec.minima, matches])
    return buf.getvalue()


def _closed_form_or_none(label: str, p: int):
    try:
        return closed_form_gram(label, p)
    except (KeyError, ValueError):
        return None


def cmd_oracle(args) -> int:
    p = args.p
    if not is_prime(p):
        print(f"error: p = {p} is not prime", file=sys.stderr)
        return 2
    try:
        ss = supersingular_j_set(p)
    except OracleError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    payload = {
        "schema": 1,
        "p": p,
        "count": ss.count,
        "spine_count": ss.spine_count,
        "orbit_count": ss.orbit_count,
        "nonresidue": ss.nonresidue,
        "j_list": [
            {"re": re, "im": im, "in_fp": im == 0}
            for re, im in ss.js
        ],
    }
    print(_dump(payload))
    return 0


def _add_types(sub):
    t = sub.add_parser("types", help="enumerate and classify the types of B_p")
    t.add_argument("--p", type=int, required=True)
    t.add_argument("--ell", type=int,
                   help="neighbor prime (default 2; 3 when p = 2)")
    t.add_argument("--disc-bound", type=int,
                   help="embedded discriminant bound (default 2p)")
    fmt = t.add_mutually_exclusive_group()
    fmt.add_argument("--csv", action="store_true")
    fmt.add_argument("--json", action="store_true", help="JSON output (default)")
    t.set_defaults(func=cmd_types)


def _add_gramgross(sub):
    g = sub.add_parser("gramgross", help="candidate Gram matrices for (p, D1)")
    g.add_argument("--p", type=int, required=True)
    g.add_argument("--d1", type=int, required=True)
    g.set_defaults(func=cmd_gramgross)


def _add_verify(sub):
    v = sub.add_parser("verify", help="run the invariant suite over a prime range")
    v.add_argument("--pmin", type=int, default=2)
    v.add_argument("--pmax", type=int, default=300)
    v.add_argument("--extended-cm", action="store_true",
                   help="also recompute N_E for d in {43, 67, 163}")
    v.add_argument("--json", action="store_true")
    v.set_defaults(func=cmd_verify)


def _add_cm(sub):
    c = sub.add_parser("cm", help="CM rows: closed forms and N_E recomputation")
    grp = c.add_mutually_exclusive_group(required=True)
    grp.add_argument("--row", type=str, help='label, e.g. "-15^3" or "0"')
    grp.add_argument("--all", action="store_true")
    c.add_argument("--pmax", type=int, default=0)
    c.add_argument("--extended", action="store_true",
                   help="include d in {43, 67, 163} under --all")
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=cmd_cm)


def _add_oracle(sub):
    o = sub.add_parser("oracle", help="finite-field supersingular j-invariants")
    o.add_argument("--p", type=int, required=True)
    o.set_defaults(func=cmd_oracle)


SUBCOMMANDS = {
    "types": _add_types,
    "gramgross": _add_gramgross,
    "verify": _add_verify,
    "cm": _add_cm,
    "oracle": _add_oracle,
}


def build_parser(command=None) -> argparse.ArgumentParser:
    """The command line parser, with every subcommand or with `command` alone.

    A subcommand's parser is the same either way, so its help and errors
    do not depend on which were built.
    """
    ap = argparse.ArgumentParser(
        prog="grosslat",
        description="Exact Gross-lattice toolkit for quaternion maximal orders",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, add in SUBCOMMANDS.items():
        if command in (None, name):
            add(sub)
    return ap


def _fuse_row_flag(argv):
    """Join `--row -15^3` into `--row=-15^3` so labels may start with '-'."""
    out = []
    it = iter(argv)
    for tok in it:
        if tok == "--row":
            val = next(it, None)
            if val is None:
                out.append(tok)
            else:
                out.append(f"--row={val}")
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # argparse setup is most of a short run: build only the subcommand named;
    # help, no arguments or an unknown command need them all
    command = argv[0] if argv and argv[0] in SUBCOMMANDS else None
    args = build_parser(command).parse_args(_fuse_row_flag(argv))
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
