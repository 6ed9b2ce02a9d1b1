import json
from pathlib import Path

import pytest

import grosslat.cli as cli
from grosslat.cli import main

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_types_p11_json(capsys):
    code, out, _ = run(capsys, "types", "--p", "11")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    types = payload["types"]
    assert [t["minima"] for t in types] == [[3, 15, 15], [4, 11, 12]]
    assert types[0]["special_j"] == "j0" and types[0]["spine"]
    assert types[1]["special_j"] == "j1728"
    assert types[1]["embedding"] == "both"
    assert types[1]["gram"] == [[4, 0, 2], [0, 11, 0], [2, 0, 12]]


def test_types_p2_well_rounded(capsys):
    code, out, _ = run(capsys, "types", "--p", "2")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["types"]) == 1
    assert payload["types"][0]["well_rounded"] is True
    assert payload["types"][0]["orthogonal"] is False


def test_types_rejects_composite(capsys):
    code, _, err = run(capsys, "types", "--p", "4")
    assert code == 2
    assert "not prime" in err


def test_types_rejects_negative_disc_bound(capsys):
    code, out, err = run(capsys, "types", "--p", "11", "--disc-bound", "-1")
    assert code == 2
    assert out == ""
    assert "disc-bound" in err


def test_types_disc_bound_zero_embeds_nothing(capsys):
    # 0 is a bound, not the default 2p; special_j still reads norms to 4
    code, out, _ = run(capsys, "types", "--p", "11", "--disc-bound", "0")
    assert code == 0
    types = json.loads(out)["types"]
    assert [t["embedded_discriminants"] for t in types] == [[], []]
    assert [t["special_j"] for t in types] == ["j0", "j1728"]
    _, out, _ = run(capsys, "types", "--p", "11")
    assert [t["embedded_discriminants"] for t in json.loads(out)["types"]] == [
        [3, 15, 16, 20], [4, 11, 12, 15, 20],
    ]


def test_types_output_is_byte_stable(capsys):
    _, first, _ = run(capsys, "types", "--p", "37")
    _, second, _ = run(capsys, "types", "--p", "37")
    assert first == second


def test_types_csv_columns(capsys):
    code, out, _ = run(capsys, "types", "--p", "11", "--csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "p,type_index,D1,D2,D3,x,y,z,spine,special_j,embedding"
    assert lines[1].startswith("11,0,3,15,15,1,1,-7,True,j0,")
    assert len(lines) == 3


@pytest.mark.parametrize("p", [1009, 10007])
def test_types_csv_enumerates_the_norms_only_to_4(capsys, monkeypatch, p):
    # the CSV has no discriminant column: every --disc-bound prints the same
    # bytes, each type's pass stops at the 4 that classify_type reads, and
    # a negative bound is still an error
    bounds = []
    real = cli.primitive_norms

    def spy(gram, bound, reduced=False):
        bounds.append(bound)
        return real(gram, bound, reduced=reduced)

    monkeypatch.setattr(cli, "primitive_norms", spy)
    outs = set()
    for extra in ([], ["--disc-bound", "0"], ["--disc-bound", "50"]):
        code, out, _ = run(capsys, "types", "--p", str(p), "--csv", *extra)
        assert code == 0
        outs.add(out)
    assert len(outs) == 1
    assert set(bounds) == {4}
    if p == 1009:
        assert outs == {(GOLDEN / "types_p1009.csv").read_text()}
    code, out, err = run(capsys, "types", "--p", str(p), "--csv", "--disc-bound", "-1")
    assert (code, out) == (2, "") and "disc-bound" in err


def test_types_rejects_csv_with_json(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["types", "--p", "11", "--csv", "--json"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "not allowed with argument" in out.err


def test_types_rejects_ell_zero(capsys):
    # 0 is a value, not "unset": it must not fall back to the default ell
    code, out, err = run(capsys, "types", "--p", "11", "--ell", "0")
    assert code == 2
    assert out == ""
    assert "ell = 0 must be a prime different from p" in err


def test_gramgross_31_7(capsys):
    code, out, _ = run(capsys, "gramgross", "--p", "31", "--d1", "7")
    assert code == 0
    payload = json.loads(out)
    assert payload["matrices"] == [[[7, 3, 2], [3, 19, -8], [2, -8, 36]]]


def test_gramgross_13_3_empty(capsys):
    code, out, _ = run(capsys, "gramgross", "--p", "13", "--d1", "3")
    assert code == 0
    assert json.loads(out)["matrices"] == []


def test_gramgross_require_violation(capsys):
    code, _, err = run(capsys, "gramgross", "--p", "7", "--d1", "5")
    assert code == 2
    assert "REQUIRE" in err


def test_gramgross_rejects_d1_zero_as_not_positive(capsys):
    code, out, err = run(capsys, "gramgross", "--p", "31", "--d1", "0")
    assert code == 2
    assert out == ""
    assert err == "error: REQUIRE violated: D1 = 0 is not positive\n"


def test_verify_small_range(capsys):
    code, out, _ = run(capsys, "verify", "--pmin", "2", "--pmax", "30")
    assert code == 0
    assert "PASS" in out


def test_verify_json(capsys):
    code, out, err = run(capsys, "verify", "--pmin", "2", "--pmax", "13", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["failures"] == []
    assert "PASS" in err


def test_verify_covers_p3_sign_ambiguity(capsys):
    code, out, _ = run(capsys, "verify", "--pmin", "2", "--pmax", "3", "--json")
    assert code == 0
    rules = {r["p"]: r["rules"] for r in json.loads(out)["primes"]}
    assert rules[3]["closed-form-p3"]["ok"]
    assert rules[2]["closed-form-p2"]["ok"]


def test_verify_nonspine_family_rule_at_113(capsys):
    code, out, _ = run(capsys, "verify", "--pmin", "113", "--pmax", "113", "--json")
    assert code == 0
    (prime,) = json.loads(out)["primes"]
    assert prime["rules"]["closed-form-d1-20"]["ok"]


def test_verify_usage_error(capsys):
    code, _, err = run(capsys, "verify", "--pmin", "10", "--pmax", "5")
    assert code == 2
    assert "pmin" in err


def test_verify_has_no_oracle_cap(capsys):
    # the oracle rules run at every prime, so --oracle-cap is a usage error
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--pmin", "11", "--pmax", "11", "--oracle-cap", "7"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "unrecognized arguments: --oracle-cap 7" in out.err


def test_verify_extended_cm_wiring(capsys, monkeypatch):
    import grosslat.verify as V

    calls = []

    def fake_recompute(row, p_max):
        calls.append((row.d, p_max))
        return row.n_e, []

    monkeypatch.setattr(V, "recompute_ne", fake_recompute)
    code, out, _ = run(capsys, "verify", "--pmin", "2", "--pmax", "3",
                       "--extended-cm")
    assert code == 0
    assert sorted(d for d, _ in calls) == [43, 67, 163]
    assert "N_E[-640320^3] recomputed 6481, table 6481" in out
    # a mismatching recomputation must flip the exit code
    monkeypatch.setattr(V, "recompute_ne", lambda row, p_max: (row.n_e + 2, []))
    code, _, _ = run(capsys, "verify", "--pmin", "2", "--pmax", "3",
                     "--extended-cm")
    assert code == 1


def test_cm_row_json(capsys):
    code, out, _ = run(capsys, "cm", "--row", "-15^3", "--pmax", "300", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"]["-15^3"] == {"recomputed": 13, "table": 13}


def test_cm_row_csv(capsys):
    code, out, err = run(capsys, "cm", "--row", "0", "--pmax", "60")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "j_label,p,D1,D2,D3,matches_closed_form"
    assert lines[1] == "0,5,3,7,7,True"
    assert "N_E[0] recomputed 5, table 5" in err


def test_cm_locates_each_prime_once(capsys, monkeypatch):
    import hashlib

    import grosslat.cli as cli
    import grosslat.cm as cm

    calls = []
    real = cm.locate_embedding_type

    def counting(p, d):
        calls.append(p)
        return real(p, d)

    monkeypatch.setattr(cm, "locate_embedding_type", counting)
    # also counts a direct call from cmd_cm, should one come back
    monkeypatch.setattr(cli, "locate_embedding_type", counting, raising=False)
    code, out, _ = run(capsys, "cm", "--row", "-15^3", "--pmax", "300")
    assert code == 0
    assert calls == cm.supersingular_primes(cm.cm_row("-15^3"), 5, 300)
    # SHA-256 of the CSV as written when cmd_cm located each type again
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "7dff60fd411efceb49d0e4ccf57bca29705990e37b611e24d49a208d7dc6f701"
    )


def test_cm_unknown_row(capsys):
    code, _, err = run(capsys, "cm", "--row", "-14^3")
    assert code == 2
    assert "unknown" in err


@pytest.mark.parametrize("argv", [["--row", ""], ["--row="]])
def test_cm_empty_row_is_an_unknown_row(argv, capsys):
    # an empty label names no row; it must not run every row
    code, out, err = run(capsys, "cm", *argv)
    assert code == 2
    assert out == ""
    assert err == "error: unknown CM row ''\n"


def test_cm_precondition_error_exits_2(capsys):
    # no row-supersingular prime in [5, 4]: a CmError, reported and not raised
    code, out, err = run(capsys, "cm", "--row", "0", "--pmax", "4")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "no good prime" in err


def test_cm_pmax_below_the_floor_exits_2(capsys):
    # recompute_ne's own range check, reported like any other CmError
    code, out, err = run(capsys, "cm", "--row", "-96^3", "--pmax", "50")
    assert code == 2
    assert out == ""
    assert err.startswith("error: CM row -96^3:")
    assert "(d+1)^2/4" in err


def test_oracle_p37(capsys):
    code, out, _ = run(capsys, "oracle", "--p", "37")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 3
    assert payload["spine_count"] == 1
    assert payload["orbit_count"] == 2
    assert sum(1 for j in payload["j_list"] if j["in_fp"]) == 1


def test_oracle_rejects_composite(capsys):
    code, _, _ = run(capsys, "oracle", "--p", "15")
    assert code == 2


def test_oracle_reports_an_oracle_error(capsys, monkeypatch):
    # with the start table emptied 101 has no start, as 134447041 has none
    # with the full table: an error line and exit 2, not a traceback
    from grosslat import oracle

    monkeypatch.setattr(oracle, "_HILBERT", ())
    code, out, err = run(capsys, "oracle", "--p", "101")
    assert (code, out) == (2, "")
    assert err == "error: no Hilbert class polynomial of the table is inert at p=101\n"


def test_verify_runs_oracle_rules_above_500():
    from grosslat.verify import verify_prime

    rules = verify_prime(503).rules
    for rule in ("oracle-type-count", "oracle-spine-count"):
        assert rules[rule] == {"ok": True, "detail": ""}


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["nosuch"], ["cm", "--help"], ["verify", "--help"],
    ["oracle"], ["types", "--p", "11", "--csv", "--json"],
])
def test_help_and_usage_errors_match_the_full_parser(capsys, argv):
    import grosslat.cli as cli

    def outcome(parse):
        with pytest.raises(SystemExit) as exc:
            parse(list(argv))
        out = capsys.readouterr()
        return exc.value.code, out.out, out.err

    assert outcome(main) == outcome(cli.build_parser().parse_args)


def test_main_builds_only_the_named_subparser(capsys, monkeypatch):
    import grosslat.cli as cli

    built = []
    for name, add in list(cli.SUBCOMMANDS.items()):
        monkeypatch.setitem(
            cli.SUBCOMMANDS, name,
            lambda sub, name=name, add=add: (built.append(name), add(sub)),
        )
    assert run(capsys, "oracle", "--p", "37")[0] == 0
    assert built == ["oracle"]
    with pytest.raises(SystemExit):
        main(["nosuch"])
    assert built == ["oracle", *cli.SUBCOMMANDS]


def test_cli_import_leaves_numpy_unloaded():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import grosslat

    src = str(Path(grosslat.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, grosslat.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
