import gc
import json
import weakref

import pytest

import grosslat.classify as classify
import grosslat.cli as cli
import grosslat.cm as cm
import grosslat.lattice as lattice
import grosslat.verify as verify
from grosslat.classify import field_of_definition
from grosslat.orders import enumerate_types


@pytest.mark.parametrize("p", [11, 101])
def test_verify_reads_minimal_bases_from_the_type_records(p, monkeypatch):
    # the walks' own minimal bases go through orders' name, which is not
    # patched, so the calls counted below are the ones verify_prime makes
    types = enumerate_types(p, 2)
    calls = []
    real = lattice.minimal_basis

    def counted(gram, tie_break="asc"):
        calls.append(tie_break)
        return real(gram, tie_break)

    monkeypatch.setattr(lattice, "minimal_basis", counted)
    monkeypatch.setattr(verify, "minimal_basis", counted)
    rep = verify.verify_prime(p)
    assert not rep.failures
    spine = sum(1 for rec in types if field_of_definition(p, rec.minima[2]))
    assert calls == ["desc"] * spine


def count_reduced_vectors(monkeypatch):
    """Record the Gram of every reduced_vectors call, wherever it is named."""
    grams = []
    real = lattice.reduced_vectors

    def counted(gram, bound):
        grams.append(gram)
        return real(gram, bound)

    for module in (lattice, verify, classify, cli, cm):
        monkeypatch.setattr(module, "reduced_vectors", counted, raising=False)
    return grams


@pytest.mark.parametrize("p", [11, 101])
def test_verify_enumerates_each_type_once(p, monkeypatch):
    types = enumerate_types(p, 2)
    grams = count_reduced_vectors(monkeypatch)
    rep = verify.verify_prime(p)
    assert not rep.failures
    assert grams == [rec.gram for rec in types]


def test_types_and_cm_enumerate_each_type_once(monkeypatch, capsys):
    types = enumerate_types(101, 2)
    grams = count_reduced_vectors(monkeypatch)
    assert cli.main(["types", "--p", "101"]) == 0
    capsys.readouterr()
    assert grams == [rec.gram for rec in types]
    # cm writes down the Gross Gram of Pizer's order of (-7, -101) with no
    # walk, and certifies the embedding of -7 with no enumeration; 101 = 3
    # mod 7 is inert in Q(sqrt(-7))
    grams.clear()
    walks = []
    monkeypatch.setattr(cm, "enumerate_types", lambda *args: walks.append(args))
    rec = cm.locate_embedding_type(101, 7)
    assert walks == []
    assert grams == []
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

    def tracked(p, ell):
        types = real(p, ell)
        walked.extend(weakref.ref(rec) for rec in types)
        return types

    monkeypatch.setattr(verify, "enumerate_types", tracked)
    report = verify.run_verify(2, 300, oracle_cap=0)
    assert not report.failures
    del report
    gc.collect()
    assert len(walked) > 500
    assert sum(ref() is not None for ref in walked) == 0
