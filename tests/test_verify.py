import json

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
    # enumerate_types builds each minimal basis once; warm its cache so the
    # calls counted below are the ones verify_prime makes
    types = enumerate_types(p, 2)
    enumerate_types(p, 3)
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
    enumerate_types(p, 3)
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
