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


def count_enumerations(monkeypatch):
    """Record (name, Gram) of every reduced_vectors and primitive_norms call,
    wherever the function is named."""
    calls = []

    def counted(name):
        real = getattr(lattice, name)

        def wrapper(gram, bound):
            calls.append((name, gram))
            return real(gram, bound)

        return wrapper

    for name in ("reduced_vectors", "primitive_norms"):
        wrapper = counted(name)
        for module in (lattice, verify, classify, cli, cm):
            monkeypatch.setattr(module, name, wrapper, raising=False)
    return calls


@pytest.mark.parametrize("p", [11, 101])
def test_verify_enumerates_each_type_once(p, monkeypatch):
    # one vector list to 2p and one primitive-norm pass to 8 per type
    types = enumerate_types(p, 2)
    calls = count_enumerations(monkeypatch)
    rep = verify.verify_prime(p)
    assert not rep.failures
    assert calls == [
        (name, rec.gram)
        for rec in types for name in ("reduced_vectors", "primitive_norms")
    ]


def test_types_and_cm_enumerate_each_type_once(monkeypatch, capsys):
    # types: one primitive-norm pass per type, and no vector list
    types = enumerate_types(101, 2)
    calls = count_enumerations(monkeypatch)
    assert cli.main(["types", "--p", "101"]) == 0
    capsys.readouterr()
    assert calls == [("primitive_norms", rec.gram) for rec in types]
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
