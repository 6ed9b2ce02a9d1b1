import pytest

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

    def counted(lat, tie_break="asc"):
        calls.append(tie_break)
        return real(lat, tie_break)

    monkeypatch.setattr(lattice, "minimal_basis", counted)
    monkeypatch.setattr(verify, "minimal_basis", counted)
    rep = verify.verify_prime(p)
    assert not rep.failures
    spine = sum(1 for rec in types if field_of_definition(p, rec.minima[2]))
    assert calls == ["desc"] * spine
