import pytest

from stackyring import chowring, fixtures


@pytest.fixture
def p112():
    return fixtures.load_fan("p112")


@pytest.fixture
def doctor_ring_table(monkeypatch):
    """Apply change(table) to each assembled ring table before its check.

    The table is the dict of structure constants that orbifold_ring hands
    to OrbifoldRing and then checks; a doctored table stands in for a fault
    in the reduction that produced it. generators.doctor_table makes a
    seeded change. change_basis, when given, edits the list of basis
    elements the same way, before the ring reads it and the check reads
    its degrees.
    """
    def install(change, change_basis=None):
        class Doctored(chowring.OrbifoldRing):
            def __init__(self, sfan, base, sectors, basis, table):
                change(table)
                if change_basis is not None:
                    change_basis(basis)
                super().__init__(sfan, base, sectors, basis, table)
        monkeypatch.setattr(chowring, "OrbifoldRing", Doctored)
    return install
