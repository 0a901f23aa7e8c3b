import pytest

from quadspec import critical_table
from quadspec import mathieu as mathieu_mod


@pytest.fixture(scope="session")
def table5():
    """The ten-row critical table, computed once for the whole run."""
    return critical_table(5)


@pytest.fixture
def eigensolves(monkeypatch):
    """Row count of every tridiagonal eigensolve mathieu makes, in order."""
    real, rows = mathieu_mod.eigh_tridiagonal, []

    def counting(*args, **kwargs):
        rows.append(len(args[0]))
        return real(*args, **kwargs)

    monkeypatch.setattr(mathieu_mod, "eigh_tridiagonal", counting)
    return rows
