import pytest

from quadspec import critical_table
from quadspec import mathieu as mathieu_mod
from quadspec import oracle as oracle_mod


@pytest.fixture(scope="session")
def table5():
    """The ten-row critical table, computed once for the whole run."""
    return critical_table(5)


@pytest.fixture
def eigensolves(monkeypatch):
    """(rows, ranks) of every mathieu._eigensolve(bands, ranks) call, in order."""
    real, calls = mathieu_mod._eigensolve, []

    def recording(bands, ranks):
        calls.append((len(bands[0]), ranks))
        return real(bands, ranks)

    monkeypatch.setattr(mathieu_mod, "_eigensolve", recording)
    return calls


@pytest.fixture
def integrations(monkeypatch):
    """(points, steps) of every oracle._grid_defects(symmetry, grid, q, steps) call, in order."""
    real, calls = oracle_mod._grid_defects, []

    def recording(symmetry, grid, q, steps):
        calls.append((len(grid), steps))
        return real(symmetry, grid, q, steps)

    monkeypatch.setattr(oracle_mod, "_grid_defects", recording)
    return calls
