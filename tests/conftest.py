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
    """(rtol, shape of sol.y) of every integration the oracle makes, in order."""
    real, calls = oracle_mod.solve_ivp, []

    def recording(*args, **kwargs):
        sol = real(*args, **kwargs)
        calls.append((kwargs["rtol"], sol.y.shape))
        return sol

    monkeypatch.setattr(oracle_mod, "solve_ivp", recording)
    return calls
