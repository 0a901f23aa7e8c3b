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
    """(rtol, (components, accepted steps)) of every integration the oracle makes, in order."""
    real, calls = oracle_mod._SOLVER, []

    class Recording:
        """The oracle's ode instance, recording each integration."""

        def __getattr__(self, name):
            return getattr(real, name)

        def set_initial_value(self, y):
            real.set_initial_value(y)
            return self

        def integrate(self, x):
            end = real.integrate(x)
            calls.append((real._integrator.rtol, (end.size, len(oracle_mod._batch["t"]))))
            return end

    monkeypatch.setattr(oracle_mod, "_SOLVER", Recording())
    return calls
