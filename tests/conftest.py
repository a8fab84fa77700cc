import pytest

from tnn_strata import cells, ratmat


@pytest.fixture
def eliminations(monkeypatch):
    """The ``lower`` argument of every ratmat._eliminate call made during
    the test, through cells' binding of it too."""
    calls, original = [], ratmat._eliminate

    def counted(work, dens, cols, lower=None):
        calls.append(lower)
        return original(work, dens, cols, lower)

    monkeypatch.setattr(ratmat, "_eliminate", counted)
    monkeypatch.setattr(cells, "_eliminate", counted)
    return calls
