import pytest

from tnn_strata import cells, ratmat


@pytest.fixture
def eliminations(monkeypatch):
    """One entry per ratmat._eliminate call made during the test, through
    cells' binding of it too: the number of rows the call eliminated."""
    calls, original = [], ratmat._eliminate

    def counted(work, dens, cols):
        calls.append(len(work))
        return original(work, dens, cols)

    monkeypatch.setattr(ratmat, "_eliminate", counted)
    monkeypatch.setattr(cells, "_eliminate", counted)
    return calls
