import io
import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

# Tests leave no bytecode under src/, in this process or in the
# interpreters fresh_python starts: a benchmark run later in the same
# checkout would otherwise find it cached on one side only.
sys.dont_write_bytecode = True

from tnn_strata import cells, ratmat
from tnn_strata.cells import cell_of
from tnn_strata.errors import CellMismatch, InvalidArgument
from tnn_strata.fiber import factor_u
from tnn_strata.ratmat import conj_by_perm, gauss_minus, gauss_plus, mul_perm_right

SRC = Path(__file__).resolve().parents[1] / "src"


def fresh_python(code, *args):
    """Run ``python -c code args...`` in a new interpreter that imports the
    library from src/: the completed process, stdout and stderr as bytes."""
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, timeout=120)


class Invocation(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str

    @property
    def output(self) -> str:
        return self.stdout + self.stderr


def invoke(main, argv, input=None) -> Invocation:
    """Run the CLI's ``main`` on argv in this process, with ``input`` as
    stdin: the exit code of the SystemExit it ends in, and what it wrote.
    Any other exception propagates, as a traceback would end the process."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(input or ""), out, err
    try:
        main(args=argv, prog_name="tnn-strata")
    except SystemExit as exc:
        code = exc.code
    else:
        raise AssertionError("main returned without SystemExit")
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    return Invocation(code, out.getvalue(), err.getvalue())


@pytest.fixture
def eliminations(monkeypatch):
    """One entry per ratmat._eliminate call made during the test, through
    cells' binding of it too: the number of rows the call eliminated."""
    calls, original = [], ratmat._eliminate

    def counted(work, dens, cols, lower=None):
        calls.append(len(work))
        return original(work, dens, cols, lower)

    monkeypatch.setattr(ratmat, "_eliminate", counted)
    monkeypatch.setattr(cells, "_eliminate", counted)
    return calls


@pytest.fixture
def minors(monkeypatch):
    """One entry per ratmat.minor call made during the test, through cells'
    binding of it too: the call's (rows, cols) as tuples."""
    calls, original = [], ratmat.minor

    def counted(x, rows, cols):
        rows, cols = tuple(rows), tuple(cols)
        calls.append((rows, cols))
        return original(x, rows, cols)

    monkeypatch.setattr(ratmat, "minor", counted)
    monkeypatch.setattr(cells, "minor", counted)
    return calls


# --- oracle: rho through the factorization of xt, a second derivation of
# the map that rho computes from the shift A(xt)^-1 A(x_u) -----------------


def shift_by_frame(x_u, xt_u, u):
    """n_1 = u^-1 ([xt_u u^-1]_+)^-1 [x_u u^-1]_+ u, for xt_u in the u-cell."""
    uinv = u.inverse()
    a = gauss_plus(mul_perm_right(xt_u, uinv)).inverse()
    return conj_by_perm(u, a @ gauss_plus(mul_perm_right(x_u, uinv)))


def rho_by_frame(xt, x_u, u):
    """rho from the factorization xt = xt_u xt^u: n_1 moves the base xt_u
    onto x_u, and rho(xt) = [xt n_-]_+ with n_- = [(xt^u)^-1 n_1]_-."""
    frame = factor_u(xt, u)
    if x_u.n != u.n:
        raise InvalidArgument("rank mismatch")
    if cell_of(x_u) != u:
        raise CellMismatch(f"recover_shift arguments must lie in the {u.serialize()}-cell")
    n_1 = shift_by_frame(x_u, frame.x_u, u)
    return gauss_plus(xt @ gauss_minus(frame.x_upper_u.inverse() @ n_1))
