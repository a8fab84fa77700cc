"""The benchmark's per-layer pins hold on the library's own call paths.

perfbench/tracer.py wraps named library functions and fails a traced
run of a workload in which one of them, mapped to that workload in
``EXPECTED``, records no calls.  Here every wrapped name must resolve, and
one small call sequence per in-library workload must reach every name
pinned to it, so a change that takes a pinned function off its path fails
here and not only in a traced benchmark run.
"""

import importlib.util
import random
import sys
from pathlib import Path

import numpy as np
import pytest

from tnn_strata.perms import Permutation

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    writes, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes
    return module


def test_every_wrapped_name_resolves(tracer):
    for name in tracer.names():
        mod, *path = name.split(".")
        owner = tracer.library_module(mod)
        for part in path:
            owner = getattr(owner, part)
        assert callable(owner), name


# The library is reached through its module objects, as the benchmark
# reaches it, so the tracer's wrappers see every call.
def _census(lib):
    lib("flow").link_sample(Permutation.identity(3), Permutation.longest(3), 1.0, 1, seed=0)


def _flows(lib):
    # as the flows op: backward, which evaluates its orbit exactly, then
    # forward to str + 2, which integrates and re-projects each point it
    # reports after x0, so reaches rho_move
    x = np.array([[1.0, 2.0, 1.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]])
    F, u = lib("flow"), Permutation.identity(3)
    F.flow(x, u, "backward")
    F.flow(x, u, "forward", target_str=float(np.trace(x, offset=1)) + 2.0)


def _exact(lib):
    F, Fi, C = lib("flow"), lib("fiber"), lib("cells")
    rng = random.Random(0)
    u, w = Permutation.parse("2,1,3"), Permutation.longest(3)
    xt = F.random_cell_point(w, rng)
    base = Fi.factor_u(F.random_cell_point(u, rng), u).x_u
    F.psi(Fi.rho(xt, base, u), u)
    assert C.is_tnn(xt) and C.cell_of(xt) == w


@pytest.mark.parametrize(
    "workload, run", [("census", _census), ("flows", _flows), ("exact", _exact)]
)
def test_workload_reaches_its_pins(tracer, workload, run):
    with tracer.Tracer() as t:
        run(tracer.library_module)
    assert t.missing(workload) == []
