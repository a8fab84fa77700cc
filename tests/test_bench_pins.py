"""The benchmark's per-layer pins hold on the library's own call paths.

perfbench/tracer.py wraps named library functions and fails a traced
run of a workload in which one of them, mapped to that workload in
``EXPECTED``, records no calls.  Here every wrapped name must resolve, and
one small call sequence per in-library workload must reach every name
pinned to it, so a change that takes a pinned function off its path fails
here and not only in a traced benchmark run.  The ``cli`` workload's
verbs run in-process here, one argv each.
"""

import ast
import importlib.util
import json
import random
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import invoke
from tnn_strata.cells import lusztig_point
from tnn_strata.cli import main
from tnn_strata.fiber import rho
from tnn_strata.perms import Permutation, reduced_word

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


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


# flow and kernels load on first use, perhaps while the tracer is installed.
# A name they bound by ``from .<mod> import <name>`` then would keep the
# wrapper after restore(), so they bind no function the tracer wraps.  The
# tracer wraps a function in every tnn_strata module that bound it, so a
# wrapped name counts whichever module it is imported from.
@pytest.mark.parametrize("module", ["flow", "kernels"])
def test_lazy_modules_bind_no_wrapped_function(tracer, module):
    wrapped = {name.rsplit(".", 1)[1] for name in tracer.names() if name.count(".") == 1}
    tree = ast.parse((ROOT / "src" / "tnn_strata" / f"{module}.py").read_text())
    bound = [
        f"from .{node.module} import {alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
        for alias in node.names
        if alias.name in wrapped
    ]
    assert bound == []


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


def test_cli_verbs_reach_their_pins(tracer, tmp_path):
    """One argv per verb of the cli workload.  link-sample's interval has
    strata two and three lengths above u, whose points _orbit_tau places,
    so it reaches rho_move."""
    w, u = Permutation.longest(3), Permutation.parse("2,1,3")
    xt = lusztig_point(reduced_word(w), [1, 2, 3]).matrix
    base = lusztig_point(reduced_word(u), [2]).matrix
    files = {}
    for name, m in (("xt", xt), ("base", base), ("y", rho(xt, base, u))):
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps(m.to_json_obj()))
    argvs = [
        ["param", "--word", "s1.s2.s1", "--n", "3", "--params", "1,2,3"],
        ["cell-of", "--in", files["xt"]],
        ["tnn", "--in", files["xt"]],
        ["project", "--in", files["xt"], "--u", u.serialize()],
        ["rho", "--in", files["xt"], "--u", u.serialize(), "--base", files["base"]],
        ["psi", "--in", files["y"], "--u", u.serialize()],
        ["flow", "--in", files["y"], "--u", u.serialize()],
        ["link-sample", "--u", "1,2,3", "--v", "3,2,1", "--count", "1"],
    ]
    with tracer.Tracer() as t:
        codes = [invoke(main, [str(a) for a in argv]).exit_code for argv in argvs]
    assert codes == [0] * len(argvs)
    assert t.missing("cli") == []
