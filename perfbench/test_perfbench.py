"""Tests of the benchmark itself.  Run: python -m pytest perfbench"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402

import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _small_inputs(name: str, seed: int):
    wl = workloads.make(name, HERE.parent, {"PYTHONPATH": str(HERE.parent / "src")})
    inputs = wl.inputs(seed)
    if name == "census":  # one interval of length 1, at all three radii
        P = tracer.library_module("perms")
        inputs = [op for op in inputs if P.Permutation.parse(op.v).length - P.Permutation.parse(op.u).length == 1]
        return wl, inputs[:3]
    return wl, inputs[: {"flows": 4, "exact": 10, "cli": len(inputs) // workloads.CLI_ROUNDS}[name]]


def _traced_counts(name: str, seed: int) -> dict:
    wl, inputs = _small_inputs(name, seed)
    t = tracer.Tracer()
    out = worker.Outcome()
    try:
        if name == "cli":
            shim = workloads.make(name, HERE.parent, wl.env, shim=True)
            worker.run_pass(shim, inputs, out)
            worker._merge_shim(t, out.shim_traces, {})
        else:
            with t:
                worker.run_pass(wl, inputs, out, t)
    finally:
        wl.cleanup()
    assert out.attempted == len(inputs) and out.checks.cases > 0
    return {k: v for k, v in t.metrics().items() if not k.endswith(".self_s")}


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_counts_repeat_exactly(name):
    first = _traced_counts(name, 7)
    assert first == _traced_counts(name, 7)
    assert first[tracer.ACCEPTED] > 0 or name == "exact"
    assert sum(first.values()) > 0


def test_tracer_patches_every_binding_and_restores():
    tracer.library_module("cli")  # binds flow as run_flow, and more
    import tnn_strata

    flow_mod = tracer.library_module("flow")
    cli_mod = tracer.library_module("cli")
    before = (flow_mod.flow, tnn_strata.flow, cli_mod.run_flow, cli_mod.is_tnn, flow_mod.is_tnn)
    assert flow_mod is sys.modules["tnn_strata.flow"] and tnn_strata.flow is flow_mod.flow
    with tracer.Tracer() as t:
        assert flow_mod.flow is not before[0]
        assert tnn_strata.flow is flow_mod.flow is cli_mod.run_flow
        assert cli_mod.is_tnn is flow_mod.is_tnn is tracer.library_module("cells").is_tnn
        P = tracer.library_module("perms")
        P.reduced_word(P.Permutation.longest(3))
        assert t.calls["perms.reduced_word"] == 1
    after = (flow_mod.flow, tnn_strata.flow, cli_mod.run_flow, cli_mod.is_tnn, flow_mod.is_tnn)
    assert all(a is b for a, b in zip(before, after))


def test_self_time_excludes_children():
    with tracer.Tracer() as t:
        R = tracer.library_module("ratmat")
        x = R.RatMatrix.identity(4)
        tracer.library_module("cells").is_tnn(x)
    assert t.calls["cells.is_tnn"] == 1 and t.calls["ratmat.minor"] == 69
    assert t.edges[("cells.is_tnn", "ratmat.minor")] == 69
    assert 0 <= t.self_s["cells.is_tnn"] < sum(t.self_s.values())


def test_unexercised_mapping_fails_loudly():
    assert set(tracer.Tracer().missing("exact")) == {
        n for n, wls in tracer.EXPECTED.items() if "exact" in wls
    }


class _Raises(workloads.Workload):
    name = "raises"

    def op(self, op):
        raise ValueError(op)

    def check(self, op, out, check, state):
        return check(True, "never")


def test_errors_are_failed_ops_by_type_and_zero_cases_fail_closed():
    out = worker.Outcome()
    worker.run_pass(_Raises(), ["a", "b"], out)
    assert out.attempted == 2 and out.failures == {"ValueError": 2} and not out.times
    with pytest.raises(worker.BenchError, match="no cases"):
        worker.fail_closed(out)
    with pytest.raises(worker.BenchError, match="no ops"):
        worker.fail_closed(worker.Outcome())
