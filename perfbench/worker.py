"""Worker process: one closed-loop client running one workload.

Started by ``run.py``.  It imports the library, runs the workload's fixed
warm-up op and prints ``ready``; then it reads one command from stdin:
``quit``, or ``run`` to generate the seeded inputs, run the ops one at a
time and print one JSON line with the raw results.

Untraced, a run makes whole passes over the inputs until ``--seconds`` have
passed, at least one.  Traced, it makes exactly one traced pass, so call
counts depend only on the seed, after an untraced pass over the first
quarter of the same ops that gives the overhead of tracing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy

import speed
import workloads
from tracer import Tracer, library_module


class BenchError(Exception):
    """The run cannot produce a trustworthy result."""


class Outcome:
    """Per-op times and failures of one or more passes.

    Times are adjusted to the reference speed (see ``speed.py``); the raw
    wall times are kept beside them.
    """

    def __init__(self):
        self.times: list[float] = []  # completed ops only
        self.raw_times: list[float] = []
        self.op_s: list[float] = []  # every attempted op, failed ones too
        self.raw_busy_s = 0.0
        self.passes = 0
        self.attempted = 0
        self.failures: Counter = Counter()
        self.checks = workloads.Checks()
        self.shim_traces: list[tuple[str, dict]] = []

    @property
    def busy_s(self) -> float:
        return sum(self.op_s)


@contextmanager
def _paused(tracer: Tracer | None):
    if tracer is None:
        yield
        return
    tracer.paused = True
    try:
        yield
    finally:
        tracer.paused = False


def run_op(workload, op, outcome: Outcome, state: dict, tracer: Tracer | None = None):
    outcome.attempted += 1
    out, raw, adjusted, error = speed.timed(workload.op, op)
    outcome.op_s.append(adjusted)
    outcome.raw_busy_s += raw
    if error is not None:  # every op error is a failed op, by type
        outcome.failures[type(error).__name__] += 1
        return
    with _paused(tracer):
        try:
            ok = workload.check(op, out, outcome.checks, state)
        except Exception as exc:
            outcome.failures[f"check:{type(exc).__name__}"] += 1
            return
    if not ok:
        outcome.failures["check"] += 1
        return
    outcome.times.append(adjusted)
    outcome.raw_times.append(raw)
    if getattr(out, "trace", None) is not None:
        outcome.shim_traces.append((op.verb, out.trace))


def run_pass(workload, inputs, outcome: Outcome, tracer: Tracer | None = None):
    state: dict = {}
    for op in inputs:
        run_op(workload, op, outcome, state, tracer)
    outcome.passes += 1


def fail_closed(outcome: Outcome):
    if outcome.attempted == 0:
        raise BenchError("no ops were attempted")
    if outcome.checks.cases == 0:
        raise BenchError("the output checks covered no cases")


def digest(workload, inputs) -> str:
    text = json.dumps([workload.key(op) for op in inputs], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def run_untraced(workload, inputs, seconds: float) -> Outcome:
    """Whole passes over the inputs until ``seconds`` have passed."""
    outcome = Outcome()
    start = perf_counter()
    while not outcome.passes or perf_counter() - start < seconds:
        run_pass(workload, inputs, outcome)
    return outcome


def _merge_shim(tracer: Tracer, shim_traces: list, verbs: dict):
    """Fold the traces written by ``cli_shim.py`` into ``tracer``."""
    for verb, rec in shim_traces:
        tracer.calls.update(rec["calls"])
        tracer.self_s.update(rec["self_s"])
        tracer.accepted += rec["accepted"]
        verbs.setdefault(verb, {"import_s": [], "verb_s": []})
        verbs[verb]["import_s"].append(rec["import_s"])
        verbs[verb]["verb_s"].append(rec["verb_s"])


def run_traced(name: str, workload, inputs, root: Path, env: dict) -> tuple[Outcome, dict]:
    """One traced pass, after an untraced pass over its first quarter of ops
    that gives the overhead of tracing."""
    plain = Outcome()
    run_pass(workload, inputs[: max(1, len(inputs) // 4)], plain)
    traced = Outcome()
    tracer = Tracer()
    verbs: dict = {}
    if name == "cli":
        run_pass(workloads.make(name, root, env, shim=True), inputs, traced)
        _merge_shim(tracer, traced.shim_traces, verbs)
    else:
        with tracer:
            run_pass(workload, inputs, traced, tracer)
    for outcome in (plain, traced):
        fail_closed(outcome)
    missing = tracer.missing(name)
    if missing:
        raise BenchError(f"traced names recorded no calls on {name}: {', '.join(missing)}")
    overhead = sum(traced.op_s[: len(plain.op_s)]) / plain.busy_s - 1.0
    trace = {
        "layers": tracer.metrics(),
        "edges": tracer.edge_table(),
        "overhead_frac": overhead,
        "verbs": verbs,
        "untraced_failures": dict(plain.failures),
        "untraced_check_failures": dict(plain.checks.failed),
        "untraced_attempted": plain.attempted,
    }
    return traced, trace


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.NAMES, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    workload = workloads.make(args.workload, root, env)
    speed.reference_s()  # numpy's lazy set-up, outside the first timed op
    out = workload.op(workload.warmup())
    if getattr(out, "returncode", 0) != 0:
        raise BenchError(f"warm-up op failed: {out.stderr.decode(errors='replace')}")
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "run":
        return 0

    pkg = library_module("kernels")
    src = (root / "src").resolve()
    if Path(pkg.__file__).resolve().parent.parent != src:
        raise BenchError(f"tnn_strata was imported from {pkg.__file__}, not from {src}")
    inputs = workload.inputs(args.seed)
    inputs_digest = digest(workload, inputs)
    try:
        if args.trace:
            outcome, trace = run_traced(args.workload, workload, inputs, root, env)
        else:
            outcome, trace = run_untraced(workload, inputs, args.seconds), None
            fail_closed(outcome)
    finally:
        workload.cleanup()
    result = {
        "op_s": outcome.times,
        "raw_op_s": outcome.raw_times,
        "busy_s": outcome.busy_s,
        "raw_busy_s": outcome.raw_busy_s,
        "passes": outcome.passes,
        "attempted": outcome.attempted,
        "failures": dict(outcome.failures),
        "check_cases": outcome.checks.cases,
        "check_failures": dict(outcome.checks.failed),
        "ops_per_pass": len(inputs),
        "inputs_digest": inputs_digest,
        "numpy": numpy.__version__,
        "using_numba": bool(pkg.USING_NUMBA),
        "children_maxrss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        "trace": trace,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench worker: {exc}", file=sys.stderr)
        sys.exit(1)
