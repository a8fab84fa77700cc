"""Benchmark entry point.

    python3 perfbench/run.py --workload {census,flows,exact,cli} \
        --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout; the library is imported from the
checkout's ``src/``.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The line before it is the full report: the stamp (git
sha, versions, cores, backend, seed, input digest), sample counts,
failures by type, and every per-layer number the traced run records.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import selectors
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_SPAWNS = 5  # one interpreter start varies by about 15 %
PROBE_SPAWNS = 5
READY_TIMEOUT_S = 60
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    env["PYTHONHASHSEED"] = "0"
    return env


def git_sha() -> str | None:
    """HEAD of the checkout's own ``.git``, if it has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _wait_ready(proc: subprocess.Popen) -> None:
    sel = selectors.DefaultSelector()
    sel.register(proc.stdout, selectors.EVENT_READ)
    try:
        if not sel.select(READY_TIMEOUT_S):
            raise BenchError("worker did not become ready")
    finally:
        sel.close()
    line = proc.stdout.readline()
    if line.strip() != "ready":
        raise BenchError(f"worker failed before ready (exit {proc.wait()})")


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def _spawn_ready(argv: list[str], env: dict) -> subprocess.Popen:
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=env, text=True,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
    )
    try:
        _wait_ready(proc)
    except BaseException:
        _stop(proc)
        raise
    return proc


def run_worker(args, env: dict) -> tuple[dict, list[tuple[float, float]]]:
    """Spawn the worker until it is ready, several times; the last one runs.

    Returns the worker's result and each spawn's set-up time, raw and at the
    reference speed: from the spawn to the end of the fixed warm-up op.
    """
    argv = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    setup: list[tuple[float, float]] = []
    spawns = 1 if args.trace else SETUP_SPAWNS
    speed.reference_s()
    for i in range(spawns):
        proc, raw, adjusted, error = speed.timed(_spawn_ready, argv, env)
        if error is not None:
            raise error
        setup.append((raw, adjusted))
        try:
            if i < spawns - 1:
                proc.communicate("quit\n", timeout=READY_TIMEOUT_S)
                continue
            out, _ = proc.communicate("run\n", timeout=RUN_TIMEOUT_S)
        finally:
            _stop(proc)
        if proc.returncode != 0:
            raise BenchError(f"worker exited with {proc.returncode}")
        return json.loads(out.strip().splitlines()[-1]), setup
    raise AssertionError("unreachable")


def probe_ms(code: str, env: dict) -> float:
    """Median time of ``python -c code`` at the reference speed, in ms."""
    times = []
    for _ in range(PROBE_SPAWNS):
        argv = [sys.executable, "-c", code]
        _, _, adjusted, error = speed.timed(subprocess.run, argv, cwd=ROOT, env=env, check=True, timeout=60)
        if error is not None:
            raise error
        times.append(adjusted)
    return statistics.median(times) * 1e3


def _latency(times: list[float], busy_s: float) -> dict:
    if len(times) < 2:
        raise BenchError("fewer than two ops completed")
    return {
        "ops_per_s": {"value": len(times) / busy_s, "unit": "1/s"},
        "op_ms.p50": {"value": statistics.median(times) * 1e3, "unit": "ms"},
        "op_ms.p90": {"value": statistics.quantiles(times, n=10)[8] * 1e3, "unit": "ms"},
    }


def end_to_end(res: dict, setup: list[tuple[float, float]], rss_kb: int) -> tuple[dict, dict]:
    """The end-to-end metrics, at the reference speed, and the raw ones."""
    metrics = _latency(res["op_s"], res["busy_s"])
    metrics["setup_s"] = {"value": statistics.median(a for _, a in setup), "unit": "s"}
    metrics["peak_rss_mb"] = {"value": rss_kb / 1024, "unit": "MB"}
    raw = _latency(res["raw_op_s"], res["raw_busy_s"])
    raw["setup_s"] = {"value": statistics.median(r for r, _ in setup), "unit": "s"}
    return metrics, {f"raw.{k}": v for k, v in raw.items()}


def per_layer(res: dict, env: dict) -> tuple[dict, dict]:
    """The per-layer metrics of BENCHMARK.json, and everything else traced."""
    trace = res["trace"]
    layers = trace["layers"]
    bare = probe_ms("pass", env)
    imported = probe_ms("import tnn_strata.cli", env)
    metrics = {f"{name}.calls": {"value": layers[f"{name}.calls"], "unit": "count"} for name in tracer.names()}
    metrics[tracer.ACCEPTED] = {"value": layers[tracer.ACCEPTED], "unit": "count"}
    metrics["trace.overhead_frac"] = {"value": trace["overhead_frac"], "unit": "ratio"}
    metrics["cli.python_start_ms"] = {"value": bare, "unit": "ms"}
    metrics["cli.import_ms"] = {"value": imported - bare, "unit": "ms"}
    extra = {f"{name}.self_s": {"value": layers[f"{name}.self_s"], "unit": "s"} for name in tracer.names()}
    for verb, rec in sorted(trace["verbs"].items()):
        extra[f"cli.verb_ms.{verb}"] = {"value": statistics.median(rec["verb_s"]) * 1e3, "unit": "ms"}
        extra[f"cli.in_process_import_ms.{verb}"] = {
            "value": statistics.median(rec["import_s"]) * 1e3, "unit": "ms"
        }
    extra["edges"] = trace["edges"]
    return metrics, extra


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.NAMES, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "tnn_strata" / "__init__.py").is_file():
        raise BenchError(f"no library source at {ROOT / 'src' / 'tnn_strata'}")

    # The reference loop must run on the core the op runs on; the worker and
    # the processes it starts inherit this.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env = child_env()
    res, setup = run_worker(args, env)
    if args.workload == "cli":
        rss_kb = res["children_maxrss_kb"]  # the cli processes, children of the worker
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    attempted = res["attempted"]
    failed = sum(res["failures"].values())
    if args.trace:
        metrics, extra = per_layer(res, env)
    else:
        metrics, extra = end_to_end(res, setup, rss_kb)
    report = {
        "workload": args.workload,
        "stamp": {
            "git_sha": git_sha(),
            "python": platform.python_version(),
            "numpy": res["numpy"],
            "cores": os.cpu_count(),
            "backend": "numba" if res["using_numba"] else "numpy",
            "seed": args.seed,
            "inputs_digest": res["inputs_digest"],
        },
        "trace": args.trace,
        "samples": len(res["op_s"]),
        "ops_per_pass": res["ops_per_pass"],
        "passes": res["passes"],
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "failures": res["failures"],
        "check_cases": res["check_cases"],
        "check_failures": res["check_failures"],
        "setup_samples_s": [{"raw": r, "adjusted": a} for r, a in setup],
        "metrics": {**metrics, **extra},
    }
    wrong_outputs = dict(res["check_failures"])
    if args.trace:
        report["untraced_pass"] = {
            "attempted": res["trace"]["untraced_attempted"],
            "failures": res["trace"]["untraced_failures"],
            "check_failures": res["trace"]["untraced_check_failures"],
        }
        wrong_outputs.update(res["trace"]["untraced_check_failures"])
    print(json.dumps({"report": report}))
    # An op that raises is failed; an output that fails a check is failed and
    # also makes the run incorrect.
    correct = not wrong_outputs
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(1)
