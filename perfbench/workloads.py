"""Seeded inputs, the op, and the output checks of each workload.

An op is one call a user makes: a public library function for ``census``,
``flows`` and ``exact``, one ``python -m tnn_strata.cli`` process for
``cli``.  Library functions are always reached through their module
object (``_lib("flow").link_sample``), never bound by ``from ... import``,
so the tracer's wrappers see every call the benchmark makes.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from tracer import library_module as _lib

LEVEL_TOL = 1e-9  # link points: |str(x) - (str(base) + eps)|
BASE_TOL = 1e-6  # backward flows: max-entry distance to the base


class Workload:
    name = ""

    def cleanup(self):
        """Remove whatever ``inputs`` wrote."""


class Checks:
    """Counts every check evaluated and names the ones that failed."""

    def __init__(self):
        self.cases = 0
        self.failed: Counter = Counter()

    def __call__(self, ok, name: str) -> bool:
        self.cases += 1
        if not ok:
            self.failed[name] += 1
        return bool(ok)


def _perm(text: str):
    return _lib("perms").Permutation.parse(text)


def _params(rng: random.Random, k: int) -> tuple[str, ...]:
    return tuple(str(Fraction(rng.randint(1, 9), rng.randint(1, 9))) for _ in range(k))


def _point(w, params):
    """The Lusztig point of w's canonical reduced word (exact)."""
    P, C = _lib("perms"), _lib("cells")
    return C.lusztig_point(P.reduced_word(w), [Fraction(p) for p in params]).matrix


def _below(rng: random.Random, w, strict: bool):
    """A uniform draw of u <= w (u < w when ``strict``)."""
    P = _lib("perms")
    lower = P.interval(P.Permutation.identity(w.n), w).elements
    choices = sorted((u for u in lower if not (strict and u == w)), key=lambda u: u.image)
    return rng.choice(choices)


def _non_tnn(x):
    """x with x13 raised to x12*x23 + 1: the minor on rows {1,2}, columns
    {2,3} becomes -1 while every entry stays nonnegative."""
    rows = [list(r) for r in x.rows]
    rows[0][2] = rows[0][1] * rows[1][2] + 1
    return _lib("ratmat").RatMatrix.from_rows(rows)


def _is_zero(m) -> bool:
    return all(v == 0 for row in m.rows for v in row)


def _str(m) -> Fraction:
    return sum(m.rows[i][i + 1] for i in range(m.n - 1))


# --- census: link_sample over S4 intervals of every length -------------

# (length of [u, v], points in (u, v], intervals).  The intervals are a
# fixed spread over each (length, size) class and the seed draws the points
# sampled and the order.  Op times cluster by interval length: the lengths
# 4..6 give the 9 slowest ops and six length-3 intervals the next 18, so
# op_ms.p90 (the 15th slowest of 141) falls inside a cluster, not on the edge
# between two, where a different draw of intervals or points moves it most.
CENSUS_SLOTS = ((1, 1, 30), (2, 3, 8), (3, 5, 3), (3, 7, 3), (4, 11, 1), (5, 17, 1), (6, 23, 1))
CENSUS_RADII = (0.5, 1.0, 2.0)


@dataclass(frozen=True)
class CensusOp:
    u: str
    v: str
    epsilon: float
    seed: int


class Census(Workload):
    name = "census"

    def warmup(self) -> CensusOp:
        return CensusOp("1,2,3,4", "2,1,3,4", 1.0, 0)

    def inputs(self, seed: int) -> list[CensusOp]:
        P = _lib("perms")
        rng = random.Random(seed)
        perms = P.all_permutations(4)
        classes: dict[tuple[int, int], list] = {}
        for u in perms:
            for v in perms:
                if P.bruhat_less(u, v):
                    size = len(P.interval(u, v).elements) - 1
                    classes.setdefault((v.length - u.length, size), []).append((u, v))
        pairs = []
        for length, size, count in CENSUS_SLOTS:
            members = sorted(classes[(length, size)], key=lambda p: (p[0].image, p[1].image))
            pairs += [members[j * len(members) // count] for j in range(count)]
        rng.shuffle(pairs)
        ops = []
        for u, v in pairs:
            s = rng.randrange(2**31)
            ops += [CensusOp(u.serialize(), v.serialize(), eps, s) for eps in CENSUS_RADII]
        return ops

    def key(self, op: CensusOp):
        return [op.u, op.v, op.epsilon, op.seed]

    def op(self, op: CensusOp):
        return _lib("flow").link_sample(_perm(op.u), _perm(op.v), op.epsilon, 1, op.seed)

    def check(self, op: CensusOp, sample, check: Checks, state: dict) -> bool:
        P = _lib("perms")
        u, v = _perm(op.u), _perm(op.v)
        level = float(np.trace(np.array(sample.base.to_floats()), offset=1)) + op.epsilon
        ok = check(len(sample.points) > 0, "census.points")
        for pt, _ in sample.points:
            ok &= check(abs(float(np.trace(pt, offset=1)) - level) <= LEVEL_TOL, "census.level")
        labels = Counter(w for _, w in sample.points)
        expected = {w for w in P.interval(u, v).elements if w != u}
        ok &= check(set(labels) == expected, "census.labels")
        counts = state.setdefault((op.u, op.v, op.seed), {})
        counts[op.epsilon] = sorted((w.image, c) for w, c in labels.items())
        if len(counts) == len(CENSUS_RADII):
            ok &= check(len({tuple(c) for c in counts.values()}) == 1, "census.radii")
        return ok


# --- flows: backward to the base, forward to str + 2 -------------------

FLOWS_CASES = 100


@dataclass(frozen=True)
class FlowsOp:
    u: str
    x0: tuple[tuple[float, ...], ...]
    base: tuple[tuple[float, ...], ...]


class Flows(Workload):
    name = "flows"

    def warmup(self) -> FlowsOp:
        return self._case(_perm("1,2,3"), _perm("2,3,1"), ("1", "2"))

    def _case(self, u, w, params) -> FlowsOp:
        Fi = _lib("fiber")
        xt = _point(w, params)
        x0 = Fi.rho(xt, Fi.pi_u(xt, u), u)
        base = Fi.pi_u(x0, u)
        return FlowsOp(u.serialize(), tuple(map(tuple, x0.to_floats())), tuple(map(tuple, base.to_floats())))

    def inputs(self, seed: int) -> list[FlowsOp]:
        P = _lib("perms")
        rng = random.Random(seed)
        ops = []
        for i in range(FLOWS_CASES):
            n = 3 if i % 2 == 0 else 4
            w = rng.choice([p for p in P.all_permutations(n) if p.length > 0])
            u = _below(rng, w, strict=True)
            ops.append(self._case(u, w, _params(rng, w.length)))
        return ops

    def key(self, op: FlowsOp):
        return [op.u, op.x0]

    def op(self, op: FlowsOp):
        F = _lib("flow")
        u, x0 = _perm(op.u), np.array(op.x0)
        back = F.flow(x0, u, "backward")
        target = float(np.trace(x0, offset=1)) + 2.0
        fwd = F.flow(x0, u, "forward", target_str=target)
        return back, fwd, target

    def check(self, op: FlowsOp, out, check: Checks, state: dict) -> bool:
        back, fwd, target = out
        dist = float(np.abs(back[-1].point - np.array(op.base)).max())
        ok = check(dist <= BASE_TOL, "flows.backward_base")
        strs = [s.str_value for s in fwd]
        ok &= check(all(a < b for a, b in zip(strs, strs[1:])), "flows.forward_rises")
        ok &= check(strs[-1] >= target, "flows.forward_target")
        return ok


# --- exact: the Fraction core, one case per op -------------------------

EXACT_ROTATION = (3, 4, 4, 5, 6)
EXACT_CASES = 100


@dataclass(frozen=True)
class ExactOp:
    u: str
    w: str
    params_w: tuple[str, ...]
    params_u: tuple[str, ...]
    non_tnn: bool


class Exact(Workload):
    name = "exact"

    def warmup(self) -> ExactOp:
        return ExactOp("2,1,3,4", "3,2,1,4", ("1", "2", "3"), ("1",), False)

    def inputs(self, seed: int) -> list[ExactOp]:
        P = _lib("perms")
        rng = random.Random(seed)
        perms = {n: P.all_permutations(n) for n in set(EXACT_ROTATION)}
        ops = []
        for i in range(EXACT_CASES):
            w = rng.choice(perms[EXACT_ROTATION[i % len(EXACT_ROTATION)]])
            u = _below(rng, w, strict=False)
            # one is_tnn input in five is non-TNN, spread over every n
            non_tnn = i % 5 == (i // 5) % 5
            ops.append(
                ExactOp(u.serialize(), w.serialize(), _params(rng, w.length), _params(rng, u.length), non_tnn)
            )
        return ops

    def key(self, op: ExactOp):
        return [op.u, op.w, op.params_w, op.params_u, op.non_tnn]

    def op(self, op: ExactOp):
        Fi, F, C = _lib("fiber"), _lib("flow"), _lib("cells")
        u, w = _perm(op.u), _perm(op.w)
        xt = _point(w, op.params_w)
        base = _point(u, op.params_u)
        frame = Fi.factor_u(xt, u)
        y = Fi.rho(xt, base, u)
        return {
            "xt": xt,
            "base": base,
            "frame": frame,
            "rho": y,
            "psi": F.psi(y, u),
            "psi_base": F.psi(base, u),
            "tnn": C.is_tnn(_non_tnn(xt) if op.non_tnn else xt),
            "cell_rho": C.cell_of(y),
            "cell_xt": C.cell_of(xt),
        }

    def check(self, op: ExactOp, out, check: Checks, state: dict) -> bool:
        Fi = _lib("fiber")
        u, w = _perm(op.u), _perm(op.w)
        frame, y, base = out["frame"], out["rho"], out["base"]
        ok = check(frame.x_u @ frame.x_upper_u == out["xt"], "exact.factor")
        ok &= check(Fi.pi_u(y, u) == base, "exact.rho_fiber")
        ok &= check(out["cell_rho"] == w and out["cell_xt"] == w, "exact.cell")
        if y == base:
            ok &= check(_is_zero(out["psi"]), "exact.psi_zero")
        else:
            ok &= check(_str(out["psi"]) > 0, "exact.psi_positive")
        ok &= check(_is_zero(out["psi_base"]), "exact.psi_base")
        ok &= check(out["tnn"] is (not op.non_tnn), "exact.is_tnn")
        return ok


# --- cli: one `python -m tnn_strata.cli <verb>` process per op ---------

CLI_ROUNDS = 13  # of 8 verbs: 104 ops
CLI_DISTINCT = 10  # rounds 10..12 repeat the argv of rounds 0..2


@dataclass(frozen=True)
class CliOp:
    verb: str
    args: tuple[str, ...]
    expect: dict


@dataclass
class CliResult:
    returncode: int
    stdout: bytes
    stderr: bytes
    trace: dict | None


class Cli(Workload):
    name = "cli"

    def __init__(self, root: Path, env: dict, shim: bool = False):
        self.root = root
        self.env = env
        self.shim = shim
        self.files = root / ".perfbench" / f"cli-{os.getpid()}"
        self._trace_out = self.files / "shim.json"

    def warmup(self) -> CliOp:
        return CliOp("param", ("param", "--word", "s1.s2.s1", "--n", "3", "--params", "1,2,3"), {})

    def _file(self, name: str, obj) -> str:
        path = self.files / name
        path.write_text(json.dumps(obj))
        return str(path.relative_to(self.root))

    def inputs(self, seed: int) -> list[CliOp]:
        P, Fi = _lib("perms"), _lib("fiber")
        rng = random.Random(seed)
        self.files.mkdir(parents=True, exist_ok=True)
        s4 = [p for p in P.all_permutations(4) if p.length > 0]
        # The S3 pairs are fixed, so flow and link-sample, the two verbs whose
        # cost depends on the interval, do the same work for every seed.
        s3 = sorted(P.all_permutations(3), key=lambda p: p.image)
        s3_pairs = [(u, v) for u in s3 for v in s3 if P.bruhat_less(u, v)]
        cases = []
        for c in range(CLI_DISTINCT):
            w = rng.choice(s4)
            u = _below(rng, w, strict=False)
            params = _params(rng, w.length)
            xt, base = _point(w, params), _point(u, _params(rng, u.length))
            y = Fi.rho(xt, base, u)
            tnn_in = xt if c % 2 == 0 else _non_tnn(xt)
            u3, w3 = s3_pairs[c % len(s3_pairs)]
            xt3 = _point(w3, _params(rng, w3.length))
            x0 = Fi.rho(xt3, Fi.pi_u(xt3, u3), u3)
            u3l, v3 = s3_pairs[(c + CLI_DISTINCT // 2) % len(s3_pairs)]
            f = {
                name: self._file(f"{c}-{name}.json", m.to_json_obj())
                for name, m in (("xt", xt), ("base", base), ("y", y), ("tnn", tnn_in), ("x0", x0))
            }
            cases.append(
                [
                    CliOp("param", ("param", "--word", P.reduced_word(w).serialize(), "--n", "4",
                                    "--params", ",".join(params)),
                          {"cell": w.serialize(), "entries": xt.to_json_obj()["entries"]}),
                    CliOp("cell-of", ("cell-of", "--in", f["xt"]), {"cell": w.serialize()}),
                    CliOp("tnn", ("tnn", "--in", f["tnn"]), {"tnn": c % 2 == 0}),
                    CliOp("project", ("project", "--in", f["xt"], "--u", u.serialize()),
                          {"x": xt.to_json_obj(), "cell": u.serialize()}),
                    CliOp("rho", ("rho", "--in", f["xt"], "--u", u.serialize(), "--base", f["base"]),
                          {"u": u.serialize(), "w": w.serialize(), "base": base.to_json_obj()}),
                    CliOp("psi", ("psi", "--in", f["y"], "--u", u.serialize()), {"zero": y == base}),
                    CliOp("flow", ("flow", "--in", f["x0"], "--u", u3.serialize()),
                          {"base": Fi.pi_u(x0, u3).to_floats()}),
                    CliOp("link-sample", ("link-sample", "--u", u3l.serialize(), "--v", v3.serialize(),
                                          "--count", "1", "--seed", str(rng.randrange(2**31))),
                          {"labels": sorted(p.serialize() for p in P.interval(u3l, v3).elements if p != u3l)}),
                ]
            )
        return [op for r in range(CLI_ROUNDS) for op in cases[r % CLI_DISTINCT]]

    def cleanup(self):
        shutil.rmtree(self.files, ignore_errors=True)
        try:
            self.files.parent.rmdir()  # only if no other run is using it
        except OSError:
            pass

    def key(self, op: CliOp):
        files = [(self.root / a).read_text() for a in op.args if a.startswith(".perfbench")]
        return [list(op.args), files]

    def op(self, op: CliOp) -> CliResult:
        if self.shim:
            argv = [sys.executable, str(Path(__file__).with_name("cli_shim.py")), str(self._trace_out), *op.args]
        else:
            argv = [sys.executable, "-m", "tnn_strata.cli", *op.args]
        proc = subprocess.run(argv, cwd=self.root, env=self.env, capture_output=True, timeout=120)
        trace = None
        if self.shim:
            trace = json.loads(self._trace_out.read_text())
            self._trace_out.unlink()
        return CliResult(proc.returncode, proc.stdout, proc.stderr, trace)

    def check(self, op: CliOp, res: CliResult, check: Checks, state: dict) -> bool:
        ok = check(res.returncode == 0, "cli.exit_code")
        try:
            out = json.loads(res.stdout)
        except ValueError:
            out = None
        ok &= check(out is not None and res.stdout.count(b"\n") == 1, "cli.one_json")
        seen = state.setdefault(op.args, res.stdout)
        ok &= check(seen == res.stdout, "cli.byte_identical")
        if not ok:
            return False
        return check(self._answer(op, out), f"cli.{op.verb}")

    def _answer(self, op: CliOp, out) -> bool:
        R, C, Fi = _lib("ratmat"), _lib("cells"), _lib("fiber")
        e = op.expect
        if op.verb == "param":
            return out["cell"] == e["cell"] and out["entries"] == e["entries"] and out["tnn"] is True
        if op.verb == "cell-of":
            return out["cell"] == e["cell"]
        if op.verb == "tnn":
            return out["tnn"] is e["tnn"]
        if op.verb == "project":
            x_u, x_up = R.RatMatrix.from_json_obj(out["x_u"]), R.RatMatrix.from_json_obj(out["x_upper_u"])
            return x_u @ x_up == R.RatMatrix.from_json_obj(e["x"]) and out["cell"] == e["cell"]
        if op.verb == "rho":
            y, u = R.RatMatrix.from_json_obj(out), _perm(e["u"])
            return C.cell_of(y) == _perm(e["w"]) and Fi.pi_u(y, u) == R.RatMatrix.from_json_obj(e["base"])
        if op.verb == "psi":
            s = Fraction(out["str"])
            return s == 0 if e["zero"] else s > 0
        if op.verb == "flow":
            final = np.array(out["final"]["entries"])
            return float(np.abs(final - np.array(e["base"])).max()) <= BASE_TOL
        if op.verb == "link-sample":
            labels = sorted(p["stratum"] for p in out["points"])
            level = out["level"]
            return labels == e["labels"] and all(abs(p["str"] - level) <= LEVEL_TOL for p in out["points"])
        return False


def make(name: str, root: Path, env: dict, shim: bool = False):
    if name == "cli":
        return Cli(root, env, shim)
    return {"census": Census, "flows": Flows, "exact": Exact}[name]()


NAMES = ("census", "flows", "exact", "cli")
