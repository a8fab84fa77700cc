"""Pinned outputs.

The census output is integers and labels only, so it is pinned byte for
byte: tests/golden/link_census_s3.json holds the stdout of `link-census
--count 1 --seed 0` on every pair u < v of S3 and of `verify link-census
--n 3 --seed 0`.

tests/golden/exact_verbs.json holds the stdout of `project`, `psi` and
`rho` on Lusztig points of every pair u <= w of S3 and of every u in S4
below the longest element, so the exact verbs' rationals are pinned byte
for byte too.

tests/golden/float_verbs.json holds the stdout of `flow` (backward, and
forward to str + 1) and `link-sample --count 1 --seed 0` on a Lusztig point
of w for every pair u < w of S3, and of `retract` on (e, w0) in S3 at tau in
{0, 0.5, 1}.  Its float digits are those numpy 2.4 gave on x86-64; a change
to the float integrator states what it moves against this file.  Regenerate
it with `PYTHONPATH=src python tests/test_golden.py`: it rewrites only the
entries whose stdout changed and prints, for each, the largest |new - old|
of its points and of its t.

tests/golden/verify_checks.json pins, per suite at seed 0 and a small size,
the number of checks and the sha256 of their ordered `case<TAB>ok` lines, so
a suite that drops, adds, renames or reorders a check, or draws other
points, fails under its own name."""

import hashlib
import json
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner

from tnn_strata.cli import main
from tnn_strata.verify import SUITES, RunConfig, _Run, run_suite

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "link_census_s3.json").read_text())
CHECKS = json.loads((GOLDEN / "verify_checks.json").read_text())
EXACT = json.loads((GOLDEN / "exact_verbs.json").read_text())
FLOAT = json.loads((GOLDEN / "float_verbs.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=lambda c: " ".join(c["argv"]))
def test_census_stdout_is_pinned(case):
    res = CliRunner().invoke(main, case["argv"])
    assert res.exit_code == 0
    assert res.stdout == case["stdout"]


def run_case(case, tmp_path) -> str:
    """The stdout of one pinned case; a "base" or "z" matrix goes in by file."""
    argv = list(case["argv"])
    for key in ("base", "z"):
        if key in case:
            path = tmp_path / f"{key}.json"
            path.write_text(json.dumps(case[key]))
            argv += [f"--{key}", str(path)]
    res = CliRunner().invoke(main, argv, input=json.dumps(case["in"]) if "in" in case else None)
    assert res.exit_code == 0, res.output
    return res.stdout


def replay(case, tmp_path):
    assert run_case(case, tmp_path) == case["stdout"]


@pytest.mark.parametrize("case", EXACT, ids=lambda c: " ".join(c["argv"]))
def test_exact_verb_stdout_is_pinned(case, tmp_path):
    replay(case, tmp_path)


@pytest.mark.parametrize("case", FLOAT, ids=lambda c: " ".join(c["argv"]))
def test_float_verb_stdout_is_pinned(case, tmp_path):
    replay(case, tmp_path)


def test_every_suite_is_pinned():
    assert sorted(CHECKS) == sorted(SUITES)


@pytest.mark.parametrize("suite", sorted(CHECKS))
def test_suite_check_sequence_is_pinned(suite, monkeypatch):
    pin = CHECKS[suite]
    seen = []
    check = _Run.check

    def logged(self, ok, case, detail=""):
        seen.append(f"{case}\t{bool(ok)}")
        check(self, ok, case, detail)

    monkeypatch.setattr(_Run, "check", logged)
    run_suite(suite, RunConfig(n=pin["n"], seed=0, samples=pin["samples"]))
    assert len(seen) == pin["count"]
    assert hashlib.sha256("\n".join(seen).encode()).hexdigest() == pin["sha256"]


def _numbers(obj, key):
    """Every number under ``key`` anywhere in a parsed stdout, in order."""
    if isinstance(obj, dict):
        return [v for k, x in obj.items() for v in (_flat(x) if k == key else _numbers(x, key))]
    if isinstance(obj, list):
        return [v for x in obj for v in _numbers(x, key)]
    return []


def _flat(x):
    if isinstance(x, list):
        return [v for y in x for v in _flat(y)]
    return [x] if isinstance(x, (int, float)) else []


def _largest_change(old: str, new: str, key: str) -> float:
    """The largest |new - old| over the numbers under ``key`` of two stdouts
    (inf when they hold a different count of them)."""
    a, b = _numbers(json.loads(old), key), _numbers(json.loads(new), key)
    if len(a) != len(b):
        return float("inf")
    return max((abs(x - y) for x, y in zip(a, b)), default=0.0)


def regenerate_float_verbs(path: Path = GOLDEN / "float_verbs.json") -> list[str]:
    """Replay every case of the pinned float verbs at ``path`` and rewrite
    the file with the stdout of those that changed, one case a line as it
    is kept.  Returns one line per changed case: its argv and the largest
    |new - old| of its points (matrix entries) and of its t."""
    cases = json.loads(path.read_text())
    changed = []
    with tempfile.TemporaryDirectory() as tmp:
        for case in cases:
            stdout = run_case(case, Path(tmp))
            if stdout != case["stdout"]:
                points = _largest_change(case["stdout"], stdout, "entries")
                t = _largest_change(case["stdout"], stdout, "t")
                changed.append(f"{' '.join(case['argv'])}: points {points:.3g}, t {t:.3g}")
                case["stdout"] = stdout
    path.write_text("[\n" + ",\n".join(json.dumps(case) for case in cases) + "\n]\n")
    return changed


# A tampered copy regenerates to the committed bytes: every other entry is
# written back unchanged, and only the tampered one is reported.
def test_regenerating_float_verbs_rewrites_only_changed_entries(tmp_path):
    pinned = (GOLDEN / "float_verbs.json").read_bytes()
    copy = tmp_path / "float_verbs.json"
    copy.write_bytes(pinned)
    assert regenerate_float_verbs(copy) == []
    assert copy.read_bytes() == pinned
    cases = json.loads(pinned)
    cases[0]["stdout"] = cases[0]["stdout"].replace('"t": -23.12', '"t": -21.12')
    copy.write_text(json.dumps(cases))
    assert regenerate_float_verbs(copy) == ["flow --u 1,2,3: points 0, t 2"]
    assert copy.read_bytes() == pinned


if __name__ == "__main__":
    for line in regenerate_float_verbs():
        print(line)
