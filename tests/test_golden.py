"""Pinned outputs.

The census output is integers and labels only, so it is pinned byte for
byte: tests/golden/link_census_s3.json holds the stdout of `link-census
--count 1 --seed 0` on every pair u < v of S3 and of `verify link-census
--n 3 --seed 0`.

tests/golden/verify_checks.json pins, per suite at seed 0 and a small size,
the number of checks and the sha256 of their ordered `case<TAB>ok` lines, so
a suite that drops, adds, renames or reorders a check, or draws other
points, fails under its own name."""

import hashlib
import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from tnn_strata.cli import main
from tnn_strata.verify import SUITES, RunConfig, _Run, run_suite

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "link_census_s3.json").read_text())
CHECKS = json.loads((GOLDEN / "verify_checks.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=lambda c: " ".join(c["argv"]))
def test_census_stdout_is_pinned(case):
    res = CliRunner().invoke(main, case["argv"])
    assert res.exit_code == 0
    assert res.stdout == case["stdout"]


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
