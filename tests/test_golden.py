"""The census output is integers and labels only, so it is pinned byte for
byte: tests/golden/link_census_s3.json holds the stdout of `link-census
--count 1 --seed 0` on every pair u < v of S3 and of `verify link-census
--n 3 --seed 0`."""

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from tnn_strata.cli import main

CASES = json.loads((Path(__file__).parent / "golden" / "link_census_s3.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=lambda c: " ".join(c["argv"]))
def test_census_stdout_is_pinned(case):
    res = CliRunner().invoke(main, case["argv"])
    assert res.exit_code == 0
    assert res.stdout == case["stdout"]
