import tomllib
from pathlib import Path

import tnn_strata


def test_version_matches_pyproject():
    meta = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())
    assert tnn_strata.__version__ == meta["project"]["version"]
