"""README's table of float-path tolerances states the constants of
tnn_strata.flow: each listed value is the module's, and every ``*_TOL``
constant is listed."""

import importlib
import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"
HEADING = "The tolerances of the float path are fixed module constants in `flow`"

# the package name tnn_strata.flow is the function flow, not the module
flow_module = importlib.import_module("tnn_strata.flow")


def tolerance_table() -> dict[str, float]:
    """name -> value of each row of the table after HEADING; a row may list
    several names and as many values, each in backticks."""
    lines = README.read_text().split(HEADING, 1)[1].splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("|"))
    table = {}
    for line in lines[start + 2 :]:  # after the header and its rule
        if not line.startswith("|"):
            break
        names_cell, values_cell = line.split("|")[1:3]
        names = re.findall(r"`([A-Z_]+)`", names_cell)
        values = re.findall(r"`([^`]+)`", values_cell)
        assert len(names) == len(values) > 0, line
        table.update(zip(names, map(float, values)))
    return table


def test_listed_tolerances_are_the_module_constants():
    table = tolerance_table()
    assert table
    for name, value in table.items():
        assert getattr(flow_module, name) == value, name


def test_every_tolerance_constant_is_listed():
    constants = {name for name in vars(flow_module) if name.endswith("_TOL")}
    assert constants <= set(tolerance_table())
