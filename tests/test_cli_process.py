"""The CLI as its own process: a fresh interpreter that has not imported
numpy, as ``python -m tnn_strata.cli`` starts.  The other CLI tests run
in-process through ``CliRunner`` after the test session has imported numpy,
so they never see the library load numpy itself."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from tnn_strata import Permutation, default_base, lusztig_point, pi_u, reduced_word, rho
from tnn_strata.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"
ENV = {**os.environ, "PYTHONPATH": str(SRC)}

W, U = Permutation.parse("3,4,2,1"), Permutation.parse("2,1,4,3")
U3, W3 = Permutation.parse("1,3,2"), Permutation.parse("3,2,1")


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Matrix files for the verbs: a w-cell point xt, a u-cell base, xt
    moved into the fiber over that base, a non-TNN matrix and a flow start."""
    tmp = tmp_path_factory.mktemp("cli")
    xt = lusztig_point(reduced_word(W), [1, 2, 3, 1, 2]).matrix
    base = default_base(U)
    non_tnn = xt.to_json_obj()
    non_tnn["entries"][0][3] = "100"
    xt3 = lusztig_point(reduced_word(W3), [2, 1, 3]).matrix
    out = {}
    for name, obj in (
        ("xt", xt.to_json_obj()),
        ("base", base.to_json_obj()),
        ("y", rho(xt, base, U).to_json_obj()),
        ("non_tnn", non_tnn),
        ("x0", rho(xt3, pi_u(xt3, U3), U3).to_json_obj()),
    ):
        (tmp / f"{name}.json").write_text(json.dumps(obj))
        out[name] = str(tmp / f"{name}.json")
    return out


def exact_argv(f):
    """One argv for each verb that never touches a float."""
    return [
        ["param", "--word", reduced_word(W).serialize(), "--n", "4", "--params", "1,2,3,1/2,2"],
        ["cell-of", "--in", f["xt"]],
        ["tnn", "--in", f["non_tnn"]],
        ["project", "--in", f["xt"], "--u", U.serialize()],
        ["rho", "--in", f["xt"], "--u", U.serialize(), "--base", f["base"]],
        ["psi", "--in", f["y"], "--u", U.serialize()],
    ]


def float_argv(f):
    return [
        ["flow", "--in", f["x0"], "--u", U3.serialize()],
        ["link-sample", "--u", U3.serialize(), "--v", W3.serialize(), "--count", "1", "--seed", "3"],
    ]


# Runs in a fresh interpreter: argv lists for the exact verbs and for flow,
# then a JSON report on stdout.
PREMISE = """
import contextlib, importlib, io, json, sys
from tnn_strata import cli, verify

def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            cli.main(args=argv, prog_name="tnn-strata")
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()

exact, flow_argv = json.loads(sys.argv[1])
codes = [run(argv)[0] for argv in exact]
numpy_modules = sorted(m for m in sys.modules if m.startswith("numpy."))
flow_code = run(flow_argv)[0]
import tnn_strata
help_code, help_text = run(["verify", "--help"])
print(json.dumps({
    "codes": codes,
    "numpy_modules": numpy_modules,
    "flow_code": flow_code,
    "flow_is_function": tnn_strata.flow is importlib.import_module("tnn_strata.flow").flow,
    "help_code": help_code,
    "help": help_text,
    "suites": sorted(verify.SUITES) + ["all"],
}))
"""


def test_exact_verbs_never_import_numpy(files):
    args = json.dumps([exact_argv(files), float_argv(files)[0]])
    proc = subprocess.run(
        [sys.executable, "-c", PREMISE, args], env=ENV, capture_output=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == b""
    report = json.loads(proc.stdout)
    assert report["codes"] == [0] * 6
    assert report["numpy_modules"] == []
    assert report["flow_code"] == 0 and report["flow_is_function"]
    assert report["help_code"] == 0
    usage = "".join(report["help"].split())  # click wraps the usage line
    assert usage.split("{")[1].split("}")[0].split("|") == report["suites"]


@pytest.mark.parametrize(
    "verb", ["param", "cell-of", "tnn", "project", "rho", "psi", "flow", "link-sample"]
)
def test_process_matches_clirunner(files, verb):
    [argv] = [a for a in exact_argv(files) + float_argv(files) if a[0] == verb]
    proc = subprocess.run(
        [sys.executable, "-m", "tnn_strata.cli", *argv], env=ENV, capture_output=True, timeout=120
    )
    res = CliRunner().invoke(main, argv)
    assert proc.returncode == 0 and res.exit_code == 0
    assert proc.stderr == b""
    assert proc.stdout == res.stdout_bytes
    assert len(proc.stdout.splitlines()) == 1


# Runs in a fresh interpreter: flow and link_sample, then the scipy modules
# loaded, as JSON.  The float path carries the 8(5) tableau as its own
# doubles; scipy's copy is only a test oracle.
SCIPY_FENCE = """
import json, sys
import numpy as np
from tnn_strata import Permutation, RatMatrix, flow, link_sample
x0 = RatMatrix.from_json_obj(json.load(open(sys.argv[1])))
u, w = Permutation.parse("1,3,2"), Permutation.parse("3,2,1")
flow(np.array(x0.to_floats()), u)
link_sample(u, w, 1.0, 1, seed=3)
print(json.dumps(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")))
"""


def test_float_path_never_imports_scipy(files):
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_FENCE, files["x0"]], env=ENV, capture_output=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
