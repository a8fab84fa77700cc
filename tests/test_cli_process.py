"""The CLI as its own process: a fresh interpreter that has loaded nothing,
as ``python -m tnn_strata.cli`` starts.  The other CLI tests run in-process
through ``conftest.invoke`` after the test session has imported every
module, so they never see a verb load (or miss) a module itself."""

import importlib
import json

import pytest

from conftest import SRC, fresh_python, invoke
from tnn_strata import Permutation, default_base, lusztig_point, pi_u, reduced_word, rho
from tnn_strata.cli import main

W, U = Permutation.parse("3,4,2,1"), Permutation.parse("2,1,4,3")
U3, W3 = Permutation.parse("1,3,2"), Permutation.parse("3,2,1")


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Matrix files for the verbs: a w-cell point xt, a u-cell base, xt
    moved into the fiber over that base, a non-TNN matrix, a flow start,
    and a link point and target for retract."""
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
        ("x_link", {"n": 3, "entries": [["1", "1", "1/2"], ["0", "1", "1"], ["0", "0", "1"]]}),
        ("z", {"n": 3, "entries": [["1", "2", "1"], ["0", "1", "1"], ["0", "0", "1"]]}),
    ):
        (tmp / f"{name}.json").write_text(json.dumps(obj))
        out[name] = str(tmp / f"{name}.json")
    return out


def exact_argv(f):
    """One argv for each verb that never touches a float, psi last."""
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
        ["link-census", "--u", U3.serialize(), "--v", W3.serialize(), "--count", "1", "--seed", "3"],
        ["retract", "--in", f["x_link"], "--u", "1,2,3", "--v", "3,2,1", "--z", f["z"], "--tau", "0.5"],
    ]


VERIFY_ARGV = ["verify", "gauss", "--n", "3", "--samples", "20"]

# Runs in a fresh interpreter: the exact verbs, then the float verbs, then
# verify's help, reading sys.modules after each group; a JSON report on
# stdout.  verify is imported only after the last footprint is read.
PREMISE = """
import contextlib, importlib, io, json, sys
from tnn_strata import cli

def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            cli.main(args=argv, prog_name="tnn-strata")
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()

def loaded():
    return sorted(m for m in sys.modules if m.partition(".")[0] in ("tnn_strata", "numpy"))

exact, float_argvs = json.loads(sys.argv[1])
codes = [run(argv)[0] for argv in exact[:-1]]
after_exact = loaded()
codes.append(run(exact[-1])[0])
after_psi = loaded()
slow_imports = sorted({"click", "dataclasses", "inspect"} & set(sys.modules))
float_codes = [run(argv)[0] for argv in float_argvs]
after_float = loaded()
dataclasses_loaded = ["float"] if "dataclasses" in sys.modules else []
help_code, help_text = run(["verify", "--help"])
after_help = loaded()
import tnn_strata
from tnn_strata import verify
if "dataclasses" in sys.modules:
    dataclasses_loaded.append("verify")
print(json.dumps({
    "codes": codes,
    "after_exact": after_exact,
    "after_psi": after_psi,
    "slow_imports": slow_imports,
    "float_codes": float_codes,
    "after_float": after_float,
    "dataclasses_loaded": dataclasses_loaded,
    "flow_is_function": tnn_strata.flow is importlib.import_module("tnn_strata.flow").flow,
    "help_code": help_code,
    "help": help_text,
    "after_help": after_help,
    "suites": sorted(verify.SUITES) + ["all"],
}))
"""


def test_exact_verbs_never_import_numpy(files):
    proc = fresh_python(PREMISE, json.dumps([exact_argv(files), float_argv(files)]))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == b""
    report = json.loads(proc.stdout)
    assert report["codes"] == [0] * 6
    # param, cell-of, tnn, project and rho load the exact core alone
    assert report["after_exact"] == [
        "tnn_strata",
        "tnn_strata.cells",
        "tnn_strata.cli",
        "tnn_strata.errors",
        "tnn_strata.fiber",
        "tnn_strata.perms",
        "tnn_strata.ratmat",
    ]
    # and so does psi, whose field is exact
    assert report["after_psi"] == report["after_exact"]
    # argparse parses argv, and the exact core's records are plain classes
    assert report["slow_imports"] == []
    assert report["float_codes"] == [0] * 4
    assert "numpy.linalg" in report["after_float"]
    # the float path's and verify's records are NamedTuples and plain classes
    assert report["dataclasses_loaded"] == []
    assert "tnn_strata.verify" not in report["after_float"] + report["after_help"]
    assert report["flow_is_function"]
    assert report["help_code"] == 0
    usage = "".join(report["help"].split())  # argparse wraps the usage line
    assert usage.split("{")[1].split("}")[0].split(",") == report["suites"]


# Runs in a fresh interpreter: the exact field and str on a RatMatrix, then
# the modules loaded, as JSON.
EXACT_FIELD = """
import json, sys
from tnn_strata.fiber import psi, str_of
from tnn_strata.perms import Permutation
from tnn_strata.ratmat import RatMatrix
x = RatMatrix.from_rows([[1, 2, 1], [0, 1, 1], [0, 0, 1]])
assert str_of(psi(x, Permutation.identity(3))) > 0
print(json.dumps(sorted(m for m in sys.modules if m.partition(".")[0] in ("tnn_strata", "numpy"))))
"""


def test_exact_field_never_imports_numpy():
    proc = fresh_python(EXACT_FIELD)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert "tnn_strata.fiber" in loaded
    assert not {"numpy", "tnn_strata.flow", "tnn_strata.kernels"} & set(loaded)


# How ``python -m`` runs a module: as ``__main__``, with argv[0] its file.
RUN_CLI = "import runpy; runpy.run_module('tnn_strata.cli', run_name='__main__', alter_sys=True)"


@pytest.mark.parametrize(
    "verb",
    ["param", "cell-of", "tnn", "project", "rho", "psi", "flow", "link-sample", "link-census", "retract", "verify"],
)
def test_process_matches_clirunner(files, verb):
    [argv] = [a for a in exact_argv(files) + float_argv(files) + [VERIFY_ARGV] if a[0] == verb]
    proc = fresh_python(RUN_CLI, *argv)
    res = invoke(main, argv)
    assert proc.returncode == 0 and res.exit_code == 0
    assert proc.stderr == b""
    assert proc.stdout == res.stdout.encode()
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
    proc = fresh_python(SCIPY_FENCE, files["x0"])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


# --- the package namespace --------------------------------------------------

# The package's export list, frozen: each name reads from the package as the
# object its defining module holds.
EXPORTS = {
    "cells": "CellPoint cell_of is_tnn lusztig_point",
    "errors": "CellMismatch FlowError InternalInvariantError InvalidArgument MaxStepsExceeded "
    "NonPositiveParameter NonPositiveTau NotComparable NotInG0 NotInG0u NotUnipotentUpper "
    "PreconditionError RankTooLarge Singular StepUnderflow StratumEscape TnnStrataError "
    "UndecidableRank ZNotInYgeqV",
    "fiber": "FiberFrame SignReport conj_d factor_u pi_n pi_u psi recover_shift rho sign_lemma_check str_of",
    "flow": "FiberIntegrator FlowState LinkCensus LinkSample cell_of_float conj_d_float default_base flow "
    "link_census link_point link_sample random_cell_point retraction",
    "perms": "BruhatInterval Permutation ReducedWord all_permutations all_reduced_words bruhat_leq "
    "bruhat_less interval mobius reduced_word word_product",
    "ratmat": "RatMatrix all_minors_nonnegative conj_by_perm det gauss_decompose gauss_minus "
    "gauss_plus is_in_G0 is_in_G0_u is_in_N minor perm_matrix rank",
    "verify": "RunConfig VerificationReport run_suite",
}

# Each runs in a fresh interpreter and prints whether tnn_strata.flow is the
# function flow.flow after its way of first loading the flow module.
FLOW_NAME = """
import importlib, sys
{load}
import tnn_strata
print(tnn_strata.flow is sys.modules["tnn_strata.flow"].flow)
"""


@pytest.mark.parametrize(
    "load",
    [
        "import tnn_strata.flow",
        "from tnn_strata.flow import link_point",
        'importlib.import_module("tnn_strata.flow")',
        "import tnn_strata; tnn_strata.link_point",
    ],
)
def test_package_flow_is_the_function(load):
    proc = fresh_python(FLOW_NAME.format(load=load))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b"True\n"


STAR = """
import json as _json
from tnn_strata import *
print(_json.dumps(sorted(k for k in dir() if not k.startswith("_"))))
"""


def test_exports_are_their_modules_objects():
    import tnn_strata

    frozen = {name: module for module, names in EXPORTS.items() for name in names.split()}
    assert sorted(tnn_strata.__all__) == sorted(frozen)
    for name, module in frozen.items():
        assert getattr(tnn_strata, name) is getattr(importlib.import_module(f"tnn_strata.{module}"), name)
    assert set(frozen) <= set(dir(tnn_strata))
    proc = fresh_python(STAR)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == sorted(frozen)


# perfbench's tracer wraps names on their defining modules; a name read
# through the package for the first time while it is installed must not stay
# wrapped after restore().
TRACED = """
import sys
sys.path.insert(0, sys.argv[1])
import importlib
import tracer
import tnn_strata
t = tracer.Tracer().install()
wrapped = tnn_strata.link_sample
t.restore()
flow = importlib.import_module("tnn_strata.flow")
print(wrapped is not flow.link_sample, tnn_strata.link_sample is flow.link_sample, tnn_strata.flow is flow.flow)
"""


def test_tracer_wrapper_does_not_stay_on_the_package():
    proc = fresh_python(TRACED, str(SRC.parent / "perfbench"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b"True True True\n"
