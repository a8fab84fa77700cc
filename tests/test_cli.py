import dataclasses
import importlib
import json

import pytest
from click.testing import CliRunner

from tnn_strata import Permutation, cli, default_base, link_sample, verify
from tnn_strata.cli import main

IDENTITY3 = json.dumps(
    {"n": 3, "entries": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}
)
UPPER3 = json.dumps(
    {"n": 3, "entries": [["1", "1", "0"], ["0", "1", "1"], ["0", "0", "1"]]}
)
BIG3 = json.dumps(
    {"n": 3, "entries": [["1", "1" + "0" * 400, "0"], ["0", "1", "0"], ["0", "0", "1"]]}
)


@pytest.fixture
def runner():
    return CliRunner()


class TestParam:
    def test_known_top_cell_point(self, runner):
        res = runner.invoke(
            main, ["param", "--word", "s1.s2.s1", "--n", "3", "--params", "1,1,1/2"]
        )
        assert res.exit_code == 0
        obj = json.loads(res.output)
        assert obj["cell"] == "3,2,1"
        assert obj["tnn"] is True
        assert obj["entries"][0] == ["1", "3/2", "1"]

    def test_wrong_param_count_usage_error(self, runner):
        res = runner.invoke(
            main, ["param", "--word", "s1", "--n", "3", "--params", "1,2"]
        )
        assert res.exit_code == 2

    def test_nonpositive_param_precondition(self, runner):
        res = runner.invoke(
            main, ["param", "--word", "s1", "--n", "3", "--params", "-1"]
        )
        assert res.exit_code == 3


class TestQueries:
    def test_cell_of_identity(self, runner):
        res = runner.invoke(main, ["cell-of"], input=IDENTITY3)
        assert res.exit_code == 0
        assert json.loads(res.output) == {"cell": "1,2,3", "length": 0}

    def test_cell_of_guarded_exit_3(self, runner):
        # cell_of runs n^2 + 1 exact eliminations; above perms.INTERVAL_GUARD
        # it stops before the first
        eye8 = [["1" if i == j else "0" for j in range(8)] for i in range(8)]
        res = runner.invoke(main, ["cell-of"], input=json.dumps({"n": 8, "entries": eye8}))
        assert res.exit_code == 3
        assert res.stdout == ""
        lines = res.stderr.splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"] == "RankTooLarge"

    def test_flow_guarded_exit_3(self, runner):
        # flow labels its start with cell_of_float, which stops above
        # perms.INTERVAL_GUARD before its first SVD, so before any step
        x = [["1" if j in (i, i + 1) else "0" for j in range(8)] for i in range(8)]
        argv = ["flow", "--u", "1,2,3,4,5,6,7,8"]
        res = runner.invoke(main, argv, input=json.dumps({"n": 8, "entries": x}))
        assert res.exit_code == 3
        assert res.stdout == ""
        lines = res.stderr.splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"] == "RankTooLarge"

    def test_tnn_true(self, runner):
        res = runner.invoke(main, ["tnn"], input=UPPER3)
        assert json.loads(res.output) == {"tnn": True}

    def test_parse_error_exit_2(self, runner):
        res = runner.invoke(main, ["cell-of"], input="not json")
        assert res.exit_code == 2

    @pytest.mark.parametrize("obj", [{"n": 0, "entries": []}, {"n": -1, "entries": []}])
    def test_empty_matrix_parse_error(self, runner, obj):
        res = runner.invoke(main, ["cell-of"], input=json.dumps(obj))
        assert res.exit_code == 2
        assert res.stdout == ""
        assert json.loads(res.stderr)["error"] == "parse"

    def test_bad_entry_exit_2(self, runner):
        bad = json.dumps({"n": 2, "entries": [["1", "x"], ["0", "1"]]})
        res = runner.invoke(main, ["cell-of"], input=bad)
        assert res.exit_code == 2

    @pytest.mark.parametrize(
        "obj",
        [
            {"n": 2, "entries": [[True, True], [False, True]]},
            {"n": 2, "entries": [["1", "2"], [0, True]]},
            {"n": True, "entries": [["1"]]},
            {"n": 1.0, "entries": [["1"]]},
            {"n": "1", "entries": [["1"]]},
        ],
    )
    def test_booleans_and_non_integer_size_parse_error(self, runner, obj):
        res = runner.invoke(main, ["cell-of"], input=json.dumps(obj))
        assert res.exit_code == 2
        assert res.stdout == ""
        assert json.loads(res.stderr)["error"] == "parse"

    @pytest.mark.parametrize(
        "obj",
        [
            {"n": 2, "entries": ["12", "01"]},
            {"n": 1, "entries": {"5": 0}},
            {"n": 1, "entries": [{"5": 0}]},
        ],
        ids=["string-rows", "dict-entries", "dict-row"],
    )
    def test_entries_not_a_list_of_lists_parse_error(self, runner, obj):
        res = runner.invoke(main, ["cell-of"], input=json.dumps(obj))
        assert res.exit_code == 2
        assert res.stdout == ""
        assert json.loads(res.stderr) == {
            "error": "parse",
            "message": "bad matrix JSON: entries must be a list of rows, each a list",
        }

    def test_json_integers_are_entries(self, runner):
        res = runner.invoke(main, ["cell-of"], input=json.dumps({"n": 2, "entries": [[1, 1], [0, 1]]}))
        assert res.exit_code == 0
        assert json.loads(res.output) == {"cell": "2,1", "length": 1}


    @pytest.mark.parametrize(
        "argv, entry",
        [
            (["cell-of"], "1e999999999"),
            (["tnn"], "-2E-3"),
            (["param", "--word", "s1", "--n", "3", "--params", "1e999999999"], None),
            (["param", "--word", "s1.s2", "--n", "3", "--params", "1,1E2"], None),
        ],
    )
    def test_exponent_notation_parse_error(self, runner, argv, entry):
        x = json.dumps({"n": 2, "entries": [["1", entry], ["0", "1"]]})
        res = runner.invoke(main, argv, input=x)
        assert res.exit_code == 2
        assert res.stdout == ""
        assert json.loads(res.stderr)["error"] == "parse"


class TestProjectRho:
    def test_project(self, runner):
        res = runner.invoke(main, ["project", "--u", "2,1,3"], input=UPPER3)
        assert res.exit_code == 0
        obj = json.loads(res.output)
        assert obj["x_u"]["entries"][0] == ["1", "1", "0"]

    def test_project_precondition_exit_3(self, runner):
        res = runner.invoke(main, ["project", "--u", "2,1,3"], input=IDENTITY3)
        assert res.exit_code == 3

    def test_rho_base_rank_mismatch_exit_2(self, runner, tmp_path):
        base = tmp_path / "base.json"
        base.write_text(json.dumps({"n": 2, "entries": [["1", "2"], ["0", "1"]]}))
        res = runner.invoke(main, ["rho", "--u", "2,1,3", "--base", str(base)], input=UPPER3)
        assert res.exit_code == 2
        err = json.loads(res.stderr)
        assert err == {"error": "usage", "message": "rank mismatch"}

    def test_rho_base_outside_N_exit_3(self, runner, tmp_path):
        """The base [[2, 4, 0], [0, 1, 0], [0, 0, 1]] lies in the 2,1,3-cell
        but is not unipotent, so no fiber lies over it."""
        base = tmp_path / "base.json"
        base.write_text(json.dumps({"n": 3, "entries": [["2", "4", "0"], ["0", "1", "0"], ["0", "0", "1"]]}))
        x = json.dumps({"n": 3, "entries": [["1", "1", "2"], ["0", "1", "3"], ["0", "0", "1"]]})
        res = runner.invoke(main, ["rho", "--u", "2,1,3", "--base", str(base)], input=x)
        assert res.exit_code == 3
        assert res.stdout == ""
        assert json.loads(res.stderr) == {
            "error": "NotUnipotentUpper",
            "message": "expected a unipotent upper-triangular matrix",
        }

    def test_rho_roundtrip(self, runner, tmp_path):
        base = tmp_path / "base.json"
        base.write_text(
            json.dumps(
                {"n": 3, "entries": [["1", "2", "0"], ["0", "1", "0"], ["0", "0", "1"]]}
            )
        )
        x = json.dumps(
            {"n": 3, "entries": [["1", "1", "2"], ["0", "1", "3"], ["0", "0", "1"]]}
        )
        res = runner.invoke(
            main, ["rho", "--u", "2,1,3", "--base", str(base)], input=x
        )
        assert res.exit_code == 0
        obj = json.loads(res.output)
        assert obj["entries"][0][1] == "2"


class TestFlowVerbs:
    def test_backward_flow(self, runner):
        x = json.dumps(
            {"n": 3, "entries": [["1", "0", "1/3"], ["0", "1", "0"], ["0", "0", "1"]]}
        )
        res = runner.invoke(main, ["flow", "--u", "1,2,3"], input=x)
        assert res.exit_code == 0
        obj = json.loads(res.output)
        assert abs(obj["str"]) < 1e-6

    # The field vanishes at the identity over u = e: exit 3 before any step,
    # where the flow once spun through its whole step budget
    def test_forward_from_a_stationary_point_exit_3(self, runner):
        argv = ["flow", "--u", "1,2,3", "--direction", "forward", "--target-str", "3"]
        res = runner.invoke(main, argv, input=IDENTITY3)
        assert res.exit_code == 3
        assert res.stdout == ""
        assert json.loads(res.stderr)["error"] == "PreconditionError"

    # Entries of about 3e32 at height 1e17 leave the float re-projection of
    # the end point no pivot: it once printed NaN entries, which are not
    # JSON, with exit 0 after a numpy RuntimeWarning on stderr
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_point_exit_1(self, runner):
        rows = [["1", "4", "1/2", "0"], ["0", "1", "41/72", "2/9"], ["0", "0", "1", "1/2"], ["0", "0", "0", "1"]]
        x = json.dumps({"n": 4, "entries": rows})
        argv = ["flow", "--u", "1,3,4,2", "--direction", "forward", "--target-str", "1e18"]
        res = runner.invoke(main, argv, input=x)
        assert res.exit_code == 1
        assert res.stdout == ""
        assert len(res.stderr.splitlines()) == 1
        err = json.loads(res.stderr)
        assert err["error"] == "FlowError" and "not finite" in err["message"]

    # x outside G_0 u: a zero float pivot (identity, u = 2,1,3), and a cell
    # point of w = 2,3,1 with u = 3,1,2 not below w, whose float pivots are not zero
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "x, u",
        [
            (IDENTITY3, "2,1,3"),
            (json.dumps({"n": 3, "entries": [["1", "9/7", "81/28"], ["0", "1", "9/4"], ["0", "0", "1"]]}), "3,1,2"),
        ],
        ids=["zero-pivot", "not-below-label"],
    )
    def test_outside_G0u_exit_3(self, runner, x, u):
        res = runner.invoke(main, ["flow", "--u", u], input=x)
        assert res.exit_code == 3
        assert res.stdout == ""
        assert json.loads(res.stderr)["error"] == "NotInG0u"

    # flow decides G_0 u by the exact factorization, as project does: the
    # same exit and the same JSON line, witness included, in both directions
    # (the identity, and the 2,1,3-cell point with x12 = 1)
    @pytest.mark.parametrize(
        "rows, u, witness",
        [
            ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], "2,1,3", 1),
            ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], "1,3,2", 2),
            ([[1, 1, 0], [0, 1, 0], [0, 0, 1]], "3,1,2", 2),
        ],
    )
    @pytest.mark.parametrize("direction", ["backward", "forward"])
    def test_outside_G0u_reads_as_project(self, runner, rows, u, witness, direction):
        x = json.dumps({"n": 3, "entries": [[str(e) for e in r] for r in rows]})
        want = runner.invoke(main, ["project", "--u", u], input=x)
        res = runner.invoke(main, ["flow", "--u", u, "--direction", direction, "--target-str", "5"], input=x)
        assert res.exit_code == want.exit_code == 3
        assert res.stdout == "" and res.stderr == want.stderr
        assert f"leading principal {witness}x{witness} minor vanishes" in res.stderr

    # x0, with x23 = -10^-310, lies in G_0 u for u = 2,3,1, but its exact
    # x_u and x^u have entries of about 1e310, beyond the float range: exit 2
    # in both directions
    @pytest.mark.parametrize("direction", ["backward", "forward"])
    def test_frame_beyond_the_float_range_exit_2(self, runner, direction):
        tiny = "-1/1" + "0" * 310
        x = json.dumps({"n": 3, "entries": [["1", "1", "1"], ["0", "1", tiny], ["0", "0", "1"]]})
        argv = ["flow", "--u", "2,3,1", "--direction", direction, "--target-str", "5"]
        res = runner.invoke(main, argv, input=x)
        assert res.exit_code == 2
        assert res.stdout == ""
        assert json.loads(res.stderr) == {"error": "usage", "message": "matrix entry too large for a float"}

    # x outside N, by its diagonal and below it: flow and retract check it
    # before any label or z, as project does
    @pytest.mark.parametrize(
        "x",
        [
            json.dumps({"n": 3, "entries": [["2", "1", "1"], ["0", "1", "1"], ["0", "0", "1"]]}),
            json.dumps({"n": 3, "entries": [["1", "1", "1"], ["0", "1", "1"], ["1", "0", "1"]]}),
        ],
        ids=["diagonal", "below-diagonal"],
    )
    @pytest.mark.parametrize(
        "argv",
        [
            ["flow", "--u", "1,2,3"],
            ["retract", "--u", "1,2,3", "--v", "3,2,1", "--tau", "0.5"],
            ["retract", "--u", "1,2,3", "--v", "3,2,1", "--tau", "1"],
        ],
        ids=["flow", "retract-half", "retract-one"],
    )
    def test_outside_N_exit_3(self, runner, tmp_path, argv, x):
        if argv[0] == "retract":
            z = {"n": 3, "entries": [["1", "2", "1"], ["0", "1", "1"], ["0", "0", "1"]]}
            (tmp_path / "z.json").write_text(json.dumps(z))
            argv = argv + ["--z", str(tmp_path / "z.json")]
        res = runner.invoke(main, argv, input=x)
        assert res.exit_code == 3
        assert res.stdout == ""
        assert json.loads(res.stderr) == {
            "error": "NotUnipotentUpper",
            "message": "expected a unipotent upper-triangular matrix",
        }

    # a 401-digit entry has no float, in flow's x and in retract's x or z
    @pytest.mark.parametrize(
        "argv, x, z",
        [
            (["flow", "--u", "1,2,3"], BIG3, None),
            (["retract", "--u", "1,2,3", "--v", "3,2,1", "--tau", "0.5"], BIG3, UPPER3),
            (["retract", "--u", "1,2,3", "--v", "2,1,3", "--tau", "0.5"], UPPER3, BIG3),
        ],
        ids=["flow", "retract-x", "retract-z"],
    )
    def test_entry_too_large_for_float_exit_2(self, runner, tmp_path, argv, x, z):
        if z is not None:
            (tmp_path / "z.json").write_text(z)
            argv = argv + ["--z", str(tmp_path / "z.json")]
        res = runner.invoke(main, argv, input=x)
        assert res.exit_code == 2
        assert res.stdout == ""
        assert json.loads(res.stderr) == {
            "error": "usage",
            "message": "matrix entry too large for a float",
        }

    # tau^(j - i) below the diagonal, where x is 0, overflowed at tiny tau
    @pytest.mark.parametrize("tau", ["1e-200", "5e-324"])
    def test_retract_tiny_tau_is_tau_zero(self, runner, tmp_path, tau):
        x = json.dumps({"n": 3, "entries": [["1", "1", "1/2"], ["0", "1", "1"], ["0", "0", "1"]]})
        z = json.dumps({"n": 3, "entries": [["1", "2", "1"], ["0", "1", "1"], ["0", "0", "1"]]})
        (tmp_path / "z.json").write_text(z)
        argv = ["retract", "--u", "1,2,3", "--v", "3,2,1", "--z", str(tmp_path / "z.json"), "--tau"]
        at_zero, res = runner.invoke(main, argv + ["0"], input=x), runner.invoke(main, argv + [tau], input=x)
        assert at_zero.exit_code == res.exit_code == 0
        assert res.stdout == at_zero.stdout and res.stderr == ""

    # at tau = 0, y = x: a link point drawn in a stratum w < v is outside
    # G_0 v, though its float v-projection stays finite; its float label is
    # not above v
    def test_retract_below_v_at_tau_zero_exit_3(self, runner, tmp_path):
        u, v, w = (Permutation.parse(p) for p in ("1,3,2,4", "4,2,3,1", "2,3,4,1"))
        [x] = [p for p, label in link_sample(u, v, 1.0, 1, seed=5).points if label == w]
        (tmp_path / "z.json").write_text(json.dumps(default_base(Permutation.longest(4)).to_json_obj()))
        x_json = json.dumps({"n": 4, "entries": [[repr(float(e)) for e in row] for row in x]})
        argv = ["retract", "--u", "1,3,2,4", "--v", "4,2,3,1", "--z", str(tmp_path / "z.json"), "--tau", "0"]
        res = runner.invoke(main, argv, input=x_json)
        assert res.exit_code == 3
        assert res.stdout == ""
        assert json.loads(res.stderr)["error"] == "ZNotInYgeqV"

    def test_forward_needs_target(self, runner):
        res = runner.invoke(
            main, ["flow", "--u", "1,2,3", "--direction", "forward"], input=UPPER3
        )
        assert res.exit_code == 2

    # A forward flow to height T meets entries of about T^(n-1): at n = 3 a
    # target of 1e200 overflowed, wrote numpy warnings to stderr and exited 1
    # (StepUnderflow).  It now exits 3 before any step; 1e15 still flows.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("target, code", [("1e200", 3), ("1e15", 0)])
    def test_forward_target_float_guard(self, runner, target, code):
        x = json.dumps({"n": 3, "entries": [["1", "2", "1"], ["0", "1", "1"], ["0", "0", "1"]]})
        argv = ["flow", "--u", "1,2,3", "--direction", "forward", "--target-str", target]
        res = runner.invoke(main, argv, input=x)
        assert res.exit_code == code
        if code:
            assert res.stdout == ""
            lines = res.stderr.splitlines()
            assert len(lines) == 1 and json.loads(lines[0])["error"] == "RankTooLarge"
        else:
            assert res.stderr == "" and json.loads(res.stdout)["str"] >= float(target)

    def test_dump_trajectory_jsonl(self, runner):
        x = json.dumps(
            {"n": 3, "entries": [["1", "1", "0"], ["0", "1", "1"], ["0", "0", "1"]]}
        )
        res = runner.invoke(
            main, ["flow", "--u", "1,2,3", "--dump-trajectory"], input=x
        )
        assert res.exit_code == 0
        lines = res.output.strip().splitlines()
        assert len(lines) >= 2
        first = json.loads(lines[0])
        assert set(first) == {"t", "str", "entries"}


class TestLinkVerbs:
    def test_census_s3_top(self, runner):
        res = runner.invoke(
            main, ["link-census", "--u", "1,2,3", "--v", "3,2,1", "--count", "1"]
        )
        assert res.exit_code == 0
        obj = json.loads(res.output)
        assert obj["euler"] == 1
        assert sorted(s["dim"] for s in obj["strata"]) == [0, 0, 1, 1, 2]

    def test_census_point_budget_exit_3(self, runner):
        res = runner.invoke(
            main, ["link-census", "--u", "1,2", "--v", "2,1", "--count", "100000000"]
        )
        assert res.exit_code == 3
        assert res.stdout == ""
        assert json.loads(res.stderr)["error"] == "RankTooLarge"

    def test_census_point_landing_elsewhere_exit_1(self, runner, monkeypatch):
        # the first point is replaced by the last, drawn in another stratum;
        # the verb reads link_sample from the flow module when it runs
        flow_module = importlib.import_module("tnn_strata.flow")
        real = flow_module.link_sample

        def moved(u, v, epsilon, count, seed):
            ls = real(u, v, epsilon, count, seed)
            (_, w), *rest = ls.points
            return dataclasses.replace(ls, points=((rest[-1][0], w), *rest))

        monkeypatch.setattr(flow_module, "link_sample", moved)
        res = runner.invoke(main, ["link-census", "--u", "1,2,3", "--v", "3,2,1", "--count", "1"])
        assert res.exit_code == 1
        obj = json.loads(res.stdout)
        assert obj["labels_ok"] is False and obj["euler_ok"] is True
        assert sum(s["points"] for s in obj["strata"]) == 5

    # Float labels misread link points well above epsilon = 1e-12: at 1e-3
    # one point of this S4 census reads as a stratum other than the one it
    # was drawn in, so labels_ok is false and the verb exits 1.  At
    # --epsilon 0.5 the same census exits 0.
    @pytest.mark.xfail(raises=AssertionError, strict=True, reason="a link point's float label is not its drawn stratum")
    def test_census_labels_at_epsilon_1e_3(self, runner):
        res = runner.invoke(main, ["link-census", "--u", "3,1,2,4", "--v", "4,3,2,1",
                                   "--epsilon", "1e-3", "--count", "1", "--seed", "0"])
        obj = json.loads(res.stdout)
        assert obj["euler_ok"] is True
        assert obj["labels_ok"] is True and res.exit_code == 0

    def test_huge_epsilon_exit_3(self, runner):
        res = runner.invoke(
            main, ["link-sample", "--u", "1,2", "--v", "2,1", "--epsilon", "1e300", "--count", "1"]
        )
        assert res.exit_code == 3
        assert res.stdout == ""
        lines = res.stderr.splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"] == "RankTooLarge"

    # At epsilon = 1e-16 a climb's error scale max|z - I| can be zero in
    # floats: rk_step divided by it and wrote a numpy RuntimeWarning to
    # stderr before the one JSON error line
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("verb", ["link-sample", "link-census"])
    def test_tiny_epsilon_exit_1(self, runner, verb):
        argv = [verb, "--u", "1,2,3", "--v", "3,2,1", "--epsilon", "1e-16", "--count", "1"]
        res = runner.invoke(main, argv)
        assert res.exit_code == 1
        assert res.stdout == ""
        lines = res.stderr.splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"] == "StepUnderflow"

    def test_census_incomparable_exit_3(self, runner):
        res = runner.invoke(
            main, ["link-census", "--u", "2,1,3", "--v", "1,3,2"]
        )
        assert res.exit_code == 3

    def test_link_sample_level(self, runner):
        res = runner.invoke(
            main,
            [
                "link-sample",
                "--u",
                "1,2,3",
                "--v",
                "2,1,3",
                "--epsilon",
                "0.5",
                "--count",
                "2",
            ],
        )
        assert res.exit_code == 0
        obj = json.loads(res.output)
        for p in obj["points"]:
            assert abs(p["str"] - obj["level"]) <= 1e-9


class TestVerify:
    def test_verify_pass(self, runner):
        res = runner.invoke(main, ["verify", "bruhat", "--n", "3"])
        assert res.exit_code == 0
        [rep] = json.loads(res.output)
        assert rep["ok"] is True
        assert "wall_time" not in rep

    def test_unknown_suite_exit_2(self, runner):
        res = runner.invoke(main, ["verify", "nope"])
        assert res.exit_code == 2

    @pytest.mark.parametrize("suite", ["psi-positivity", "all"])
    def test_samples_guarded_exit_3(self, runner, monkeypatch, suite):
        # above verify.SAMPLES_GUARD no suite starts
        def no_suite(config):
            raise AssertionError("ran a suite")

        monkeypatch.setattr(verify, "SUITES", dict.fromkeys(verify.SUITES, no_suite))
        res = runner.invoke(main, ["verify", suite, "--samples", str(verify.SAMPLES_GUARD + 1)])
        assert res.exit_code == 3
        assert res.stdout == ""
        lines = res.stderr.splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"] == "RankTooLarge"

    def test_byte_identical_given_seed(self, runner):
        args = ["verify", "gauss", "--n", "3", "--seed", "7", "--samples", "20"]
        a = runner.invoke(main, args).output
        b = runner.invoke(main, args).output
        assert a == b

    def test_verma_too_large_exit_3(self, runner):
        res = runner.invoke(main, ["verify", "verma", "--n", "8"])
        assert res.exit_code == 3
        assert res.stdout == ""
        lines = res.stderr.splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"] == "RankTooLarge"

    def test_timings_flag_adds_wall_time(self, runner):
        res = runner.invoke(
            main, ["verify", "bruhat", "--n", "3", "--timings"]
        )
        [rep] = json.loads(res.output)
        assert "wall_time" in rep


class TestDeterminism:
    def test_link_sample_byte_identical(self, runner):
        args = [
            "link-sample",
            "--u",
            "1,2,3",
            "--v",
            "2,1,3",
            "--count",
            "2",
            "--seed",
            "5",
        ]
        assert runner.invoke(main, args).output == runner.invoke(main, args).output


@pytest.mark.parametrize(
    "argv",
    [
        ["link-sample", "--u", "1,2,3", "--v", "3,2,1", "--epsilon", "0"],
        ["link-sample", "--u", "1,2,3", "--v", "3,2,1", "--epsilon", "-1"],
        ["link-sample", "--u", "1,2,3", "--v", "3,2,1", "--epsilon", "nan"],
        ["link-census", "--u", "1,2,3", "--v", "3,2,1", "--epsilon", "nan"],
        ["flow", "--u", "1,2,3", "--snapshot-every", "50"],
        ["flow", "--u", "1,2,3", "--direction", "forward", "--target-str", "nan"],
        ["flow", "--u", "1,2,3", "--tol", "-1"],
        ["flow", "--u", "1,2,3", "--tol", "0"],
        ["flow", "--u", "1,2,3", "--tol", "nan"],
        ["flow", "--u", "1,2,3", "--tol", "inf"],
        ["verify", "param-cell", "--n", "3", "--samples", "-1"],
        ["verify", "retraction", "--n", "3", "--samples", "-1"],
        ["link-sample", "--u", "1,2,3", "--v", "3,2,1", "--count", "0"],
        ["link-sample", "--u", "1,2,3", "--v", "3,2,1", "--count", "-2"],
        ["link-census", "--u", "1,2,3", "--v", "3,2,1", "--count", "0"],
        ["link-census", "--u", "1,2,3", "--v", "3,2,1", "--count", "-2"],
        ["link-sample", "--u", "1,2,3", "--v", "3,2,1,4"],
        ["link-census", "--u", "1,2,3,4", "--v", "1,2,3"],
        ["param", "--word", "s0", "--n", "3", "--params", "1"],
        ["param", "--word", "s1.s1", "--n", "3", "--params", "1,1"],
        ["param", "--word", "", "--n", "0", "--params", ""],
        ["param", "--word", "", "--n", "-3", "--params", ""],
        ["param", "--word", "x1", "--n", "3", "--params", "1"],
        ["project", "--u", "2,1"],
        ["psi", "--u", "2,1"],
        ["flow", "--u", "1,2,3,4"],
        ["flow", "--u", "1,2,3", "--max-steps", "100"],
        ["verify", "bruhat", "--n", "1"],
    ],
)
def test_bad_numeric_option_exit_2(runner, argv):
    res = runner.invoke(main, argv, input=UPPER3)
    assert res.exit_code == 2
    assert res.stdout == ""
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "usage"


@pytest.mark.parametrize(
    "argv",
    [
        ["link-sample", "--u", "1,2,3", "--v", "3,2,1", "--count", "abc"],
        ["verify", "nope"],
        ["nope"],
        ["--bogus"],
        ["link-sample", "--u", "1,2,3"],
    ],
)
def test_click_errors_are_one_json_line(runner, argv):
    res = runner.invoke(main, argv)
    assert res.exit_code == 2
    assert res.stdout == ""
    lines = res.stderr.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "usage" and err["message"]


def test_interrupt_is_one_json_line(runner, monkeypatch):
    def interrupted(x):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "cell_of", interrupted)
    res = runner.invoke(main, ["cell-of"], input=IDENTITY3)
    assert res.exit_code == 1
    assert res.stdout == ""
    # click ends the terminal's ^C line with a newline before the JSON line
    assert res.stderr.startswith("\n") and len(res.stderr.splitlines()) == 2
    assert json.loads(res.stderr.splitlines()[-1])["error"] == "aborted"


def test_help_is_not_an_error(runner):
    res = runner.invoke(main, ["link-sample", "--help"])
    assert res.exit_code == 0
    assert res.stdout.startswith("Usage:") and "--count" in res.stdout
    assert res.stderr == ""
