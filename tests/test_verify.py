import importlib

import numpy as np
import pytest

from tnn_strata import verify
from tnn_strata.errors import FlowError, InvalidArgument, RankTooLarge
from tnn_strata.perms import all_permutations, bruhat_less
from tnn_strata.verify import RunConfig, VerificationReport, run_suite


def test_report_with_no_cases_fails():
    assert not VerificationReport("empty").ok
    assert VerificationReport("one", cases=1).ok


def test_unknown_suite_is_a_library_error():
    with pytest.raises(InvalidArgument, match="'nope'"):
        run_suite("nope", RunConfig(n=3))


def test_negative_samples_rejected():
    with pytest.raises(InvalidArgument):
        run_suite("param-cell", RunConfig(n=3, samples=-1))


def test_verma_guarded_before_allocating():
    with pytest.raises(RankTooLarge):
        run_suite("verma", RunConfig(n=8))


def test_verma_guarded_above_six(monkeypatch):
    def no_matrix(perms):
        raise AssertionError("built the Bruhat matrix")

    monkeypatch.setattr(verify, "_leq_matrix", no_matrix)
    with pytest.raises(RankTooLarge):
        run_suite("verma", RunConfig(n=7))


def test_n_below_two_rejected():
    with pytest.raises(InvalidArgument):
        run_suite("bruhat", RunConfig(n=1))


def test_param_cell_guarded_before_listing_permutations():
    with pytest.raises(RankTooLarge):
        run_suite("param-cell", RunConfig(n=11))


@pytest.mark.parametrize("suite", ["retraction", "link-census"])
def test_suite_guarded_before_drawing(monkeypatch, suite):
    def no_draws(w, rng):
        raise AssertionError("drew a point")

    monkeypatch.setattr(importlib.import_module("tnn_strata.flow"), "random_cell_point", no_draws)
    with pytest.raises(RankTooLarge):
        run_suite(suite, RunConfig(n=3, samples=10**8))


# Above SAMPLES_GUARD no suite starts; at it, as at each suite's default
# (psi-positivity's is the largest, 10,000), every suite does.
@pytest.mark.parametrize("suite", [*verify.SUITES, "all"])
def test_samples_guarded_before_any_suite(monkeypatch, suite):
    ran = []
    monkeypatch.setattr(verify, "SUITES", {name: ran.append for name in verify.SUITES})
    with pytest.raises(RankTooLarge):
        run_suite(suite, RunConfig(n=3, samples=verify.SAMPLES_GUARD + 1))
    assert ran == []
    run_suite(suite, RunConfig(n=3, samples=verify.SAMPLES_GUARD))
    assert ran and all(config.samples == verify.SAMPLES_GUARD for config in ran)


@pytest.mark.parametrize(
    "samples, repro",
    [
        (0, "tnn-strata verify gauss --n 3 --seed 7"),
        (20, "tnn-strata verify gauss --n 3 --seed 7 --samples 20"),
    ],
)
def test_repro_replays_the_sample_size(samples, repro):
    report = VerificationReport("gauss", config=RunConfig(n=3, seed=7, samples=samples))
    report.check(False, "roundtrip[0]")
    [failure] = report.done().failures
    assert failure.repro == repro


def test_census_counts_the_stratum_a_point_lands_in(monkeypatch):
    # the first row of each stack lands where the stack's last row, drawn
    # in another stratum, did; its drawn label is kept
    real = verify.link_point

    def moved(x, u, epsilon):
        out = real(x, u, epsilon)
        out[0] = out[-1]
        return out

    monkeypatch.setattr(verify, "link_point", moved)
    # with two points per stratum the moved point's stratum is not left empty
    for samples in (0, 2):
        [rep] = run_suite("link-census", RunConfig(n=3, samples=samples))
        assert rep.failures
        assert {f.case.split("[")[0] for f in rep.failures} == {"labels"}


def logged_checks(monkeypatch) -> dict:
    """{case: ok} of every check a suite makes from now on."""
    seen, check = {}, VerificationReport.check

    def logged(self, ok, case, detail=""):
        seen[case] = bool(ok)
        check(self, ok, case, detail)

    monkeypatch.setattr(VerificationReport, "check", logged)
    return seen


# A FlowError from flow fails the case it hit, backward[i] or forward[i],
# and the suite goes on to the next point
@pytest.mark.parametrize("direction", ["backward", "forward"])
def test_flow_suite_reports_a_flow_error(monkeypatch, direction):
    real = verify.flow

    def failing(x0, u, way="backward", **kwargs):
        if way == direction:
            raise FlowError("injected")
        return real(x0, u, way, **kwargs)

    monkeypatch.setattr(verify, "flow", failing)
    [rep] = run_suite("flow", RunConfig(n=3, samples=20))
    obj = rep.to_json_obj()
    assert obj["ok"] is False and obj["failures"]
    assert {f["case"].split("[")[0] for f in obj["failures"]} == {direction}
    assert all(f["detail"] == "FlowError: injected" for f in obj["failures"])


# A radius whose link_point raises fails sample[u;v;eps] for every pair;
# the next radius starts from the last that landed, so eps = 2 still lands
# from eps = 0.5, on its level and in its strata
def test_census_suite_reports_a_failed_radius(monkeypatch):
    real = verify.link_point

    def failing(x, u, epsilon):
        if epsilon == 1.0:
            raise FlowError("injected")
        return real(x, u, epsilon)

    monkeypatch.setattr(verify, "link_point", failing)
    seen = logged_checks(monkeypatch)
    [rep] = run_suite("link-census", RunConfig(n=3))
    perms = all_permutations(3)
    pairs = [f"{u.serialize()};{v.serialize()}" for u in perms for v in perms if bruhat_less(u, v)]
    obj = rep.to_json_obj()
    assert obj["ok"] is False
    assert sorted(f["case"] for f in obj["failures"]) == sorted(f"sample[{p};eps=1.0]" for p in pairs)
    assert all(f["detail"] == "FlowError: injected" for f in obj["failures"])
    for p in pairs:
        assert seen[f"level[{p};eps=2.0]"] and seen[f"labels[{p};eps=2.0]"]
        assert f"eps-stable[{p}]" not in seen


def test_retraction_suite_calls_retraction_once_per_tau(monkeypatch):
    """One call over the 20 points at tau = 0, one at tau = 1 and one per
    step of the 11-step grid; a call per point would make 51."""
    calls, real = [], verify.retraction

    def counted(x, *args):
        calls.append(np.shape(x))
        return real(x, *args)

    monkeypatch.setattr(verify, "retraction", counted)
    [rep] = run_suite("retraction", RunConfig(n=3))
    assert rep.ok
    assert calls == [(20, 3, 3)] * 2 + [(3, 3)] * 11
