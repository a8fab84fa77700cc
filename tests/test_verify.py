import importlib

import numpy as np
import pytest

from tnn_strata import verify
from tnn_strata.errors import InvalidArgument, RankTooLarge
from tnn_strata.verify import RunConfig, VerificationReport, _Run, run_suite


def test_report_with_no_cases_fails():
    assert not VerificationReport("empty").ok
    assert VerificationReport("one", cases=1).ok


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


@pytest.mark.parametrize(
    "samples, repro",
    [
        (0, "tnn-strata verify gauss --n 3 --seed 7"),
        (20, "tnn-strata verify gauss --n 3 --seed 7 --samples 20"),
    ],
)
def test_repro_replays_the_sample_size(samples, repro):
    run = _Run("gauss", RunConfig(n=3, seed=7, samples=samples))
    run.check(False, "roundtrip[0]")
    [failure] = run.done().failures
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
