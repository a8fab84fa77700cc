import pytest

from tnn_strata.errors import InvalidArgument, RankTooLarge
from tnn_strata.verify import RunConfig, VerificationReport, run_suite


def test_report_with_no_cases_fails():
    assert not VerificationReport("empty").ok
    assert VerificationReport("one", cases=1).ok


def test_negative_samples_rejected():
    with pytest.raises(InvalidArgument):
        run_suite("param-cell", RunConfig(n=3, samples=-1))


def test_verma_guarded_before_allocating():
    with pytest.raises(RankTooLarge):
        run_suite("verma", RunConfig(n=8))
