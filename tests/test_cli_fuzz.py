"""Fuzz the CLI's error contract: whatever the matrix JSON or the argv, a
verb exits 0-3 without a traceback; exit 0 prints one JSON line on stdout,
and every other exit prints nothing on stdout and one JSON object line on
stderr.  `retract`, the link verbs and `verify` draw S2/S3 permutations,
1-2 points per stratum and the cheap suites only, so the module stays
fast."""

import itertools
import json
import math
from fractions import Fraction

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from tnn_strata.cli import main
from tnn_strata.flow import LINK_EPSILON_GUARD
from tnn_strata.perms import Permutation, bruhat_less

FUZZ = settings(max_examples=100, deadline=None, derandomize=True, database=None)

HUGE = "1" + "0" * 400  # an integer too large for a float
rationals = st.builds(
    lambda p, q: str(Fraction(p, q)), st.integers(-9, 9), st.integers(1, 9)
)
scalars = st.one_of(
    st.text(max_size=6),
    st.integers(-10**6, 10**6),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([float("inf"), float("nan"), None, True, "1/0", "", "1e999999999", "-2E-3", HUGE]),
)
junk = scalars | st.lists(scalars, max_size=2)
# at most one defect per matrix; hypothesis draws early choices most often
DEFECTS = (None,) * 8 + ("entry",) * 3 + ("huge", "ragged", "declared", "bare-list", "no-n", "cut-short")


@st.composite
def matrix_json(draw, n):
    """JSON text for an n x n matrix, upper unipotent or not, with rational
    entries; or with one defect: an entry that is junk, a number, a nested
    list or HUGE, a ragged row, a wrong declared size, no object, no "n"
    key, or text cut short."""
    unipotent = draw(st.sampled_from([True, True, False]))
    rows = [
        [draw(rationals) if j > i or not unipotent else "1" if i == j else "0" for j in range(n)]
        for i in range(n)
    ]
    obj = {"n": n, "entries": rows}
    defect = draw(st.sampled_from(DEFECTS))
    if defect in ("entry", "huge") and rows:
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(junk) if defect == "entry" else HUGE
    elif defect == "ragged" and rows:
        rows[-1].pop()
    elif defect == "declared":
        obj["n"] = draw(st.integers(-1, 6))
    elif defect == "bare-list":
        obj = rows
    elif defect == "no-n":
        del obj["n"]
    text = json.dumps(obj)
    return text[: len(text) // 2] if defect == "cut-short" else text


@st.composite
def perm_text(draw, n):
    """A permutation in one-line notation, mostly of size n, else of a
    random size 1..5, or junk."""
    which = draw(st.sampled_from(["n", "n", "any", "junk"]))
    if which == "junk":
        return draw(st.text(min_size=1, max_size=8))
    size = n if which == "n" and n >= 1 else draw(st.integers(1, 5))
    return ",".join(map(str, draw(st.permutations(range(1, size + 1)))))


sizes = st.sampled_from([3, 4, 2, 5, 1, 0])


def assert_contract(res):
    assert res.exception is None or isinstance(res.exception, SystemExit), res.exception
    assert res.exit_code in (0, 1, 2, 3)
    if res.exit_code == 0:
        lines = res.stdout.splitlines()
        assert len(lines) == 1
        json.loads(lines[0])
    else:
        assert res.stdout == ""
        lines = res.stderr.splitlines()
        assert len(lines) == 1
        assert isinstance(json.loads(lines[0]), dict)


@pytest.fixture(scope="module")
def matrix_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "matrix.json"


@pytest.mark.parametrize("verb", ["cell-of", "tnn"])
@FUZZ
@given(data=st.data(), n=sizes)
def test_matrix_queries(verb, data, n):
    x = data.draw(matrix_json(n))
    assert_contract(CliRunner().invoke(main, [verb], input=x))


@pytest.mark.parametrize("verb", ["project", "psi"])
@FUZZ
@given(data=st.data(), n=sizes)
def test_matrix_and_permutation(verb, data, n):
    x, u = data.draw(matrix_json(n)), data.draw(perm_text(n))
    assert_contract(CliRunner().invoke(main, [verb, "--u", u], input=x))


@FUZZ
@pytest.mark.filterwarnings("error::RuntimeWarning")  # numpy warns on stderr
@given(data=st.data(), n=sizes, forward=st.booleans())
def test_flow(data, n, forward):
    x, u = data.draw(matrix_json(n)), data.draw(perm_text(n))
    argv = ["flow", "--u", u, "--max-steps", "100"]
    argv += ["--direction", "forward", "--target-str", "3"] if forward else []
    assert_contract(CliRunner().invoke(main, argv, input=x))


@FUZZ
@given(data=st.data(), n=sizes)
def test_rho(matrix_file, data, n):
    x, base, u = data.draw(matrix_json(n)), data.draw(matrix_json(n)), data.draw(perm_text(n))
    matrix_file.write_text(base)
    assert_contract(
        CliRunner().invoke(main, ["rho", "--u", u, "--base", str(matrix_file)], input=x)
    )


letters = st.builds(lambda i: f"s{i}", st.integers(0, 5)) | st.text(max_size=3)


@FUZZ
@given(
    word=st.lists(letters, max_size=5).map(".".join),
    n=st.integers(-3, 5),
    params=st.lists(rationals | st.text(max_size=4) | st.just("1e999999999"), max_size=5).map(",".join),
)
def test_param(word, n, params):
    argv = ["param", "--word", word, "--n", str(n), "--params", params]
    assert_contract(CliRunner().invoke(main, argv))


S23 = [Permutation(p) for k in (2, 3) for p in itertools.permutations(range(1, k + 1))]
# the top cell point of S_n, a retraction target z for every v
TOP = {
    2: json.dumps({"n": 2, "entries": [["1", "1"], ["0", "1"]]}),
    3: json.dumps({"n": 3, "entries": [["1", "2", "1"], ["0", "1", "2"], ["0", "0", "1"]]}),
}
small_sizes = st.sampled_from([3, 2])
# radii on the link, radii refused as usage errors, and radii above the guard
# (the smallest float above it included), refused before any point is drawn
too_far = ["1e300", "1e6", repr(math.nextafter(LINK_EPSILON_GUARD, math.inf))]
epsilons = st.one_of([st.floats(0.1, 3).map(str)] * 3 + [st.sampled_from(["0", "-1", "nan", "inf"] + too_far)])
seeds = st.integers(-3, 2**40).map(str)


def perm_pair(n):
    """(u, v) in one-line notation: u < v in S_n, or any two permutations
    of S2 and S3."""
    below = [(u.serialize(), v.serialize()) for u in S23 for v in S23 if u.n == v.n == n and bruhat_less(u, v)]
    anyp = st.sampled_from([p.serialize() for p in S23])
    return st.sampled_from(below) | st.tuples(anyp, anyp)


@st.composite
def options(draw, **valid):
    """``--name value`` argv, each value drawn from ``valid[name]``; in a
    third of the draws one value is junk text instead."""
    values = {name: draw(strategy) for name, strategy in valid.items()}
    bad = draw(st.sampled_from([None] * 2 * len(values) + list(values)))
    if bad is not None:
        values[bad] = draw(st.text(max_size=6))
    return [a for name, v in values.items() for a in (f"--{name}", v)]


@FUZZ
@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(data=st.data(), n=small_sizes)
def test_retract(matrix_file, data, n):
    x, z = data.draw(matrix_json(n)), data.draw(st.just(TOP[n]) | matrix_json(n))
    (u, v), tau = data.draw(perm_pair(n)), st.floats(0, 1).map(str)
    matrix_file.write_text(z)
    argv = ["retract", "--z", str(matrix_file)]
    argv += data.draw(options(u=st.just(u), v=st.just(v), tau=tau, epsilon=epsilons))
    assert_contract(CliRunner().invoke(main, argv, input=x))


@pytest.mark.parametrize("verb", ["link-sample", "link-census"])
@settings(FUZZ, max_examples=50)
@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(data=st.data(), n=small_sizes)
def test_link(verb, data, n):
    (u, v), count = data.draw(perm_pair(n)), st.sampled_from(["1", "2"])
    argv = [verb] + data.draw(options(u=st.just(u), v=st.just(v), epsilon=epsilons, count=count, seed=seeds))
    assert_contract(CliRunner().invoke(main, argv))


@settings(FUZZ, max_examples=20)
@given(
    suite=st.sampled_from(["bruhat", "gauss", "factorization"]),
    argv=options(n=st.sampled_from(["2", "3", "4", "-1", "0", "1"]), samples=st.sampled_from(["1", "2", "-1"]), seed=seeds),
)
def test_verify(suite, argv):
    assert_contract(CliRunner().invoke(main, ["verify", suite] + argv))
