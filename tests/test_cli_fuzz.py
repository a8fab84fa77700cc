"""Fuzz the CLI's error contract: whatever the matrix JSON or the `param`
argv, a verb exits 0-3 without a traceback; exit 0 prints one JSON line on
stdout, and every other exit prints nothing on stdout and one JSON object
line on stderr."""

import json
from fractions import Fraction

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from tnn_strata.cli import main

FUZZ = settings(max_examples=100, deadline=None, derandomize=True, database=None)

rationals = st.builds(
    lambda p, q: str(Fraction(p, q)), st.integers(-9, 9), st.integers(1, 9)
)
scalars = st.one_of(
    st.text(max_size=6),
    st.integers(-10**6, 10**6),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([float("inf"), float("nan"), None, True, "1/0", "", "1e999999999", "-2E-3"]),
)
junk = scalars | st.lists(scalars, max_size=2)
# at most one defect per matrix; hypothesis draws early choices most often
DEFECTS = (None,) * 8 + ("entry",) * 3 + ("ragged", "declared", "bare-list", "no-n", "cut-short")


@st.composite
def matrix_json(draw, n):
    """JSON text for an n x n matrix, upper unipotent or not, with rational
    entries; or with one defect: an entry that is junk, a number or a
    nested list, a ragged row, a wrong declared size, no object, no "n"
    key, or text cut short."""
    unipotent = draw(st.sampled_from([True, True, False]))
    rows = [
        [draw(rationals) if j > i or not unipotent else "1" if i == j else "0" for j in range(n)]
        for i in range(n)
    ]
    obj = {"n": n, "entries": rows}
    defect = draw(st.sampled_from(DEFECTS))
    if defect == "entry" and rows:
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(junk)
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
def base_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "base.json"


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
def test_rho(base_file, data, n):
    x, base, u = data.draw(matrix_json(n)), data.draw(matrix_json(n)), data.draw(perm_text(n))
    base_file.write_text(base)
    assert_contract(
        CliRunner().invoke(main, ["rho", "--u", u, "--base", str(base_file)], input=x)
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
