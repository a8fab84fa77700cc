"""The float kernels against the exact maps they mirror, one matrix at a
time and as a stack."""

import random
import warnings

import numpy as np
import pytest

from tnn_strata import kernels
from tnn_strata.fiber import fiber_A, pi_u, rho
from tnn_strata.flow import psi, random_cell_point
from tnn_strata.perms import Permutation, all_permutations, bruhat_leq
from tnn_strata.ratmat import RatMatrix, gauss_decompose

REL = 1e-12


def rel_err(got, want) -> float:
    want = np.asarray(want, dtype=np.float64)
    return float(np.abs(got - want).max() / max(1.0, np.abs(want).max()))


def fiber_cases(n, count, seed, u=None):
    """(u, xt, base, x): xt in a cell w >= u, base in the u-cell, and x =
    rho(xt) in the fiber over base, all exact; u is drawn when not given."""
    rng = random.Random(seed)
    perms = all_permutations(n)
    fixed = u
    cases = []
    while len(cases) < count:
        w, u = rng.choice(perms), fixed or rng.choice(perms)
        if not bruhat_leq(u, w):
            continue
        xt = random_cell_point(w, rng)
        base = pi_u(random_cell_point(u, rng), u)
        cases.append((u, xt, base, rho(xt, base, u)))
    return cases


def floats(m):
    return np.array(m.to_floats())


def float_field(u, base):
    """(base, M, mask) in floats for the fiber over an exact base."""
    return (floats(base), *kernels.base_field(floats(base), u))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_psi_tangent_matches_psi(n):
    for u, _, base, x in fiber_cases(n, 12, seed=n):
        base_f, M, mask = float_field(u, base)
        got = base_f @ kernels.psi_tangent(floats(base.inverse() @ x), M, mask)
        assert rel_err(got, floats(psi(x, u))) <= REL


@pytest.mark.parametrize("n", [3, 4, 5])
def test_psi_tangent_on_a_stack(n):
    u = Permutation.parse(",".join(map(str, [2, 1] + list(range(3, n + 1)))))
    base = pi_u(random_cell_point(u, random.Random(20 + n)), u)
    xs = [rho(xt, base, u) for _, xt, _, _ in fiber_cases(n, 8, seed=20 + n, u=u)]
    base_f, M, mask = float_field(u, base)
    stack = np.stack([floats(base.inverse() @ x) for x in xs])
    got = base_f @ kernels.psi_tangent(stack, M, mask)
    assert got.shape == stack.shape
    for row, x in zip(got, xs):
        assert rel_err(row, floats(psi(x, u))) <= REL


@pytest.mark.parametrize("n", [3, 4, 5])
def test_psi_tangent_vanishes_at_the_base(n):
    """At z = I the field is exactly 0, not rounding noise, so link_point
    tells a base row, which cannot move, from one that can."""
    rng = random.Random(60 + n)
    for u in all_permutations(n):
        _, M, mask = float_field(u, pi_u(random_cell_point(u, rng), u))
        assert not kernels.psi_tangent(np.eye(n), M, mask).any()


# psi_tangent solves with numpy's private gesv gufunc, not np.linalg.solve.
# These tests pin the two to each other bit for bit, so a numpy release that
# changes the private gufunc fails here and not as drift in a flow.


def unipotent_stack(rng, n, count, scale=1e6):
    """count random unit upper-triangular n x n matrices, entries up to scale."""
    return np.triu(rng.uniform(-scale, scale, (count, n, n)), 1) + np.eye(n)


def psi_tangent_by_linalg_solve(z, M, mask):
    """psi_tangent's formula with the solve through np.linalg.solve."""
    return mask * (z @ (np.linalg.solve(z, M @ z) * kernels._upper_mask(z.shape[-1], 1)))


@pytest.mark.parametrize("count", [1, 3, 23])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_psi_tangent_solve_is_linalg_solve_bit_for_bit(n, count):
    rng = np.random.default_rng(10 * n + count)
    z = unipotent_stack(rng, n, count)
    M = np.tril(rng.uniform(-n, n, (n, n)))
    mask = np.triu(rng.random((n, n)) < 0.7, 1).astype(np.float64)
    for x in (z, z[0]):
        assert np.array_equal(kernels.psi_tangent(x, M, mask), psi_tangent_by_linalg_solve(x, M, mask))
    # a nan above the diagonal of one row: that row's nans, in place, and no warning
    z[-1, 0, n - 1] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = kernels.psi_tangent(z, M, mask)
    assert np.array_equal(got, psi_tangent_by_linalg_solve(z, M, mask), equal_nan=True)
    assert np.isfinite(got[:-1]).all()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200, -1e200])
@pytest.mark.parametrize("n", [2, 4, 6])
def test_unipotent_solve_keeps_non_finite_rows(n, bad):
    """The gufunc call psi_tangent makes, on rows with a non-finite or huge
    entry in z or in the right-hand side: np.linalg.solve's output, the
    same non-finite pattern, and no warning."""
    rng = np.random.default_rng(n)
    z, rhs = unipotent_stack(rng, n, 3), rng.uniform(-1.0, 1.0, (3, n, n))
    z[1, 0, n - 1] = bad
    rhs[2, n - 1, 0] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = np.linalg._umath_linalg.solve(z, rhs, signature="dd->d")
    want = np.linalg.solve(z, rhs)
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.isfinite(got), np.isfinite(want)) and np.isfinite(got[0]).all()


@pytest.mark.parametrize("n", [3, 4, 5])
def test_fiber_A_matches_fiber_A(n):
    for u, xt, _, _ in fiber_cases(n, 12, seed=30 + n):
        assert rel_err(kernels.fiber_A(floats(xt), u), floats(fiber_A(xt, u))) <= REL


@pytest.mark.parametrize("n", [3, 4])
def test_pi_u_matches_pi_u_on_every_pair(n):
    """kernels.pi_u on a stack of one cell point per w >= u, for every u of
    S_n, against the exact projection row by row."""
    rng = random.Random(90 + n)
    perms = all_permutations(n)
    for u in perms:
        xts = [random_cell_point(w, rng) for w in perms if bruhat_leq(u, w)]
        got = kernels.pi_u(np.stack([floats(xt) for xt in xts]), u)
        assert got.shape == (len(xts), n, n)
        for row, xt in zip(got, xts):
            assert rel_err(row, floats(pi_u(xt, u))) <= REL
        assert np.array_equal(kernels.pi_u(floats(xts[0]), u), got[0])


@pytest.mark.parametrize("n", [3, 4, 5])
def test_rho_move_matches_rho(n):
    for u, xt, base, x in fiber_cases(n, 12, seed=40 + n):
        got = kernels.rho_move(floats(xt), floats(base), u)
        assert rel_err(got, floats(x)) <= REL
    # a stack (B, n, n) of points moved into one fiber
    u = Permutation.parse(",".join(map(str, [2, 1] + list(range(3, n + 1)))))
    base = pi_u(random_cell_point(u, random.Random(80 + n)), u)
    xts = [xt for _, xt, _, _ in fiber_cases(n, 8, seed=80 + n, u=u)]
    got = kernels.rho_move(np.stack([floats(xt) for xt in xts]), floats(base), u)
    assert got.shape == (len(xts), n, n)
    for row, xt in zip(got, xts):
        assert rel_err(row, floats(rho(xt, base, u))) <= REL


def random_g0(rng, n):
    """An exact matrix L D U of G_0 with small unipotent factors and a
    positive diagonal, so its float elimination is well conditioned."""
    def unipotent(upper):
        return RatMatrix.from_rows(
            [[1 if i == j else rng.randint(-3, 3) if (i < j) == upper else 0 for j in range(n)]
             for i in range(n)]
        )
    diag = RatMatrix.from_rows([[rng.randint(1, 4) if i == j else 0 for j in range(n)] for i in range(n)])
    return unipotent(False) @ diag @ unipotent(True)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_lower_and_upper_match_gauss_decompose(n):
    """_lower and _eliminate against the exact [M]_- and [M]_+, one matrix
    at a time and as one stack."""
    rng = random.Random(100 + n)
    ms = [random_g0(rng, n) for _ in range(8)]
    stack = np.stack([floats(m) for m in ms])
    lower, upper = kernels._lower(stack), kernels._eliminate(stack)
    for m, lo, up in zip(ms, lower, upper):
        fac = gauss_decompose(m)
        assert rel_err(lo, floats(fac.lower)) <= REL
        assert rel_err(up, floats(fac.upper)) <= REL
        assert np.array_equal(kernels._lower(floats(m)), lo)
        assert np.array_equal(kernels._eliminate(floats(m)), up)
