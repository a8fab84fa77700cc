"""The float kernels against the exact maps they mirror, one matrix at a
time and as a stack."""

import random

import numpy as np
import pytest

from tnn_strata import kernels
from tnn_strata.fiber import factor_u, pi_u, rho
from tnn_strata.flow import psi, random_cell_point
from tnn_strata.perms import Permutation, all_permutations, bruhat_leq

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
    u0, uinv0 = kernels.perm_arrays(u)
    return (floats(base), *kernels.base_field(floats(base), u0, uinv0))


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


@pytest.mark.parametrize("n", [3, 4, 5])
def test_fiber_parts_matches_factor_u(n):
    for u, xt, _, _ in fiber_cases(n, 12, seed=30 + n):
        u0, uinv0 = kernels.perm_arrays(u)
        x_u, x_upper, A = kernels.fiber_parts(floats(xt), u0, uinv0)
        frame = factor_u(xt, u)
        assert rel_err(x_u, floats(frame.x_u)) <= REL
        assert rel_err(x_upper, floats(frame.x_upper_u)) <= REL
        assert rel_err(A, floats(frame.A)) <= REL


@pytest.mark.parametrize("n", [3, 4, 5])
def test_rho_move_matches_rho(n):
    for u, xt, base, x in fiber_cases(n, 12, seed=40 + n):
        u0, uinv0 = kernels.perm_arrays(u)
        got = kernels.rho_move(floats(xt), floats(base), u0, uinv0)
        assert rel_err(got, floats(x)) <= REL
    # a stack (B, n, n) of points moved into one fiber
    u = Permutation.parse(",".join(map(str, [2, 1] + list(range(3, n + 1)))))
    base = pi_u(random_cell_point(u, random.Random(80 + n)), u)
    xts = [xt for _, xt, _, _ in fiber_cases(n, 8, seed=80 + n, u=u)]
    u0, uinv0 = kernels.perm_arrays(u)
    got = kernels.rho_move(np.stack([floats(xt) for xt in xts]), floats(base), u0, uinv0)
    assert got.shape == (len(xts), n, n)
    for row, xt in zip(got, xts):
        assert rel_err(row, floats(rho(xt, base, u))) <= REL


def test_ldu_factors_reconstruct():
    rng = np.random.default_rng(0)
    M = rng.uniform(1.0, 2.0, size=(5, 4, 4)) + 4.0 * np.eye(4)
    lower, upper = kernels.ldu_factors(M)
    d = np.linalg.solve(lower, M) @ np.linalg.inv(upper)
    assert np.allclose(np.tril(lower, -1) + np.eye(4), lower)
    assert np.allclose(np.triu(upper, 1) + np.eye(4), upper)
    assert np.allclose(d, d * np.eye(4))
