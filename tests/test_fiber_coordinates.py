"""The identities behind the float field in fiber coordinates, exactly.

For x = x_u z in the fiber over the base x_u, with z = x^u:
z lies in N(u); A = y z, where y = A at the base (there x^u = I);
x_u^-1 psi(x) = z pi_n(z^-1 M z) with M = y^-1 nu y lower triangular; and
str(x) = str(x_u) + str(z).  kernels.psi_tangent evaluates the third in
floats.  Since y depends on the base alone, the shift that rho needs is
n_1 = y_t^-1 y and n_- = [A(xt)^-1 A(x_u)]_-, which kernels.rho_move
evaluates in floats.
"""

import random

import pytest

from tnn_strata.fiber import factor_u, fiber_A, pi_u, recover_shift, rho
from tnn_strata.flow import nu_matrix, pi_n, psi, random_cell_point, str_of
from tnn_strata.perms import all_permutations, bruhat_leq
from tnn_strata.ratmat import in_N_of_w

from conftest import rho_by_frame


def fiber_points(n, count, seed):
    """(u, base, xt, x): xt in a cell w >= u and x = rho(xt) in the fiber
    over a base of the u-cell."""
    rng = random.Random(seed)
    perms = all_permutations(n)
    points = []
    while len(points) < count:
        w, u = rng.choice(perms), rng.choice(perms)
        if bruhat_leq(u, w):
            base = pi_u(random_cell_point(u, rng), u)
            xt = random_cell_point(w, rng)
            points.append((u, base, xt, rho(xt, base, u)))
    return points


@pytest.mark.parametrize("n", [3, 4, 5])
def test_fiber_coordinate_identities(n):
    for u, base, _, x in fiber_points(n, 60, seed=50 + n):
        z = base.inverse() @ x
        assert in_N_of_w(z, u)
        y = fiber_A(base, u)
        assert fiber_A(x, u) == y @ z
        M = y.inverse() @ nu_matrix(n) @ y
        assert all(M.rows[i][j] == 0 for i in range(n) for j in range(i + 1, n))
        assert base.inverse() @ psi(x, u) == z @ pi_n(z.inverse() @ M @ z)
        assert str_of(x) == str_of(base) + str_of(z)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_rho_shift_from_fiber_A(n):
    """rho, which forms n_- from A(xt)^-1 A(x_u), is the map derived from
    the factorization xt = xt_u xt^u and the shift n_1 = y_t^-1 y."""
    for u, base, xt, x in fiber_points(n, 50, seed=70 + n):
        assert x == rho_by_frame(xt, base, u)
        frame = factor_u(xt, u)
        assert recover_shift(base, frame.x_u, u) == frame.y.inverse() @ factor_u(base, u).y
