"""The identities behind the float field in fiber coordinates, exactly.

For x = x_u z in the fiber over the base x_u, with z = x^u:
z lies in N(u); A = y z, where y = A at the base (there x^u = I);
x_u^-1 psi(x) = z pi_n(z^-1 M z) with M = y^-1 nu y lower triangular; and
str(x) = str(x_u) + str(z).  kernels.psi_tangent evaluates the third in
floats.
"""

import random

import pytest

from tnn_strata.fiber import fiber_A, pi_u, rho
from tnn_strata.flow import nu_matrix, pi_n, psi, random_cell_point, str_of
from tnn_strata.perms import all_permutations, bruhat_leq
from tnn_strata.ratmat import in_N_of_w


def fiber_points(n, count, seed):
    """(u, base, x): x = rho(xt) in the fiber over a base of the u-cell."""
    rng = random.Random(seed)
    perms = all_permutations(n)
    points = []
    while len(points) < count:
        w, u = rng.choice(perms), rng.choice(perms)
        if bruhat_leq(u, w):
            base = pi_u(random_cell_point(u, rng), u)
            points.append((u, base, rho(random_cell_point(w, rng), base, u)))
    return points


@pytest.mark.parametrize("n", [3, 4, 5])
def test_fiber_coordinate_identities(n):
    for u, base, x in fiber_points(n, 60, seed=50 + n):
        z = base.inverse() @ x
        assert in_N_of_w(z, u)
        y = fiber_A(base, u)
        assert fiber_A(x, u) == y @ z
        M = y.inverse() @ nu_matrix(n) @ y
        assert all(M.rows[i][j] == 0 for i in range(n) for j in range(i + 1, n))
        assert base.inverse() @ psi(x, u) == z @ pi_n(z.inverse() @ M @ z)
        assert str_of(x) == str_of(base) + str_of(z)
