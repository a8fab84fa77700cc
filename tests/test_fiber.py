import random
from fractions import Fraction

import pytest

from tnn_strata.cells import cell_of, is_tnn
from tnn_strata.errors import (
    CellMismatch,
    InvalidArgument,
    NonPositiveTau,
    NotInG0u,
    NotUnipotentUpper,
)
from tnn_strata.fiber import conj_d, factor_u, pi_u, recover_shift, rho
from tnn_strata.flow import random_cell_point
from tnn_strata.perms import Permutation, all_permutations, bruhat_leq
from tnn_strata.ratmat import RatMatrix, in_N_of_w, minor, mul_perm_right


def fiber_case(rng, n=4):
    """Random (x, u) with x in a cell above u."""
    perms = all_permutations(n)
    while True:
        w = perms[rng.randrange(len(perms))]
        u = perms[rng.randrange(len(perms))]
        if bruhat_leq(u, w):
            return random_cell_point(w, rng), u, w


class TestFactorU:
    def test_product_and_memberships(self):
        rng = random.Random(11)
        for _ in range(40):
            x, u, w = fiber_case(rng)
            fr = factor_u(x, u)
            assert fr.x_u @ fr.x_upper_u == x
            assert cell_of(fr.x_u) == u
            assert is_tnn(fr.x_u)
            assert in_N_of_w(fr.x_upper_u, u)

    def test_projection_idempotent(self):
        rng = random.Random(5)
        x, u, _ = fiber_case(rng)
        assert pi_u(pi_u(x, u), u) == pi_u(x, u)

    def test_rejects_non_unipotent(self):
        with pytest.raises(NotUnipotentUpper):
            factor_u(RatMatrix.from_rows([[1, 0], [1, 1]]), Permutation.identity(2))

    def test_rejects_point_below_u(self):
        u = Permutation.parse("2,1,3")
        with pytest.raises(NotInG0u):
            factor_u(RatMatrix.identity(3), u)


@pytest.mark.parametrize(
    "u", all_permutations(3) + all_permutations(4), ids=lambda u: u.serialize()
)
def test_factor_u_rejects_exactly_outside_G0u(u):
    """factor_u raises NotInG0u iff x u^-1 has a vanishing leading principal
    minor, with the size of the first one as its witness; for x in the
    w-cell that happens iff u is not below w."""
    rng = random.Random(3)
    for w in all_permutations(u.n):
        x = random_cell_point(w, rng)
        y = mul_perm_right(x, u.inverse())
        witness = next(
            (k for k in range(1, u.n + 1) if minor(y, range(1, k + 1), range(1, k + 1)) == 0),
            None,
        )
        assert (witness is None) == bruhat_leq(u, w)
        if witness is None:
            fr = factor_u(x, u)
            assert fr.x_u @ fr.x_upper_u == x
        else:
            with pytest.raises(NotInG0u) as info:
                factor_u(x, u)
            assert info.value.witness == witness


class TestRho:
    def test_moves_fiber_and_preserves_cell(self):
        rng = random.Random(23)
        for _ in range(30):
            xt, u, w = fiber_case(rng)
            target = (
                random_cell_point(u, rng)
                if u.length
                else RatMatrix.identity(xt.n)
            )
            x = rho(xt, target, u)
            assert pi_u(x, u) == target
            assert cell_of(x) == w
            assert is_tnn(x)

    def test_inverse_pair(self):
        rng = random.Random(31)
        for _ in range(20):
            xt, u, _ = fiber_case(rng)
            a = pi_u(xt, u)
            b = (
                random_cell_point(u, rng)
                if u.length
                else RatMatrix.identity(xt.n)
            )
            assert rho(rho(xt, b, u), a, u) == xt

    def test_fixes_fiber_points(self):
        rng = random.Random(41)
        xt, u, _ = fiber_case(rng)
        assert rho(xt, pi_u(xt, u), u) == xt

    def test_cell_mismatch_rejected(self):
        rng = random.Random(43)
        u = Permutation.parse("2,1,3,4")
        xt = random_cell_point(Permutation.longest(4), rng)
        bad_base = RatMatrix.identity(4)  # identity is not in the u-cell
        with pytest.raises(CellMismatch):
            rho(xt, bad_base, u)

    def test_rank_mismatch_rejected(self):
        rng = random.Random(47)
        xt = random_cell_point(Permutation.longest(3), rng)
        u = Permutation.parse("2,1,3")
        with pytest.raises(InvalidArgument, match="rank mismatch"):
            factor_u(xt, Permutation.parse("2,1"))
        with pytest.raises(InvalidArgument, match="rank mismatch"):
            rho(xt, RatMatrix.identity(2), u)

    def test_sl3_closed_forms(self):
        rng = random.Random(47)
        u = Permutation.parse("2,1,3")
        for _ in range(25):
            p, q = (
                Fraction(rng.randint(1, 9), rng.randint(1, 9)),
                Fraction(rng.randint(1, 9), rng.randint(1, 9)),
            )
            r = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            a = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            xt = RatMatrix.from_rows([[1, p, q], [0, 1, r], [0, 0, 1]])
            base = RatMatrix.from_rows([[1, a, 0], [0, 1, 0], [0, 0, 1]])
            x = rho(xt, base, u)
            assert x[(1, 2)] == a
            assert x[(1, 3)] == a * q / p
            assert x[(2, 3)] == (p * r - q) / a + q / p

    def test_recover_shift_identity_on_same_point(self):
        rng = random.Random(53)
        u = Permutation.parse("2,1,3")
        x = random_cell_point(u, rng)
        assert recover_shift(x, x, u) == RatMatrix.identity(3)


class TestConjD:
    def test_scaling_pattern(self):
        x = RatMatrix.from_rows([[1, 2, 3], [0, 1, 5], [0, 0, 1]])
        tau = Fraction(1, 3)
        y = conj_d(tau, x)
        assert y[(1, 2)] == 2 * tau
        assert y[(1, 3)] == 3 * tau**2
        assert y[(2, 3)] == 5 * tau

    def test_group_action(self):
        x = RatMatrix.from_rows([[1, 2], [0, 1]])
        assert conj_d(Fraction(2), conj_d(Fraction(3), x)) == conj_d(Fraction(6), x)

    def test_rejects_nonpositive(self):
        with pytest.raises(NonPositiveTau):
            conj_d(Fraction(0), RatMatrix.identity(2))
