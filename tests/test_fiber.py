import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tnn_strata import fiber, ratmat
from tnn_strata.cells import cell_of, is_tnn
from tnn_strata.errors import (
    CellMismatch,
    InvalidArgument,
    NonPositiveTau,
    NotInG0u,
    NotUnipotentUpper,
    Singular,
)
from tnn_strata.fiber import base_A, conj_d, factor_u, fiber_A, pi_u, recover_shift, rho, rho_over
from tnn_strata.flow import random_cell_point
from tnn_strata.perms import Permutation, all_permutations, bruhat_leq
from tnn_strata.ratmat import (
    RatMatrix,
    gauss_decompose,
    in_N_of_w,
    in_Nminus_of_w,
    minor,
    mul_perm_right,
)

from conftest import rho_by_frame, shift_by_frame


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


# --- oracle: rho through the factorization of xt (rho_by_frame and
# shift_by_frame, in conftest.py), a second derivation of the map that rho
# computes from the shift A(xt)^-1 A(x_u) ----------------------------------


def outcome(f, *args):
    try:
        return f(*args)
    except Exception as exc:
        return type(exc), str(exc)


def cell_point(w, rng):
    return random_cell_point(w, rng) if w.length else RatMatrix.identity(w.n)


class TestRhoOracle:
    @pytest.mark.parametrize("n", [3, 4])
    def test_every_pair_matches_the_frame_derivation(self, n):
        rng = random.Random(60 + n)
        perms = all_permutations(n)
        for w in perms:
            for u in perms:
                if bruhat_leq(u, w):
                    for _ in range(3):
                        xt, base = random_cell_point(w, rng), cell_point(u, rng)
                        assert rho(xt, base, u) == rho_by_frame(xt, base, u)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.integers(2, 5).flatmap(lambda n: st.tuples(
        st.sampled_from(all_permutations(n)), st.sampled_from(all_permutations(n)),
        st.none() | st.sampled_from(all_permutations(n)), st.integers(0, 2**32),
    )))
    def test_matches_the_frame_derivation(self, case):
        """On any w, u and base cell v (u when None), rho and its oracle
        give the same point or the same error: outside G_0 u when u is not
        below w, a cell mismatch when v is not u."""
        w, u, v, seed = case
        rng = random.Random(seed)
        xt, base = cell_point(w, rng), cell_point(u if v is None else v, rng)
        assert outcome(rho, xt, base, u) == outcome(rho_by_frame, xt, base, u)

    def test_errors_match_the_frame_derivation(self):
        rng = random.Random(71)
        u, w = Permutation.parse("2,1,3,4"), Permutation.longest(4)
        xt, base = random_cell_point(w, rng), random_cell_point(u, rng)
        not_N = RatMatrix([list(r[:3]) + [1] for r in xt.rows[:3]] + [[1, 0, 0, 1]])
        singular = RatMatrix([[0, 0, 0, 0]] + [list(r) for r in base.rows[1:]])
        cases = {
            "xt not in N": (not_N, base, NotUnipotentUpper),
            "xt outside G_0 u": (RatMatrix.identity(4), base, NotInG0u),
            "wrong size": (xt, RatMatrix.identity(3), InvalidArgument),
            "base of another cell": (xt, random_cell_point(Permutation.parse("1,3,2,4"), rng), CellMismatch),
            "singular base": (xt, singular, Singular),
            "both bad": (not_N, RatMatrix.identity(3), NotUnipotentUpper),
            "both bad, singular base": (RatMatrix.identity(4), singular, NotInG0u),
        }
        for name, (x, b, cls) in cases.items():
            got = outcome(rho, x, b, u)
            assert got == outcome(rho_by_frame, x, b, u), name
            assert isinstance(got, tuple) and issubclass(got[0], cls), (name, got)

    def test_recover_shift_off_the_cell(self):
        """For xt in a cell above w the shift is A(xt)^-1 A(x_w); on the
        w-cell it is the frame's n_1 in N_-(w)."""
        rng = random.Random(73)
        for u in all_permutations(4):
            xt, base = random_cell_point(Permutation.longest(4), rng), cell_point(u, rng)
            shift = recover_shift(base, xt, u)
            assert shift == fiber_A(xt, u).inverse() @ fiber_A(base, u)
            on_cell = factor_u(xt, u).x_u
            n_1 = recover_shift(base, on_cell, u)
            assert n_1 == shift_by_frame(base, on_cell, u)
            assert in_Nminus_of_w(n_1, u)

    def test_base_outside_N_rejected(self):
        """A base in the u-cell but not unipotent: the frame derivation
        returned a point outside the fiber over it."""
        rng = random.Random(79)
        u = Permutation.parse("2,1,3")
        xt, base = random_cell_point(Permutation.longest(3), rng), random_cell_point(u, rng)
        doubled = RatMatrix([[2 * v for v in base.rows[0]]] + [list(r) for r in base.rows[1:]])
        assert cell_of(doubled) == u
        assert pi_u(rho_by_frame(xt, doubled, u), u) != doubled
        with pytest.raises(NotUnipotentUpper, match="^expected a unipotent upper-triangular matrix$"):
            rho(xt, doubled, u)

    def test_five_eliminations_at_n6(self, eliminations):
        """fiber_A of xt and of the base, the base's cell (rank gate and
        table pass), and the one elimination of the shift: 5."""
        rng = random.Random(83)
        u = Permutation.parse("2,1,4,3,6,5")
        xt, base = random_cell_point(Permutation.longest(6), rng), random_cell_point(u, rng)
        eliminations.clear()
        rho(xt, base, u)
        assert len(eliminations) == 5

    # Points moved over one base check it and build its A once: rho_over
    # leaves out the base's fiber_A and cell (3 eliminations), and takes
    # xt's A, one elimination.
    def test_rho_over_a_checked_base_is_rho(self, eliminations):
        rng = random.Random(89)
        for n in (3, 4):
            perms = all_permutations(n)
            for u, w in ((u, w) for u in perms for w in perms if bruhat_leq(u, w)):
                xt, base = cell_point(w, rng), cell_point(u, rng)
                assert rho_over(fiber_A(xt, u), base, base_A(base, u), u) == rho(xt, base, u)
        u = Permutation.parse("2,1,4,3,6,5")
        xt, base = random_cell_point(Permutation.longest(6), rng), random_cell_point(u, rng)
        a_u = base_A(base, u)
        eliminations.clear()
        rho_over(fiber_A(xt, u), base, a_u, u)
        assert len(eliminations) == 2


# rho's exact path is x_u [n_1]_+^-1, from one back substitution for the
# shift n_1 and one elimination of it (fiber._move); the oracle is
# rho_by_frame's [xt n_-]_+.
ORACLE_TAUS = (Fraction(1), Fraction(3, 7), Fraction(2**29 + 1, 2**30))

_shift_of = fiber._shift_of
MUTANTS = {
    # [n_1]_+^-1 x_u: the substitution on the wrong side
    "unit_right_solve": lambda x, p: p.inverse() @ x,
    # A(x_u)^-1 A(xt): the shift the other way round
    "_shift_of": lambda a, a_u, u: _shift_of(a_u, a, u),
}


class TestRhoClosedForm:
    def test_every_pair_matches_the_oracle_and_mutants_fail(self, monkeypatch):
        """On every S3-S5 pair u <= w at each tau, rho(conj_d(tau, xt)) is
        the frame derivation's point, and [n_1]_0 = I, so the move needs no
        diagonal factor; each mutant of the move fails on some case."""
        rng = random.Random(97)
        cases = []
        for n in (3, 4, 5):
            perms = all_permutations(n)
            for w in perms:
                for u in perms:
                    if bruhat_leq(u, w):
                        x, base = cell_point(w, rng), cell_point(u, rng)
                        cases.extend((conj_d(t, x), base, u) for t in ORACLE_TAUS)
        assert len(cases) == 3 * 4013
        expected = [rho_by_frame(*c) for c in cases]
        assert [rho(*c) for c in cases] == expected
        for xt, base, u in cases[::7]:
            n_1 = recover_shift(base, xt, u)
            assert gauss_decompose(n_1).diag == RatMatrix.identity(u.n)
        for name, mutant in MUTANTS.items():
            with monkeypatch.context() as m:
                m.setattr(fiber, name, mutant)
                assert any(rho(*c) != y for c, y in zip(cases, expected)), name

    def test_no_inverse_and_no_gauss_minus(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("called on the exact rho path")

        rng = random.Random(101)
        cases = []
        for u in all_permutations(4):
            xt, base = random_cell_point(Permutation.longest(4), rng), cell_point(u, rng)
            cases.append((xt, base, u, fiber_A(xt, u), base_A(base, u), rho_by_frame(xt, base, u)))
        monkeypatch.setattr(RatMatrix, "inverse", refuse)
        monkeypatch.setattr(ratmat, "gauss_minus", refuse)
        for xt, base, u, a, a_u, expected in cases:
            assert rho(xt, base, u) == rho_over(a, base, a_u, u) == expected

    def test_backward_flow_frame_identities(self):
        """What backward flow reads off factor_u(x0, u): the A of conj_d(tau,
        x0) is conj_d(tau, A), and the A of the base x_u is y."""
        rng = random.Random(103)
        for n in (3, 4):
            perms = all_permutations(n)
            for u, w in ((u, w) for u in perms for w in perms if bruhat_leq(u, w)):
                x, tau = cell_point(w, rng), ORACLE_TAUS[rng.randrange(3)]
                fr = factor_u(x, u)
                assert fiber_A(conj_d(tau, x), u) == conj_d(tau, fr.A)
                assert base_A(fr.x_u, u) == fr.y


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
