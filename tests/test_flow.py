import random
from fractions import Fraction

import numpy as np
import pytest

from tnn_strata.errors import (
    InvalidArgument,
    NotComparable,
    PreconditionError,
    RankTooLarge,
    StratumEscape,
    UndecidableRank,
    ZNotInYgeqV,
)
from tnn_strata.fiber import pi_u, rho
from tnn_strata.flow import (
    LINK_POINT_BUDGET,
    FiberIntegrator,
    cell_of_float,
    conj_d_float,
    default_base,
    flow,
    link_point,
    link_sample,
    nu_matrix,
    pi_n,
    psi,
    random_cell_point,
    retraction,
    sign_lemma_check,
    str_of,
)
from tnn_strata.perms import Permutation, all_permutations, bruhat_leq, interval
from tnn_strata.ratmat import RatMatrix, conj_by_perm, gauss_plus, mul_perm_right


def fiber_case(rng, n=3):
    perms = all_permutations(n)
    while True:
        w = perms[rng.randrange(len(perms))]
        u = perms[rng.randrange(len(perms))]
        if bruhat_leq(u, w):
            return random_cell_point(w, rng), u, w


class TestField:
    def test_str_of_exact_and_float(self):
        x = RatMatrix.from_rows([[1, 2, 0], [0, 1, 3], [0, 0, 1]])
        assert str_of(x) == Fraction(5)
        assert str_of(np.array(x.to_floats())) == pytest.approx(5.0)

    def test_pi_n_strictly_upper(self):
        m = RatMatrix.from_rows([[1, 2], [3, 4]])
        p = pi_n(m)
        assert p[(1, 2)] == 2 and p[(1, 1)] == 0 and p[(2, 1)] == 0

    def test_psi_vanishes_at_base(self):
        rng = random.Random(1)
        for u in all_permutations(3):
            base = pi_u(random_cell_point(u, rng), u)
            assert psi(base, u) == RatMatrix.from_rows([[0] * 3] * 3)

    def test_psi_strictly_increases_str_off_base(self):
        rng = random.Random(2)
        hits = 0
        while hits < 20:
            x, u, w = fiber_case(rng)
            x = rho(x, pi_u(x, u), u)
            if x == pi_u(x, u):
                continue
            assert str_of(psi(x, u)) > 0
            hits += 1


class TestSigns:
    def test_sign_lemma_on_random_cases(self):
        rng = random.Random(3)
        for _ in range(30):
            x, u, _ = fiber_case(rng)
            A = conj_by_perm(u, gauss_plus(mul_perm_right(x, u.inverse())))
            rep = sign_lemma_check(A, u)
            assert not rep.violations
            assert rep.str_value >= 0


class TestFlow:
    def test_backward_reaches_base(self):
        rng = random.Random(4)
        for _ in range(5):
            x, u, _ = fiber_case(rng)
            base = pi_u(x, u)
            traj = flow(np.array(x.to_floats()), u, "backward")
            dist = np.max(np.abs(traj[-1].point - np.array(base.to_floats())))
            assert dist < 1e-6

    def test_forward_str_monotone(self):
        rng = random.Random(5)
        x, u, w = fiber_case(rng)
        while x == pi_u(x, u):
            x, u, w = fiber_case(rng)
        x0 = np.array(x.to_floats())
        traj = flow(x0, u, "forward", target_str=str_of(x0) + 2.0)
        strs = [s.str_value for s in traj]
        assert all(b > a for a, b in zip(strs, strs[1:]))

    def test_stratum_invariant(self):
        rng = random.Random(6)
        x, u, w = fiber_case(rng)
        x0 = np.array(x.to_floats())
        traj = flow(x0, u, "forward", target_str=str_of(x0) + 1.0)
        assert all(s.stratum == w for s in traj)

    def test_bad_arguments_rejected(self):
        u = Permutation.identity(3)
        with pytest.raises(InvalidArgument, match="rank mismatch"):
            flow(np.eye(3), Permutation.identity(4), "backward")
        with pytest.raises(InvalidArgument, match="max_steps"):
            flow(np.eye(3), u, "backward", max_steps=0)


class TestCellOfFloat:
    def test_agrees_with_exact(self):
        rng = random.Random(7)
        for w in all_permutations(3):
            x = random_cell_point(w, rng)
            assert cell_of_float(np.array(x.to_floats())) == w

    def test_minor_between_thresholds_is_undecidable(self):
        x = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1e-10], [0.0, 0.0, 1.0]])
        with pytest.raises(UndecidableRank):
            cell_of_float(x)

    def test_minor_below_both_thresholds_reads_zero(self):
        x = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1e-14], [0.0, 0.0, 1.0]])
        assert cell_of_float(x) == Permutation.parse("2,1,3")


# Backward flows that pass close to the base with snapshots above
# STRATUM_CHECK_FLOOR, where the minors that tell the stratum from the u-cell
# shrink like a power of the height and a rank test at tol 1e-8 misreads them
# (a changed label, or a rank table that decodes to no permutation).
NEAR_BASE_REPROS = [
    (
        "3,2,1,4",
        [["1", "73/15", "79/20", "21/20"], ["0", "1", "9/4", "7/8"],
         ["0", "0", "1", "1/2"], ["0", "0", "0", "1"]],
    ),
    (
        "1,3,2,4",
        [["1", "127/72", "63/32", "63/20"], ["0", "1", "9/4", "18/5"],
         ["0", "0", "1", "8/5"], ["0", "0", "0", "1"]],
    ),
]


class TestStratumCheck:
    @pytest.mark.parametrize("u_text, entries", NEAR_BASE_REPROS)
    def test_backward_flow_near_base_reaches_base(self, u_text, entries):
        x = RatMatrix.from_json_obj({"n": 4, "entries": entries})
        u = Permutation.parse(u_text)
        base = np.array(pi_u(x, u).to_floats())
        traj = flow(np.array(x.to_floats()), u, "backward")
        assert np.max(np.abs(traj[-1].point - base)) <= 1e-6

    def test_changed_label_raises(self, monkeypatch):
        # a reprojection that fills x23 moves the point out of the s1 cell
        def leave_cell(self, x):
            y = x.copy()
            y[1, 2] += 1.0
            return y

        monkeypatch.setattr(FiberIntegrator, "reproject", leave_cell)
        x0 = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(StratumEscape):
            flow(
                x0,
                Permutation.identity(3),
                "forward",
                target_str=10.0,
                snapshot_every=10,
            )


class TestLink:
    def test_link_point_hits_level(self):
        rng = random.Random(8)
        u = Permutation.identity(3)
        base = default_base(u)
        x, _, w = fiber_case(rng)
        pt = link_point(
            np.array(x.to_floats()),
            u,
            Permutation.longest(3),
            1.5,
            base=np.array(base.to_floats()),
        )
        assert abs(str_of(pt) - 1.5) <= 1e-9

    def test_link_sample_labels(self):
        u = Permutation.identity(3)
        v = Permutation.longest(3)
        sample = link_sample(u, v, 1.0, 2, seed=0)
        labels = {w for _, w in sample.points}
        assert labels == {w for w in interval(u, v).elements if w != u}
        assert sorted(sample.dimensions.values()) == [0, 0, 1, 1, 2]
        for pt, _ in sample.points:
            assert abs(str_of(pt) - 1.0) <= 1e-9

    def test_stacked_rows_below_above_and_on_level(self):
        u, v = Permutation.identity(3), Permutation.longest(3)
        base = np.array(default_base(u).to_floats())
        stack = np.array(
            [
                [[1.0, 0.2, 0.0], [0.0, 1.0, 0.1], [0.0, 0.0, 1.0]],
                [[1.0, 3.0, 3.0], [0.0, 1.0, 2.0], [0.0, 0.0, 1.0]],
                [[1.0, 1.0, 0.5], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]],
            ]
        )
        eps = str_of(stack[2]) - str_of(base)
        out = link_point(stack, u, v, eps, base=base)
        assert out.shape == stack.shape
        for row, x in zip(out, stack):
            assert abs(str_of(row) - (str_of(base) + eps)) <= 1e-9
            alone = link_point(x, u, v, eps, base=base)
            assert np.max(np.abs(row - alone)) <= 1e-9
        assert np.array_equal(out[2], stack[2])

    @pytest.mark.parametrize("eps", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_epsilon_rejected(self, eps):
        u, v = Permutation.identity(3), Permutation.longest(3)
        base = np.array(default_base(u).to_floats())
        with pytest.raises(InvalidArgument):
            link_point(np.eye(3), u, v, eps, base=base)
        with pytest.raises(InvalidArgument):
            link_sample(u, v, eps, 1, 0)

    def test_point_budget_checked_before_drawing(self):
        u, v = Permutation.identity(2), Permutation.longest(2)
        with pytest.raises(RankTooLarge):
            link_sample(u, v, 1.0, 10**8, 0)
        u, v = Permutation.identity(4), Permutation.longest(4)  # 23 strata
        with pytest.raises(RankTooLarge):
            link_sample(u, v, 1.0, LINK_POINT_BUDGET // 23 + 1, 0)

    def test_incomparable_rejected(self):
        with pytest.raises(NotComparable):
            link_sample(
                Permutation.parse("2,1,3"), Permutation.parse("1,3,2"), 1.0, 1, 0
            )


class TestRetraction:
    def test_endpoints(self):
        u = Permutation.identity(3)
        v = Permutation.longest(3)
        rng = random.Random(9)
        base = np.array(default_base(u).to_floats())
        z = random_cell_point(v, rng)
        sample = link_sample(u, v, 1.0, 2, seed=3)
        tops = [pt for pt, w in sample.points if w == v][:4]
        ends = []
        for pt in tops:
            r0 = retraction(pt, 0.0, u, v, z, 1.0, base=base)
            assert np.max(np.abs(r0 - pt)) < 1e-6
            ends.append(retraction(pt, 1.0, u, v, z, 1.0, base=base))
        spread = max(
            np.max(np.abs(a - b)) for a in ends for b in ends
        )
        assert spread < 1e-6

    def test_bad_target_rejected(self):
        u = Permutation.identity(3)
        v = Permutation.longest(3)
        bad = RatMatrix.from_rows([[1, -1, 0], [0, 1, 0], [0, 0, 1]])
        sample = link_sample(u, v, 1.0, 1, seed=1)
        with pytest.raises(ZNotInYgeqV):
            retraction(
                sample.points[0][0],
                0.5,
                u,
                v,
                bad,
                1.0,
                base=np.array(default_base(u).to_floats()),
            )


    def test_bad_tau_rejected_before_target(self):
        u, v = Permutation.identity(3), Permutation.longest(3)
        bad = RatMatrix.from_rows([[1, -1, 0], [0, 1, 0], [0, 0, 1]])
        base = np.array(default_base(u).to_floats())
        for tau in (-0.5, 1.5, float("nan")):
            with pytest.raises(InvalidArgument, match="tau"):
                retraction(np.eye(3), tau, u, v, bad, 1.0, base=base)

    # with u = v the moved point is the base, where the field vanishes: the
    # level set is never reached
    @pytest.mark.parametrize("u, v", [("1,2,3", "1,2,3"), ("2,1,3", "1,3,2"), ("3,2,1", "1,2,3")])
    def test_u_not_below_v_rejected(self, u, v):
        u, v = Permutation.parse(u), Permutation.parse(v)
        z = default_base(Permutation.longest(3))
        base = np.array(default_base(u).to_floats())
        with pytest.raises(NotComparable):
            retraction(np.eye(3), 0.5, u, v, z, 1.0, base=base)

    def test_point_off_the_tnn_part_rejected(self):
        # the field lowers str at the moved point, so the level is never
        # reached: the first step away from it raises
        x = np.array([[1.0, -8 / 7, -5 / 7], [0.0, 1.0, -4 / 3], [0.0, 0.0, 1.0]])
        u, v = Permutation.identity(3), Permutation.parse("2,1,3")
        z = RatMatrix.from_rows([[1, 2, 1], [0, 1, 2], [0, 0, 1]])
        base = np.array(default_base(u).to_floats())
        with pytest.raises(PreconditionError, match="away from its level"):
            retraction(x, 0.1, u, v, z, 0.1, base=base)

    def test_rank_mismatch_rejected(self):
        u, v = Permutation.identity(3), Permutation.longest(3)
        z = default_base(v)
        base = np.array(default_base(u).to_floats())
        with pytest.raises(InvalidArgument, match="rank mismatch"):
            retraction(np.eye(4), 0.5, u, v, z, 1.0, base=base)
        with pytest.raises(InvalidArgument, match="rank mismatch"):
            retraction(np.eye(3), 0.5, u, v, RatMatrix.identity(2), 1.0, base=base)
        with pytest.raises(InvalidArgument, match="rank mismatch"):
            retraction(np.eye(3), 0.5, u, Permutation.longest(4), z, 1.0, base=base)


class TestConjDFloat:
    def test_tau_zero_collapses(self):
        x = np.array([[1.0, 2.0], [0.0, 1.0]])
        assert np.array_equal(conj_d_float(0.0, x), np.eye(2))

    def test_matches_exact(self):
        x = RatMatrix.from_rows([[1, 2, 3], [0, 1, 5], [0, 0, 1]])
        from tnn_strata.fiber import conj_d

        exact = np.array(conj_d(Fraction(1, 3), x).to_floats())
        assert np.allclose(conj_d_float(1 / 3, np.array(x.to_floats())), exact)


class TestNu:
    def test_nu_matrix(self):
        nu = nu_matrix(3)
        assert [nu[(i, i)] for i in (1, 2, 3)] == [3, 2, 1]
