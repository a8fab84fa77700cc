import importlib
import random
from collections import Counter
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
from tnn_strata import kernels
from tnn_strata.fiber import factor_u, pi_u, rho
from tnn_strata.flow import (
    LINK_EPSILON_GUARD,
    LINK_POINT_BUDGET,
    FiberIntegrator,
    cell_of_float,
    conj_d_float,
    default_base,
    fiber_points,
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


# the package name tnn_strata.flow is the function flow, not the module
flow_module = importlib.import_module("tnn_strata.flow")


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

    def test_psi_raises_what_factor_u_raises(self):
        """psi builds only A, but rejects its input exactly as the full
        factorization does: rank mismatch, x not in N, x outside G_0 u
        (with the same witness)."""
        rng = random.Random(4)
        cases = [
            (RatMatrix.identity(3), Permutation.parse("2,1")),
            (RatMatrix.from_rows([[1, 0], [1, 1]]), Permutation.identity(2)),
            (RatMatrix.from_rows([[2, 1], [0, 1]]), Permutation.identity(2)),
        ]
        for n in (3, 4):
            for w in all_permutations(n):
                x = random_cell_point(w, rng)
                cases += [(x, u) for u in all_permutations(n) if not bruhat_leq(u, w)]
        for x, u in cases:
            with pytest.raises(PreconditionError if x.n == u.n else InvalidArgument) as want:
                factor_u(x, u)
            with pytest.raises(type(want.value)) as got:
                psi(x, u)
            assert type(got.value) is type(want.value)
            assert str(got.value) == str(want.value)
            assert getattr(got.value, "witness", None) == getattr(want.value, "witness", None)


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
        x, _, w = fiber_case(rng)
        pt = link_point(np.array(x.to_floats()), u, 1.5)
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
        out = link_point(stack, u, eps)
        assert out.shape == stack.shape
        for row, x in zip(out, stack):
            assert abs(str_of(row) - (str_of(base) + eps)) <= 1e-9
            alone = link_point(x, u, eps)
            assert np.max(np.abs(row - alone)) <= 1e-9
        assert np.array_equal(out[2], stack[2])

    # Drawn points land on their level, stay in the fiber over the base, and
    # flowing a point already on the level 1 to eps is flowing it to eps.
    @pytest.mark.parametrize("eps", [0.5, 2.0, 1e-6, 1e-9])
    @pytest.mark.parametrize("u_text, v_text", [("1,3,2", "3,2,1"), ("2,1,3,4", "4,3,2,1")])
    def test_drawn_points_land_on_level_in_fiber(self, u_text, v_text, eps):
        u, v = Permutation.parse(u_text), Permutation.parse(v_text)
        sample = link_sample(u, v, eps, 1, seed=2)
        base = np.array(sample.base.to_floats())
        on_one = np.array([pt for pt, _ in link_sample(u, v, 1.0, 1, seed=2).points])
        again = link_point(on_one, u, eps)
        u0, uinv0 = kernels.perm_arrays(u)
        for (pt, _), pt2 in zip(sample.points, again):
            assert abs(str_of(pt) - (str_of(base) + eps)) <= 1e-12
            assert np.max(np.abs(kernels.fiber_parts(pt, u0, uinv0)[0] - base)) <= 1e-9
            assert np.max(np.abs(pt2 - pt)) <= 1e-9

    # near the base the entries of a point are O(eps) or smaller; the error
    # control is relative to the displacement, so they keep relative accuracy
    @pytest.mark.parametrize("eps, bound", [(1e-7, 1e-14), (1e-9, 1e-17)])
    def test_small_epsilon_keeps_relative_accuracy(self, eps, bound):
        u, v = Permutation.parse("1,3,2"), Permutation.parse("3,2,1")
        [top] = [pt for pt, w in link_sample(u, v, eps, 1, seed=2).points if w == v]
        assert 0.0 < top[0, 2] <= bound

    def test_base_row_raises_before_any_step(self, monkeypatch):
        u, v = Permutation.parse("1,3,2"), Permutation.parse("3,2,1")
        sample = link_sample(u, v, 1.0, 1, seed=2)
        base = np.array(sample.base.to_floats())
        drawn = np.array([pt for pt, _ in sample.points])
        with np.errstate(all="raise"):
            assert np.isfinite(link_point(drawn, u, 0.5)).all()

            def no_step(self, *args):
                raise AssertionError("took a step")

            monkeypatch.setattr(FiberIntegrator, "rk_step", no_step)
            with pytest.raises(PreconditionError, match="away from its level"):
                link_point(np.concatenate([drawn, base[None]]), u, 0.5)

    @pytest.mark.parametrize("eps", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_epsilon_rejected(self, eps):
        u, v = Permutation.identity(3), Permutation.longest(3)
        with pytest.raises(InvalidArgument):
            link_point(np.eye(3), u, eps)
        with pytest.raises(InvalidArgument):
            link_sample(u, v, eps, 1, 0)

    def test_huge_epsilon_guarded_before_drawing(self, monkeypatch):
        def no_draws(w, rng):
            raise AssertionError("drew a point")

        monkeypatch.setattr(flow_module, "random_cell_point", no_draws)
        u, v = Permutation.identity(2), Permutation.longest(2)
        for eps in (LINK_EPSILON_GUARD * 1.001, 1e6, 1e300):
            with pytest.raises(RankTooLarge):
                link_sample(u, v, eps, 1, 0)
            with pytest.raises(RankTooLarge):
                link_point(np.eye(2), u, eps)

    def test_fiber_points_draw_order(self):
        # count points per stratum, strata in the order given, one shared rng
        u = Permutation.parse("1,3,2")
        w1, w2 = Permutation.parse("3,2,1"), Permutation.parse("2,3,1")
        stack, labels = fiber_points(u, [w1, w2], 2, random.Random(11))
        rng = random.Random(11)
        expect = [rho(random_cell_point(w, rng), default_base(u), u).to_floats() for w in (w1, w1, w2, w2)]
        assert labels == [w1, w1, w2, w2]
        assert np.array_equal(stack, np.array(expect))

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


class TestCallGraph:
    """The float layers each entry point goes through, counted by name: a
    traced benchmark run requires calls to these names."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = Counter()

        def counted(owner, name, key):
            real = getattr(owner, name)

            def wrapper(*args, **kwargs):
                seen[key] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        counted(FiberIntegrator, "rk_step", "rk_step")
        counted(kernels, "psi_tangent", "psi_tangent")
        counted(kernels, "rho_move", "rho_move")
        return seen

    def test_link_sample_reaches_the_kernel(self, calls):
        link_sample(Permutation.identity(3), Permutation.longest(3), 1.0, 1, seed=0)
        assert calls["rk_step"] > 0 and calls["psi_tangent"] > 0

    def test_flow_reaches_the_kernels(self, calls):
        x = np.array([[1.0, 2.0, 1.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]])
        flow(x, Permutation.identity(3), "backward")
        assert min(calls["rk_step"], calls["psi_tangent"], calls["rho_move"]) > 0

    # A step evaluates the field 6 times: its first stage is the last stage
    # of the step before.  link_point evaluates it once more at the start,
    # flow once at the start and once after each reprojection.
    def test_link_point_reuses_the_last_stage(self, calls):
        link_sample(Permutation.identity(3), Permutation.longest(3), 1.0, 2, seed=0)
        assert calls["rk_step"] > 0
        assert calls["psi_tangent"] == 6 * calls["rk_step"] + 1

    @pytest.mark.parametrize("direction", ["backward", "forward"])
    def test_flow_reuses_the_last_stage(self, calls, direction):
        x = np.array([[1.0, 2.0, 1.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]])
        flow(x, Permutation.identity(3), direction, target_str=str_of(x) + 2.0)
        assert calls["rho_move"] > 0
        assert calls["psi_tangent"] == 6 * calls["rk_step"] + 1 + calls["rho_move"]


# The Dormand-Prince 5(4) pair, stage by stage, as the oracle of rk_step.
DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
DP_B5 = DP_A[6] + (0.0,)
DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)


def dp_oracle(integ, x, h):
    """(x5, per-row error, stages, error bound) of one Dormand-Prince step,
    summing each stage's increment term by term.  The error estimate is a
    sum whose terms nearly cancel, so it is exact only to rounding of its
    terms' magnitudes: the bound is that magnitude, scaled like the error."""
    h = np.asarray(h, dtype=np.float64)
    if h.ndim:
        h = h[:, None, None]
    k = [integ.rhs(x)]
    for s in range(1, 7):
        k.append(integ.rhs(x + h * sum(a * ki for a, ki in zip(DP_A[s], k))))
    x5 = x + h * sum(b * ki for b, ki in zip(DP_B5[:6], k))
    weights = [b5 - b4 for b5, b4 in zip(DP_B5, DP_B4)]
    delta = h * sum(e * ki for e, ki in zip(weights, k))
    terms = np.abs(h) * sum(abs(e) * np.abs(ki) for e, ki in zip(weights, k))
    scale = integ.tol * integ.error_scale(x5)
    err = np.abs(delta).max(axis=(-2, -1)) / scale
    return x5, err, k, terms.max(axis=(-2, -1)) / scale


def level_field_stack():
    """A _LevelField over the S3 u = 1,3,2 base and a stack of drawn
    points in fiber coordinates, with one step per row."""
    u, v = Permutation.parse("1,3,2"), Permutation.parse("3,2,1")
    sample = link_sample(u, v, 1.0, 2, seed=2)
    base = np.array(sample.base.to_floats())
    z = np.linalg.solve(base, np.array([pt for pt, _ in sample.points]))
    integ = flow_module._LevelField(u, base)
    return integ, z, np.linspace(0.05, 0.2, len(z))


def one_matrix_field():
    rng = random.Random(11)
    x, u, _ = fiber_case(rng, n=4)
    while x == pi_u(x, u):
        x, u, _ = fiber_case(rng, n=4)
    integ = FiberIntegrator(u, np.array(pi_u(x, u).to_floats()))
    return integ, np.array(x.to_floats()), 0.03


class TestRkStep:
    @pytest.mark.parametrize("case", [one_matrix_field, level_field_stack])
    def test_last_stage_is_the_field_at_x5(self, case):
        integ, x, h = case()
        x5, _, k7 = integ.rk_step(x, h)
        assert k7.shape == x.shape
        assert np.array_equal(k7, integ.rhs(x5))
        # the carried stage starts the next step as the field would
        assert all(
            np.array_equal(a, b) for a, b in zip(integ.rk_step(x5, h, k7), integ.rk_step(x5, h))
        )

    @pytest.mark.parametrize("case", [one_matrix_field, level_field_stack])
    def test_fused_step_matches_stage_sums(self, case):
        integ, x, h = case()
        x5, err, k7 = integ.rk_step(x, h)
        want_x5, want_err, k, bound = dp_oracle(integ, x, h)
        assert np.abs(x5 - want_x5).max() <= 1e-14 * np.abs(want_x5).max()
        assert abs(err - want_err.max()) <= 1e-14 * bound.max()
        assert np.abs(k7 - k[6]).max() <= 1e-14 * max(1.0, np.abs(k[6]).max())

    def test_nan_last_stage_rejects_the_step(self, monkeypatch):
        integ, z, h = level_field_stack()
        field = integ.rhs
        seen = []

        def last_stage_nan(x):
            seen.append(x)
            d = field(x)
            if len(seen) == 7:  # the field at x5
                d[1] = np.nan
            return d

        monkeypatch.setattr(integ, "rhs", last_stage_nan)
        x5, err, k7 = integ.rk_step(z, h)
        assert np.isfinite(x5).all() and np.isnan(k7[1]).all()
        assert np.isnan(err) and not err <= 1.0
        seen.clear()
        want_x5, want_err, _, _ = dp_oracle(integ, z, h)
        assert np.isnan(want_err[1])
        assert np.abs(x5 - want_x5).max() <= 1e-14 * np.abs(want_x5).max()


class TestRetraction:
    def test_endpoints(self):
        u = Permutation.identity(3)
        v = Permutation.longest(3)
        rng = random.Random(9)
        z = random_cell_point(v, rng)
        sample = link_sample(u, v, 1.0, 2, seed=3)
        tops = [pt for pt, w in sample.points if w == v][:4]
        ends = []
        for pt in tops:
            r0 = retraction(pt, 0.0, u, v, z, 1.0)
            assert np.max(np.abs(r0 - pt)) < 1e-6
            ends.append(retraction(pt, 1.0, u, v, z, 1.0))
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
            retraction(sample.points[0][0], 0.5, u, v, bad, 1.0)


    def test_bad_tau_rejected_before_target(self):
        u, v = Permutation.identity(3), Permutation.longest(3)
        bad = RatMatrix.from_rows([[1, -1, 0], [0, 1, 0], [0, 0, 1]])
        for tau in (-0.5, 1.5, float("nan")):
            with pytest.raises(InvalidArgument, match="tau"):
                retraction(np.eye(3), tau, u, v, bad, 1.0)

    # with u = v the moved point is the base, where the field vanishes: the
    # level set is never reached
    @pytest.mark.parametrize("u, v", [("1,2,3", "1,2,3"), ("2,1,3", "1,3,2"), ("3,2,1", "1,2,3")])
    def test_u_not_below_v_rejected(self, u, v):
        u, v = Permutation.parse(u), Permutation.parse(v)
        z = default_base(Permutation.longest(3))
        with pytest.raises(NotComparable):
            retraction(np.eye(3), 0.5, u, v, z, 1.0)

    def test_point_off_the_tnn_part_rejected(self):
        # the field lowers str at the moved point, so the level is never
        # reached: the first step away from it raises
        x = np.array([[1.0, -8 / 7, -5 / 7], [0.0, 1.0, -4 / 3], [0.0, 0.0, 1.0]])
        u, v = Permutation.identity(3), Permutation.parse("2,1,3")
        z = RatMatrix.from_rows([[1, 2, 1], [0, 1, 2], [0, 0, 1]])
        with pytest.raises(PreconditionError, match="away from its level"):
            retraction(x, 0.1, u, v, z, 0.1)

    def test_rank_mismatch_rejected(self):
        u, v = Permutation.identity(3), Permutation.longest(3)
        z = default_base(v)
        with pytest.raises(InvalidArgument, match="rank mismatch"):
            retraction(np.eye(4), 0.5, u, v, z, 1.0)
        with pytest.raises(InvalidArgument, match="rank mismatch"):
            retraction(np.eye(3), 0.5, u, v, RatMatrix.identity(2), 1.0)
        with pytest.raises(InvalidArgument, match="rank mismatch"):
            retraction(np.eye(3), 0.5, u, Permutation.longest(4), z, 1.0)


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
