import functools
import importlib
import math
import random
import statistics
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from tnn_strata.errors import (
    FlowError,
    InvalidArgument,
    MaxStepsExceeded,
    NotComparable,
    NotInG0u,
    NotUnipotentUpper,
    PreconditionError,
    RankTooLarge,
    StepUnderflow,
    StratumEscape,
    UndecidableRank,
    ZNotInYgeqV,
)
from tnn_strata import kernels
from tnn_strata.cells import cell_of, lusztig_point
from tnn_strata.fiber import (
    base_A,
    conj_d,
    factor_u,
    fiber_A,
    nu_matrix,
    pi_n,
    pi_u,
    psi,
    rho,
    rho_over,
    sign_lemma_check,
    str_of,
)
from tnn_strata.flow import (
    LEVEL_TOL,
    LINK_EPSILON_GUARD,
    LINK_POINT_BUDGET,
    RANK_TOL,
    RANK_ZERO_TOL,
    STATIONARY_TOL,
    FiberIntegrator,
    FlowState,
    cell_of_float,
    conj_d_float,
    default_base,
    fiber_points,
    flow,
    link_census,
    link_point,
    link_sample,
    random_cell_point,
    retraction,
)
from tnn_strata.perms import (
    INTERVAL_GUARD,
    Permutation,
    all_permutations,
    bruhat_leq,
    bruhat_less,
    decode_rank_jumps,
    interval,
    reduced_word,
)
from tnn_strata.ratmat import RatMatrix, conj_by_perm, gauss_plus, mul_perm_right


# x0 outside G_0 u, and the size of the first vanishing leading principal
# minor of x0 u^-1: the identity, and the 2,1,3-cell point with x12 = 1
G0U_CASES = [
    ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], "2,1,3", 1),
    ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], "1,3,2", 2),
    ([[1, 1, 0], [0, 1, 0], [0, 0, 1]], "3,1,2", 2),
]

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

    def test_str_of_result_types(self):
        """A RatMatrix gives a Fraction, one float matrix (also as nested
        lists) a Python float, and a stack an array, one value per row."""
        rows = [[1, 2, 0], [0, 1, 3], [0, 0, 1]]
        exact = str_of(RatMatrix.from_rows(rows))
        assert type(exact) is Fraction and exact == 5
        for one in (rows, np.array(rows, dtype=np.float64)):
            got = str_of(one)
            assert type(got) is float and got == 5.0
        stack = str_of(np.array([rows, np.eye(3)]))
        assert isinstance(stack, np.ndarray) and stack.tolist() == [5.0, 0.0]

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

    def test_psi_scales_columns_as_nu(self):
        """psi scales the columns of A^-1 by nu instead of multiplying by
        the diagonal nu_matrix: the same Fractions as x pi_n(A^-1 nu A)."""
        rng = random.Random(16)
        for n in (2, 3, 4, 5):
            for _ in range(10):
                x, u, _w = fiber_case(rng, n)
                A = factor_u(x, u).A
                assert psi(x, u) == x @ pi_n(A.inverse() @ nu_matrix(n) @ A)

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

    # The forward step is capped at 1.1 times the time the current rate of
    # str needs to reach the target.  Over the flows benchmark's inputs at
    # seeds 1, 7 and 14, every reported end point, re-projected, lies at or
    # above the target: by 0.27 at most and 0.039 in the median, measured
    # (2.4 and 0.32 without the cap).
    def test_forward_lands_just_past_its_target(self):
        over = []
        for seed in (1, 7, 14):
            for u, x0 in flows_inputs(seed):
                target = str_of(x0) + 2.0
                over.append(flow(x0, u, "forward", target_str=target)[-1].str_value - target)
        assert min(over) >= 0.0
        assert max(over) <= 0.5 and statistics.median(over) <= 0.1

    def test_stratum_invariant(self):
        rng = random.Random(6)
        x, u, w = fiber_case(rng)
        x0 = np.array(x.to_floats())
        traj = flow(x0, u, "forward", target_str=str_of(x0) + 1.0)
        assert all(s.stratum == w for s in traj)

    # x0 outside N, by its diagonal and below it: checked before its label
    @pytest.mark.parametrize("x0", [[[2, 1, 1], [0, 1, 1], [0, 0, 1]], [[1, 1, 1], [0, 1, 1], [1, 0, 1]]])
    def test_x0_outside_N_rejected(self, x0):
        with pytest.raises(NotUnipotentUpper):
            flow(np.array(x0, dtype=float), Permutation.identity(3), "backward")

    def test_bad_arguments_rejected(self):
        with pytest.raises(InvalidArgument, match="rank mismatch"):
            flow(np.eye(3), Permutation.identity(4), "backward")

    # checked before any work: before the shape and before the field
    @pytest.mark.parametrize("direction", ["sideways", "Backward", ""])
    def test_unknown_direction_rejected(self, direction, monkeypatch):
        monkeypatch.setattr(kernels, "pi_u", None)
        for x in (np.eye(3), np.eye(4)):
            with pytest.raises(InvalidArgument, match="direction"):
                flow(x, Permutation.identity(3), direction)

    # A forward flow to height T meets entries of about T^(n-1): at n = 3 a
    # target of 1e200 overflowed, with numpy warnings, into StepUnderflow.
    # T^(n-1) above the square root of the float range is rejected before
    # any step.
    def test_forward_target_beyond_the_float_guard_rejected(self, monkeypatch):
        x0 = np.array([[1.0, 2.0, 1.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]])
        u = Permutation.identity(3)
        bound = sys.float_info.max ** 0.25
        with np.errstate(all="raise"):
            assert flow(x0, u, "forward", target_str=bound)[-1].str_value >= bound
        monkeypatch.setattr(kernels, "pi_u", None)
        for target in (np.nextafter(bound, math.inf), 1e200, 1e300):
            with pytest.raises(RankTooLarge, match="target_str"):
                flow(x0, u, "forward", target_str=target)


    # The field vanishes exactly at the base, so no forward step can rise
    # from it: the 3x3 identity over u = e once spent the whole step budget
    # (12 s) before MaxStepsExceeded.
    def test_forward_from_a_stationary_point_raises_before_any_step(self, monkeypatch):
        monkeypatch.setattr(FiberIntegrator, "rk_step", None)
        with pytest.raises(PreconditionError, match="field vanishes"):
            flow(np.eye(3), Permutation.identity(3), "forward", target_str=3.0)
        assert len(flow(np.eye(3), Permutation.identity(3), "forward", target_str=0.0)) == 1

    # The floats of a Lusztig point of u round it off the u-cell, so their
    # exact height over their base, str(x^u), is rounding noise, below
    # STATIONARY_TOL: x0 is its own base in both directions.  Backward
    # reports x0 alone, and forward raises before any step.  A float test
    # of the field once let 9 of these 28 flow from the noise or fail in
    # it (FlowError, StratumEscape).
    def test_forward_from_a_rounded_base_point_raises_before_any_step(self, monkeypatch):
        monkeypatch.setattr(FiberIntegrator, "rk_step", None)
        rng = random.Random(0)
        us = [u for n in (3, 4) for u in all_permutations(n) if u.length > 0]
        assert len(us) == 28
        for u in us:
            params = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(u.length)]
            x0 = np.array(lusztig_point(reduced_word(u), params).matrix.to_floats())
            with pytest.raises(PreconditionError, match="field vanishes at x0, the base of its fiber"):
                flow(x0, u, "forward", target_str=str_of(x0) + 2.0)
            assert len(flow(x0, u, "backward")) == 1

    # flow decides G_0 u by the exact factorization, as project does, so its
    # NotInG0u names the same witness: the size of the first vanishing
    # leading principal minor of x0 u^-1
    @pytest.mark.parametrize("rows, u_text, witness", G0U_CASES)
    def test_outside_G0u_names_the_witness(self, rows, u_text, witness):
        x, u = RatMatrix.from_rows(rows), Permutation.parse(u_text)
        with pytest.raises(NotInG0u) as want:
            factor_u(x, u)
        assert want.value.witness == witness
        for direction in ("backward", "forward"):
            with pytest.raises(NotInG0u) as got:
                flow(np.array(x.to_floats()), u, direction, target_str=5.0)
            assert got.value.witness == witness and str(got.value) == str(want.value)

    # An accepted step that leaves z unchanged bit for bit would repeat
    # until the step budget runs out.
    def test_step_that_leaves_z_unchanged_raises(self, monkeypatch):
        steps = []

        def stalled(self, z, h, k):
            steps.append(h)
            return z.copy(), 0.0, k

        monkeypatch.setattr(FiberIntegrator, "rk_step", stalled)
        x = np.array([[1.0, 2.0, 1.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]])
        with pytest.raises(StepUnderflow, match="leaves z unchanged"):
            flow(x, Permutation.identity(3), "forward", target_str=10.0)
        assert len(steps) == 1


class TestStepBudget:
    # forward flow and link_point loop up to the one MAX_STEPS: with a
    # budget of one step, a flow or a climb that needs a step raises past it
    def test_flow_and_link_point_share_the_budget(self, monkeypatch):
        x = np.array([[1.0, 2.0, 1.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]])
        u = Permutation.identity(3)
        monkeypatch.setattr(flow_module, "MAX_STEPS", 1)
        with pytest.raises(MaxStepsExceeded, match="flow did not terminate in 1 steps"):
            flow(x, u, "forward", target_str=str_of(x) + 2.0)
        with pytest.raises(MaxStepsExceeded, match="link_point did not reach its level in 1 steps"):
            link_point(x, u, 0.5)


class TestCellOfFloat:
    def test_agrees_with_exact(self):
        rng = random.Random(7)
        for w in all_permutations(3):
            x = random_cell_point(w, rng)
            assert cell_of_float(np.array(x.to_floats())) == w

    # As str_of, flow and link_point: an array-like reads as its array.
    def test_nested_lists_read_as_their_array(self):
        one = [[1.0, 2.0], [0.0, 1.0]]
        assert cell_of_float(one) == cell_of_float(np.array(one)) == Permutation.parse("2,1")
        stack = [one, [[1.0, 0.0], [0.0, 1.0]]]
        labels = [Permutation.parse("2,1"), Permutation.identity(2)]
        assert cell_of_float(stack) == cell_of_float(np.array(stack)) == labels

    def test_minor_between_thresholds_is_undecidable(self):
        x = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1e-10], [0.0, 0.0, 1.0]])
        with pytest.raises(UndecidableRank):
            cell_of_float(x)

    # As cell_of: above INTERVAL_GUARD it stops before its first SVD.
    def test_guarded_above_interval_guard(self, monkeypatch):
        assert cell_of_float(np.eye(INTERVAL_GUARD)) == Permutation.identity(INTERVAL_GUARD)
        monkeypatch.setattr(np.linalg._umath_linalg, "svd", None)
        for x in (np.eye(INTERVAL_GUARD + 1), np.eye(INTERVAL_GUARD + 1)[None]):
            with pytest.raises(RankTooLarge):
                cell_of_float(x)

    def test_minor_below_both_thresholds_reads_zero(self):
        x = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1e-14], [0.0, 0.0, 1.0]])
        assert cell_of_float(x) == Permutation.parse("2,1,3")

    # cell_of_float calls LAPACK's SVD gufunc itself: on every block shape
    # it reads, 1 x k and k x 1 included, it gives np.linalg.svd's values to
    # the bit, on full-rank cell points and on rank-deficient stacks.
    @pytest.mark.parametrize("n", range(1, 7))
    def test_direct_svd_is_numpys_bit_for_bit(self, n):
        rng = random.Random(n)
        cell_points = [random_cell_point(Permutation.longest(n), rng).to_floats() for _ in range(3)]
        np_rng = np.random.default_rng(n)
        low = np_rng.standard_normal((3, n, 1)) @ np_rng.standard_normal((3, 1, n))
        stack = np.concatenate([np.array(cell_points, dtype=float), low, np.eye(n)[None], np.zeros((1, n, n))])
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                block = stack[:, :i, j - 1 :]
                direct = np.linalg._umath_linalg.svd(block, signature="d->d")
                assert direct.tobytes() == np.linalg.svd(block, compute_uv=False).tobytes()

    # gesdd's failure shows as an invalid flag, as np.sqrt(-1) raises one:
    # np.linalg.svd's error settings turn it into LinAlgError.
    def test_non_converging_svd_raises(self, monkeypatch):
        def fails(a, signature):
            return np.sqrt(np.full(a.shape[:-2] + (min(a.shape[-2:]),), -1.0))

        monkeypatch.setattr(np.linalg._umath_linalg, "svd", fails)
        with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
            cell_of_float(np.eye(3))

    # The census rows all read decidably; one constructed row, with a
    # minor between the cuts, reaches the fallback.
    def test_stack_matches_the_per_row_rule(self, s4_census_rows):
        x, drawn = s4_census_rows
        assert len(x) == 567
        between_cuts = np.eye(4)
        between_cuts[0, 1], between_cuts[1, 2] = 1.0, 1e-10
        x, drawn = np.concatenate([x, between_cuts[None]]), drawn + [Permutation.parse("2,3,1,4")]
        oracle = [per_row_label(p, w) for p, w in zip(x, drawn)]
        assert sum(per_row_label(p, None) is None for p in x) > 0  # the fallback is reached
        assert cell_of_float(x, drawn) == oracle

    def test_one_row_stack_is_the_one_matrix_call(self, s4_census_rows):
        x, drawn = s4_census_rows
        for p, w in zip(x, drawn):
            assert cell_of_float(p[None], [w]) == [cell_of_float(p, w)]

    def test_stack_mixes_decidable_and_undecidable_rows(self):
        w = Permutation.parse("2,3,1")
        decidable = np.array(random_cell_point(w, random.Random(3)).to_floats())
        between_cuts = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1e-10], [0.0, 0.0, 1.0]])
        no_permutation = np.ones((3, 3))  # every top-right rank is 1
        fallback = [Permutation.parse(t) for t in ("1,2,3", "1,3,2", "3,2,1")]
        stack = np.array([decidable, between_cuts, no_permutation])
        assert cell_of_float(stack, fallback) == [w, fallback[1], fallback[2]]
        with pytest.raises(UndecidableRank, match=r"rank of x\[:2, 1:\] is undecidable"):
            cell_of_float(stack)
        with pytest.raises(UndecidableRank, match="decodes to no permutation"):
            cell_of_float(stack[[0, 2, 1]])

    # The known float-label defect.  On the exact orbit of op 13 of the
    # flows benchmark at seed 14, 1.0e-3 and 1.5e-3 above the base, the
    # correctly rounded floats of a top-cell point read as 3,4,2,1,
    # decidably: at t = -8.3743 sigma_3/sigma_1 of x[:3, 1:] is 6.9e-14,
    # below RANK_ZERO_TOL, while the exact minor det x[1..3 | 2..4] is 4.9e-12.
    @pytest.mark.parametrize("t", [-8.3743, -8.0])
    def test_orbit_point_near_the_base_is_top_cell(self, t):
        assert cell_of(seed_14_orbit_point(t)) == Permutation.longest(4)

    @pytest.mark.xfail(raises=AssertionError, strict=True, reason="the correctly rounded floats read as 3,4,2,1")
    @pytest.mark.parametrize("t", [-8.3743, -8.0])
    def test_orbit_point_near_the_base_reads_top_cell(self, t):
        y = np.array(seed_14_orbit_point(t).to_floats())
        assert cell_of_float(y) == Permutation.longest(4)

    def test_empty_stack(self):
        assert cell_of_float(np.empty((0, 3, 3))) == []
        assert cell_of_float(np.empty((0, 3, 3)), []) == []

    # One SVD per top-right submatrix, over the whole stack: a reader that
    # went back to one row at a time would make B times as many.
    @pytest.mark.parametrize("rows", [1, 7, 40])
    def test_a_stack_costs_n_squared_svd_calls(self, svd_calls, rows):
        rng = random.Random(rows)
        x = np.array([random_cell_point(Permutation.longest(4), rng).to_floats() for _ in range(rows)])
        cell_of_float(x)
        assert len(svd_calls) == 16

    def test_link_census_labels_its_points_in_one_stack(self, svd_calls):
        u, v = Permutation.identity(3), Permutation.longest(3)
        points = link_sample(u, v, 1.0, 3, seed=0).points
        svd_calls.clear()
        census = link_census(u, v, points)
        assert len(points) == 15 and sum(census.counts.values()) == 15
        assert len(svd_calls) == 9


def per_row_label(x, fallback):
    """One matrix's label by one SVD per submatrix, or ``fallback`` where it
    is undecidable: the rule of the stacked reader, row by row, as its oracle."""
    n = x.shape[0]
    r = np.zeros((n + 1, n + 2), dtype=int)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            sv = np.linalg.svd(x[:i, j - 1 :], compute_uv=False)
            scale = max(1.0, sv[0])
            r[i][j] = int(np.sum(sv > RANK_TOL * scale))
            if r[i][j] != int(np.sum(sv > RANK_ZERO_TOL * scale)):
                return fallback
    try:
        return decode_rank_jumps(r)
    except ValueError:
        return fallback


@pytest.fixture(scope="module")
def s4_census_rows():
    """The rows that the S4 link-census suite labels at seed 0: one point
    per stratum above each u, flowed to the radii 0.5, 1 and 2 in turn,
    stacked, with their drawn labels."""
    rng = random.Random(0)
    perms = all_permutations(4)
    stacks, drawn = [], []
    for u in perms:
        above = [w for w in perms if bruhat_less(u, w)]
        if not above:
            continue
        x, labels = fiber_points(u, above, 1, rng, 0.5)
        for eps in (0.5, 1.0, 2.0):
            x = link_point(x, u, eps)
            stacks.append(x)
            drawn += labels
    return np.concatenate(stacks), drawn


@pytest.fixture
def svd_calls(monkeypatch):
    """One entry per call of LAPACK's SVD gufunc made during the test, the
    one cell_of_float calls directly and numpy.linalg.svd calls."""
    calls, real = [], np.linalg._umath_linalg.svd

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg._umath_linalg, "svd", counted)
    return calls


# Points whose backward orbits pass close to the base, where the minors that
# tell the stratum from the u-cell shrink like a power of the height and a
# rank test at tol 1e-8 misreads them (a changed label, or a rank table that
# decodes to no permutation): backward flow reads no label past x0.
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


def flows_seed_14_op_13():
    """u and x0 of op 13 of the flows benchmark at seed 14: a top-cell point
    of S4 in its own fiber over u = 3,1,2,4."""
    u, w = Permutation.parse("3,1,2,4"), Permutation.longest(4)
    params = [Fraction(p) for p in ("7", "1", "8/5", "6/5", "9/4", "1/9")]
    xt = lusztig_point(reduced_word(w), params).matrix
    x0 = rho(xt, pi_u(xt, u), u)
    assert x0.rows[0] == (1, Fraction(374, 45), Fraction(509, 20), Fraction(56, 5))
    return u, x0


# rho(xt, x_u, u) is rho_over(fiber_A(xt, u), x_u, base_A(x_u, u), u): one
# base_A per base
_base_A = functools.cache(base_A)


def exact_orbit_point(u, x0, x_u, t) -> RatMatrix:
    """rho(conj_d(e^t, x0), x_u, u): the point that flow(x0, u) reaches at
    time t, with e^t the exact rational of its float."""
    xt = conj_d(Fraction(math.exp(t)), x0)
    return rho_over(fiber_A(xt, u), x_u, _base_A(x_u, u), u)


def seed_14_orbit_point(t) -> RatMatrix:
    """The exact orbit point at time t of op 13 of the flows benchmark at
    seed 14, x0 read as the exact rationals of its floats."""
    u, x0 = flows_seed_14_op_13()
    x0 = RatMatrix.from_rows(x0.to_floats())
    return exact_orbit_point(u, x0, pi_u(x0, u), t)


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
        def leave_cell(xt, x_u, u):
            y = xt.copy()
            y[1, 2] += 1.0
            return y

        monkeypatch.setattr(kernels, "rho_move", leave_cell)
        monkeypatch.setattr(flow_module, "SNAPSHOT_EVERY", 2)
        x0 = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(StratumEscape):
            flow(x0, Permutation.identity(3), "forward", target_str=10.0)

    # Op 13 of the flows benchmark at seed 14.  Its exact orbit passes a
    # top-cell point 1.02e-3 above the base that cell_of_float misreads
    # (TestCellOfFloat's strict xfail); backward flow reads no label past x0.
    def test_flows_seed_14_op_13_reaches_base(self):
        u, x0 = flows_seed_14_op_13()
        base = np.array(pi_u(x0, u).to_floats())
        traj = flow(np.array(x0.to_floats()), u, "backward")
        assert np.max(np.abs(traj[-1].point - base)) <= 1e-6


class TestBackwardOrbit:
    """Backward flow is one exact point of x0's torus orbit, at a dyadic
    tau below STATIONARY_TOL / (2 h0), h0 the height of x0."""

    @pytest.mark.parametrize("u_text, entries", NEAR_BASE_REPROS)
    def test_end_is_the_exact_orbit_point_below_the_tolerance(self, u_text, entries):
        x = np.array(RatMatrix.from_json_obj({"n": 4, "entries": entries}).to_floats())
        u = Permutation.parse(u_text)
        start, end = flow(x, u, "backward")
        x0 = RatMatrix.from_rows(x.tolist())
        x_u = pi_u(x0, u)
        tau = Fraction(math.exp(end.time))
        h0 = str_of(x0) - str_of(x_u)
        assert STATIONARY_TOL / (2 * h0) * (1 - 2**-28) <= tau <= STATIONARY_TOL / (2 * h0) * (1 + 1e-14)
        y = rho(conj_d(tau, x0), x_u, u)
        assert np.abs(end.point - np.array(y.to_floats())).max() <= 1e-15
        assert 0 < str_of(y) - str_of(x_u) < STATIONARY_TOL
        assert start.point is not x and (start.point == x).all() and start.time == 0.0
        assert start.stratum == end.stratum == cell_of_float(x)

    def test_point_at_its_base_is_the_whole_flow(self):
        x = np.array(default_base(Permutation.parse("2,3,1")).to_floats())
        assert len(flow(x, Permutation.parse("2,3,1"), "backward")) == 1

    # tau = 1e-10 / (2 h0) is about 5e-311 here, a subnormal float, and
    # exact all the same: the time is the log of its numerator less that of
    # its denominator.  (Float labels are undecidable this far from the
    # base, so the orbit is evaluated from a given start and its frame.)
    def test_huge_entries_do_not_overflow_the_orbit(self):
        x = np.array([[1.0, 1e300, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        u, w = Permutation.identity(3), Permutation.parse("2,1,3")
        start = FlowState(x, 0.0, str_of(x), w)
        _, end = flow_module._orbit_end(start, factor_u(RatMatrix.from_rows(x.tolist()), u), u)
        log_tau = math.log(STATIONARY_TOL / 2) - math.log(1e300)  # less 2^-28 at most, by the rounding
        assert log_tau - 2**-28 - 1e-12 <= end.time <= log_tau + 1e-12
        assert STATIONARY_TOL / 2 * (1 - 2**-28) <= end.point[0, 1] <= STATIONARY_TOL / 2
        assert end.str_value == end.point[0, 1] and end.stratum == w

    # negative control: an orbit that does not come down raises at once
    def test_end_above_the_tolerance_raises(self, monkeypatch):
        monkeypatch.setattr(flow_module, "conj_d", lambda tau, x: x)
        x = np.array([[1.0, 2.0, 1.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]])
        with pytest.raises(FlowError, match="not below STATIONARY_TOL"):
            flow(x, Permutation.identity(3), "backward")


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
        for (pt, _), pt2 in zip(sample.points, again):
            assert abs(str_of(pt) - (str_of(base) + eps)) <= 1e-12
            assert np.max(np.abs(kernels.pi_u(pt, u) - base)) <= 1e-9
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
        with pytest.raises(InvalidArgument):
            fiber_points(u, [v], 1, random.Random(0), eps)

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

    # count points per stratum, strata in the order given, one shared rng;
    # a covering stratum's rows are rho of the drawn points, bit for bit,
    # and every other row starts elsewhere on the same trajectory, so it
    # flows to the same link point
    def test_fiber_points_draw_order(self):
        u = Permutation.parse("1,3,2")
        w1, w2 = Permutation.parse("3,2,1"), Permutation.parse("2,3,1")
        rng = random.Random(11)
        expect = np.array(
            [rho(random_cell_point(w, rng), default_base(u), u).to_floats() for w in (w1, w1, w2, w2)]
        )
        for eps in (0.5, 1e-6):
            stack, labels = fiber_points(u, [w1, w2], 2, random.Random(11), eps)
            assert labels == [w1, w1, w2, w2]
            assert np.array_equal(stack[2:], expect[2:])
            assert not np.array_equal(stack[:2], expect[:2])
            gap = np.abs(link_point(stack[:2], u, eps) - link_point(expect[:2], u, eps)).max()
            assert gap <= 1e-12

    # Every row flows to its level, however close it starts: link points
    # of eps = 1e-9 lie 5e-10 off the level 1.5e-9, well inside LEVEL_TOL,
    # and land on it.
    def test_row_near_its_level_lands_on_it(self):
        u, v, eps = Permutation.parse("2,1,3,4"), Permutation.longest(4), 1e-9
        sample = link_sample(u, v, eps, 1, seed=2)
        rows = np.array([pt for pt, _ in sample.points])
        level = str_of(np.array(sample.base.to_floats())) + eps + 5e-10
        gap = np.abs(str_of(rows) - level)
        assert (gap > 4e-10).all() and (gap <= LEVEL_TOL).all()
        assert np.abs(str_of(link_point(rows, u, eps + 5e-10)) - level).max() <= 1e-13

    # A secant step that overshoots toward the base is not taken: at eps =
    # 1e-9 the row drawn in 4,1,3,2 over u = 1,3,4,2 would start at float
    # height 0, its offsets from the base lost to rounding, and land 4.3e-10
    # from its link point.
    def test_jump_below_half_the_level_is_not_taken(self):
        u, eps = Permutation.parse("1,3,4,2"), 1e-9
        strata = list(link_census(u, Permutation.longest(4)).dimensions)
        stack, _ = fiber_points(u, strata, 1, random.Random(0), eps)
        rng = random.Random(0)
        at_one = np.array([rho(random_cell_point(w, rng), default_base(u), u).to_floats() for w in strata])
        assert np.abs(link_point(stack, u, eps) - link_point(at_one, u, eps)).max() <= 1e-12

    # An estimate that fails on every row (a float pivot of exactly zero)
    # leaves each row at tau = 1: rho of its drawn point.
    def test_failed_estimate_keeps_tau_one(self, monkeypatch):
        def singular(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(kernels, "rho_move", singular)
        u, w = Permutation.parse("1,3,2"), Permutation.parse("3,2,1")
        stack, _ = fiber_points(u, [w], 2, random.Random(11), 0.5)
        rng = random.Random(11)
        expect = [rho(random_cell_point(w, rng), default_base(u), u).to_floats() for _ in range(2)]
        assert np.array_equal(stack, np.array(expect))

    def test_fiber_points_checks_its_base_once_per_u(self, monkeypatch):
        fiber_module = importlib.import_module("tnn_strata.fiber")
        seen = []
        monkeypatch.setattr(fiber_module, "cell_of", lambda x: seen.append(x) or cell_of(x))
        flow_module._link_base.cache_clear()
        u, strata = Permutation.parse("1,3,2,4"), [Permutation.longest(4), Permutation.parse("2,3,1,4")]
        for seed in (0, 1):
            fiber_points(u, strata, 3, random.Random(seed), 1.0)
        assert seen == [default_base(u)]

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
        flow(x, Permutation.identity(3), "forward", target_str=str_of(x) + 2.0)
        assert min(calls["rk_step"], calls["psi_tangent"], calls["rho_move"]) > 0

    # Backward flow evaluates its torus orbit in exact arithmetic: no step,
    # no float field and no re-projection.
    def test_backward_flow_integrates_nothing(self, calls):
        x = np.array([[1.0, 2.0, 1.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]])
        assert len(flow(x, Permutation.identity(3), "backward")) == 2
        assert calls == Counter()

    # A step evaluates the field 12 times: its first stage is the last stage
    # of the step before.  link_point and forward flow evaluate it once
    # more, at the start; flow re-projects each point it reports after x0,
    # and only those.
    def test_link_point_reuses_the_last_stage(self, calls):
        link_sample(Permutation.identity(3), Permutation.longest(3), 1.0, 2, seed=0)
        assert calls["rk_step"] > 0
        assert calls["psi_tangent"] == 12 * calls["rk_step"] + 1

    def test_flow_reuses_the_last_stage(self, calls):
        x = np.array([[1.0, 2.0, 1.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]])
        traj = flow(x, Permutation.identity(3), "forward", target_str=str_of(x) + 2.0)
        assert calls["psi_tangent"] == 12 * calls["rk_step"] + 1
        assert calls["rho_move"] == len(traj) - 1 > 0

    # Re-projecting only the reported points leaves the trajectory as it
    # was: the same steps, and endpoints within rounding.
    def test_snapshot_cadence_leaves_the_flow(self, calls, monkeypatch):
        x = np.array([[1.0, 2.0, 1.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]])
        steps, ends = [], []
        for every in (1, 50, 10**6):
            calls.clear()
            monkeypatch.setattr(flow_module, "SNAPSHOT_EVERY", every)
            traj = flow(x, Permutation.parse("2,1,3"), "forward", target_str=str_of(x) + 2.0)
            steps.append(calls["rk_step"])
            ends.append(traj[-1].point)
        assert steps[0] == steps[1] == steps[2] > 0
        for end in ends[1:]:
            assert np.abs(end - ends[0]).max() <= 1e-12 * max(1.0, np.abs(ends[0]).max())

    # The link of a covering pair u < v is one point: link_point's first
    # step, the whole climb, is accepted.
    @pytest.mark.parametrize("n", [3, 4])
    def test_covering_pair_climbs_in_one_step(self, calls, n):
        perms = all_permutations(n)
        covers = [(u, v) for u in perms for v in perms if bruhat_less(u, v) and v.length == u.length + 1]
        for u, v in covers:
            calls.clear()
            link_sample(u, v, 0.5, 1, seed=0)
            assert (calls["rk_step"], calls["psi_tangent"]) == (1, 13), (u, v)

    # A drawn point that is not on a covering stratum starts near its level
    # on its own trajectory, so the 23 rows of the S4 link of e need not
    # descend from heights up to about 20 in a hundred steps.
    @pytest.mark.parametrize("eps", [0.5, 1.0, 2.0])
    def test_tall_stack_finishes_in_a_few_steps(self, calls, eps):
        link_sample(Permutation.identity(4), Permutation.longest(4), eps, 1, 0)
        assert 0 < calls["rk_step"] <= 3

    def test_link_sample_reads_its_interval_once(self, monkeypatch):
        seen = []
        perms_module = importlib.import_module("tnn_strata.perms")
        monkeypatch.setattr(perms_module, "interval", lambda u, v: seen.append(1) or interval(u, v))
        link_sample(Permutation.identity(4), Permutation.longest(4), 1.0, 1, seed=0)
        assert len(seen) == 1


class TestNextStep:
    """The step controller: a finite error scales h by 0.9 err^(-1/6) within
    [0.2, 5]; a non-finite one, from a stage that left the field's domain,
    shrinks h by 0.2."""

    @pytest.mark.parametrize("err", [float("nan"), float("inf")])
    def test_non_finite_error_shrinks_by_a_fifth(self, err):
        assert flow_module._next_step(0.5, err, "test") == 0.5 * 0.2
        assert flow_module._next_step(-0.5, err, "test") == -0.5 * 0.2

    @pytest.mark.parametrize("err", [0.0, 1e-20, 1e-6, 0.3, 1.0, 2.5, 1e4])
    def test_finite_error_scales_by_the_power_law(self, err):
        grow = min(5.0, max(0.2, 0.9 * (1.0 / max(err, 1e-16)) ** (1 / 6)))
        assert flow_module._next_step(0.125, err, "test") == min(0.125 * grow, 1.0)
        assert flow_module._next_step(-0.125, err, "test") == -min(0.125 * grow, 1.0)

    def test_underflow_raises(self):
        with pytest.raises(StepUnderflow):
            flow_module._next_step(1e-16, float("nan"), "test")


# A flow line is a torus orbit carried into the fiber by rho: the trajectory
# through x = rho(x_t, base, u) is {rho(conj_d(tau, x), base, u) : tau > 0}.
# So for every pair u < w of S3 and S4, the exact point y at a rational tau
# lies in the w-cell, and link_point carries float(x) to float(y) when asked
# for y's height.


@pytest.fixture(scope="module")
def torus_orbits():
    """(u, x, y, epsilon) for every pair u < w of S3 and S4: x drawn in the
    w-cell and moved into the fiber over default_base(u), y its exact
    orbit point at tau = 1/3 or 2 (alternately), epsilon y's height."""
    rng = random.Random(5)
    cases = []
    for n in (3, 4):
        perms = all_permutations(n)
        for u, w in ((u, w) for u in perms for w in perms if bruhat_less(u, w)):
            base = default_base(u)
            tau = Fraction(1, 3) if len(cases) % 2 == 0 else Fraction(2)
            x = rho(random_cell_point(w, rng), base, u)
            y = rho(conj_d(tau, x), base, u)
            assert cell_of(y) == w
            cases.append((u, x, y, float(str_of(y) - str_of(base))))
    return cases


def orbit_error(cases) -> float:
    """The largest distance of a link point from its exact orbit point,
    relative to max(1, |y|)."""
    worst = 0.0
    for u, x, y, eps in cases:
        yf = np.array(y.to_floats())
        got = link_point(np.array(x.to_floats()), u, eps)
        worst = max(worst, float(np.abs(got - yf).max()) / max(1.0, float(np.abs(yf).max())))
    return worst


class TestTorusOrbit:
    def test_link_point_lands_on_the_exact_orbit(self, torus_orbits):
        assert len(torus_orbits) == 202
        assert orbit_error(torus_orbits) <= 1e-11

    # negative control: at RK tolerance 1e-6 the S3 points miss their orbit
    def test_loose_tolerance_misses_the_orbit(self, torus_orbits, monkeypatch):
        monkeypatch.setattr(flow_module._LevelField, "tol", 1e-6)
        assert orbit_error(torus_orbits[:19]) > 1e-11


# The same identity for flow: the point flow(x0, u) reports at time t is
# rho(conj_d(e^t, x0), x_u, u), x0 read as the exact rationals of its floats
# and x_u its exact projection.  It pins forward trajectories against exact
# arithmetic, whatever digits the integrator gives.  Backward flow evaluates
# that formula, so TestBackwardOracle checks the formula itself against an
# integration of the field.


@pytest.fixture(scope="module")
def flow_orbits():
    """(u, x0, x_u, [(t, x), ...]) for every pair u < w of S3 and S4 and
    both directions, forward to str + 2: the points flow reports from x0, a
    w-cell point, which lies in the fiber over its own projection x_u."""
    rng = random.Random(5)
    cases = []
    for n in (3, 4):
        perms = all_permutations(n)
        for u, w in ((u, w) for u in perms for w in perms if bruhat_less(u, w)):
            x = np.array(random_cell_point(w, rng).to_floats())
            x0 = RatMatrix.from_rows(x.tolist())
            x_u = pi_u(x0, u)
            for direction in ("backward", "forward"):
                traj = flow(x, u, direction, target_str=str_of(x) + 2.0)
                cases.append((u, x0, x_u, [(s.time, s.point) for s in traj]))
    return cases


def flow_orbit_error(cases, shift=0.0) -> float:
    """The largest distance of a point (t, x) from its exact orbit point y
    at time t + shift, relative to max(1, |y|)."""
    worst = 0.0
    for u, x0, x_u, points in cases:
        for t, x in points:
            y = np.array(exact_orbit_point(u, x0, x_u, t + shift).to_floats())
            worst = max(worst, float(np.abs(x - y).max()) / max(1.0, float(np.abs(y).max())))
    return worst


class TestFlowOrbit:
    # 10x the worst measured, 9.7e-9 (forward; backward is the formula)
    def test_reported_points_lie_on_the_exact_orbit(self, flow_orbits):
        assert len(flow_orbits) == 404
        assert flow_orbit_error(flow_orbits) <= 1e-7

    # negative control: the orbit read 1e-3 later is missed
    def test_shifted_time_misses_the_orbit(self, flow_orbits):
        assert flow_orbit_error(flow_orbits, shift=1e-3) > 1e-7


def integrate_backward(u, x0, x_u) -> list[tuple[float, np.ndarray]]:
    """(t, x) at each step of the fiber field integrated backward from x0
    by scipy's DOP853, a stepper the library does not share, over the float
    x_u: kernels.psi_tangent in fiber coordinates z = x_u^-1 x, until the
    height str(z) falls to STATIONARY_TOL (a terminal event)."""
    from scipy.integrate import solve_ivp  # here: the library never imports scipy

    base = np.array(x_u.to_floats())
    M, mask = kernels.base_field(base, u)
    n = u.n

    def height(t, z):
        return str_of(z.reshape(n, n)) - STATIONARY_TOL

    height.terminal = True
    z0 = np.linalg.solve(base, np.array(x0.to_floats()))
    sol = solve_ivp(
        lambda t, z: kernels.psi_tangent(z.reshape(n, n), M, mask).ravel(),
        (0.0, -1e3), z0.ravel(), method="DOP853", rtol=1e-12, atol=1e-14, events=height,
    )
    assert sol.status == 1  # the event ended it
    return [(t, base @ z.reshape(n, n)) for t, z in zip(sol.t[1:], sol.y.T[1:])]


@pytest.fixture(scope="module")
def backward_orbits(flow_orbits):
    """(u, x0, x_u, [(t, x), ...]) for the pairs of flow_orbits: each
    accepted point of an independent backward integration from x0."""
    return [(u, x0, x_u, integrate_backward(u, x0, x_u)) for u, x0, x_u, _ in flow_orbits[::2]]


class TestBackwardOracle:
    # Every step of the integration lies on the orbit that backward flow
    # evaluates: 15,233 points, the worst 4.6e-13 off
    def test_integrated_points_lie_on_the_exact_orbit(self, backward_orbits):
        assert len(backward_orbits) == 202
        assert sum(len(traj) for *_, traj in backward_orbits) > 2000
        assert flow_orbit_error(backward_orbits) <= 1e-7

    # negative control: the orbit read 1e-3 later is missed, on the S3 pairs
    def test_shifted_time_misses_the_orbit(self, backward_orbits):
        assert flow_orbit_error(backward_orbits[:19], shift=1e-3) > 1e-7


def flows_inputs(seed: int, count: int = 100):
    """(u, x0) of each op of the flows benchmark at ``seed``, drawn as
    perfbench/workloads.py draws them: a Lusztig point of w with
    parameters in [1/9, 9], in its own fiber over u < w, on S3 and S4
    alternately."""
    rng = random.Random(seed)
    for i in range(count):
        w = rng.choice([p for p in all_permutations(3 if i % 2 == 0 else 4) if p.length > 0])
        below = interval(Permutation.identity(w.n), w).elements
        u = rng.choice(sorted((p for p in below if p != w), key=lambda p: p.image))
        params = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(w.length)]
        xt = lusztig_point(reduced_word(w), params).matrix
        yield u, np.array(rho(xt, pi_u(xt, u), u).to_floats())


class TestReproject:
    # Forward flow integrates in fiber coordinates, where the field is
    # masked to N(u): every stage stays in the fiber, so re-projecting the
    # points it reports moves them by rounding only.
    def test_flow_reprojection_moves_by_rounding_only(self, monkeypatch):
        moved = []
        rho_move = kernels.rho_move

        def recorded(xt, x_u, u):
            y = rho_move(xt, x_u, u)
            moved.append(float(np.abs(y - xt).max()) / max(1.0, float(np.abs(xt).max())))
            return y

        monkeypatch.setattr(kernels, "rho_move", recorded)
        for u, x0 in flows_inputs(seed=1):
            flow(x0, u, "forward", target_str=str_of(x0) + 2.0)
        assert len(moved) >= 100  # at least the end of each of the 100 flows
        assert max(moved) <= 1e-13


# The Dormand-Prince 8(5) pair, stage by stage, as the oracle of rk_step:
# row s of DP_A holds stage s + 1's coefficients, its last row the
# 8th-order weights B; DP_E5 the weights of the 5th-order error estimate.
DP_A, DP_E5 = flow_module._tableau()
DP_B = DP_A[12]
# The nodes c_i of the pair: the times of its stages within a step.
DP_C = (
    0.0, 0.526001519587677318785587544488e-01, 0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510, 0.281649658092772603273242802490, 1 / 3, 0.25,
    4 / 13, 127 / 195, 0.6, 6 / 7, 1.0, 1.0,
)


def dp_oracle(integ, x, h):
    """(x8, per-row error, stages, error bound) of one Dormand-Prince 8(5)
    step, summing each stage's increment term by term.  The error estimate
    is a sum whose terms nearly cancel, so it is exact only to rounding of
    its terms' magnitudes: the bound is that magnitude, scaled like the
    error."""
    k = [integ.rhs(x)]
    for s in range(1, 13):
        k.append(integ.rhs(x + h * sum(a * ki for a, ki in zip(DP_A[s, :s], k))))
    x8 = x + h * sum(b * ki for b, ki in zip(DP_B, k))
    delta = h * sum(e * ki for e, ki in zip(DP_E5, k))
    terms = np.abs(h) * sum(abs(e) * np.abs(ki) for e, ki in zip(DP_E5, k))
    scale = integ.tol * integ.error_scale(x8)
    err = np.abs(delta).max(axis=(-2, -1)) / scale
    return x8, err, k, terms.max(axis=(-2, -1)) / scale


def level_field_stack():
    """A _LevelField over the S3 u = 1,3,2 base and a stack of drawn
    points in fiber coordinates, with one step per row, (B, 1, 1)."""
    u, v = Permutation.parse("1,3,2"), Permutation.parse("3,2,1")
    sample = link_sample(u, v, 1.0, 2, seed=2)
    base = np.array(sample.base.to_floats())
    z = np.linalg.solve(base, np.array([pt for pt, _ in sample.points]))
    integ = flow_module._LevelField(u, base)
    return integ, z, np.linspace(0.05, 0.2, len(z))[:, None, None]


def one_matrix_field():
    rng = random.Random(11)
    x, u, _ = fiber_case(rng, n=4)
    while x == pi_u(x, u):
        x, u, _ = fiber_case(rng, n=4)
    integ = FiberIntegrator(u, np.array(pi_u(x, u).to_floats()))
    return integ, np.linalg.solve(integ.base, np.array(x.to_floats())), 0.03


class TestRkStep:
    @pytest.mark.parametrize("case", [one_matrix_field, level_field_stack])
    def test_last_stage_is_the_field_at_x8(self, case):
        integ, x, h = case()
        x8, _, k13 = integ.rk_step(x, h, integ.rhs(x))
        assert k13.shape == x.shape
        assert np.array_equal(k13, integ.rhs(x8))
        # the carried stage starts the next step as the field would
        assert all(
            np.array_equal(a, b)
            for a, b in zip(integ.rk_step(x8, h, k13), integ.rk_step(x8, h, integ.rhs(x8)))
        )

    @pytest.mark.parametrize("case", [one_matrix_field, level_field_stack])
    def test_fused_step_matches_stage_sums(self, case):
        integ, x, h = case()
        x8, err, k13 = integ.rk_step(x, h, integ.rhs(x))
        want_x8, want_err, k, bound = dp_oracle(integ, x, h)
        assert np.abs(x8 - want_x8).max() <= 1e-14 * np.abs(want_x8).max()
        assert abs(err - want_err.max()) <= 1e-14 * bound.max()
        assert np.abs(k13 - k[12]).max() <= 1e-14 * max(1.0, np.abs(k[12]).max())

    # E5 gives the 13th stage, the field at the new point, weight 0: a nan
    # there rejects the step by rk_step's own test, not through 0 * nan.
    def test_nan_last_stage_rejects_the_step(self, monkeypatch):
        integ, z, h = level_field_stack()
        field = integ.rhs
        seen = []

        def last_stage_nan(x):
            seen.append(x)
            d = field(x)
            if len(seen) == 13:  # the field at x8
                d[1] = np.nan
            return d

        monkeypatch.setattr(integ, "rhs", last_stage_nan)
        x8, err, k13 = integ.rk_step(z, h, integ.rhs(z))  # k1 is the first of the 13
        assert np.isfinite(x8).all() and np.isnan(k13[1]).all()
        assert np.isnan(err) and not err <= 1.0
        seen.clear()
        want_x8, want_err, _, _ = dp_oracle(integ, z, h)
        assert np.isfinite(want_err).all()  # the estimate alone would pass it
        assert np.abs(x8 - want_x8).max() <= 1e-14 * np.abs(want_x8).max()


class TestTableau:
    """The 8(5) tableau's literals against the order conditions they must
    meet, with the nodes C from the pair's definition."""

    # to the rounding of the literals, an ulp of the row's largest sum
    def test_row_sums_are_the_nodes(self):
        assert DP_A.shape == (13, 12) and DP_E5.shape == (12,)
        for row, c in zip(DP_A, DP_C, strict=True):
            size = max(1.0, math.fsum(np.abs(row)))
            assert abs(math.fsum(row) - c) <= 2**-52 * size, row

    # B C^k = 1/(k+1) is the quadrature condition of order k + 1: exact
    # for k = 0..7, an order-8 pair, and not for k = 8.
    def test_weights_integrate_polynomials_to_degree_7(self):
        moments = [math.fsum(DP_B * np.array(DP_C[:12]) ** k) for k in range(9)]
        for k in range(8):
            assert abs(moments[k] - 1 / (k + 1)) <= 1e-15, k
        assert abs(moments[8] - 1 / 9) > 1e-6

    def test_error_weights_sum_to_zero(self):
        assert abs(math.fsum(DP_E5)) <= 1e-15

    # scipy types the same doubles in independently; its A adds the rows
    # of the dense-output stages, and its E5 the 13th stage's weight.
    def test_equals_scipys_copy(self):
        dop = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")
        assert np.array_equal(DP_A[:12], dop.A[:12, :12])
        assert np.array_equal(DP_B, dop.B)
        assert np.array_equal(DP_E5, dop.E5[:12]) and dop.E5[12] == 0


# H(x, tau) = retraction(x, tau, u, v, z, 1) at these tau, on the two
# top-stratum link points of every S3 and S4 interval
RETRACTION_TAUS = (0.0, 0.25, 0.5, 0.75, 1.0)


def top_points(u):
    """{v: the two points that link_sample(u, w0, 1, 2, seed 3) draws in
    stratum v}.  A link point's stratum over u does not depend on v, so
    these are top-stratum points of (u, v)."""
    by_label = {}
    for pt, w in link_sample(u, Permutation.longest(u.n), 1.0, 2, seed=3).points:
        by_label.setdefault(w, []).append(pt)
    return {w: np.array(pts) for w, pts in by_label.items()}


def retraction_stages(u, v, z, x):
    """H at RETRACTION_TAUS, one call per tau over the stack x: (B, tau, n, n)."""
    return np.stack([retraction(x, tau, u, v, z, 1.0) for tau in RETRACTION_TAUS], axis=1)


def level_error(u, stages) -> float:
    level = str_of(np.array(default_base(u).to_floats())) + 1.0
    return float(np.abs(str_of(stages) - level).max())


def base_error(u, stages) -> float:
    return float(np.abs(kernels.pi_u(stages, u) - np.array(default_base(u).to_floats())).max())


@pytest.fixture(scope="module")
def retraction_runs():
    """(u, v, x, stages) for every S3 and S4 interval, x the stack of its two
    top-stratum points, with z = random_cell_point(v) drawn in pair order."""
    rng = random.Random(8)
    runs = []
    for n in (3, 4):
        perms = sorted(all_permutations(n), key=lambda p: p.image)
        for u in perms[:-1]:  # every u but w0, which is last
            tops = top_points(u)
            for v in (v for v in perms if bruhat_less(u, v)):
                z = random_cell_point(v, rng)
                assert len(tops[v]) == 2
                runs.append((u, v, tops[v], retraction_stages(u, v, z, tops[v])))
    assert len(runs) == 202
    return runs


class TestRetraction:
    """H(x, tau) stays on the link: on the level, in the fiber over the
    base, in a stratum of (u, v]; H(x, 0) = x and H is continuous in tau.
    A tau = 1 check alone cannot fail: there H = z I whatever x is."""

    def test_stages_lie_on_the_level(self, retraction_runs):
        assert max(level_error(u, stages) for u, _, _, stages in retraction_runs) <= LEVEL_TOL

    def test_stages_lie_in_the_fiber_over_the_base(self, retraction_runs):
        assert max(base_error(u, stages) for u, _, _, stages in retraction_runs) <= 1e-9

    def test_stage_labels_lie_in_the_interval(self, retraction_runs):
        decided = undecidable = 0
        for u, v, _, stages in retraction_runs:
            flat = stages.reshape((-1,) + stages.shape[-2:])
            for w in cell_of_float(flat, [None] * len(flat)):
                if w is None:
                    undecidable += 1
                    continue
                decided += 1
                assert bruhat_less(u, w) and bruhat_leq(w, v), (u, v, w)
        assert decided > 0, f"no decidable label, {undecidable} undecidable"

    def test_tau_zero_is_the_identity(self, retraction_runs):
        assert max(float(np.abs(stages[:, 0] - x).max()) for _, _, x, stages in retraction_runs) <= 1e-9

    def test_continuity_modulus(self):
        """The path is steepest at tau = 0: the largest jump over [0, 1/80]
        must shrink when the grid is refined from 32 to 64 steps."""
        u, v = Permutation.parse("1,2,3,4"), Permutation.parse("3,4,2,1")
        [x] = [pt for pt, w in link_sample(u, v, 1.0, 1, seed=0).points if w == v]
        z = random_cell_point(v, random.Random(8))

        def largest_jump(steps):
            path = [retraction(x, k / (80 * steps), u, v, z, 1.0) for k in range(steps + 1)]
            return max(float(np.abs(b - a).max()) for a, b in zip(path, path[1:]))

        coarse = largest_jump(32)
        assert 0 < coarse and largest_jump(64) <= 0.75 * coarse

    def test_level_check_fails_without_link_point(self, monkeypatch):
        u, v = Permutation.parse("2,1,3"), Permutation.parse("2,3,1")
        x, z = top_points(u)[v], random_cell_point(v, random.Random(8))
        monkeypatch.setattr(flow_module, "link_point", lambda x, u, epsilon: x)
        assert level_error(u, retraction_stages(u, v, z, x)) > LEVEL_TOL

    def test_base_check_fails_without_reproject(self, monkeypatch):
        u, v = Permutation.parse("2,1,3"), Permutation.parse("2,3,1")
        x, z = top_points(u)[v], random_cell_point(v, random.Random(8))
        monkeypatch.setattr(kernels, "rho_move", lambda xt, x_u, u: xt)
        assert base_error(u, retraction_stages(u, v, z, x)) > 1e-9

    def test_endpoints(self):
        u = Permutation.identity(3)
        v = Permutation.longest(3)
        rng = random.Random(9)
        z = random_cell_point(v, rng)
        tops = top_points(u)[v]
        assert np.max(np.abs(retraction(tops, 0.0, u, v, z, 1.0) - tops)) < 1e-6
        ends = retraction(tops, 1.0, u, v, z, 1.0)
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

    # at tau = 0, y = x; both points lie below v, so outside G_0 v, but their
    # float pivots are residues, not zeros: the v-projection stays finite and
    # only the float label of y shows v is not below it
    @pytest.mark.parametrize("w", ["2,4,3,1", "3,2,4,1"])
    def test_point_below_v_at_tau_zero_rejected(self, w):
        u, v, w = (Permutation.parse(p) for p in ("1,3,2,4", "4,2,3,1", w))
        [x] = [p for p, label in link_sample(u, v, 1.0, 1, seed=5).points if label == w]
        assert not bruhat_leq(v, cell_of_float(x))
        with pytest.raises(ZNotInYgeqV, match="not above v"):
            retraction(x, 0.0, u, v, default_base(Permutation.longest(4)), 1.0)

    # one row outside N rejects the stack, before z is read, at every tau
    def test_row_outside_N_rejected(self):
        u, v = Permutation.identity(3), Permutation.longest(3)
        bad_z = RatMatrix.from_rows([[1, -1, 0], [0, 1, 0], [0, 0, 1]])
        stack = np.array([np.eye(3), [[1.0, 1, 1], [0, 1, 1], [1, 0, 1]]])
        for tau in (0.0, 0.5, 1.0):
            for z in (default_base(v), bad_z):
                with pytest.raises(NotUnipotentUpper):
                    retraction(stack, tau, u, v, z, 1.0)

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

    def test_one_tau_per_row(self):
        x = np.array([[[1.0, 2.0, 3.0], [0.0, 1.0, 5.0], [0.0, 0.0, 1.0]]] * 3)
        taus = [0.5, 1.0, 3.0]
        rows = [conj_d_float(t, row) for t, row in zip(taus, x)]
        assert np.array_equal(conj_d_float(np.array(taus), x), np.array(rows))


STACK_U, STACK_V = Permutation.parse("2,1,3,4"), Permutation.longest(4)


@pytest.fixture(scope="module")
def stack_case():
    """51 S4 link points, three in each stratum of (2,1,3,4; 4,3,2,1], and
    each float map with its input: the points, or for psi_tangent their
    fiber coordinates over the base."""
    rows = np.array([pt for pt, _ in link_sample(STACK_U, STACK_V, 1.0, 3, seed=0).points])
    base = np.array(default_base(STACK_U).to_floats())
    other_base = np.array(random_cell_point(STACK_U, random.Random(1)).to_floats())
    M, mask = kernels.base_field(base, STACK_U)
    maps = {
        "fiber_A": (rows, lambda x: kernels.fiber_A(x, STACK_U)),
        "pi_u": (rows, lambda x: kernels.pi_u(x, STACK_U)),
        "rho_move": (rows, lambda x: kernels.rho_move(x, other_base, STACK_U)),
        "psi_tangent": (np.linalg.solve(base, rows), lambda z: kernels.psi_tangent(z, M, mask)),
        "str_of": (rows, str_of),
        "conj_d_float": (rows, lambda x: conj_d_float(0.3, x)),
        "conj_d_float-tau-0": (rows, lambda x: conj_d_float(0.0, x)),
    }
    return rows, maps


class TestStackContract:
    """Each float map takes one matrix (n, n) or a stack (B, n, n) and gives
    on the stack, row by row, what it gives on each row alone: bit for bit,
    except where the rows share link_point's step controller, within
    LEVEL_TOL.  TestCellOfFloat and TestLink's stacked-rows test hold
    cell_of_float and link_point to the same contract."""

    @pytest.mark.parametrize(
        "name", ["fiber_A", "pi_u", "rho_move", "psi_tangent", "str_of", "conj_d_float", "conj_d_float-tau-0"]
    )
    def test_rows_are_bit_identical(self, stack_case, name):
        x, fn = stack_case[1][name]
        got = fn(x)
        assert len(got) == len(x) == 51
        for row, want in zip(x, got):
            assert np.array_equal(fn(row), want)

    def test_retraction_rows_within_level_tol(self, stack_case):
        rows = stack_case[0][::3]  # one per stratum
        z = random_cell_point(STACK_V, random.Random(8))
        stages = retraction(rows, 0.5, STACK_U, STACK_V, z, 1.0)
        assert stages.shape == rows.shape
        worst = max(float(np.abs(retraction(x, 0.5, STACK_U, STACK_V, z, 1.0) - y).max()) for x, y in zip(rows, stages))
        assert worst <= LEVEL_TOL

    # at tau = 0, y = x: the row drawn in w < v rejects the whole stack
    def test_one_row_below_v_rejects_the_stack(self):
        u, v, w = (Permutation.parse(p) for p in ("1,3,2,4", "4,2,3,1", "2,4,3,1"))
        drawn = {label: p for p, label in link_sample(u, v, 1.0, 1, seed=5).points}
        z = default_base(Permutation.longest(4))
        assert retraction(drawn[v][None], 0.0, u, v, z, 1.0).shape == (1, 4, 4)
        with pytest.raises(ZNotInYgeqV, match="not above v"):
            retraction(np.array([drawn[v], drawn[w]]), 0.0, u, v, z, 1.0)


def _s3_point_with(value):
    x = np.array([[1.0, 2.0, 1.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]])
    x[0, 2] = value
    return x


FLOAT_ENTRY_POINTS = {
    "flow": lambda x: flow(x, Permutation.identity(3), "backward"),
    "link_point": lambda x: link_point(x, Permutation.identity(3), 1.0),
    "retraction": lambda x: retraction(
        x, 0.5, Permutation.identity(3), Permutation.longest(3), default_base(Permutation.longest(3)), 1.0
    ),
    "cell_of_float": cell_of_float,
}


# Non-finite entries and a wrong shape raise InvalidArgument at entry,
# before numpy sees them: no LinAlgError, IndexError or RuntimeWarning.
@pytest.mark.parametrize("entry", sorted(FLOAT_ENTRY_POINTS))
@pytest.mark.parametrize(
    "x, message",
    [
        (_s3_point_with(np.nan), "finite"),
        (_s3_point_with(-np.inf), "finite"),
        (np.eye(3, 4), "rank mismatch|square"),
        (np.ones(3), "rank mismatch|square"),
    ],
    ids=["nan", "-inf", "3x4", "1-d"],
)
def test_bad_float_input_raises_invalid_argument(entry, x, message):
    with pytest.raises(InvalidArgument, match=message):
        FLOAT_ENTRY_POINTS[entry](x)


@pytest.mark.parametrize("entry", ["flow", "link_point", "retraction"])
def test_wrong_n_raises_rank_mismatch(entry):
    with pytest.raises(InvalidArgument, match="rank mismatch"):
        FLOAT_ENTRY_POINTS[entry](np.eye(4))


def test_link_point_rejects_x_outside_N():
    with pytest.raises(NotUnipotentUpper):
        link_point(np.array([[2.0, 1, 1], [0, 1, 1], [0, 0, 1]]), Permutation.identity(3), 1.0)


# A nan strictly below the diagonal puts x outside N: the N test comes
# before the finiteness test, for flow's one matrix and for one row of a stack.
def _s3_point_nan_below(i, j):
    x = _s3_point_with(1.0)
    x[i, j] = np.nan
    return x


@pytest.mark.parametrize(
    "entry, x",
    [
        ("flow", _s3_point_nan_below(2, 0)),
        ("link_point", np.array([_s3_point_with(1.0), _s3_point_nan_below(1, 0)])),
        ("retraction", np.array([_s3_point_with(1.0), _s3_point_nan_below(2, 1)])),
    ],
    ids=["flow-one-matrix", "link_point-stack-row", "retraction-stack-row"],
)
def test_nan_below_the_diagonal_is_outside_N(entry, x):
    with pytest.raises(NotUnipotentUpper):
        FLOAT_ENTRY_POINTS[entry](x)


class TestNu:
    def test_nu_matrix(self):
        nu = nu_matrix(3)
        assert [nu[(i, i)] for i in (1, 2, 3)] == [3, 2, 1]
