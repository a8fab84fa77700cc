"""The superdiagonal-sum functional, the gradient-like field on fibers,
its numerical integration, link sampling, and the retraction of a link."""

from __future__ import annotations

import functools
import math
import random
from collections import Counter
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from . import kernels
from .cells import is_tnn, lusztig_point
from .errors import (
    InvalidArgument,
    MaxStepsExceeded,
    NotComparable,
    NotInG0u,
    PreconditionError,
    RankTooLarge,
    StepUnderflow,
    StratumEscape,
    UndecidableRank,
    ZNotInYgeqV,
)
from .fiber import fiber_A, rho
from .perms import Permutation, bruhat_leq, bruhat_less, decode_rank_jumps, interval, reduced_word
from .ratmat import RatMatrix, is_in_G0_u

# The fixed tolerances of the float path.  flow re-checks the stratum label
# only above STRATUM_CHECK_FLOOR over the base, where float ranks mean
# something; cell_of_float counts singular values above RANK_TOL (relative)
# and cannot tell those between RANK_ZERO_TOL and RANK_TOL from zero.
STRATUM_CHECK_FLOOR = 1e-3
RANK_TOL = 1e-8
RANK_ZERO_TOL = 1e-12
STATIONARY_TOL = 1e-10  # a backward flow's stop: height or field below this
FLOW_STEP_TOL = 1e-9  # RK tolerance of flow
# A link point lies within LEVEL_TOL of its level: link_point integrates the
# field normalised by height at RK tolerance LINK_STEP_TOL, and lands on the
# level by construction.  It takes epsilon up to LINK_EPSILON_GUARD.
LEVEL_TOL = 1e-9
LINK_STEP_TOL = 1e-12
LINK_EPSILON_GUARD = 1e3
REPROJECT_EVERY = 10  # accepted steps between re-projections onto the fiber
MAX_STEP = 1.0
LINK_POINT_BUDGET = 10_000  # most points one fiber_points call may draw


def str_of(x) -> float | Fraction:
    """Sum of the entries just above the diagonal; additive on N."""
    if isinstance(x, RatMatrix):
        return sum(x.rows[i][i + 1] for i in range(x.n - 1))
    return float(np.trace(x, offset=1))


def pi_n(m: RatMatrix) -> RatMatrix:
    """Projection onto strictly upper-triangular matrices (kernel: the
    Borel algebra on and below the diagonal)."""
    return RatMatrix.from_rows(
        [[m.rows[i][j] if j > i else 0 for j in range(m.n)] for i in range(m.n)]
    )


def nu_matrix(n: int) -> RatMatrix:
    return RatMatrix.from_rows(
        [[n - i if i == j else 0 for j in range(n)] for i in range(n)]
    )


def psi(x: RatMatrix, u: Permutation) -> RatMatrix:
    """Exact tangent vector x * pi_n(A^-1 nu A); zero exactly at the
    fiber's base point."""
    A = fiber_A(x, u)
    return x @ pi_n(A.inverse() @ nu_matrix(x.n) @ A)


@dataclass(frozen=True)
class SignViolation:
    i: int
    j: int
    value: Fraction
    expected: str


@dataclass(frozen=True)
class SignReport:
    violations: tuple[SignViolation, ...]
    str_value: Fraction

    @property
    def ok(self) -> bool:
        return not self.violations and self.str_value >= 0


def sign_lemma_check(A: RatMatrix, u: Permutation) -> SignReport:
    """Check the three-case sign pattern of (A^-1)_{j,i} * A_{i,j+1} and
    nonnegativity of str(A^-1 nu A) for A arising from a TNN point."""
    n = A.n
    Ainv = A.inverse()
    bad: list[SignViolation] = []
    for i in range(1, n + 1):
        for j in range(1, n):
            prod = Ainv[j, i] * A[i, j + 1]
            chain = u(j) <= u(i) <= u(j + 1)
            if chain and i <= j:
                if prod < 0:
                    bad.append(SignViolation(i, j, prod, ">=0"))
            elif chain:
                if prod > 0:
                    bad.append(SignViolation(i, j, prod, "<=0"))
            elif prod != 0:
                bad.append(SignViolation(i, j, prod, "=0"))
    s = str_of(Ainv @ nu_matrix(n) @ A)
    return SignReport(tuple(bad), s)


# --- numerical integration ---------------------------------------------

# Dormand-Prince 5(4) tableau: row s of _DP_A gives stage s + 1's point,
# and its last row is the 5th-order weights B5, so the 7th stage is the
# field at x5 ("first same as last": it is the next step's first stage).
# _DP_E = B5 - B4 are the weights of the error estimate x5 - x4; the
# 7th stage enters only there, with weight -1/40.
_DP_A = np.array(
    [
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0],
        [3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0],
        [44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0],
        [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0],
        [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0],
        [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
    ]
)
_DP_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)
_DP_E = np.append(_DP_A[6], 0.0) - _DP_B4


@dataclass
class FlowState:
    point: np.ndarray
    time: float
    str_value: float
    stratum: Permutation


def _heights(x: np.ndarray) -> np.ndarray:
    """str of each matrix in a stack (a 0-d array for one matrix)."""
    return np.trace(x, offset=1, axis1=-2, axis2=-1)


def _next_step(h: float, err: float, what: str) -> float:
    """The step controller of the embedded 5(4) pair: grow or shrink h by
    the usual safety-factored power of the error ratio, capped at MAX_STEP."""
    h *= min(5.0, max(0.2, 0.9 * (1.0 / max(err, 1e-16)) ** 0.2))
    h = math.copysign(min(abs(h), MAX_STEP), h)
    if abs(h) < 1e-16:
        raise StepUnderflow(f"{what} step size underflow")
    return h


@dataclass
class FiberIntegrator:
    """Adaptive RK45 for xdot = psi(x) on the fiber over a fixed base,
    with periodic re-projection onto the fiber to cancel drift.  The field
    is evaluated in fiber coordinates, psi(x) = base z pi_n(z^-1 M z) at
    z = base^-1 x, with M and N(u)'s mask computed once for the base.
    A step (rk_step) is one Dormand-Prince 5(4) step that reuses the last
    stage of the step before as its first: callers carry the field at the
    current point, so a step costs 6 field evaluations, not 7."""

    u: Permutation
    base: np.ndarray
    tol = FLOW_STEP_TOL

    def __post_init__(self):
        self._u0, self._uinv0 = kernels.perm_arrays(self.u)
        self._M, self._mask = kernels.base_field(self.base, self._u0, self._uinv0)
        self._base_inv = np.linalg.inv(self.base)

    def rhs(self, x: np.ndarray) -> np.ndarray:
        return self.base @ kernels.psi_tangent(self._base_inv @ x, self._M, self._mask)

    def reproject(self, x: np.ndarray) -> np.ndarray:
        return kernels.rho_move(x, self.base, self._u0, self._uinv0)

    def error_scale(self, x5: np.ndarray) -> np.ndarray:
        """What each row's error estimate is measured against, times tol."""
        return 1.0 + np.abs(x5).max(axis=(-2, -1))

    def rk_step(self, x: np.ndarray, h, k1=None) -> tuple[np.ndarray, float, np.ndarray]:
        """One embedded step of x (one matrix or a stack of shape (B, n, n))
        by h (a scalar or one step per row), from the field k1 = rhs(x)
        (evaluated here when None).  Returns the 5th-order point x5, the
        largest of the rows' own error estimates, each scaled by
        tol * error_scale(x5_row), and the 7th stage k7 = rhs(x5), which is
        the next step's k1 when this one is accepted: a step costs 6 field
        evaluations.  Each stage's point is one product of its tableau row
        with the stages so far, and the error one product of B5 - B4 with
        all seven, so a stage that is nan gives a nan error."""
        h = np.asarray(h, dtype=np.float64)
        if h.ndim:
            h = h[:, None, None]
        k = np.empty((7,) + x.shape)
        k[0] = self.rhs(x) if k1 is None else k1
        flat = k.reshape(7, -1)
        for s in range(1, 7):
            xs = x + h * (_DP_A[s, :s] @ flat[:s]).reshape(x.shape)
            k[s] = self.rhs(xs)
        x5 = xs  # the last row of _DP_A is B5
        delta = np.abs(h * (_DP_E @ flat).reshape(x.shape)).max(axis=(-2, -1))
        err = delta / (self.tol * self.error_scale(x5))
        return x5, float(err.max()), k[6]


def cell_of_float(x: np.ndarray) -> Permutation:
    """Float analogue of the exact cell identification, using SVD ranks.

    Raises UndecidableRank when some top-right submatrix has a singular
    value between the thresholds ``RANK_TOL`` and ``RANK_ZERO_TOL``
    (relative), so its rank is not determined at working precision, or
    when the rank table decodes to no permutation.
    """
    n = x.shape[0]
    r = np.zeros((n + 1, n + 2), dtype=int)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            sv = np.linalg.svd(x[:i, j - 1 :], compute_uv=False)
            scale = max(1.0, sv[0])
            r[i][j] = int(np.sum(sv > RANK_TOL * scale))
            if r[i][j] != int(np.sum(sv > RANK_ZERO_TOL * scale)):
                raise UndecidableRank(f"rank of x[:{i}, {j - 1}:] is undecidable")
    try:
        return decode_rank_jumps(r)
    except ValueError as exc:
        raise UndecidableRank(f"rank table decodes to no permutation: {exc}") from exc


def _require(ok: bool, message: str):
    if not ok:
        raise InvalidArgument(message)


def flow(
    x0: np.ndarray,
    u: Permutation,
    direction: str = "backward",
    *,
    max_steps: int = 200_000,
    snapshot_every: int = 50,
    target_str: float | None = None,
) -> list[FlowState]:
    """Integrate the fiber field from x0, in the fiber over the base that
    x0 projects to (the float x_u of x0).

    Backward runs until the field (or the height above the base) is below
    ``STATIONARY_TOL``; forward runs until ``target_str`` is reached.
    x0 must lie in G_0 u: NotInG0u is raised, before any step, when the
    float fiber parts of x0 are not finite or u is not below its label.
    The stratum label is frozen at the start and re-checked at snapshots
    away from the base, where float rank detection is meaningful; a
    snapshot whose label is undecidable (UndecidableRank) is not checked,
    and an undecidable label at x0 raises UndecidableRank.
    """
    forward = direction == "forward"
    _require(not forward or target_str is not None, "forward flow needs target_str")
    _require(target_str is None or math.isfinite(target_str), "target_str must be finite")
    _require(snapshot_every >= 1, "snapshot_every must be at least 1")
    _require(max_steps >= 1, "max_steps must be at least 1")
    x0 = np.asarray(x0, dtype=np.float64)
    _require(x0.shape == (u.n, u.n), "rank mismatch")
    stratum = cell_of_float(x0)
    u0, uinv0 = kernels.perm_arrays(u)
    with np.errstate(all="ignore"):  # a zero pivot shows as inf or nan
        parts = kernels.fiber_parts(x0, u0, uinv0)
    if not (all(np.isfinite(p).all() for p in parts) and bruhat_leq(u, stratum)):
        raise NotInG0u(None)
    integ = FiberIntegrator(u, parts[0])
    base_str = str_of(integ.base)

    traj: list[FlowState] = [
        FlowState(x0.copy(), 0.0, str_of(x0), stratum)
    ]
    x, t = x0.copy(), 0.0
    k = integ.rhs(x)  # the field at x, carried from step to step
    h = 0.01 if forward else -0.01
    accepted = 0
    for _ in range(max_steps):
        if forward:
            if str_of(x) >= target_str:
                break
        elif (
            str_of(x) - base_str < STATIONARY_TOL
            or float(np.abs(k).max()) < STATIONARY_TOL
        ):
            break
        xn, err, kn = integ.rk_step(x, h, k)
        if err <= 1.0:
            x, t, k = xn, t + h, kn
            accepted += 1
            if accepted % REPROJECT_EVERY == 0:
                x = integ.reproject(x)
                k = integ.rhs(x)
            if accepted % snapshot_every == 0:
                s = str_of(x)
                if s - base_str > STRATUM_CHECK_FLOOR and _float_label(x, stratum) != stratum:
                    raise StratumEscape(
                        f"stratum label changed along trajectory at t={t}"
                    )
                traj.append(FlowState(x.copy(), t, s, stratum))
        h = _next_step(h, err, "flow")
    else:
        raise MaxStepsExceeded(f"flow did not terminate in {max_steps} steps")
    if traj[-1].time != t:
        traj.append(FlowState(x.copy(), t, str_of(x), stratum))
    return traj


def _float_label(x: np.ndarray, fallback: Permutation) -> Permutation:
    """cell_of_float(x), or ``fallback`` where that label is undecidable."""
    try:
        return cell_of_float(x)
    except UndecidableRank:
        return fallback


def _require_epsilon(epsilon: float):
    _require(math.isfinite(epsilon) and epsilon > 0, "epsilon must be finite and positive")
    if epsilon > LINK_EPSILON_GUARD:
        raise RankTooLarge(f"epsilon {epsilon} exceeds the guard of {LINK_EPSILON_GUARD}")


class _LevelField(FiberIntegrator):
    """The fiber field in fiber coordinates z, normalised by height:
    psi_z / str(psi_z).  str(x_u z) = str(x_u) + str(z), str is linear and
    every stage of an RK step sees str = 1, so one step of size h raises
    str by exactly h (up to rounding)."""

    tol = LINK_STEP_TOL

    def rhs(self, z: np.ndarray) -> np.ndarray:
        d = kernels.psi_tangent(z, self._M, self._mask)
        s = _heights(d)
        # nan where the field does not raise str: an RK stage that overshoots
        # the totally nonnegative part fails its step's error test instead
        return d / np.where(s > 0.0, s, np.nan)[..., None, None]

    def error_scale(self, z5: np.ndarray) -> np.ndarray:
        """Each row's displacement from the base, max|z - I|: near the base
        the entries of z are O(epsilon) or smaller, and an absolute scale
        would leave them only absolute accuracy."""
        return np.abs(z5 - np.eye(z5.shape[-1])).max(axis=(-2, -1))


def link_point(x: np.ndarray, u: Permutation, epsilon: float) -> np.ndarray:
    """The unique point with str = str(base) + epsilon, base = default_base(u),
    on the trajectory through x, for one matrix x or each row of a stack (B, n, n).

    A row already within ``LEVEL_TOL`` of the level is returned unchanged.
    The others are taken to fiber coordinates z = base^-1 x by one solve
    and flow by height, along psi / str(psi): str(psi) > 0 off the base on
    the totally nonnegative part, so height is a valid time, and a row
    where it is not raises PreconditionError.  A row's height to climb (or
    descend) d is fixed at the start; all rows advance in one shared
    fraction of their own d, stepped by the RK45 controller and clamped to
    the fraction left, so they land on the level together by construction.
    Each row's error is measured against its displacement max|z - I|.
    """
    _require_epsilon(epsilon)
    integ = _link_field(u)
    base = integ.base
    x = np.asarray(x, dtype=np.float64)
    out = x.reshape((-1,) + x.shape[-2:]).copy()
    d = str_of(base) + epsilon - _heights(out)
    rows = np.flatnonzero(~(np.abs(d) <= LEVEL_TOL))
    z, d = np.linalg.solve(base, out[rows]), d[rows]
    k = integ.rhs(z)
    if np.isnan(k).any():
        raise PreconditionError(
            "the field does not raise str at a point away from its level: str(psi) <= 0 "
            "there, so the point is the base or not totally nonnegative"
        )
    left, h = 1.0, 0.01  # the fraction of each d still to go; the next step
    for _ in range(100_000):
        if not rows.size or left == 0.0:
            break
        step = min(h, left)
        zn, err, kn = integ.rk_step(z, step * d, k)
        if err <= 1.0:
            z, left, k = zn, left - step, kn
        if left:  # a last step clamped to a sliver of the fraction would underflow
            h = _next_step(step, err, "link_point")
    else:
        raise MaxStepsExceeded("link_point did not reach its level in 100000 steps")
    out[rows] = base @ z
    return out.reshape(x.shape)


@dataclass(frozen=True)
class LinkSample:
    u: Permutation
    v: Permutation
    epsilon: float
    base: RatMatrix
    points: tuple[tuple[np.ndarray, Permutation], ...]
    dimensions: dict = field(hash=False)


@dataclass(frozen=True)
class LinkCensus:
    """The strata of the link of the u-cell inside Y_[u,v]: one per label w
    in (u, v], in (length, image) order, of dimension l(w) - l(u) - 1, with
    the number of counted points that land in it; ``euler`` is the sum of
    (-1)^dim over the strata, which is 1 for the link; ``labels_ok`` says
    every counted point landed in the stratum it was drawn in."""

    dimensions: dict[Permutation, int]
    counts: dict[Permutation, int]
    euler: int
    labels_ok: bool

    def counting(self, landed) -> LinkCensus:
        """The same strata counting ``landed``: (landed label, drawn label)
        pairs, as from landed_labels."""
        landed = list(landed)
        found = Counter(got for got, _ in landed)
        return replace(
            self,
            counts={w: found[w] for w in self.dimensions},
            labels_ok=all(got == w for got, w in landed),
        )


def _require_below(u: Permutation, v: Permutation):
    """The link of the u-cell inside Y_[u,v] needs u < v."""
    if not bruhat_less(u, v):
        raise NotComparable(f"{u.serialize()} must be strictly below {v.serialize()}")


def landed_labels(points) -> list[tuple[Permutation, Permutation]]:
    """(landed, drawn) label pairs of (point, drawn label) pairs such as
    LinkSample.points: a point lands under its float label, or under its
    drawn label where the float label is undecidable."""
    return [(_float_label(p, w), w) for p, w in points]


def link_census(u: Permutation, v: Permutation, points=()) -> LinkCensus:
    """The census of the link of the u-cell inside Y_[u,v], counting where
    ``points`` land (see landed_labels)."""
    _require_below(u, v)
    labels = sorted(
        (w for w in interval(u, v).elements if w != u),
        key=lambda w: (w.length, w.image),
    )
    dims = {w: w.length - u.length - 1 for w in labels}
    census = LinkCensus(dims, {}, sum((-1) ** d for d in dims.values()), True)
    return census.counting(landed_labels(points))


@functools.cache
def default_base(u: Permutation) -> RatMatrix:
    """Canonical base point of the u-cell: all Lusztig parameters 1."""
    word = reduced_word(u)
    return lusztig_point(word, [Fraction(1)] * len(word.letters)).matrix


@functools.cache
def _link_field(u: Permutation) -> _LevelField:
    """The link's field over default_base(u), built once per u."""
    return _LevelField(u, np.array(default_base(u).to_floats()))


def random_cell_point(w: Permutation, rng) -> RatMatrix:
    """Random rational point of the w-cell via its canonical reduced word."""
    word = reduced_word(w)
    params = [
        Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in word.letters
    ]
    return lusztig_point(word, params).matrix


def fiber_points(u: Permutation, strata, count: int, rng) -> tuple[np.ndarray, list[Permutation]]:
    """``count`` random cell points of each w in ``strata``, in order, moved
    by rho into the fiber over default_base(u): the float stack (B, n, n) and
    each row's drawn label.  Raises before drawing when count < 1 or the
    stack would exceed ``LINK_POINT_BUDGET``."""
    _require(count >= 1, "count must be at least 1")
    if count * len(strata) > LINK_POINT_BUDGET:
        raise RankTooLarge(
            f"{count} points on each of {len(strata)} strata exceed the budget of {LINK_POINT_BUDGET}"
        )
    base = default_base(u)
    labels = [w for w in strata for _ in range(count)]
    stack = np.array([rho(random_cell_point(w, rng), base, u).to_floats() for w in labels])
    return stack, labels


def link_sample(
    u: Permutation,
    v: Permutation,
    epsilon: float,
    count: int,
    seed: int,
) -> LinkSample:
    """Sample the link of the u-cell inside Y_[u,v]: ``count`` points of each
    stratum w in (u,v] from fiber_points, flowed as one stack to the epsilon
    level set."""
    _require_epsilon(epsilon)
    dims = link_census(u, v).dimensions
    stack, labels = fiber_points(u, dims, count, random.Random(seed))
    pts = link_point(stack, u, epsilon)
    return LinkSample(u, v, epsilon, default_base(u), tuple(zip(pts, labels)), dims)


def conj_d_float(tau: float, x: np.ndarray) -> np.ndarray:
    """Float torus conjugation, extended continuously to tau = 0, where it
    collapses any unipotent upper-triangular x to the identity."""
    n = x.shape[0]
    if tau == 0.0:
        return np.eye(n)
    j = np.arange(n)
    return x * (float(tau) ** np.maximum(j[None, :] - j[:, None], 0))


def retraction(
    x: np.ndarray,
    tau: float,
    u: Permutation,
    v: Permutation,
    z: RatMatrix,
    epsilon: float,
) -> np.ndarray:
    """One stage of the deformation retraction of the link to a point:
    scale z up and x down with the torus, project onto the v-cell, move
    into the fiber over the canonical base of the u-cell with rho, and land
    on the level set."""
    _require(0.0 <= tau <= 1.0, "tau must lie in [0, 1]")
    _require(np.shape(x) == (u.n, u.n) and u.n == v.n == z.n, "rank mismatch")
    _require_below(u, v)
    if not (is_tnn(z) and is_in_G0_u(z, v)):
        raise ZNotInYgeqV("z must be totally nonnegative with cell >= v")
    zf = conj_d_float(tau, np.array(z.to_floats()))
    xf = conj_d_float(1.0 - tau, np.asarray(x, dtype=np.float64))
    y = zf @ xf
    v0, vinv0 = kernels.perm_arrays(v)
    with np.errstate(all="ignore"):  # a zero pivot shows as inf or nan
        y_v = kernels.fiber_parts(y, v0, vinv0)[0]
    if not np.all(np.isfinite(y_v)):
        raise ZNotInYgeqV(
            "projection onto the v-cell blew up; the input point must lie in "
            "the open v-stratum at the tau endpoints"
        )
    return link_point(_link_field(u).reproject(y_v), u, epsilon)
