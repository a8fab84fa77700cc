"""The superdiagonal-sum functional, the gradient-like field on fibers,
its numerical integration, link sampling, and the retraction of a link."""

from __future__ import annotations

import functools
import math
import random
from collections import Counter
from dataclasses import dataclass, field, replace
from fractions import Fraction

from . import kernels
from ._np import np
from .cells import is_tnn, lusztig_point
from .errors import (
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
from .fiber import base_A, fiber_A, rho_over
from .perms import Permutation, bruhat_leq, bruhat_less, decode_rank_jumps, interval, reduced_word
from .ratmat import RatMatrix, _map_rows, is_in_G0_u

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
MAX_STEP = 1.0
LINK_POINT_BUDGET = 10_000  # most points one fiber_points call may draw


def str_of(x) -> float | Fraction | np.ndarray:
    """Sum of the entries just above the diagonal (per row of a float stack); additive on N."""
    if isinstance(x, RatMatrix):
        return sum(x.rows[i][i + 1] for i in range(x.n - 1))
    s = np.asarray(x).trace(1, -2, -1)
    return float(s) if s.ndim == 0 else s


def pi_n(m: RatMatrix) -> RatMatrix:
    """Projection onto strictly upper-triangular matrices (kernel: the
    Borel algebra on and below the diagonal)."""
    return _map_rows(m, lambda i, r: [v if j > i else 0 for j, v in enumerate(r)])


def nu_matrix(n: int) -> RatMatrix:
    return RatMatrix.from_rows(
        [[n - i if i == j else 0 for j in range(n)] for i in range(n)]
    )


def psi(x: RatMatrix, u: Permutation) -> RatMatrix:
    """Exact tangent vector x * pi_n(A^-1 nu A); zero exactly at the
    fiber's base point."""
    A = fiber_A(x, u)
    n = x.n  # A^-1 nu scales column j of A^-1 (0-based) by n - j
    Ainv_nu = _map_rows(A.inverse(), lambda i, r: [v * (n - j) for j, v in enumerate(r)])
    return x @ pi_n(Ainv_nu @ A)


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

# The Dormand-Prince 8(5) pair, "DOP853" (Hairer, Norsett & Wanner, Solving
# Ordinary Differential Equations I, 2nd ed., sec. II.10; Prince & Dormand,
# J. Comput. Appl. Math. 7, 1981), with the coefficients of Hairer's dop853
# code, as "column: coefficient" terms, each row ended by ";": the rows of
# stages 2..12, then the 8th-order weights B, which give the new point, then
# the weights E5 of the 5th-order error estimate.  They are text, parsed on
# first use, because compiling them as Python literals raised the peak
# memory of a fresh import by about 0.1 MB.
_DOP853 = """
0: 5.26001519587677318785587544488e-2;
0: 1.97250569845378994544595329183e-2,
1: 5.91751709536136983633785987549e-2;
0: 2.95875854768068491816892993775e-2,
2: 8.87627564304205475450678981324e-2;
0: 2.41365134159266685502369798665e-1,
2: -8.84549479328286085344864962717e-1,
3: 9.24834003261792003115737966543e-1;
0: 3.7037037037037037037037037037e-2, 3: 1.70828608729473871279604482173e-1,
4: 1.25467687566822425016691814123e-1;
0: 3.7109375e-2, 3: 1.70252211019544039314978060272e-1,
4: 6.02165389804559606850219397283e-2, 5: -1.7578125e-2;
0: 3.70920001185047927108779319836e-2,
3: 1.70383925712239993810214054705e-1,
4: 1.07262030446373284651809199168e-1,
5: -1.53194377486244017527936158236e-2,
6: 8.27378916381402288758473766002e-3;
0: 6.24110958716075717114429577812e-1, 3: -3.36089262944694129406857109825,
4: -8.68219346841726006818189891453e-1,
5: 2.75920996994467083049415600797e1, 6: 2.01540675504778934086186788979e1,
7: -4.34898841810699588477366255144e1;
0: 4.77662536438264365890433908527e-1, 3: -2.48811461997166764192642586468,
4: -5.90290826836842996371446475743e-1,
5: 2.12300514481811942347288949897e1, 6: 1.52792336328824235832596922938e1,
7: -3.32882109689848629194453265587e1,
8: -2.03312017085086261358222928593e-2;
0: -9.3714243008598732571704021658e-1, 3: 5.18637242884406370830023853209,
4: 1.09143734899672957818500254654, 5: -8.14978701074692612513997267357,
6: -1.85200656599969598641566180701e1, 7: 2.27394870993505042818970056734e1,
8: 2.49360555267965238987089396762, 9: -3.0467644718982195003823669022;
0: 2.27331014751653820792359768449, 3: -1.05344954667372501984066689879e1,
4: -2.00087205822486249909675718444, 5: -1.79589318631187989172765950534e1,
6: 2.79488845294199600508499808837e1, 7: -2.85899827713502369474065508674,
8: -8.87285693353062954433549289258, 9: 1.23605671757943030647266201528e1,
10: 6.43392746015763530355970484046e-1;
0: 5.42937341165687622380535766363e-2, 5: 4.45031289275240888144113950566,
6: 1.89151789931450038304281599044, 7: -5.8012039600105847814672114227,
8: 3.1116436695781989440891606237e-1,
9: -1.52160949662516078556178806805e-1,
10: 2.01365400804030348374776537501e-1,
11: 4.47106157277725905176885569043e-2;
0: 0.1312004499419488073250102996e-1, 5: -0.1225156446376204440720569753e+1,
6: -0.4957589496572501915214079952, 7: 0.1664377182454986536961530415e+1,
8: -0.3503288487499736816886487290, 9: 0.3341791187130174790297318841,
10: 0.8192320648511571246570742613e-1,
11: -0.2235530786388629525884427845e-1;
"""


@functools.cache
def _tableau():
    """The 8(5) tableau as arrays (A, E5), built on first use: A is 13 x 12,
    row s giving stage s + 1's point (row 0 is zero) and row 12, B, the new
    point; E5 weighs the first 12 stages.  The 13th stage, the field at the
    new point, has weight 0 in E5."""

    def dense(row: str) -> np.ndarray:
        v = np.zeros(12)
        for term in row.split(","):
            j, a = term.split(":")
            v[int(j)] = float(a)
        return v

    *rows, e5 = map(dense, _DOP853.split(";")[:-1])
    return np.array([np.zeros(12), *rows]), e5


@dataclass
class FlowState:
    point: np.ndarray
    time: float
    str_value: float
    stratum: Permutation


def _next_step(h: float, err: float, what: str) -> float:
    """The step controller of the 8(5) pair: grow or shrink h by the usual
    safety-factored power of the error ratio, whose exponent 1/6 is one
    over the error estimate's order plus one, within [0.2, 5] and capped
    at MAX_STEP.  A non-finite error (a stage that left the domain of the
    field) shrinks h by the largest factor, 0.2."""
    grow = 0.9 * (1.0 / max(err, 1e-16)) ** (1 / 6) if math.isfinite(err) else 0.2
    h *= min(5.0, max(0.2, grow))
    h = math.copysign(min(abs(h), MAX_STEP), h)
    if abs(h) < 1e-16:
        raise StepUnderflow(f"{what} step size underflow")
    return h


@dataclass
class FiberIntegrator:
    """Adaptive Runge-Kutta for the fiber field over a fixed base in fiber
    coordinates z = base^-1 x: rhs(z) = psi_tangent(z, M, mask), with M and
    N(u)'s mask computed once for the base.  reproject moves a point x
    back onto the fiber; flow applies it to the points it reports.
    A step (rk_step) is one step of the Dormand-Prince 8(5) pair that
    reuses the last stage of the step before as its first: callers carry
    the field at the current point, so a step costs 12 field evaluations,
    not 13."""

    u: Permutation
    base: np.ndarray
    tol = FLOW_STEP_TOL

    def __post_init__(self):
        self._u0, self._uinv0 = kernels.perm_arrays(self.u)
        self._M, self._mask = kernels.base_field(self.base, self._u0, self._uinv0)

    def rhs(self, z: np.ndarray) -> np.ndarray:
        return kernels.psi_tangent(z, self._M, self._mask)

    def reproject(self, x: np.ndarray) -> np.ndarray:
        return kernels.rho_move(x, self.base, self._u0, self._uinv0)

    def error_scale(self, z: np.ndarray) -> np.ndarray:
        """What each row's error estimate is measured against, times tol."""
        return 1.0 + np.abs(z).max(axis=(-2, -1))

    def rk_step(self, z: np.ndarray, h, k1=None) -> tuple[np.ndarray, float, np.ndarray]:
        """One step of the 8(5) pair from z (one matrix or a stack of shape
        (B, n, n)) by h (a scalar or one step per row), from the field
        k1 = rhs(z) (evaluated here when None).  Returns the 8th-order point
        z8, the largest of the rows' own 5th-order error estimates, each
        scaled by tol * error_scale(z8_row), and the 13th stage
        k13 = rhs(z8), which is the next step's k1 when this one is
        accepted: a step costs 12 field evaluations.  Each stage's point is
        one product of its tableau row with the stages so far, and the
        error one product of E5 with the first twelve, so a stage that is
        nan gives a nan error; so does a nan or infinite k13, explicitly,
        since its weight in E5 is 0."""
        a, e5 = _tableau()
        h = np.asarray(h, dtype=np.float64)
        if h.ndim:
            h = h[:, None, None]
        k = np.empty((13,) + z.shape)
        k[0] = self.rhs(z) if k1 is None else k1
        flat = k.reshape(13, -1)
        for s in range(1, 13):
            zs = z + h * (a[s, :s] @ flat[:s]).reshape(z.shape)
            k[s] = self.rhs(zs)
        z8 = zs  # the last row of A is B
        delta = np.abs(h * (e5 @ flat[:12]).reshape(z.shape)).max(axis=(-2, -1))
        err = float((delta / (self.tol * self.error_scale(z8))).max())
        return z8, err if np.isfinite(k[12]).all() else math.nan, k[12]


def cell_of_float(x: np.ndarray, fallback=None):
    """Float analogue of the exact cell identification, using SVD ranks: the
    label of one matrix (n, n), or the list of labels of a stack (B, n, n),
    by one SVD call over the stack per top-right submatrix x[:i, j-1:].

    A row whose rank table decodes to no permutation, or where some singular
    value lies between ``RANK_ZERO_TOL`` and ``RANK_TOL`` (relative) so a rank
    is undecidable, is labelled ``fallback`` (one per row for a stack), or
    with no fallback raises UndecidableRank.  Input that is not square or
    not finite raises InvalidArgument."""
    square = x.ndim >= 2 and x.shape[-2] == x.shape[-1]
    _require(square and np.isfinite(x).all(), "expected square matrices with finite entries")
    stack = x.reshape((-1,) + x.shape[-2:])
    n = x.shape[-1]
    # sv[b, i, j]: row b's x[:i, j-1:] singular values, zero-padded, 0 at the borders
    sv = np.zeros((len(stack), n + 1, n + 2, n))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            sv[:, i, j, : min(i, n + 1 - j)] = np.linalg.svd(stack[:, :i, j - 1 :], compute_uv=False)
    scale = np.maximum(1.0, sv[..., :1])
    ranks = np.sum(sv > RANK_TOL * scale, axis=-1)
    undecidable = ranks != np.sum(sv > RANK_ZERO_TOL * scale, axis=-1)
    labels = []
    for b, r in enumerate(ranks.tolist()):
        if undecidable[b].any():
            i, j = np.argwhere(undecidable[b])[0].tolist()
            why = f"rank of x[:{i}, {j - 1}:] is undecidable"
        else:
            try:
                labels.append(decode_rank_jumps(r))
                continue
            except ValueError as exc:
                why = f"rank table decodes to no permutation: {exc}"
        if fallback is None:
            raise UndecidableRank(why)
        labels.append(fallback if x.ndim == 2 else fallback[b])
    return labels[0] if x.ndim == 2 else labels


def _require(ok: bool, message: str):
    if not ok:
        raise InvalidArgument(message)


@functools.cache
def _lower_triangle(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row and column indices of the entries on and below the diagonal of
    an n x n matrix, and the identity's entries there."""
    rows, cols = np.tril_indices(n)
    identity = (rows == cols).astype(np.float64)
    for a in (rows, cols, identity):
        a.flags.writeable = False
    return rows, cols, identity


def _require_unipotent(x: np.ndarray, n: int, stack: bool = True):
    """x must be one matrix (n, n) or, with stack, a stack (..., n, n)
    (InvalidArgument otherwise), lie in N: its lower triangle is exactly I
    (NotUnipotentUpper otherwise), and have finite entries (InvalidArgument
    otherwise)."""
    _require(x.shape[-2:] == (n, n) and (stack or x.ndim == 2), "rank mismatch")
    rows, cols, identity = _lower_triangle(n)
    if not (x[..., rows, cols] == identity).all():
        raise NotUnipotentUpper("expected a unipotent upper-triangular matrix")
    _require(np.isfinite(x).all(), "matrix entries must be finite")


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

    It integrates z = x_u^-1 x0, entered by one solve, and leaves z only
    at the points it reports after x0, each snapshot and the end, as x_u z
    re-projected onto the fiber.  Backward runs until the field (or the
    height str(z) above the base) is below ``STATIONARY_TOL``; forward runs
    until ``target_str`` is reached, each step capped at 1.1 times the
    time the current rate of str needs to reach it, so the last one lands
    just past it; any other direction is InvalidArgument.
    x0 must be one matrix as _require_unipotent asks and lie in G_0 u:
    NotInG0u is raised, before any step, when the float x_u of x0 is not
    finite or u is not below its label.
    The stratum label is frozen at the start and re-checked at snapshots
    away from the base, where float rank detection is meaningful; a
    snapshot whose label is undecidable is not checked, and an undecidable
    label at x0 raises UndecidableRank.
    """
    _require(direction in ("backward", "forward"), "direction must be backward or forward")
    forward = direction == "forward"
    _require(not forward or target_str is not None, "forward flow needs target_str")
    _require(target_str is None or math.isfinite(target_str), "target_str must be finite")
    _require(snapshot_every >= 1, "snapshot_every must be at least 1")
    _require(max_steps >= 1, "max_steps must be at least 1")
    x0 = np.asarray(x0, dtype=np.float64)
    _require_unipotent(x0, u.n, stack=False)
    stratum = cell_of_float(x0)
    u0, uinv0 = kernels.perm_arrays(u)
    with np.errstate(all="ignore"):  # a zero pivot shows as inf or nan
        x_u = kernels.pi_u(x0, u0, uinv0)
    if not (np.isfinite(x_u).all() and bruhat_leq(u, stratum)):
        raise NotInG0u(None)
    integ = FiberIntegrator(u, x_u)
    base_str = str_of(x_u)

    traj: list[FlowState] = [
        FlowState(x0.copy(), 0.0, str_of(x0), stratum)
    ]
    z, t = np.linalg.solve(x_u, x0), 0.0
    k = integ.rhs(z)  # the field at z, carried from step to step
    h, err = (0.01 if forward else -0.01), None
    accepted = 0
    for _ in range(max_steps):
        if forward:
            height = base_str + str_of(z)
            if height >= target_str:
                break
        elif str_of(z) < STATIONARY_TOL or float(np.abs(k).max()) < STATIONARY_TOL:
            break
        if err is not None:  # after the stop test: a last short step cannot underflow
            h = _next_step(h, err, "flow")
        # land past the target by about 10 % of the rest, not by a whole
        # step: str(k) is d str / dt, positive off the base
        if forward and (rate := str_of(k)) > 0.0:
            h = min(h, 1.1 * (target_str - height) / rate)
        zn, err, kn = integ.rk_step(z, h, k)
        if err <= 1.0:
            z, t, k = zn, t + h, kn
            accepted += 1
            if accepted % snapshot_every == 0:
                x = integ.reproject(x_u @ z)
                s = str_of(x)
                if s - base_str > STRATUM_CHECK_FLOOR and cell_of_float(x, stratum) != stratum:
                    raise StratumEscape(
                        f"stratum label changed along trajectory at t={t}"
                    )
                traj.append(FlowState(x, t, s, stratum))
    else:
        raise MaxStepsExceeded(f"flow did not terminate in {max_steps} steps")
    if traj[-1].time != t:
        x = integ.reproject(x_u @ z)
        traj.append(FlowState(x, t, str_of(x), stratum))
    return traj


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

    def __post_init__(self):
        super().__post_init__()
        self._eye = np.eye(self.u.n)

    def rhs(self, z: np.ndarray) -> np.ndarray:
        d = super().rhs(z)
        s = str_of(d)
        # nan where the field does not raise str: an RK stage that overshoots
        # the totally nonnegative part fails its step's error test instead
        return d / np.where(s > 0.0, s, np.nan)[..., None, None]

    def error_scale(self, z: np.ndarray) -> np.ndarray:
        """Each row's displacement from the base, max|z - I|: near the base
        the entries of z are O(epsilon) or smaller, and an absolute scale
        would leave them only absolute accuracy."""
        return np.abs(z - self._eye).max(axis=(-2, -1))


def link_point(x: np.ndarray, u: Permutation, epsilon: float) -> np.ndarray:
    """The unique point with str = str(base) + epsilon, base = default_base(u),
    on the trajectory through x, for one matrix x or each row of a stack (B, n, n).

    A row already within ``LEVEL_TOL`` of the level is returned unchanged.
    The others are taken to fiber coordinates z = base^-1 x by one solve
    and flow by height, along psi / str(psi): str(psi) > 0 off the base on
    the totally nonnegative part, so height is a valid time, and a row
    where it is not raises PreconditionError.  A row's height to climb (or
    descend) d is fixed at the start; all rows advance in one shared
    fraction of their own d, stepped by the 8(5) pair's controller (see
    FiberIntegrator) and clamped to the fraction left, so they land on the
    level together by construction.
    The first step tries the whole climb; the controller shrinks it where
    the trajectory bends, so a straight climb takes one step.
    Each row's error is measured against its displacement max|z - I|.
    Every row must lie in N with finite entries (see _require_unipotent).
    """
    _require_epsilon(epsilon)
    x = np.asarray(x, dtype=np.float64)
    _require_unipotent(x, u.n)
    integ = _link_field(u)
    base = integ.base
    out = x.reshape((-1,) + x.shape[-2:]).copy()
    d = str_of(base) + epsilon - str_of(out)
    rows = np.flatnonzero(~(np.abs(d) <= LEVEL_TOL))
    z, d = np.linalg.solve(base, out[rows]), d[rows]
    k = integ.rhs(z)
    if np.isnan(k).any():
        raise PreconditionError(
            "the field does not raise str at a point away from its level: str(psi) <= 0 "
            "there, so the point is the base or not totally nonnegative"
        )
    left, h = 1.0, 1.0  # the fraction of each d still to go; the next step
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
        pairs."""
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


def link_census(u: Permutation, v: Permutation, points=()) -> LinkCensus:
    """The census of the link of the u-cell inside Y_[u,v], counting where
    ``points``, a sequence of (point, drawn label) pairs such as LinkSample.points,
    land: under the point's float label, or its drawn label where that is undecidable."""
    _require_below(u, v)
    labels = sorted(
        (w for w in interval(u, v).elements if w != u),
        key=lambda w: (w.length, w.image),
    )
    dims = {w: w.length - u.length - 1 for w in labels}
    census = LinkCensus(dims, {}, sum((-1) ** d for d in dims.values()), True)
    drawn = [w for _, w in points]
    landed = cell_of_float(np.array([p for p, _ in points]), drawn) if points else []
    return census.counting(zip(landed, drawn))


@functools.cache
def default_base(u: Permutation) -> RatMatrix:
    """Canonical base point of the u-cell: all Lusztig parameters 1."""
    word = reduced_word(u)
    return lusztig_point(word, [Fraction(1)] * len(word.letters)).matrix


@functools.cache
def _link_field(u: Permutation) -> _LevelField:
    """The link's field over default_base(u), built once per u."""
    return _LevelField(u, np.array(default_base(u).to_floats()))


@functools.cache
def _link_base_A(u: Permutation) -> RatMatrix:
    """default_base(u), checked and taken to its A as rho does, once per u."""
    return base_A(default_base(u), u)


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
    a_u = _link_base_A(u)
    labels = [w for w in strata for _ in range(count)]
    stack = np.array([rho_over(random_cell_point(w, rng), a_u, u).to_floats() for w in labels])
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
    """Float torus conjugation of one matrix or each row of a stack, extended
    continuously to tau = 0, where it collapses any unipotent
    upper-triangular x to the identity (0.0 ** 0 = 1 keeps its diagonal)."""
    j = np.arange(x.shape[-1])
    return x * (float(tau) ** np.maximum(j[None, :] - j[:, None], 0))


def retraction(
    x: np.ndarray,
    tau: float,
    u: Permutation,
    v: Permutation,
    z: RatMatrix,
    epsilon: float,
) -> np.ndarray:
    """One stage of the deformation retraction of the link to a point, for
    one matrix x (n, n) or each row of a stack (B, n, n): scale z up and x
    down with the torus, project onto the v-cell, move into the fiber over
    the canonical base of the u-cell with rho, and land on the level set.
    Every row of x must be unipotent upper-triangular (NotUnipotentUpper
    otherwise) with finite entries (InvalidArgument otherwise)."""
    _require(0.0 <= tau <= 1.0, "tau must lie in [0, 1]")
    x = np.asarray(x, dtype=np.float64)
    _require(u.n == v.n == z.n, "rank mismatch")
    _require_unipotent(x, u.n)
    _require_below(u, v)
    if not (is_tnn(z) and is_in_G0_u(z, v)):
        raise ZNotInYgeqV("z must be totally nonnegative with cell >= v")
    y = conj_d_float(tau, np.array(z.to_floats())) @ conj_d_float(1.0 - tau, x)
    rows = y.reshape((-1,) + y.shape[-2:])
    # y outside G_0 v can keep float pivots that are residues, not zeros
    labels = cell_of_float(rows, [v] * len(rows)) if np.isfinite(y).all() else []
    if not all(bruhat_leq(v, w) for w in labels):
        raise ZNotInYgeqV("the scaled point's stratum is not above v")
    v0, vinv0 = kernels.perm_arrays(v)
    # A zero pivot shows as inf or nan, in the v-projection or, for x in a
    # stratum below v, in the move into the fiber over the u-cell's base.
    with np.errstate(all="ignore"):
        y_v = kernels.pi_u(y, v0, vinv0)
        moved = _link_field(u).reproject(y_v) if np.isfinite(y_v).all() else y_v
    if not np.isfinite(moved).all():
        raise ZNotInYgeqV(
            "projection onto the v-cell blew up; the input point must lie in "
            "the open v-stratum at the tau endpoints"
        )
    return link_point(moved, u, epsilon)
