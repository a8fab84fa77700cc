"""The float path: numerical integration of the fiber field, float cell
labels, flows, link sampling, and the retraction of a link.  The exact
field it integrates, ``psi``, and ``str_of`` live in ``fiber``."""

from __future__ import annotations

import functools
import math
import random
import sys
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import cells, fiber, kernels, perms
from .errors import (
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
from .fiber import base_A, conj_d, fiber_A, rho_over, str_of
from .perms import INTERVAL_GUARD, Permutation, bruhat_leq, bruhat_less, decode_rank_jumps
from .ratmat import RatMatrix, is_in_G0_u

# The exact-core functions that perfbench's tracer wraps are read through
# their modules at each call, never bound here: this module loads on first
# use, perhaps while they are wrapped, and a binding taken then would keep
# the wrapper after it is removed (tests/test_bench_pins.py holds this).
# The two that perfbench reads through this module, flow.is_tnn in its
# tests and flow.psi in its exact workload, stay readable here.
_CORE = {"is_tnn": cells, "psi": fiber}


def __getattr__(name):
    if name not in _CORE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_CORE[name], name)

# The fixed tolerances of the float path.  Forward flow re-checks the stratum
# label only above STRATUM_CHECK_FLOOR over the base, where float ranks mean
# something; cell_of_float counts singular values above RANK_TOL (relative)
# and cannot tell those between RANK_ZERO_TOL and RANK_TOL from zero.
STRATUM_CHECK_FLOOR = 1e-3
RANK_TOL = 1e-8
RANK_ZERO_TOL = 1e-12
STATIONARY_TOL = 1e-10  # x0 below this exact height over its base is stationary; a backward end lies below it
FLOW_STEP_TOL = 1e-9  # RK tolerance of forward flow
# link_point integrates the field normalised by height at RK tolerance
# LINK_STEP_TOL, lands every row on its level by construction and takes
# epsilon up to LINK_EPSILON_GUARD.  LEVEL_TOL bounds a link point's level
# error in the checks.
LEVEL_TOL = 1e-9
LINK_STEP_TOL = 1e-12
LINK_EPSILON_GUARD = 1e3
MAX_STEP = 1.0
MAX_STEPS = 100_000  # the step budget of flow and of link_point
SNAPSHOT_EVERY = 50  # forward flow reports every SNAPSHOT_EVERY-th accepted step
LINK_POINT_BUDGET = 10_000  # most points one fiber_points call may draw


# --- numerical integration ---------------------------------------------

# The Dormand-Prince 8(5) pair, "DOP853" (Hairer, Norsett & Wanner, Solving
# Ordinary Differential Equations I, 2nd ed., sec. II.10; Prince & Dormand,
# J. Comput. Appl. Math. 7, 1981): the doubles of Hairer's dop853 code as
# shortest reprs, a row a line (continuations indented): the lower triangle
# of rows 1..12 of the tableau A (row 12 is the 8th-order weights B), then
# the weights E5 of the 5th-order error estimate.  One string, not Python
# literals: compiling literals raises the peak memory of a fresh import.
_DOP853 = """
0.05260015195876773
0.0197250569845379 0.0591751709536137
0.02958758547680685 0.0 0.08876275643042054
0.2413651341592667 0.0 -0.8845494793282861 0.924834003261792
0.037037037037037035 0.0 0.0 0.17082860872947386 0.12546768756682242
0.037109375 0.0 0.0 0.17025221101954405 0.06021653898045596 -0.017578125
0.03709200011850479 0.0 0.0 0.17038392571223998 0.10726203044637328 -0.015319437748624402
    0.008273789163814023
0.6241109587160757 0.0 0.0 -3.3608926294469414 -0.868219346841726 27.59209969944671
    20.154067550477894 -43.48988418106996
0.47766253643826434 0.0 0.0 -2.4881146199716677 -0.590290826836843 21.230051448181193
    15.279233632882423 -33.28821096898486 -0.020331201708508627
-0.9371424300859873 0.0 0.0 5.186372428844064 1.0914373489967295 -8.149787010746927
    -18.52006565999696 22.739487099350505 2.4936055526796523 -3.0467644718982196
2.273310147516538 0.0 0.0 -10.53449546673725 -2.0008720582248625 -17.9589318631188
    27.94888452941996 -2.8589982771350235 -8.87285693353063 12.360567175794303 0.6433927460157636
0.054293734116568765 0.0 0.0 0.0 0.0 4.450312892752409 1.8915178993145003 -5.801203960010585
    0.3111643669578199 -0.1521609496625161 0.20136540080403034 0.04471061572777259
0.01312004499419488 0.0 0.0 0.0 0.0 -1.2251564463762044 -0.4957589496572502 1.6643771824549864
    -0.35032884874997366 0.3341791187130175 0.08192320648511571 -0.022355307863886294
"""


@functools.cache
def _tableau():
    """The 8(5) tableau as arrays (A, E5), built on first use from
    ``_DOP853``: A is 13 x 12, row s giving stage s + 1's point (row 0 is
    zero) and row 12, B, the new point; E5 weighs the first 12 stages.
    The 13th stage, the field at the new point, has weight 0 in E5."""
    v = map(float, _DOP853.split())
    a = np.array([[next(v) if j < i else 0.0 for j in range(12)] for i in range(13)])
    return a, np.array(list(v))


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
    N(u)'s mask computed once for the base.  A step (rk_step) is one step
    of the Dormand-Prince 8(5) pair that reuses the last stage of the step
    before as its first: callers carry the field at the current point, so
    a step costs 12 field evaluations, not 13."""

    u: Permutation
    base: np.ndarray
    tol = FLOW_STEP_TOL

    def __post_init__(self):
        self._M, self._mask = kernels.base_field(self.base, self.u)

    def rhs(self, z: np.ndarray) -> np.ndarray:
        return kernels.psi_tangent(z, self._M, self._mask)

    def error_scale(self, z: np.ndarray) -> np.ndarray:
        """What each row's error estimate is measured against, times tol."""
        return 1.0 + np.abs(z).max(axis=(-2, -1))

    def rk_step(self, z: np.ndarray, h, k1: np.ndarray) -> tuple[np.ndarray, float, np.ndarray]:
        """One step of the 8(5) pair from z (one matrix or a stack of shape
        (B, n, n)) by h (a scalar, or an array that broadcasts against z,
        such as one step per row, (B, 1, 1)), from the field k1 = rhs(z).
        Returns the 8th-order point z8, the largest of the rows' own
        5th-order error estimates, each scaled by tol * error_scale(z8_row),
        and the 13th stage k13 = rhs(z8), the next step's k1 when this one
        is accepted.  Each stage's point is one product of its tableau row
        with the stages so far, and the error one product of E5 with the
        first twelve, so a stage that is nan gives a nan error; so does a
        nan or infinite k13, explicitly, since its weight in E5 is 0."""
        a, e5 = _tableau()
        h = np.asarray(h)  # numpy scales by a 0-d array faster than by a float
        k = np.empty((13,) + z.shape)
        k[0] = k1
        flat = k.reshape(13, -1)
        for s in range(1, 13):
            zs = z + h * (a[s, :s] @ flat[:s]).reshape(z.shape)
            k[s] = self.rhs(zs)
        z8 = zs  # the last row of A is B
        delta = np.abs(h * (e5 @ flat[:12]).reshape(z.shape)).max(axis=(-2, -1))
        with np.errstate(divide="ignore", invalid="ignore"):  # a zero scale rejects the step
            err = float((delta / (self.tol * self.error_scale(z8))).max())
        return z8, err if np.isfinite(k[12]).all() else math.nan, k[12]


def cell_of_float(x: np.ndarray, fallback=None):
    """Float analogue of the exact cell identification, using SVD ranks: the
    label of one matrix (n, n), or the list of labels of a stack (B, n, n),
    each an array or nested lists, by one SVD call over the stack per
    top-right submatrix x[:i, j-1:].

    A row whose rank table decodes to no permutation, or where some singular
    value lies between ``RANK_ZERO_TOL`` and ``RANK_TOL`` (relative) so a rank
    is undecidable, is labelled ``fallback`` (one per row for a stack), or
    with no fallback raises UndecidableRank.  Input that is not square or
    not finite raises InvalidArgument; matrices larger than
    ``INTERVAL_GUARD`` raise RankTooLarge before any SVD, as cell_of does."""
    x = np.asarray(x, dtype=np.float64)
    square = x.ndim >= 2 and x.shape[-2] == x.shape[-1]
    _require(square and np.isfinite(x).all(), "expected square matrices with finite entries")
    n = x.shape[-1]
    if n > INTERVAL_GUARD:
        raise RankTooLarge(f"cell_of_float guarded at n <= {INTERVAL_GUARD}")
    stack = x.reshape((-1,) + x.shape[-2:])
    # sv[b, i, j]: row b's x[:i, j-1:] singular values, zero-padded, 0 at the borders
    sv = np.zeros((len(stack), n + 1, n + 2, n))
    # LAPACK's SVD gufunc, the one np.linalg.svd(a, compute_uv=False) calls,
    # under the wrapper's error settings: the wrapper's Python was about 40 %
    # of a 4x4 label.  A non-converging SVD still raises LinAlgError.
    svd = np.linalg._umath_linalg.svd
    with np.errstate(call=_svd_nonconvergence, invalid="call", over="ignore", divide="ignore", under="ignore"):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                sv[:, i, j, : min(i, n + 1 - j)] = svd(stack[:, :i, j - 1 :], signature="d->d")
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


def _svd_nonconvergence(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge")


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
    target_str: float | None = None,
) -> list[FlowState]:
    """The flow of the fiber field from x0, in the fiber over x0's base.
    x0 is read once, as the exact rationals of its floats, and factored
    once, x0 = x_u x^u (``fiber.factor_u``); both directions use that frame.

    A flow line is a torus orbit carried into the fiber: the point at time
    t is rho(conj_d(e^t, x0), x_u, u).  x0's height over its base is
    h0 = str(x^u), exactly.  Below ``STATIONARY_TOL`` x0 is its own base:
    backward reports x0 alone, and forward to a target above x0 raises
    PreconditionError before any step.  Otherwise backward evaluates the
    orbit once, exactly (see _orbit_end), and reports x0 and the end.
    Forward integrates z from the floats of x^u over the floats of x_u, and
    leaves z only at the points it reports after x0, every
    ``SNAPSHOT_EVERY``-th accepted step and the end, as rho_move(x_u z); it
    runs until ``target_str`` is reached, each step capped at 1.1 times the
    time the current rate of str needs to reach it, so the last one lands
    just past it.  Any other direction is InvalidArgument.  An accepted
    step that leaves z unchanged raises StepUnderflow, a reported point
    that is not finite FlowError, and past ``MAX_STEPS`` steps it raises
    MaxStepsExceeded.  Entries grow like T^(n-1) on the way to height T,
    and the field multiplies two of them, so T^(n-1) above the square root
    of the float range raises RankTooLarge before any step.  An x_u or x^u
    that forward reads, or a backward end, beyond the float range raises
    InvalidArgument (``RatMatrix.to_floats``).
    x0 must be one matrix as _require_unipotent asks and lie in G_0 u:
    ``factor_u`` raises NotInG0u with its witness, and NotInG0u(None) is
    raised when u is not below x0's float label, both before any step.
    The stratum label is frozen at the start, and an undecidable label at
    x0 raises UndecidableRank.  Forward re-checks it at snapshots away from
    the base, where float rank detection is meaningful; a snapshot whose
    label is undecidable is not checked.  An exact orbit point keeps its
    cell, so backward needs no check.
    """
    _require(direction in ("backward", "forward"), "direction must be backward or forward")
    forward = direction == "forward"
    _require(not forward or target_str is not None, "forward flow needs target_str")
    _require(target_str is None or math.isfinite(target_str), "target_str must be finite")
    if forward and u.n > 1 and target_str > (bound := sys.float_info.max ** (0.5 / (u.n - 1))):
        raise RankTooLarge(f"target_str {target_str} exceeds the guard of {bound:.3g} at n = {u.n}")
    x0 = np.asarray(x0, dtype=np.float64)
    _require_unipotent(x0, u.n, stack=False)
    stratum = cell_of_float(x0)  # first: it guards the size before the exact factorization
    fr = fiber.factor_u(RatMatrix.from_rows(x0.tolist()), u)
    if not bruhat_leq(u, stratum):
        raise NotInG0u(None)
    traj = [FlowState(x0.copy(), 0.0, str_of(x0), stratum)]
    if str_of(fr.x_upper_u) < STATIONARY_TOL:
        if forward and traj[0].str_value < target_str:
            raise PreconditionError("the field vanishes at x0, the base of its fiber: no flow rises from it")
        return traj
    if not forward:
        return _orbit_end(traj[0], fr, u)

    x_u, z, t = np.array(fr.x_u.to_floats()), np.array(fr.x_upper_u.to_floats()), 0.0
    integ = FiberIntegrator(u, x_u)
    base_str = str_of(x_u)
    k = integ.rhs(z)  # the field at z, carried from step to step
    h, err = 0.01, None
    accepted = 0
    for _ in range(MAX_STEPS):
        height = base_str + str_of(z)
        stop = height >= target_str
        snapshot = accepted % SNAPSHOT_EVERY == 0
        if traj[-1].time != t and (snapshot or stop):  # a point not yet reported
            with np.errstate(all="ignore"):  # a pivot lost to cancellation shows as inf or nan
                x = kernels.rho_move(x_u @ z, x_u, u)
            if not np.isfinite(x).all():
                raise FlowError(f"the point at t={t} is not finite: its re-projection lost all precision")
            s = str_of(x)
            if snapshot and s - base_str > STRATUM_CHECK_FLOOR and cell_of_float(x, stratum) != stratum:
                raise StratumEscape(f"stratum label changed along trajectory at t={t}")
            traj.append(FlowState(x, t, s, stratum))
        if stop:
            return traj
        if err is not None:  # after the stop test: a last short step cannot underflow
            h = _next_step(h, err, "flow")
        # land past the target by about 10 % of the rest, not by a whole
        # step: str(k) is d str / dt, positive off the base
        if (rate := str_of(k)) > 0.0:
            h = min(h, 1.1 * (target_str - height) / rate)
        zn, err, kn = integ.rk_step(z, h, k)
        if err <= 1.0:
            if np.array_equal(zn, z):
                raise StepUnderflow(f"flow step at t={t} leaves z unchanged: the target is beyond its float resolution")
            z, t, k = zn, t + h, kn
            accepted += 1
    raise MaxStepsExceeded(f"flow did not terminate in {MAX_STEPS} steps")


def _orbit_end(start: FlowState, fr: fiber.FiberFrame, u: Permutation) -> list[FlowState]:
    """Backward flow from ``start`` as its exact torus orbit, over the frame
    fr = factor_u(x0, u) of x0 read as the exact rationals of its floats:
    [start, end], end the orbit point at tau = STATIONARY_TOL / (2 h0)
    rounded down to a dyadic of 30 bits, h0 = str(x^u) the height of x0
    over its base (str is additive on N), at least ``STATIONARY_TOL``.
    The orbit's height is at most tau h0; an end that is not below
    ``STATIONARY_TOL`` raises FlowError.  tau can underflow as a float, so
    its time log tau is taken from its numerator and denominator."""
    x_u = fr.x_u
    q = Fraction(STATIONARY_TOL) / (2 * str_of(fr.x_upper_u))  # at most 1/2, so k > 29
    k = 29 - q.numerator.bit_length() + q.denominator.bit_length()
    tau = Fraction((q.numerator << k) // q.denominator, 1 << k)
    t = math.log(tau.numerator) - math.log(tau.denominator)
    # A(conj_d(tau, x0)) = conj_d(tau, A(x0)), and A(x_u) = y
    end = rho_over(conj_d(tau, fr.A), x_u, fr.y, u)
    if not str_of(end) - str_of(x_u) < STATIONARY_TOL:
        raise FlowError(f"the orbit point at t={t} is not below STATIONARY_TOL over the base")
    point = np.array(end.to_floats())
    return [start, FlowState(point, t, str_of(point), start.stratum)]


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

    Every row is taken to fiber coordinates z = base^-1 x by one solve and
    flows by height, along psi / str(psi): str(psi) > 0 off the base on the
    totally nonnegative part, so height is a valid time, and a row where it
    is not raises PreconditionError.  A row's height to climb (or descend)
    d is fixed at the start; all rows advance in one shared fraction of
    their own d, stepped by the 8(5) pair's controller (see
    FiberIntegrator) and clamped to the fraction left, so they land on the
    level together by construction, a row already on it included.
    The first step tries the whole climb; the controller shrinks it where
    the trajectory bends, so a straight climb takes one step.
    Each row's error is measured against its displacement max|z - I|.
    Every row must lie in N with finite entries (see _require_unipotent).
    """
    _require_epsilon(epsilon)
    x = np.asarray(x, dtype=np.float64)
    _require_unipotent(x, u.n)
    integ = _link_base(u).field
    base = integ.base
    rows = x.reshape((-1,) + x.shape[-2:])
    d = (str_of(base) + epsilon - str_of(rows))[:, None, None]
    z = np.linalg.solve(base, rows)
    k = integ.rhs(z)
    if np.isnan(k).any():
        raise PreconditionError(
            "the field does not raise str at a point away from its level: str(psi) <= 0 "
            "there, so the point is the base or not totally nonnegative"
        )
    left, h = 1.0, 1.0  # the fraction of each d still to go; the next step
    for _ in range(MAX_STEPS):
        if not len(z) or left == 0.0:
            return (base @ z).reshape(x.shape)
        step = min(h, left)
        zn, err, kn = integ.rk_step(z, step * d, k)
        if err <= 1.0:
            z, left, k = zn, left - step, kn
        if left:  # a last step clamped to a sliver of the fraction would underflow
            h = _next_step(step, err, "link_point")
    raise MaxStepsExceeded(f"link_point did not reach its level in {MAX_STEPS} steps")


@dataclass(frozen=True)
class LinkSample:
    base: RatMatrix
    points: tuple[tuple[np.ndarray, Permutation], ...]
    dimensions: dict


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
        (w for w in perms.interval(u, v).elements if w != u),
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
    word = perms.reduced_word(u)
    return cells.lusztig_point(word, [Fraction(1)] * len(word.letters)).matrix


class _LinkBase(NamedTuple):
    field: _LevelField  # the link's float field over default_base(u)
    base: RatMatrix  # default_base(u)
    A: RatMatrix  # the base, checked and taken to its A as rho does


@functools.cache
def _link_base(u: Permutation) -> _LinkBase:
    """The link's per-u state over default_base(u), built once per u."""
    base = default_base(u)
    return _LinkBase(_LevelField(u, np.array(base.to_floats())), base, base_A(base, u))


def random_cell_point(w: Permutation, rng) -> RatMatrix:
    """Random rational point of the w-cell via its canonical reduced word."""
    word = perms.reduced_word(w)
    params = [
        Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in word.letters
    ]
    return cells.lusztig_point(word, params).matrix


def fiber_points(
    u: Permutation, strata, count: int, rng, epsilon: float
) -> tuple[np.ndarray, list[Permutation]]:
    """``count`` random cell points x of each w in ``strata``, in order, moved
    into the fiber over default_base(u) near the epsilon level: the float
    stack (B, n, n) and each row's drawn label.

    Each row is rho(conj_d(tau, x)), a point of x's own trajectory (the
    torus orbit carried into the fiber), computed exactly.  A covering
    stratum (l(w) = l(u) + 1), whose fiber is a line that link_point climbs
    in one step, keeps tau = 1; for the others tau is ``_orbit_tau``'s float
    estimate of where the orbit comes within a margin of the level, on the
    row's side, rounded to a dyadic of 8 significant bits.  A jumped row
    whose floats lie below half the level is moved at tau = 1 instead.
    Raises before drawing when count < 1, the stack would exceed
    ``LINK_POINT_BUDGET`` or epsilon is not a level link_point takes."""
    _require_epsilon(epsilon)
    _require(count >= 1, "count must be at least 1")
    if count * len(strata) > LINK_POINT_BUDGET:
        raise RankTooLarge(
            f"{count} points on each of {len(strata)} strata exceed the budget of {LINK_POINT_BUDGET}"
        )
    link = _link_base(u)
    labels = [w for w in strata for _ in range(count)]
    drawn = [random_cell_point(w, rng) for w in labels]
    tau = [Fraction(1)] * len(drawn)
    jump = [i for i, w in enumerate(labels) if w.length > u.length + 1]
    if jump:
        est = _orbit_tau(u, np.array([drawn[i].to_floats() for i in jump]), epsilon)
        for i, t in zip(jump, est.tolist()):
            m, e = math.frexp(t)
            tau[i] = Fraction(math.ldexp(round(m * 256), e - 8))

    def moved(i):
        a = fiber_A(drawn[i], u)
        if tau[i] != 1:
            a = conj_d(tau[i], a)  # the A of conj_d(tau, x)
        return rho_over(a, link.base, link.A, u).to_floats()

    stack = np.array([moved(i) for i in range(len(drawn))])
    # Below half the level a row's floats hold its offsets from the base
    # less accurately than the link point's own.
    gap = str_of(link.field.base) + epsilon - str_of(stack)
    for i in jump:
        if tau[i] != 1 and gap[i] > epsilon / 2:
            tau[i] = Fraction(1)
            stack[i] = moved(i)
    return stack, labels


def _orbit_tau(u: Permutation, x: np.ndarray, epsilon: float) -> np.ndarray:
    """For each row of the float stack x of cell points, a tau > 0 whose
    float orbit point rho_move(conj_d_float(tau, x)) lies about epsilon / 64
    short of the epsilon level, on the side of the level where the row's
    point at tau = 1 lies.  The height above
    the base is about a power of tau, so a secant in (log tau, log height)
    from tau = 1 (first slope 1, exact for u = e) takes three stacked
    evaluations.  Each row takes the secant's next iterate, which is not
    evaluated; where that is not finite, the closest evaluated one (tau = 1
    if no other is finite and closer)."""
    base = _link_base(u).field.base
    margin = epsilon / 64

    def log_height(s):
        try:
            return np.log(str_of(kernels.rho_move(conj_d_float(np.exp(s), x), base, u)) - str_of(base))
        except np.linalg.LinAlgError:  # a float pivot of exactly zero
            return np.full(len(x), np.nan)

    with np.errstate(all="ignore"):
        s0, g0 = np.zeros(len(x)), log_height(np.zeros(len(x)))
        goal = np.log(epsilon + np.where(g0 > math.log(epsilon), margin, -margin))
        best, miss, slope = s0, np.abs(g0 - goal), 1.0
        for _ in range(2):  # |log tau| <= 50: tau ** (n - 1) is finite up to n = 13
            s1 = np.clip(np.nan_to_num(s0 + (goal - g0) / slope), -50.0, 50.0)
            g1 = log_height(s1)
            better = np.abs(g1 - goal) < miss
            best, miss = np.where(better, s1, best), np.where(better, np.abs(g1 - goal), miss)
            slope, s0, g0 = (g1 - g0) / (s1 - s0), s1, g1
        last = s0 + (goal - g0) / slope
        return np.exp(np.where(np.isfinite(last), np.clip(last, -50.0, 50.0), best))


def link_sample(
    u: Permutation,
    v: Permutation,
    epsilon: float,
    count: int,
    seed: int,
) -> LinkSample:
    """Sample the link of the u-cell inside Y_[u,v]: ``count`` points of each
    stratum w in (u,v] from fiber_points, which starts each row on its own
    trajectory near the epsilon level, flowed as one stack by link_point
    the rest of the way to that level set."""
    _require_epsilon(epsilon)
    dims = link_census(u, v).dimensions
    stack, labels = fiber_points(u, dims, count, random.Random(seed), epsilon)
    pts = link_point(stack, u, epsilon)
    return LinkSample(default_base(u), tuple(zip(pts, labels)), dims)


def conj_d_float(tau, x: np.ndarray) -> np.ndarray:
    """Float torus conjugation of one matrix or each row of a stack, by one
    tau or one per row (B,), extended continuously to tau = 0, where it
    collapses any unipotent upper-triangular x to the identity
    (0.0 ** 0 = 1 keeps its diagonal)."""
    j = np.arange(x.shape[-1])
    tau = np.asarray(tau, dtype=np.float64)[..., None, None]
    return x * tau ** np.maximum(j[None, :] - j[:, None], 0)


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
    if not (cells.is_tnn(z) and is_in_G0_u(z, v)):
        raise ZNotInYgeqV("z must be totally nonnegative with cell >= v")
    y = conj_d_float(tau, np.array(z.to_floats())) @ conj_d_float(1.0 - tau, x)
    rows = y.reshape((-1,) + y.shape[-2:])
    # y outside G_0 v can keep float pivots that are residues, not zeros
    labels = cell_of_float(rows, [v] * len(rows)) if np.isfinite(y).all() else []
    if not all(bruhat_leq(v, w) for w in labels):
        raise ZNotInYgeqV("the scaled point's stratum is not above v")
    # A zero pivot shows as inf or nan, in the v-projection or, for x in a
    # stratum below v, in the move into the fiber over the u-cell's base.
    with np.errstate(all="ignore"):
        y_v = kernels.pi_u(y, v)
        moved = kernels.rho_move(y_v, _link_base(u).field.base, u) if np.isfinite(y_v).all() else y_v
    if not np.isfinite(moved).all():
        raise ZNotInYgeqV(
            "projection onto the v-cell blew up; the input point must lie in "
            "the open v-stratum at the tau endpoints"
        )
    return link_point(moved, u, epsilon)
