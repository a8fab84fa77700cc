"""Projection onto a cell, the x = x_u x^u factorization, and the
fiber-to-fiber map rho, all in exact arithmetic."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cells import cell_of
from .errors import (
    CellMismatch,
    InternalInvariantError,
    InvalidArgument,
    NonPositiveTau,
    NotInG0u,
    NotUnipotentUpper,
)
from .perms import Permutation
from .ratmat import (
    NotInG0,
    RatMatrix,
    _of_ints,
    conj_by_perm,
    gauss_decompose,
    gauss_plus,
    is_in_N,
    mul_perm_left,
    mul_perm_right,
    unit_right_solve,
    unit_solve,
)


@dataclass(frozen=True)
class FiberFrame:
    """All intermediates of the factorization x = x_u x^u at one point."""

    u: Permutation
    x: RatMatrix
    x_u: RatMatrix
    x_upper_u: RatMatrix
    A: RatMatrix
    y: RatMatrix


def fiber_A(x: RatMatrix, u: Permutation) -> RatMatrix:
    """A = u^-1 [x u^-1]_+ u, the first step of factor_u, for x in N.

    Raises NotInG0u, with the size of the first vanishing leading
    principal minor of x u^-1, when x is outside G_0 u.
    """
    if x.n != u.n:
        raise InvalidArgument("rank mismatch")
    if not is_in_N(x):
        raise NotUnipotentUpper("expected a unipotent upper-triangular matrix")
    try:
        plus = gauss_plus(mul_perm_right(x, u.inverse()))
    except NotInG0 as exc:
        raise NotInG0u(exc.witness) from exc
    return conj_by_perm(u, plus)


def factor_u(x: RatMatrix, u: Permutation) -> FiberFrame:
    """Split x in N cap G_0 u as x_u * x^u with x_u in the u-cell and
    x^u in N(u):

        A   = u^-1 [x u^-1]_+ u   (``fiber_A``),
        y   = [A]_-,   x^u = [A]_+,
        x_u = [u y]_+.

    Raises what ``fiber_A`` raises.
    """
    A = fiber_A(x, u)
    try:
        fac = gauss_decompose(A)
        y, x_upper = fac.lower, fac.upper
        x_u = gauss_plus(mul_perm_left(u, y))
    except NotInG0 as exc:  # ruled out by the theory once x is in G_0 u
        raise InternalInvariantError(
            f"inner Gaussian decomposition failed for u={u.serialize()}"
        ) from exc
    if fac.diag != RatMatrix.identity(x.n):
        raise InternalInvariantError("A must have trivial diagonal factor")
    return FiberFrame(u=u, x=x, x_u=x_u, x_upper_u=x_upper, A=A, y=y)


def pi_u(x: RatMatrix, u: Permutation) -> RatMatrix:
    """The projection onto the u-cell: the x_u component of factor_u."""
    return factor_u(x, u).x_u


def base_A(x_u: RatMatrix, u: Permutation) -> RatMatrix:
    """``fiber_A`` of a base point x_u of the u-cell: checks x_u's size,
    then its cell, then x_u as ``fiber_A`` does."""
    if x_u.n != u.n:
        raise InvalidArgument("rank mismatch")
    if cell_of(x_u) != u:
        raise CellMismatch(
            f"recover_shift arguments must lie in the {u.serialize()}-cell"
        )
    return fiber_A(x_u, u)


def recover_shift(x_w: RatMatrix, xt: RatMatrix, w: Permutation) -> RatMatrix:
    """The shift A(xt)^-1 A(x_w), A = ``fiber_A``; for xt in the w-cell it
    is the unique n_1 in N_-(w) with [xt n_1]_+ = x_w.  Checks xt as
    ``fiber_A`` does, then x_w as ``base_A`` does.  Found by one back
    substitution, with no inverse; ``rho`` moves xt by it as
    x_w [n_1]_+^-1, where ``kernels.rho_move`` keeps [xt [n_1]_-]_+."""
    return _shift_of(fiber_A(xt, w), base_A(x_w, w), w)


def _shift_of(a: RatMatrix, a_u: RatMatrix, u: Permutation) -> RatMatrix:
    """a^-1 a_u for a = u^-1 P u with P unit upper triangular: row i of a
    has its other nonzero entries in columns k with u(k) > u(i), so one
    back substitution takes its rows in decreasing u(i)."""
    return unit_solve(a, a_u, sorted(range(u.n), key=u.image.__getitem__, reverse=True))


def _move(n_1: RatMatrix, x_u: RatMatrix) -> RatMatrix:
    """[xt [n_1]_-]_+ for n_1 = A(xt)^-1 A(x_u), as x_u [n_1]_+^-1.

    The leading principal minors of n_1 = u^-1 (P^-1 P_u) u are principal
    minors of the unit upper triangular P^-1 P_u, all 1, so [n_1]_0 = I and
    [n_1]_- = n_1 [n_1]_+^-1.  xt A(xt)^-1 u^-1 and u A(x_u) x_u^-1 are
    lower triangular, so xt [n_1]_- is (lower) x_u [n_1]_+^-1, whose upper
    factor is x_u [n_1]_+^-1: one elimination of n_1 and one right
    substitution per row of x_u.
    """
    return unit_right_solve(x_u, gauss_plus(n_1))


def rho(xt: RatMatrix, x_u: RatMatrix, u: Permutation) -> RatMatrix:
    """Move xt into the fiber of pi_u over x_u, preserving its Bruhat cell:

        n_1 = A(xt)^-1 A(x_u),   rho(xt) = [xt [n_1]_-]_+,

    the formula ``kernels.rho_move`` evaluates in floats.  Here it is
    computed exactly as x_u [n_1]_+^-1 (see ``_move``), with n_1 from
    ``recover_shift``.
    """
    return _move(recover_shift(x_u, xt, u), x_u)


def rho_over(a: RatMatrix, x_u: RatMatrix, a_u: RatMatrix, u: Permutation) -> RatMatrix:
    """``rho(xt, x_u, u)`` from a = ``fiber_A(xt, u)`` and
    a_u = ``base_A(x_u, u)``, which many points moved over one base compute
    once: rho depends on xt through its A alone."""
    return _move(_shift_of(a, a_u, u), x_u)


def conj_d(tau, x: RatMatrix) -> RatMatrix:
    """Torus conjugation d(tau) x d(tau)^-1: entry (i,j) scales by tau^(j-i),
    for tau = p/q as numerators times p^j q^(n-1-j) over d p^i q^(n-1-i)."""
    t = tau if isinstance(tau, Fraction) else Fraction(tau)
    if t <= 0:
        raise NonPositiveTau("tau must be > 0")
    p, q, n = t.numerator, t.denominator, x.n
    scale = [p**j * q ** (n - 1 - j) for j in range(n)]
    return _of_ints(
        [[v * s for v, s in zip(r, scale)] for r in x._num],
        [d * s for d, s in zip(x._den, scale)],
    )
