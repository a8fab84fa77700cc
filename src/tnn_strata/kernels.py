"""Float kernels for the flow integrator.

Mirrors the exact-arithmetic maps (Gaussian factors, fiber factorization,
the tangent field, rho) on float64 numpy arrays.  Every kernel takes one
matrix of shape ``(n, n)`` or a stack of shape ``(..., n, n)`` and works on
the last two axes, so a whole batch of points costs one call.  The tangent
field works in fiber coordinates: x = x_u z with the base x_u fixed and z
in N(u).

Permutations enter as 0-based index arrays: ``u0[j] = u(j+1)-1`` and
``uinv0`` for the inverse.  Column permutation ``x[..., :, uinv0]`` is
x*P_u^-1; row permutation ``y[..., uinv0, :]`` is P_u*y.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# The package has one backend, numpy; the flag stays for reports that stamp it.
USING_NUMBA = False


@lru_cache(maxsize=None)
def _upper_mask(n: int, k: int) -> np.ndarray:
    """Float mask of the entries on and above the k-th diagonal."""
    mask = np.triu(np.ones((n, n)), k)
    mask.flags.writeable = False
    return mask


def _eliminate(M, lower=None):
    """Unipotent upper Gaussian factor U of M = L D U (no pivoting); the
    multipliers of L are written into ``lower`` when it is given."""
    work = np.array(M, dtype=np.float64)
    n = work.shape[-1]
    for k in range(n - 1):
        f = work[..., k + 1 :, k] / work[..., k, k, None]
        if lower is not None:
            lower[..., k + 1 :, k] = f
        work[..., k + 1 :, k + 1 :] -= f[..., :, None] * work[..., None, k, k + 1 :]
    return work * _upper_mask(n, 0) / np.diagonal(work, axis1=-2, axis2=-1)[..., :, None]


def ldu_factors(M):
    """Unipotent lower and upper Gaussian factors of M (no pivoting)."""
    M = np.asarray(M, dtype=np.float64)
    lower = np.broadcast_to(np.eye(M.shape[-1]), M.shape).copy()
    return lower, _eliminate(M, lower)


def fiber_A(x, u0, uinv0):
    """A = u^-1 [x u^-1]_+ u, the float mirror of ``fiber.fiber_A``."""
    return _eliminate(x[..., :, uinv0])[..., u0[:, None], u0]


def fiber_parts(x, u0, uinv0):
    """(x_u, x^u, A) of the factorization of x with respect to u."""
    A = fiber_A(x, u0, uinv0)
    y, x_upper = ldu_factors(A)
    x_u = _eliminate(y[..., uinv0, :])
    return x_u, x_upper, A


def base_field(base, u0, uinv0):
    """(M, mask) of the fiber over ``base``.  M = A^-1 nu A at the base,
    where x^u = I and so A = y; M = y^-1 nu y is lower triangular, so its
    strict upper part, rounding only, is dropped and the field vanishes at
    the base exactly.  mask is N(u)'s pattern: (i, j) with i < j and
    u(i) < u(j)."""
    A = fiber_A(base, u0, uinv0)
    M = np.tril(np.linalg.solve(A, nu_vector(len(u0))[:, None] * A))
    mask = np.triu(u0[:, None] < u0[None, :], 1).astype(np.float64)
    return M, mask


def psi_tangent(z, M, mask):
    """The fiber field in fiber coordinates, z pi_n(z^-1 M z) masked to
    N(u): x_u^-1 psi(x) at x = x_u z, for M and mask from ``base_field``."""
    return mask * (z @ (np.linalg.solve(z, M @ z) * _upper_mask(z.shape[-1], 1)))


def rho_move(xt, x_u, u0, uinv0):
    """Float rho: move xt into the fiber over x_u (same cell), by the shift
    n_- = [A(xt)^-1 A(x_u)]_- (A = y x^u with y fixed by the base)."""
    n_minus = ldu_factors(np.linalg.solve(fiber_A(xt, u0, uinv0), fiber_A(x_u, u0, uinv0)))[0]
    return _eliminate(xt @ n_minus)


def perm_arrays(u) -> tuple[np.ndarray, np.ndarray]:
    """0-based image arrays for a Permutation and its inverse."""
    u0 = np.array([v - 1 for v in u.image], dtype=np.int64)
    uinv0 = np.array([v - 1 for v in u.inverse().image], dtype=np.int64)
    return u0, uinv0


def nu_vector(n: int) -> np.ndarray:
    """Diagonal of the fixed torus direction: (n, n-1, ..., 1)."""
    return np.arange(n, 0, -1).astype(np.float64)
