"""Float kernels for the flow integrator.

Mirrors the exact-arithmetic maps (fiber_A, the tangent field, rho)
on float64 numpy arrays.  With ``flow`` and ``verify`` it is one of the
three modules that import numpy; the exact core never loads it.  Every
kernel takes one matrix of shape ``(n, n)`` or a stack of shape
``(..., n, n)`` and works on the last two axes, so a whole batch of
points costs one call.  An elimination gives the upper Gaussian factor
alone and the lower one is [M^T]_+^T.
The tangent field works in fiber coordinates: x = x_u z with the base x_u
fixed and z in N(u).  Its one solve, with the unit upper-triangular z,
calls LAPACK's gesv gufunc directly, the one ``np.linalg.solve`` calls:
the wrapper's Python (array coercion, type dispatch, an errstate) was
about 3.4 of the 5.0 us of a 4x4 solve.  z has det 1, so the
solve never meets a zero pivot and the wrapper's singular-matrix error
cannot arise; every solve whose matrix can be singular keeps
``np.linalg.solve``.

Kernels take the ``Permutation`` u, as the exact maps do; ``_index`` gives
its 0-based images ``u0[j] = u(j+1)-1`` and ``uinv0`` of u^-1.  Column
permutation ``x[..., :, uinv0]`` is x*P_u^-1; ``y[..., uinv0, :]`` is P_u*y.
"""

from __future__ import annotations

from functools import cache

import numpy as np

# The package has one backend, numpy; the flag stays for reports that stamp it.
USING_NUMBA = False


@cache
def _index(u) -> tuple[np.ndarray, np.ndarray]:
    """0-based image arrays (u0, uinv0) of u and its inverse, read-only."""
    arrays = np.array(u.image) - 1, np.array(u.inverse().image) - 1
    for a in arrays:
        a.flags.writeable = False
    return arrays


@cache
def _upper_mask(n: int, k: int) -> np.ndarray:
    """Float mask of the entries on and above the k-th diagonal."""
    mask = np.triu(np.ones((n, n)), k)
    mask.flags.writeable = False
    return mask


def _eliminate(M):
    """Unipotent upper Gaussian factor U of M = L D U (no pivoting)."""
    work = np.array(M, dtype=np.float64)
    n = work.shape[-1]
    for k in range(n - 1):
        f = work[..., k + 1 :, k] / work[..., k, k, None]
        work[..., k + 1 :, k + 1 :] -= f[..., :, None] * work[..., None, k, k + 1 :]
    return work * _upper_mask(n, 0) / np.diagonal(work, axis1=-2, axis2=-1)[..., :, None]


def _lower(M):
    """Unipotent lower Gaussian factor L of M = L D U (no pivoting), as the
    transposed upper factor of M^T = U^T D L^T."""
    return np.swapaxes(_eliminate(np.swapaxes(M, -1, -2)), -1, -2)


def fiber_A(x, u):
    """A = u^-1 [x u^-1]_+ u, the float mirror of ``fiber.fiber_A``."""
    u0, uinv0 = _index(u)
    return _eliminate(x[..., :, uinv0])[..., u0[:, None], u0]


def base_field(base, u):
    """(M, mask) of the fiber over ``base``.  M = A^-1 nu A at the base,
    nu = diag(n, ..., 1), where x^u = I and so A = y; M = y^-1 nu y is lower
    triangular, so its strict upper part, rounding only, is dropped and the
    field vanishes at the base exactly.  mask is N(u)'s pattern: (i, j)
    with i < j and u(i) < u(j)."""
    A = fiber_A(base, u)
    M = np.tril(np.linalg.solve(A, np.arange(u.n, 0, -1.0)[:, None] * A))
    u0 = _index(u)[0]
    mask = np.triu(u0[:, None] < u0[None, :], 1).astype(np.float64)
    return M, mask


def psi_tangent(z, M, mask):
    """The fiber field in fiber coordinates, z pi_n(z^-1 M z) masked to
    N(u): x_u^-1 psi(x) at x = x_u z, for M and mask from ``base_field``.
    z is unit upper triangular, never singular: see the module docstring."""
    zinv_Mz = np.linalg._umath_linalg.solve(z, M @ z, signature="dd->d")
    return mask * (z @ (zinv_Mz * _upper_mask(z.shape[-1], 1)))


def rho_move(xt, x_u, u):
    """Float rho: move xt into the fiber over x_u (same cell), by the shift
    n_- = [A(xt)^-1 A(x_u)]_- (A = y x^u with y fixed by the base)."""
    n_minus = _lower(np.linalg.solve(fiber_A(xt, u), fiber_A(x_u, u)))
    return _eliminate(xt @ n_minus)
