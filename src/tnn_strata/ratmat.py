"""Exact rational matrices and the Gaussian (LDU) decomposition calculus.

Scalars are stdlib ``fractions.Fraction`` (always reduced, positive
denominator); everything in this module is exact.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import NotInG0, Singular
from .perms import Permutation

Rat = Fraction


def _rat(v) -> Fraction:
    return v if isinstance(v, Fraction) else Fraction(v)


@dataclass(frozen=True)
class RatMatrix:
    rows: tuple[tuple[Fraction, ...], ...]

    @property
    def n(self) -> int:
        return len(self.rows)

    def __post_init__(self):
        if any(len(r) != self.n for r in self.rows):
            raise ValueError("matrix must be square")

    @staticmethod
    def from_rows(rows) -> "RatMatrix":
        return RatMatrix(tuple(tuple(_rat(v) for v in r) for r in rows))

    @staticmethod
    def identity(n: int) -> "RatMatrix":
        return RatMatrix.from_rows(
            [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        )

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        """1-based entry access, matching the x_{ij} of the formulas."""
        i, j = ij
        return self.rows[i - 1][j - 1]

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        n = self.n
        a, b = self.rows, other.rows
        return RatMatrix(
            tuple(
                tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
                for i in range(n)
            )
        )

    def transpose(self) -> "RatMatrix":
        return RatMatrix(tuple(zip(*self.rows)))

    def inverse(self) -> "RatMatrix":
        n = self.n
        aug = [list(r) + [Fraction(int(i == j)) for j in range(n)]
               for i, r in enumerate(self.rows)]
        for col in range(n):
            piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
            if piv is None:
                raise Singular("matrix is singular")
            aug[col], aug[piv] = aug[piv], aug[col]
            p = aug[col][col]
            aug[col] = [v / p for v in aug[col]]
            for r in range(n):
                if r != col and aug[r][col] != 0:
                    f = aug[r][col]
                    aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
        return RatMatrix.from_rows([r[n:] for r in aug])

    def to_floats(self):
        return [[float(v) for v in r] for r in self.rows]

    # --- serialization -------------------------------------------------

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "entries": [
                [str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
                 for v in r]
                for r in self.rows
            ],
        }

    @staticmethod
    def from_json_obj(obj: dict) -> "RatMatrix":
        m = RatMatrix.from_rows([[Fraction(s) for s in r] for r in obj["entries"]])
        if m.n < 1:
            raise ValueError("matrix must be at least 1x1")
        if m.n != obj["n"]:
            raise ValueError("declared size disagrees with entries")
        return m

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj())


def det_bareiss(rows: list[list[Fraction]]) -> Fraction:
    """Exact determinant: clear denominators, then fraction-free Bareiss."""
    m = len(rows)
    if m == 0:
        return Fraction(1)
    scale = Fraction(1)
    work: list[list[int]] = []
    for r in rows:
        lcm = math.lcm(*(v.denominator for v in r))
        scale *= lcm
        work.append([int(v * lcm) for v in r])
    sign = 1
    prev = 1
    for k in range(m - 1):
        if work[k][k] == 0:
            piv = next((r for r in range(k + 1, m) if work[r][k] != 0), None)
            if piv is None:
                return Fraction(0)
            work[k], work[piv] = work[piv], work[k]
            sign = -sign
        for i in range(k + 1, m):
            for j in range(k + 1, m):
                work[i][j] = (work[i][j] * work[k][k] - work[i][k] * work[k][j]) // prev
            work[i][k] = 0
        prev = work[k][k]
    return Fraction(sign * work[m - 1][m - 1]) / scale


def minor(x: RatMatrix, rows, cols) -> Fraction:
    """Determinant of the submatrix on 1-based, strictly increasing index sets."""
    rows, cols = list(rows), list(cols)
    if len(rows) != len(cols):
        raise ValueError("row and column sets must have equal size")
    for idx in (rows, cols):
        if any(not 1 <= i <= x.n for i in idx):
            raise ValueError("index out of range")
        if any(a >= b for a, b in zip(idx, idx[1:])):
            raise ValueError("index sets must be strictly increasing")
    sub = [[x.rows[i - 1][j - 1] for j in cols] for i in rows]
    return det_bareiss(sub)


def det(x: RatMatrix) -> Fraction:
    return det_bareiss([list(r) for r in x.rows])


def rank(x: RatMatrix, rows=None, cols=None) -> int:
    """Exact rank of the (sub)matrix on the given 1-based index lists."""
    rows = list(rows) if rows is not None else list(range(1, x.n + 1))
    cols = list(cols) if cols is not None else list(range(1, x.n + 1))
    work = [[x.rows[i - 1][j - 1] for j in cols] for i in rows]
    nr, nc = len(work), len(cols)
    rk = 0
    for col in range(nc):
        piv = next((r for r in range(rk, nr) if work[r][col] != 0), None)
        if piv is None:
            continue
        work[rk], work[piv] = work[piv], work[rk]
        p = work[rk][col]
        for r in range(rk + 1, nr):
            if work[r][col] != 0:
                f = work[r][col] / p
                work[r] = [a - f * b for a, b in zip(work[r], work[rk])]
        rk += 1
        if rk == nr:
            break
    return rk


@dataclass(frozen=True)
class GaussFactors:
    lower: RatMatrix
    diag: RatMatrix
    upper: RatMatrix


def gauss_decompose(x: RatMatrix) -> GaussFactors:
    """LDU factorization x = [x]_- [x]_0 [x]_+, defined iff x is in G_0.

    A zero pivot at column k certifies that the (k+1)x(k+1) leading
    principal minor vanishes (all earlier ones are nonzero), which is the
    NotInG0 witness.
    """
    n = x.n
    work = [list(r) for r in x.rows]
    lower = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for k in range(n):
        if work[k][k] == 0:
            raise NotInG0(k + 1)
        for i in range(k + 1, n):
            if work[i][k] != 0:
                f = work[i][k] / work[k][k]
                lower[i][k] = f
                work[i] = [a - f * b for a, b in zip(work[i], work[k])]
    diag = [[work[i][i] if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    upper = [[work[i][j] / work[i][i] for j in range(n)] for i in range(n)]
    return GaussFactors(
        RatMatrix.from_rows(lower),
        RatMatrix.from_rows(diag),
        RatMatrix.from_rows(upper),
    )


def gauss_plus(x: RatMatrix) -> RatMatrix:
    return gauss_decompose(x).upper


def gauss_minus(x: RatMatrix) -> RatMatrix:
    return gauss_decompose(x).lower


# --- membership predicates ---------------------------------------------


def is_in_N(x: RatMatrix) -> bool:
    return all(
        x.rows[i][j] == (1 if i == j else 0)
        for i in range(x.n)
        for j in range(i + 1)
    )


def is_in_N_minus(x: RatMatrix) -> bool:
    return all(
        x.rows[i][j] == (1 if i == j else 0)
        for i in range(x.n)
        for j in range(i, x.n)
    )


def is_in_B(x: RatMatrix) -> bool:
    return all(x.rows[i][j] == 0 for i in range(x.n) for j in range(i)) and all(
        x.rows[i][i] != 0 for i in range(x.n)
    )


def is_in_B_minus(x: RatMatrix) -> bool:
    return is_in_B(x.transpose())


def is_in_H(x: RatMatrix) -> bool:
    return all(
        (x.rows[i][j] == 0) == (i != j) for i in range(x.n) for j in range(x.n)
    )


def is_in_G0(x: RatMatrix) -> bool:
    return all(
        minor(x, range(1, k + 1), range(1, k + 1)) != 0 for k in range(1, x.n + 1)
    )


def perm_matrix(w: Permutation) -> RatMatrix:
    """Representative P_w with (P_w)_{ij} = 1 iff i = w(j)."""
    n = w.n
    return RatMatrix.from_rows(
        [[1 if i + 1 == w(j + 1) else 0 for j in range(n)] for i in range(n)]
    )


def mul_perm_right(x: RatMatrix, w: Permutation) -> RatMatrix:
    """x P_w: column j of the result is column w(j) of x."""
    return RatMatrix(
        tuple(tuple(r[w(j + 1) - 1] for j in range(x.n)) for r in x.rows)
    )


def mul_perm_left(w: Permutation, x: RatMatrix) -> RatMatrix:
    """P_w x: row i of the result is row w^-1(i) of x."""
    winv = w.inverse()
    return RatMatrix(tuple(x.rows[winv(i + 1) - 1] for i in range(x.n)))


def conj_by_perm(w: Permutation, x: RatMatrix) -> RatMatrix:
    """w^-1 x w, i.e. entry (i,j) of the result is x_{w(i),w(j)}."""
    return RatMatrix(
        tuple(
            tuple(x.rows[w(i + 1) - 1][w(j + 1) - 1] for j in range(x.n))
            for i in range(x.n)
        )
    )


def is_in_G0_u(x: RatMatrix, u: Permutation) -> bool:
    """x in G_0 u, tested as x u^-1 in G_0."""
    return is_in_G0(mul_perm_right(x, u.inverse()))


# --- subgroup predicates -----------------------------------------------


def in_N_of_w(x: RatMatrix, w: Permutation) -> bool:
    """N(w) = w^-1 B w intersect N: upper unipotent with x_{ij}=0 when i<j, w(i)>w(j)."""
    if not is_in_N(x):
        return False
    return all(
        x.rows[i][j] == 0
        for i in range(x.n)
        for j in range(i + 1, x.n)
        if w(i + 1) > w(j + 1)
    )


def in_Nminus_of_w(x: RatMatrix, w: Permutation) -> bool:
    """N_-(w) = w^-1 B w intersect N_-: lower unipotent, x_{ij}=0 when i>j, w(i)>w(j)."""
    if not is_in_N_minus(x):
        return False
    return all(
        x.rows[i][j] == 0
        for i in range(x.n)
        for j in range(i)
        if w(i + 1) > w(j + 1)
    )


def all_minors_nonnegative(x: RatMatrix) -> bool:
    for k in range(1, x.n + 1):
        for rows in itertools.combinations(range(1, x.n + 1), k):
            for cols in itertools.combinations(range(1, x.n + 1), k):
                if minor(x, rows, cols) < 0:
                    return False
    return True
