"""Exact rational matrices and the Gaussian (LDU) decomposition calculus.

Entries are stdlib ``fractions.Fraction`` (always reduced, positive
denominator); everything in this module is exact.  The arithmetic runs on
Python integers: a product works on integer numerators over a common
denominator, and one fraction-free elimination serves every
decomposition.  Fractions are built only at the boundary.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import ge, mul

from .errors import InvalidArgument, NotInG0, Singular
from .perms import Permutation


def _rat(v) -> Fraction:
    """v as a Fraction.  Text in exponent notation is rejected: Fraction
    would build the whole power, and "1e999999999" has a billion digits."""
    if isinstance(v, Fraction):
        return v
    if isinstance(v, str) and ("e" in v or "E" in v):
        raise ValueError(f"{v!r}: exponent notation is not accepted")
    return Fraction(v)


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
        """Integer dot products of the numerators over each operand's least
        common denominator, with one reduction per entry."""
        a, da = _over_lcd(self.rows)
        b, db = _over_lcd(other.rows)
        d = da * db
        cols = list(zip(*b))
        return RatMatrix(
            tuple(tuple(Fraction(sum(map(mul, r, c)), d) for c in cols) for r in a)
        )

    def inverse(self) -> "RatMatrix":
        """Forward elimination of [x | I], then back substitution: the pivot
        rows, last pivot column first, eliminated over the columns n-1..0.
        Each row ends as r/d with r[c] its pivot, so its entries of the
        inverse are r[n+j]/r[c] and the row denominator cancels."""
        n = self.n
        work, dens = _int_rows(self.rows)
        for i, (r, d) in enumerate(zip(work, dens)):
            r.extend(d if i == j else 0 for j in range(n))
        pivots = _eliminate(work, dens, range(n))
        if len(pivots) < n:
            raise Singular("matrix is singular")
        order = sorted(pivots, key=pivots.get, reverse=True)
        back, back_dens = [work[i] for i in order], [dens[i] for i in order]
        _eliminate(back, back_dens, range(n - 1, -1, -1))
        return RatMatrix(
            tuple(tuple(Fraction(v, r[c]) for v in r[n:]) for c, r in enumerate(reversed(back)))
        )

    def to_floats(self):
        try:
            return [[float(v) for v in r] for r in self.rows]
        except OverflowError:
            raise InvalidArgument("matrix entry too large for a float") from None

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
        m = RatMatrix.from_rows(obj["entries"])
        if m.n < 1:
            raise ValueError("matrix must be at least 1x1")
        if m.n != obj["n"]:
            raise ValueError("declared size disagrees with entries")
        return m

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj())


def _over_lcd(rows) -> tuple[list[list[int]], int]:
    """The integer numerators of ``rows`` over their least common denominator."""
    # *[...], not *(...), here and in _int_rows: unpacking a generator leaves
    # one tuple per call in the interpreter's tuple free lists, which grew
    # the resident memory of a long exact run by about 1 MB
    d = math.lcm(*[v.denominator for r in rows for v in r])
    return [[v.numerator * (d // v.denominator) for v in r] for r in rows], d


def _int_rows(rows) -> tuple[list[list[int]], list[int]]:
    """Each row of Fractions as integer numerators over the row's own least
    common denominator: row i is work[i] / dens[i]."""
    work, dens = [], []
    for r in rows:
        d = math.lcm(*[v.denominator for v in r])
        work.append([v.numerator * (d // v.denominator) for v in r])
        dens.append(d)
    return work, dens


def _eliminate(work: list[list[int]], dens: list[int], cols, lower=None) -> dict[int, int]:
    """Fraction-free forward Gaussian elimination of the rational rows
    work[i] / dens[i], in place, with no row swaps; returns
    {pivot row: pivot column}.

    The columns are taken in the order of ``cols``.  A column's pivot is the
    topmost row that is not yet a pivot row and has a nonzero entry there,
    and the column is cleared from the non-pivot rows below it that have a
    nonzero entry in it: with p_c the pivot entry and f the row's,
    r <- p_c r - f p over the denominator d p_c, then the row and its
    denominator are divided by their gcd (nonzero, since d is).  The
    multiplier f dens[p] / (p_c dens[i]) is written to ``lower[i][c]`` when
    ``lower`` is given.  A column with no such row gets no pivot.
    """
    pivots: dict[int, int] = {}
    for c in cols:
        p = next((i for i, r in enumerate(work) if i not in pivots and r[c]), None)
        if p is None:
            continue
        pivots[p] = c
        prow = work[p]
        pc = prow[c]
        for i in range(p + 1, len(work)):
            f = work[i][c]
            if f and i not in pivots:
                if lower is not None:
                    lower[i][c] = Fraction(f * dens[p], pc * dens[i])
                row = [pc * a - f * b for a, b in zip(work[i], prow)]
                d = dens[i] * pc
                g = math.gcd(d, *row)
                if g != 1:
                    row = [a // g for a in row]
                    d //= g
                work[i], dens[i] = row, d
    return pivots


def minor(x: RatMatrix, rows, cols) -> Fraction:
    """Determinant of the submatrix on 1-based, strictly increasing index
    sets: the sign of the row -> column pivot permutation times the product
    of the pivots, or 0 when a column has no pivot."""
    rows, cols = list(rows), list(cols)
    if len(rows) != len(cols):
        raise ValueError("row and column sets must have equal size")
    for idx in (rows, cols):
        if idx and (min(idx) < 1 or max(idx) > x.n):
            raise ValueError("index out of range")
        if any(map(ge, idx, idx[1:])):
            raise ValueError("index sets must be strictly increasing")
    work, dens = _int_rows([[x.rows[i - 1][j - 1] for j in cols] for i in rows])
    pivots = _eliminate(work, dens, range(len(cols)))
    if len(pivots) < len(cols):
        return Fraction(0)
    order = [pivots[i] for i in range(len(rows))]
    sign = (-1) ** sum(a > b for a, b in itertools.combinations(order, 2))
    return Fraction(
        math.prod((work[i][c] for i, c in pivots.items()), start=sign), math.prod(dens)
    )


def det(x: RatMatrix) -> Fraction:
    return minor(x, range(1, x.n + 1), range(1, x.n + 1))


def rank(x: RatMatrix, rows=None, cols=None) -> int:
    """Exact rank of the (sub)matrix on the given 1-based index lists."""
    rows = list(rows) if rows is not None else list(range(1, x.n + 1))
    cols = list(cols) if cols is not None else list(range(1, x.n + 1))
    work, dens = _int_rows([[x.rows[i - 1][j - 1] for j in cols] for i in rows])
    return len(_eliminate(work, dens, range(len(cols))))


@dataclass(frozen=True)
class GaussFactors:
    lower: RatMatrix
    diag: RatMatrix
    upper: RatMatrix


def gauss_decompose(x: RatMatrix) -> GaussFactors:
    """LDU factorization x = [x]_- [x]_0 [x]_+, defined iff x is in G_0.

    The first k whose pivot is not (k, k) certifies that the (k+1)x(k+1)
    leading principal minor vanishes (all earlier ones are nonzero), which
    is the NotInG0 witness.
    """
    n = x.n
    work, dens = _int_rows(x.rows)
    lower = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    pivots = _eliminate(work, dens, range(n), lower)
    k = next((k for k in range(n) if pivots.get(k) != k), None)
    if k is not None:
        raise NotInG0(k + 1)
    diag = [[Fraction(work[i][i], dens[i]) if i == j else Fraction(0) for j in range(n)]
            for i in range(n)]
    upper = [[Fraction(work[i][j], work[i][i]) for j in range(n)] for i in range(n)]
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


def is_in_G0(x: RatMatrix) -> bool:
    """All leading principal minors are nonzero: every pivot of one
    elimination in column order lies on the diagonal."""
    pivots = _eliminate(*_int_rows(x.rows), range(x.n))
    return all(pivots.get(k) == k for k in range(x.n))


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
