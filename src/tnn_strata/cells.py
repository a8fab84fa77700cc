"""Total nonnegativity: cell parametrization, the all-minors test, and
identification of the Bruhat cell containing a unipotent matrix."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    InvalidArgument,
    NonPositiveParameter,
    NotUnipotentUpper,
    RankTooLarge,
    Singular,
)
from .perms import INTERVAL_GUARD, Permutation, ReducedWord, decode_rank_jumps
from .ratmat import (
    RatMatrix,
    is_in_N,
    minor,
    rank,
)

TNN_GUARD = 6


@dataclass(frozen=True)
class CellPoint:
    matrix: RatMatrix
    cell: Permutation
    tnn: bool


def chevalley_x(i: int, t, n: int) -> RatMatrix:
    """Elementary unipotent matrix: identity plus t in entry (i, i+1)."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"generator index {i} out of range for rank {n}")
    rows = [[Fraction(int(a == b)) for b in range(n)] for a in range(n)]
    rows[i - 1][i] = Fraction(t)
    return RatMatrix.from_rows(rows)


def lusztig_point(word: ReducedWord, params) -> CellPoint:
    """Product of elementary matrices along a reduced word, with positive
    parameters; lands in the cell of the word's target."""
    params = [Fraction(t) for t in params]
    if len(params) != len(word.letters):
        raise InvalidArgument(f"need {len(word.letters)} parameters, got {len(params)}")
    if any(t <= 0 for t in params):
        raise NonPositiveParameter("all parameters must be > 0")
    n = word.target.n
    rows = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for a, t in zip(word.letters, params):
        # x <- x chevalley_x(a, t): add t times column a to column a+1
        for r in rows:
            if r[a - 1]:
                r[a] += t * r[a - 1]
    return CellPoint(RatMatrix.from_rows(rows), word.target, True)


def is_tnn(x: RatMatrix) -> bool:
    """All-minors nonnegativity test for unipotent upper-triangular matrices.

    On such an x the minor on rows I and columns J is 0 unless I <= J
    entrywise.  When I_k = J_k for some k the submatrix is block upper
    triangular with a 1 at (k, k), so the minor is a product of two smaller
    minors of the same kind; only the minors with I < J entrywise are
    computed (131 at n = 6, of 365 with I <= J), and
    ``all_minors_nonnegative`` gives the same answer.
    """
    if x.n > TNN_GUARD:
        raise RankTooLarge(f"is_tnn guarded at n <= {TNN_GUARD}")
    if not is_in_N(x):
        raise NotUnipotentUpper("is_tnn expects a unipotent upper-triangular matrix")
    idx = range(1, x.n + 1)
    return all(
        minor(x, rows, cols) >= 0
        for k in idx
        for rows in itertools.combinations(idx, k)
        for cols in itertools.combinations(idx, k)
        if all(i < j for i, j in zip(rows, cols))
    )


def cell_of(x: RatMatrix) -> Permutation:
    """The w with x in B_- w B_-, recovered from northwest/southeast ranks.

    r(i,j) = rank of the submatrix on rows 1..i and columns j..n is constant
    on each double coset B_- x B_-, and decodes to w.  Guarded at n <= INTERVAL_GUARD.
    """
    n = x.n
    if n > INTERVAL_GUARD:
        raise RankTooLarge(f"cell_of guarded at n <= {INTERVAL_GUARD}")
    if rank(x) < n:
        raise Singular("cell_of needs an invertible matrix")
    r = [[0] * (n + 2) for _ in range(n + 1)]
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            r[i][j] = rank(x, range(1, i + 1), range(j, n + 1))
    return decode_rank_jumps(r)

