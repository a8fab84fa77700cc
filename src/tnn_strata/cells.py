"""Total nonnegativity: cell parametrization, the all-minors test, and
identification of the Bruhat cell containing a unipotent matrix."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    InvalidArgument,
    NonPositiveParameter,
    NotUnipotentUpper,
    RankTooLarge,
    Singular,
)
from .perms import Permutation, ReducedWord, decode_rank_jumps
from .ratmat import (
    RatMatrix,
    all_minors_nonnegative,
    is_in_N,
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
    x = RatMatrix.identity(n)
    for a, t in zip(word.letters, params):
        x = x @ chevalley_x(a, t, n)
    return CellPoint(x, word.target, True)


def is_tnn(x: RatMatrix) -> bool:
    """All-minors nonnegativity test for unipotent upper-triangular matrices."""
    if x.n > TNN_GUARD:
        raise RankTooLarge(f"is_tnn guarded at n <= {TNN_GUARD}")
    if not is_in_N(x):
        raise NotUnipotentUpper("is_tnn expects a unipotent upper-triangular matrix")
    return all_minors_nonnegative(x)


def cell_of(x: RatMatrix) -> Permutation:
    """The w with x in B_- w B_-, recovered from northwest/southeast ranks.

    r(i,j) = rank of the submatrix on rows 1..i and columns j..n is constant
    on each double coset B_- x B_-, and decodes to w.
    """
    n = x.n
    if rank(x) < n:
        raise Singular("cell_of needs an invertible matrix")
    r = [[0] * (n + 2) for _ in range(n + 1)]
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            r[i][j] = rank(x, range(1, i + 1), range(j, n + 1))
    return decode_rank_jumps(r)

