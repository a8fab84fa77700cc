"""Total nonnegativity: cell parametrization, the all-minors test, and
identification of the Bruhat cell containing a unipotent matrix."""

from __future__ import annotations

import itertools
from fractions import Fraction

from .errors import (
    InvalidArgument,
    NonPositiveParameter,
    NotUnipotentUpper,
    RankTooLarge,
    Singular,
)
from .perms import INTERVAL_GUARD, Permutation, ReducedWord
from .ratmat import RatMatrix, _eliminate, _of_ints, _work_rows, is_in_N, minor, rank

TNN_GUARD = 6


class CellPoint:
    __slots__ = ("matrix", "cell")

    def __init__(self, matrix: RatMatrix, cell: Permutation):
        self.matrix, self.cell = matrix, cell


def lusztig_point(word: ReducedWord, params) -> CellPoint:
    """Product of elementary matrices along a reduced word, with positive
    parameters; lands in the cell of the word's target."""
    params = [Fraction(t) for t in params]
    if len(params) != len(word.letters):
        raise InvalidArgument(f"need {len(word.letters)} parameters, got {len(params)}")
    if any(t <= 0 for t in params):
        raise NonPositiveParameter("all parameters must be > 0")
    n = word.target.n
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    dens = [1] * n  # row i is rows[i] / dens[i]
    for a, t in zip(word.letters, params):
        # x <- x (I + t E_{a,a+1}): add t times column a to column a+1; with
        # t = p/q a row with a nonzero in column a is scaled by q
        p, q = t.numerator, t.denominator
        for i, r in enumerate(rows):
            if r[a - 1]:
                new = q * r[a] + p * r[a - 1]
                if q != 1:
                    r[:] = [v * q for v in r]
                    dens[i] *= q
                r[a] = new
    return CellPoint(_of_ints(rows, dens), word.target)


def is_tnn(x: RatMatrix) -> bool:
    """Total nonnegativity of a unipotent upper-triangular matrix, from
    its 2^n - n - 1 minors on rows a..a+k-1 and any k columns > a.

    Gasca and Pena (1992): a nonsingular matrix is TN iff its row-initial
    minors det x[1..k | J] and column-initial minors det x[I | 1..k] are
    >= 0 and its leading principal minors are > 0.  On x in N the last two
    kinds are 0 or 1, so only the row-initial minors decide.  When J
    starts with 1..m but lacks m + 1, the submatrix is block upper
    triangular with a unitriangular block on rows and columns 1..m, so the
    minor is det x[m+1..k | J - {1..m}], one of the minors above.  There
    are 57 of them at n = 6, and ``all_minors_nonnegative`` gives the same
    answer.
    """
    if x.n > TNN_GUARD:
        raise RankTooLarge(f"is_tnn guarded at n <= {TNN_GUARD}")
    if not is_in_N(x):
        raise NotUnipotentUpper("is_tnn expects a unipotent upper-triangular matrix")
    n = x.n
    return all(
        minor(x, range(a, a + k), cols) >= 0
        for a in range(1, n)
        for k in range(1, n - a + 1)
        for cols in itertools.combinations(range(a + 1, n + 1), k)
    )


def cell_of(x: RatMatrix) -> Permutation:
    """The w with x in B_- w B_-, recovered from northwest/southeast ranks.

    r(i,j) = rank of the submatrix on rows 1..i and columns j..n is constant
    on each double coset B_- x B_-, and w(j) = i where its double difference
    at (i, j) is 1.  One elimination over the columns n..1 swaps no rows and
    pivots on the topmost free row, so r(i,j) counts its pivots in rows
    1..i and columns j..n: w(j) = i when row i pivots in column j.
    Guarded at n <= INTERVAL_GUARD.
    """
    n = x.n
    if n > INTERVAL_GUARD:
        raise RankTooLarge(f"cell_of guarded at n <= {INTERVAL_GUARD}")
    if rank(x) < n:
        raise Singular("cell_of needs an invertible matrix")
    image = [0] * n
    for i, c in _eliminate(*_work_rows(x), range(n - 1, -1, -1)).items():
        image[c] = i + 1
    return Permutation(tuple(image))
