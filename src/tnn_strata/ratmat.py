"""Exact rational matrices and the Gaussian (LDU) decomposition calculus.

Everything in this module is exact.  A matrix holds one canonical integer
form: row i is a tuple of integer numerators over a positive row
denominator, in lowest terms (gcd(d, *row) = 1).  Products, inverses,
eliminations and permutations work on these integers and build each
result row with one gcd, and ``==`` and ``hash`` compare the form
directly.  The reduced ``Fraction`` entries, ``.rows``, are a view built
on each read; the core never reads it.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from operator import ge, mul

from .errors import InvalidArgument, NotInG0, Singular
from .perms import Permutation


def _rat(v) -> Fraction:
    """v as a Fraction.  Text in exponent notation is rejected: Fraction
    would build the whole power, and "1e999999999" has a billion digits.
    A bool is rejected too: JSON true is not the number 1."""
    if isinstance(v, Fraction):
        return v
    if isinstance(v, bool):
        raise ValueError(f"{v!r} is not a number")
    if isinstance(v, str) and ("e" in v or "E" in v):
        raise ValueError(f"{v!r}: exponent notation is not accepted")
    return Fraction(v)


class RatMatrix:
    """An immutable square matrix of rationals, built from rows of
    ``Fraction``s or ints.  Row i is ``_num[i]`` over ``_den[i]``, its
    one representation, which ``==`` and ``hash`` read."""

    def __init__(self, rows):
        num, den = [], []
        for r in rows:
            if len(r) != len(rows):
                raise ValueError("matrix must be square")
            # Reduced entries over their least common denominator are a row
            # in lowest terms.  *[...], not *(...): unpacking a generator
            # leaves a tuple per call in the interpreter's free lists.
            d = math.lcm(*[v.denominator for v in r])
            num.append(tuple([v.numerator * (d // v.denominator) for v in r]))
            den.append(d)
        _fill(self, tuple(num), tuple(den))

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        """The entries as reduced Fractions, built on each read."""
        return tuple(tuple(Fraction(v, d) for v in r) for r, d in zip(self._num, self._den))

    @property
    def n(self) -> int:
        return len(self._den)

    def __repr__(self):
        return f"RatMatrix(rows={self.rows!r})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._num == other._num and self._den == other._den

    def __hash__(self):
        return hash((self._num, self._den))

    @staticmethod
    def from_rows(rows) -> "RatMatrix":
        return RatMatrix([[_rat(v) for v in r] for r in rows])

    @staticmethod
    def identity(n: int) -> "RatMatrix":
        return _of_ints([[int(i == j) for j in range(n)] for i in range(n)], [1] * n)

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        """1-based entry access, matching the x_{ij} of the formulas."""
        i, j = ij
        return Fraction(self._num[i - 1][j - 1], self._den[i - 1])

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        """Integer dot products: with the rows of ``other`` over their least
        common denominator D, row i of the product is the row of dot
        products of self's numerators over d_i D."""
        lcd = math.lcm(*other._den)
        b = [r if d == lcd else [v * (lcd // d) for v in r]
             for r, d in zip(other._num, other._den)]
        cols = list(zip(*b))
        return _of_ints(
            [[sum(map(mul, r, c)) for c in cols] for r in self._num],
            [d * lcd for d in self._den],
        )

    def inverse(self) -> "RatMatrix":
        """Forward elimination of [x | I], then back substitution: the pivot
        rows, last pivot column first, eliminated over the columns n-1..0.
        Each row ends as r/d with r[c] its pivot, so its row of the inverse
        is r[n:]/r[c] and the row denominator cancels."""
        n = self.n
        work, dens = _work_rows(self)
        for i, (r, d) in enumerate(zip(work, dens)):
            r.extend(d if i == j else 0 for j in range(n))
        pivots = _eliminate(work, dens, range(n))
        if len(pivots) < n:
            raise Singular("matrix is singular")
        order = sorted(pivots, key=pivots.get, reverse=True)
        back, back_dens = [work[i] for i in order], [dens[i] for i in order]
        _eliminate(back, back_dens, range(n - 1, -1, -1))
        back.reverse()
        return _of_ints([r[n:] for r in back], [r[c] for c, r in enumerate(back)])

    def to_floats(self):
        """Each entry as float(Fraction) gives it: int / int is correctly
        rounded, so the unreduced quotient rounds to the same float."""
        try:
            return [[v / d for v in r] for r, d in zip(self._num, self._den)]
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
        entries = obj["entries"]
        if type(entries) is not list or any(type(r) is not list for r in entries):
            raise ValueError("entries must be a list of rows, each a list")
        m = RatMatrix.from_rows(entries)
        if m.n < 1:
            raise ValueError("matrix must be at least 1x1")
        if type(obj["n"]) is not int:
            raise ValueError("declared size must be an integer")
        if m.n != obj["n"]:
            raise ValueError("declared size disagrees with entries")
        return m

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj())


def _fill(m: RatMatrix, num: tuple, den: tuple) -> RatMatrix:
    object.__setattr__(m, "_num", num)
    object.__setattr__(m, "_den", den)
    return m


def _of_canonical(num, den) -> RatMatrix:
    """The matrix with row i equal to num[i] / den[i], rows already in
    canonical form, as permuting the entries of canonical rows, or whole
    rows with their denominators, leaves them."""
    return _fill(object.__new__(RatMatrix), tuple(num), tuple(den))


def _of_ints(rows, dens) -> RatMatrix:
    """The matrix with row i equal to rows[i] / dens[i], any integers with
    dens[i] nonzero: each row is brought to canonical form with one gcd."""
    num, den = [], []
    for r, d in zip(rows, dens):
        if d < 0:
            r, d = [-v for v in r], -d
        g = math.gcd(d, *r)
        if g != 1:
            r, d = [v // g for v in r], d // g
        num.append(tuple(r))
        den.append(d)
    return _of_canonical(num, den)


def _map_rows(x: RatMatrix, f) -> RatMatrix:
    """The matrix whose row i is f(i, r) / d for r / d row i of x, with r
    its integer numerators: f scales or zeroes entries of one row."""
    return _of_ints([f(i, r) for i, r in enumerate(x._num)], x._den)


def _work_rows(x: RatMatrix) -> tuple[list[list[int]], list[int]]:
    """Mutable copies of x's integer rows and row denominators, for
    ``_eliminate``: row i is work[i] / dens[i]."""
    return [list(r) for r in x._num], list(x._den)


def _eliminate(work: list[list[int]], dens: list[int], cols, lower=None) -> dict[int, int]:
    """Fraction-free forward Gaussian elimination of the rational rows
    work[i] / dens[i], in place, with no row swaps; returns
    {pivot row: pivot column}.

    The columns are taken in the order of ``cols``.  A column's pivot is the
    topmost row that is not yet a pivot row and has a nonzero entry there,
    and the column is cleared from the non-pivot rows below it that have a
    nonzero entry in it: with p_c the pivot entry and f the row's,
    r <- p_c r - f p over the denominator d p_c, then the row and its
    denominator are divided by their gcd (nonzero, since d is).  A column
    with no such row gets no pivot.  With ``lower`` (one dict per row), it
    sets lower[i][p] = (f d_p, d p_c): row i's multiplier of pivot row p / d_p.
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
                    lower[i][p] = (f * dens[p], dens[i] * pc)
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
    sets: the entry or a*d - b*c for one or two indices, otherwise the sign
    of the row -> column pivot permutation times the product of the pivots,
    or 0 when a column has no pivot."""
    rows, cols = list(rows), list(cols)
    if len(rows) != len(cols):
        raise ValueError("row and column sets must have equal size")
    for idx in (rows, cols):
        if idx and (min(idx) < 1 or max(idx) > x.n):
            raise ValueError("index out of range")
        if any(map(ge, idx, idx[1:])):
            raise ValueError("index sets must be strictly increasing")
    num, den = x._num, x._den
    if len(rows) == 1:
        i = rows[0] - 1
        return Fraction(num[i][cols[0] - 1], den[i])
    if len(rows) == 2:
        i, k = rows[0] - 1, rows[1] - 1
        p, q = num[i], num[k]
        j, l = cols[0] - 1, cols[1] - 1
        return Fraction(p[j] * q[l] - p[l] * q[j], den[i] * den[k])
    work = [[num[i - 1][j - 1] for j in cols] for i in rows]
    dens = [den[i - 1] for i in rows]
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
    work = [[x._num[i - 1][j - 1] for j in cols] for i in rows]
    return len(_eliminate(work, [x._den[i - 1] for i in rows], range(len(cols))))


class GaussFactors:
    """x = lower @ diag @ upper, the LDU factors of x."""

    __slots__ = ("lower", "diag", "upper")

    def __init__(self, lower: RatMatrix, diag: RatMatrix, upper: RatMatrix):
        self.lower, self.diag, self.upper = lower, diag, upper

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.lower, self.diag, self.upper) == (other.lower, other.diag, other.upper)


def _g0_eliminate(x: RatMatrix, lower=None):
    """One elimination of x in column order: its rows as work[i] / dens[i].

    The first k whose pivot is not (k, k) certifies that the (k+1)x(k+1)
    leading principal minor vanishes (all earlier ones are nonzero), which
    is the NotInG0 witness.
    """
    work, dens = _work_rows(x)
    pivots = _eliminate(work, dens, range(x.n), lower)
    k = next((k for k in range(x.n) if pivots.get(k) != k), None)
    if k is not None:
        raise NotInG0(k + 1)
    return work, dens


def gauss_decompose(x: RatMatrix) -> GaussFactors:
    """LDU factorization x = [x]_- [x]_0 [x]_+, defined iff x is in G_0."""
    n = x.n
    lower = [{} for _ in range(n)]
    work, dens = _g0_eliminate(x, lower)
    diag = [[work[i][i] if i == j else 0 for j in range(n)] for i in range(n)]
    return GaussFactors(_unit_lower(lower), _of_ints(diag, dens), _over_pivots(work))


def _over_pivots(work: list[list[int]]) -> RatMatrix:
    """[x]_+ from the eliminated rows of x: each row over its pivot."""
    return _of_ints(work, [r[i] for i, r in enumerate(work)])


def _unit_lower(lower: list[dict]) -> RatMatrix:
    """[x]_- from the multipliers of one elimination of x in G_0: row i has
    lower[i][k] at k < i and 1 on the diagonal, over their lcm."""
    rows, dens = [], []
    for i, m in enumerate(lower):
        d = math.lcm(*[b for _, b in m.values()])
        row = [0] * len(lower)
        for k, (a, b) in m.items():
            row[k] = a * (d // b)
        row[i] = d
        rows.append(row)
        dens.append(d)
    return _of_ints(rows, dens)


def gauss_plus(x: RatMatrix) -> RatMatrix:
    """[x]_+ alone, with no lower factor and no diagonal."""
    return _over_pivots(_g0_eliminate(x)[0])


def gauss_minus(x: RatMatrix) -> RatMatrix:
    """[x]_- alone, from the multipliers of one elimination of x, with no
    upper factor and no diagonal."""
    lower = [{} for _ in range(x.n)]
    _g0_eliminate(x, lower)
    return _unit_lower(lower)


# --- triangular solves -------------------------------------------------


def unit_solve(p: RatMatrix, b: RatMatrix, order) -> RatMatrix:
    """p^-1 b for p with unit diagonal whose row i has its other nonzero
    entries only in columns k before i in ``order`` (n-1, ..., 0 for p unit
    upper triangular): back substitution, x_i = b_i - sum of p_ik x_k,
    over d e l for b_i / d, p_i / e and l the lcm of those x_k's
    denominators."""
    num, den = [()] * p.n, [1] * p.n
    for i in order:
        pr, d = p._num[i], b._den[i]
        ks = [k for k, v in enumerate(pr) if v and k != i]
        l = math.lcm(*[den[k] for k in ks])
        s = p._den[i] * l
        row = [v * s for v in b._num[i]]
        for k in ks:
            f = d * pr[k] * (l // den[k])
            row = [a - f * v for a, v in zip(row, num[k])]
        d *= s
        g = math.gcd(d, *row)
        num[i], den[i] = tuple([a // g for a in row]), d // g
    return _of_canonical(num, den)


def unit_right_solve(x: RatMatrix, p: RatMatrix) -> RatMatrix:
    """x p^-1 for x upper triangular and p unit upper triangular, by
    forward substitution: row i solves r p = x_i, clearing its columns
    left to right.  With s / d the columns j.. not yet cleared and p_j / g_j
    row j of p, r_j = s[0] / d clears column j and leaves
    (g_j s - s[0] p_j) / (d g_j); each r_j is then put over the last d."""
    n = x.n
    tails = [r[j + 1:] for j, r in enumerate(p._num)]
    rows, dens = [], []
    for i, (a, d) in enumerate(zip(x._num, x._den)):
        s, r = a[i:], [(0, 1)] * n
        for j in range(i, n):
            f, s = s[0], s[1:]
            if f:
                r[j] = (f, d)
                g = p._den[j]
                s = [g * v - f * w for v, w in zip(s, tails[j])]
                d *= g
        rows.append([v * (d // e) for v, e in r])
        dens.append(d)
    return _of_ints(rows, dens)


# --- membership predicates ---------------------------------------------
# A canonical row has entry 1 at j exactly when its numerator there equals
# the row denominator, and entry 0 exactly when the numerator is 0.


def is_in_N(x: RatMatrix) -> bool:
    return all(r[i] == d and not any(r[:i]) for i, (r, d) in enumerate(zip(x._num, x._den)))


def is_in_N_minus(x: RatMatrix) -> bool:
    return all(r[i] == d and not any(r[i + 1:]) for i, (r, d) in enumerate(zip(x._num, x._den)))


def is_in_G0(x: RatMatrix) -> bool:
    """All leading principal minors are nonzero: every pivot of one
    elimination in column order lies on the diagonal."""
    pivots = _eliminate(*_work_rows(x), range(x.n))
    return all(pivots.get(k) == k for k in range(x.n))


def perm_matrix(w: Permutation) -> RatMatrix:
    """Representative P_w with (P_w)_{ij} = 1 iff i = w(j)."""
    n = w.n
    return _of_ints([[int(i + 1 == w(j + 1)) for j in range(n)] for i in range(n)], [1] * n)


def mul_perm_right(x: RatMatrix, w: Permutation) -> RatMatrix:
    """x P_w: column j of the result is column w(j) of x."""
    cols = [k - 1 for k in w.image]
    return _of_canonical([tuple([r[k] for k in cols]) for r in x._num], x._den)


def mul_perm_left(w: Permutation, x: RatMatrix) -> RatMatrix:
    """P_w x: row i of the result is row w^-1(i) of x."""
    winv = w.inverse()
    order = [winv(i + 1) - 1 for i in range(x.n)]
    return _of_canonical([x._num[i] for i in order], [x._den[i] for i in order])


def conj_by_perm(w: Permutation, x: RatMatrix) -> RatMatrix:
    """w^-1 x w, i.e. entry (i,j) of the result is x_{w(i),w(j)}."""
    idx = [k - 1 for k in w.image]
    return _of_canonical(
        [tuple([x._num[i][j] for j in idx]) for i in idx], [x._den[i] for i in idx]
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
        x._num[i][j] == 0
        for i in range(x.n)
        for j in range(i + 1, x.n)
        if w(i + 1) > w(j + 1)
    )


def in_Nminus_of_w(x: RatMatrix, w: Permutation) -> bool:
    """N_-(w) = w^-1 B w intersect N_-: lower unipotent, x_{ij}=0 when i>j, w(i)>w(j)."""
    if not is_in_N_minus(x):
        return False
    return all(
        x._num[i][j] == 0
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
