import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tnn_strata import cells, ratmat
from tnn_strata.cells import (
    cell_of,
    is_tnn,
    lusztig_point,
)
from tnn_strata.errors import (
    InvalidArgument,
    NonPositiveParameter,
    NotInG0,
    NotUnipotentUpper,
    RankTooLarge,
    Singular,
)
from tnn_strata.perms import (
    ReducedWord,
    Permutation,
    all_permutations,
    all_reduced_words,
    bruhat_leq,
    reduced_word,
)
from tnn_strata.perms import decode_rank_jumps
from tnn_strata.ratmat import (
    RatMatrix,
    all_minors_nonnegative,
    gauss_decompose,
    gauss_minus,
    gauss_plus,
    is_in_G0_u,
    perm_matrix,
    rank,
)


def random_params(rng, k):
    return [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(k)]


def random_word(rng, w):
    """A reduced word of w, peeling off a random right descent at each step."""
    letters, v = [], w
    while v.descents():
        i = rng.choice(v.descents())
        letters.append(i)
        v = v * Permutation.transposition(i, v.n)
    return ReducedWord(tuple(reversed(letters)), w)


def chevalley_x(i: int, t, n: int) -> RatMatrix:
    """Elementary unipotent matrix: identity plus t in entry (i, i+1)."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"generator index {i} out of range for rank {n}")
    rows = [[Fraction(int(a == b)) for b in range(n)] for a in range(n)]
    rows[i - 1][i] = Fraction(t)
    return RatMatrix.from_rows(rows)


def chevalley_product(word, params):
    x = RatMatrix.identity(word.target.n)
    for a, t in zip(word.letters, params):
        x = x @ chevalley_x(a, t, word.target.n)
    return x


class TestChevalley:
    def test_entries(self):
        x = chevalley_x(2, Fraction(5, 3), 3)
        assert x[(2, 3)] == Fraction(5, 3)
        assert x[(1, 2)] == 0
        assert x[(1, 1)] == x[(2, 2)] == x[(3, 3)] == 1


class TestLusztig:
    def test_example_point(self):
        w0 = Permutation.longest(3)
        word = reduced_word(w0)
        pt = lusztig_point(word, [Fraction(1), Fraction(1), Fraction(1, 2)])
        assert pt.cell == w0
        assert is_tnn(pt.matrix)

    def test_positive_params_required(self):
        word = reduced_word(Permutation.parse("2,1,3"))
        with pytest.raises(NonPositiveParameter):
            lusztig_point(word, [Fraction(0)])

    def test_param_count_must_match_word(self):
        word = reduced_word(Permutation.parse("2,1,3"))
        with pytest.raises(InvalidArgument):
            lusztig_point(word, [Fraction(1), Fraction(2)])

    def test_cell_independent_of_word_choice(self):
        w0 = Permutation.longest(3)
        for letters in all_reduced_words(w0):
            word = ReducedWord(letters, w0)
            pt = lusztig_point(word, [Fraction(2), Fraction(3), Fraction(5)])
            assert cell_of(pt.matrix) == w0

    def test_roundtrip_all_of_s4(self):
        rng = random.Random(0)
        for w in all_permutations(4):
            word = reduced_word(w)
            params = [
                Fraction(rng.randint(1, 9), rng.randint(1, 9))
                for _ in word.letters
            ]
            pt = lusztig_point(word, params)
            assert is_tnn(pt.matrix)
            assert cell_of(pt.matrix) == w

    def test_column_operations_match_chevalley_product(self):
        rng = random.Random(5)
        words = [
            ReducedWord(letters, w)
            for w in all_permutations(4)
            for letters in sorted(all_reduced_words(w))
        ]
        words += [random_word(rng, rng.choice(all_permutations(n))) for n in (5, 6) for _ in range(20)]
        words += [random_word(rng, Permutation.longest(n)) for n in (5, 6)]
        for word in words:
            params = random_params(rng, len(word.letters))
            assert lusztig_point(word, params).matrix == chevalley_product(word, params)


class TestTnn:
    def test_identity_is_tnn(self):
        assert is_tnn(RatMatrix.identity(3))

    def test_negative_entry_rejected(self):
        assert not is_tnn(RatMatrix.from_rows([[1, -1], [0, 1]]))

    def test_non_unipotent_rejected(self):
        with pytest.raises(NotUnipotentUpper):
            is_tnn(RatMatrix.from_rows([[1, 0], [1, 1]]))

    def test_guard(self):
        with pytest.raises(RankTooLarge):
            is_tnn(RatMatrix.identity(7))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_agrees_with_all_minors(self, n):
        """is_tnn computes only the minors with rows < columns entrywise;
        the full all-minors test decides the same on TNN points, on the same
        points with x_13 raised past x_12 x_23, on random signed N matrices,
        and on TNN points with one entry above the diagonal moved by a
        signed amount, where the verdict often turns on a larger minor."""
        rng = random.Random(n)
        perms = all_permutations(n)
        cases = []
        for _ in range(4):
            w = rng.choice(perms)
            x = lusztig_point(random_word(rng, w), random_params(rng, w.length)).matrix
            cases.append(x)
            if n >= 3:
                rows = [list(r) for r in x.rows]
                rows[0][2] = rows[0][1] * rows[1][2] + 1
                cases.append(RatMatrix.from_rows(rows))
        for _ in range(6):
            cases.append(RatMatrix.from_rows(
                [[int(i == j) if j <= i else Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                  for j in range(n)] for i in range(n)]
            ))
        for _ in range(30):
            w = rng.choice(perms)
            x = lusztig_point(random_word(rng, w), random_params(rng, w.length)).matrix
            rows = [list(r) for r in x.rows]
            if n >= 2:
                i = rng.randrange(n - 1)
                j = rng.randrange(i + 1, n)
                rows[i][j] += Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            cases.append(RatMatrix.from_rows(rows))
        verdicts = [all_minors_nonnegative(x) for x in cases]
        assert [is_tnn(x) for x in cases] == verdicts
        assert any(verdicts) and (n < 2 or not all(verdicts))


def sweep_n4():
    """Every matrix in N at n = 4 with entries in {-1, 0, 1, 2, 3} above
    the diagonal: 5^6 = 15,625 of them."""
    above = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    cases = []
    for values in itertools.product(range(-1, 4), repeat=len(above)):
        rows = [[int(i == j) for j in range(4)] for i in range(4)]
        for (i, j), v in zip(above, values):
            rows[i][j] = v
        cases.append(RatMatrix.from_rows(rows))
    return cases


def boundary_cases(n, count, seed):
    """Products along the longest word with about 40 % of the parameters 0,
    so the points lie in lower cells; in about 80 % of them one entry above
    the diagonal moves by +-1/q, q in {1, 2, 5, 50}, which the verdict often
    turns on a larger minor to see."""
    rng = random.Random(seed)
    word = reduced_word(Permutation.longest(n))
    cases = []
    for _ in range(count):
        params = [0 if rng.random() < 0.4 else Fraction(rng.randint(1, 9), rng.randint(1, 9))
                  for _ in word.letters]
        x = chevalley_product(word, params)
        if rng.random() < 0.8:
            rows = [list(r) for r in x.rows]
            i = rng.randrange(n - 1)
            j = rng.randrange(i + 1, n)
            rows[i][j] += Fraction(rng.choice((-1, 1)), rng.choice((1, 2, 5, 50)))
            x = RatMatrix.from_rows(rows)
        cases.append(x)
    return cases


@pytest.fixture(scope="module")
def sweep():
    """The n = 4 sweep with the all-minors verdict of each case."""
    cases = sweep_n4()
    return cases, [all_minors_nonnegative(x) for x in cases]


def only_minors(monkeypatch, keep):
    """Make is_tnn skip (read as 0) every minor whose index sets fail keep."""
    original = cells.minor

    def mutant(x, rows, cols):
        rows, cols = tuple(rows), tuple(cols)
        return original(x, rows, cols) if keep(rows, cols) else Fraction(0)

    monkeypatch.setattr(cells, "minor", mutant)


class TestTnnInitialMinors:
    """is_tnn reads the 2^n - n - 1 row-solid minors with rows < columns
    (Gasca-Pena initial minors reduced on N); all_minors_nonnegative is
    the oracle."""

    def test_exhaustive_n4(self, sweep):
        cases, verdicts = sweep
        assert [is_tnn(x) for x in cases] == verdicts
        assert sum(verdicts) == 535

    @pytest.mark.parametrize("n, count", [(5, 500), (6, 250)])
    def test_boundary_cases(self, n, count):
        cases = boundary_cases(n, count, seed=n)
        verdicts = [all_minors_nonnegative(x) for x in cases]
        assert [is_tnn(x) for x in cases] == verdicts
        assert 0.2 < sum(verdicts) / count < 0.8

    @pytest.mark.parametrize("n", range(1, 7))
    def test_counts_row_solid_minors(self, n, minors):
        rng = random.Random(n)
        w = Permutation.longest(n)
        x = lusztig_point(random_word(rng, w), random_params(rng, w.length)).matrix
        assert is_tnn(x)
        assert len(minors) == len(set(minors)) == 2**n - n - 1
        for rows, cols in minors:
            assert rows == tuple(range(rows[0], rows[0] + len(rows)))
            assert len(cols) == len(rows) and cols[0] > rows[0]

    @pytest.mark.parametrize("keep, missed", [
        (lambda rows, cols: cols == tuple(range(cols[0], cols[0] + len(cols))), 48),
        (lambda rows, cols: len(rows) != 3, 158),
    ], ids=["contiguous-columns-only", "no-level-n-1"])
    def test_smaller_minor_sets_are_caught(self, sweep, monkeypatch, keep, missed):
        """Negative controls: dropping the non-contiguous column sets, or
        the k = n - 1 level, changes the verdict on some sweep cases."""
        cases, verdicts = sweep
        only_minors(monkeypatch, keep)
        assert sum(is_tnn(x) != v for x, v in zip(cases, verdicts)) == missed


class TestCellOf:
    def test_identity_cell(self):
        assert cell_of(RatMatrix.identity(4)) == Permutation.identity(4)

    def test_closure_membership(self):
        u = Permutation.parse("2,1,3")
        for w in all_permutations(3):
            word = reduced_word(w)
            pt = lusztig_point(word, [Fraction(1)] * len(word.letters))
            # x in Y_{>=u} by two routes: TNN and x u^-1 in G_0, or TNN and u <= cell_of(x)
            assert is_tnn(pt.matrix)
            assert is_in_G0_u(pt.matrix, u) == bruhat_leq(u, cell_of(pt.matrix)) == bruhat_leq(u, w)


# --- oracle: the cell from n * n separate rank eliminations, which the one
# pivot pass of cell_of replaced


def cell_of_by_ranks(x):
    n = x.n
    if rank(x) < n:
        raise Singular("cell_of needs an invertible matrix")
    r = [[0] * (n + 2) for _ in range(n + 1)]
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            r[i][j] = rank(x, range(1, i + 1), range(j, n + 1))
    return decode_rank_jumps(r)


def cell_of_by_table(x):
    """The cell from the whole rank table of cell_of's pivot pass, decoded
    by its double differences; cell_of reads the pivots directly."""
    n = x.n
    pivots = ratmat._eliminate(*ratmat._work_rows(x), range(n - 1, -1, -1))
    r = [[0] * (n + 2)]
    for i in range(n):  # row i + 1 pivots in column pivots[i] + 1
        r.append([v + (0 < j <= pivots[i] + 1) for j, v in enumerate(r[-1])])
    return decode_rank_jumps(r)


def outcome(f, *args):
    """f's result, or the type, message and witness of what it raised."""
    try:
        return f(*args)
    except (Singular, NotInG0) as exc:
        return type(exc), str(exc), getattr(exc, "witness", None)


def random_lower(rng, n):
    """A random element of B_-: signed rational entries on and below the
    diagonal, about half of those below it zero."""
    return RatMatrix.from_rows(
        [[(Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
           if j == i else 0 if j > i or rng.random() < 0.5
           else Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
          for j in range(n)] for i in range(n)]
    )


class TestCellOfOnePass:
    def test_lusztig_points_up_to_s5(self):
        rng = random.Random(16)
        for n in range(1, 6):
            for w in all_permutations(n):
                x = lusztig_point(reduced_word(w), random_params(rng, w.length)).matrix
                assert cell_of(x) == cell_of_by_ranks(x) == w

    def test_random_invertible_non_tnn(self):
        """600 invertible matrices with a negative entry, n = 2..6: products
        b P_w b' with b, b' in B_-, and dense and half-zero random ones."""
        rng = random.Random(17)
        cells_seen = []
        while len(cells_seen) < 600:
            n, kind = 2 + len(cells_seen) % 5, len(cells_seen) % 3
            if kind == 0:
                w = rng.choice(all_permutations(n))
                x = random_lower(rng, n) @ perm_matrix(w) @ random_lower(rng, n)
            else:
                zero = 0.5 if kind == 1 else 0.0
                x = RatMatrix.from_rows(
                    [[0 if rng.random() < zero else Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                      for _ in range(n)] for _ in range(n)]
                )
            if rank(x) < n or all(v >= 0 for r in x.rows for v in r):
                continue  # singular, or possibly TNN
            cells_seen.append(cell_of(x))
            assert cells_seen[-1] == cell_of_by_ranks(x)
        assert len(set(cells_seen)) > 100

    def test_pivot_map_is_the_decoded_table(self):
        """Every cell point of S3..S5 and 1,500 random invertible matrices
        with n = 2..6 (b P_w b' products and dense and half-zero ones)."""
        rng = random.Random(21)
        points = [lusztig_point(reduced_word(w), random_params(rng, w.length)).matrix
                  for n in range(3, 6) for w in all_permutations(n)]
        xs = []
        while len(xs) < 1500:
            n, kind = 2 + len(xs) % 5, len(xs) % 3
            if kind == 0:
                w = rng.choice(all_permutations(n))
                x = random_lower(rng, n) @ perm_matrix(w) @ random_lower(rng, n)
            else:
                zero = 0.5 if kind == 1 else 0.0
                x = RatMatrix.from_rows(
                    [[0 if rng.random() < zero else Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                      for _ in range(n)] for _ in range(n)]
                )
            if rank(x) == n:
                xs.append(x)
        xs += points
        cells_seen = [cell_of(x) for x in xs]
        assert cells_seen == [cell_of_by_table(x) for x in xs]
        assert len(set(cells_seen)) > 200

    def test_products_of_borels_land_in_their_cell(self):
        rng = random.Random(18)
        for n in range(1, 6):
            for w in all_permutations(n):
                x = random_lower(rng, n) @ perm_matrix(w) @ random_lower(rng, n)
                assert cell_of(x) == w

    def test_singular_rejected(self):
        rng = random.Random(19)
        for n in range(1, 7):
            rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
                    for _ in range(n)]
            rows[rng.randrange(n)] = [Fraction(0)] * n
            x = RatMatrix.from_rows(rows)
            with pytest.raises(Singular, match="invertible"):
                cell_of(x)
            assert outcome(cell_of, x) == outcome(cell_of_by_ranks, x)

    def test_guard_before_any_elimination(self, eliminations):
        with pytest.raises(RankTooLarge, match="cell_of guarded"):
            cell_of(RatMatrix.identity(8))
        assert eliminations == []

    def test_two_eliminations(self, eliminations):
        """The rank gate and the one table pass; a rank per table entry
        would make n * n + 1."""
        x = lusztig_point(reduced_word(Permutation.longest(6)), [1] * 15).matrix
        assert cell_of(x) == Permutation.longest(6)
        assert len(eliminations) == 2


# n = 1..5 with signed rational entries, about half of them zero, so that
# singular matrices, vanishing leading minors and every cell are common
rats = st.fractions(min_value=-9, max_value=9, max_denominator=9)
matrices = st.integers(1, 5).flatmap(
    lambda n: st.lists(
        st.lists(st.just(Fraction(0)) | rats, min_size=n, max_size=n), min_size=n, max_size=n
    )
).map(RatMatrix.from_rows)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(matrices)
def test_one_pass_paths_match_their_oracles(x):
    assert outcome(cell_of, x) == outcome(cell_of_by_ranks, x)
    f = outcome(gauss_decompose, x)
    if isinstance(f, tuple):
        assert outcome(gauss_plus, x) == outcome(gauss_minus, x) == f
    else:
        assert gauss_plus(x) == f.upper and gauss_minus(x) == f.lower
