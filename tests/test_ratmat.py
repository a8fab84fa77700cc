import copy
import itertools
import json
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from tnn_strata import ratmat
from tnn_strata.errors import InvalidArgument, NotInG0, Singular
from tnn_strata.perms import Permutation, all_permutations
from tnn_strata.ratmat import (
    GaussFactors,
    RatMatrix,
    all_minors_nonnegative,
    conj_by_perm,
    det,
    gauss_decompose,
    gauss_minus,
    gauss_plus,
    is_in_G0,
    is_in_G0_u,
    is_in_N,
    is_in_N_minus,
    minor,
    mul_perm_left,
    mul_perm_right,
    perm_matrix,
    rank,
    unit_right_solve,
    unit_solve,
)

rats = st.fractions(
    min_value=-9, max_value=9, max_denominator=9
)


def mat_strategy(n, entries=rats):
    return st.lists(
        st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(RatMatrix.from_rows)


# n = 1..5, about half the entries zero: singular and rank-deficient
# matrices and vanishing leading minors are common
sparse_matrices = st.integers(1, 5).flatmap(
    lambda n: mat_strategy(n, st.just(Fraction(0)) | rats)
)
ORACLE = settings(max_examples=100, deadline=None)


# conftest.py's profile, from which every @given test takes these two
def test_drawn_examples_are_fixed():
    assert settings.default.derandomize and settings.default.database is None


def is_in_B(x):
    return all(x.rows[i][j] == 0 for i in range(x.n) for j in range(i)) and all(
        x.rows[i][i] != 0 for i in range(x.n)
    )


def is_in_B_minus(x):
    return is_in_B(RatMatrix(tuple(zip(*x.rows))))


def is_in_H(x):
    return all((x.rows[i][j] == 0) == (i != j) for i in range(x.n) for j in range(x.n))


def naive_det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = Fraction(0)
    for j in range(n):
        sub = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * naive_det(sub)
    return total


def naive_minor(x, rows, cols):
    return naive_det([[x[i, j] for j in cols] for i in rows])


def leading_minors(x):
    return [naive_minor(x, range(1, k + 1), range(1, k + 1)) for k in range(1, x.n + 1)]


class TestArithmetic:
    def test_matmul_and_identity(self):
        x = RatMatrix.from_rows([[1, 2], [3, 4]])
        assert x @ RatMatrix.identity(2) == x

    def test_inverse(self):
        x = RatMatrix.from_rows([[1, 2], [3, 4]])
        assert x @ x.inverse() == RatMatrix.identity(2)

    def test_inverse_singular_raises(self):
        with pytest.raises(Singular):
            RatMatrix.from_rows([[1, 2], [2, 4]]).inverse()

    @ORACLE
    @given(sparse_matrices)
    def test_inverse_iff_nonzero_det(self, x):
        if naive_det([list(r) for r in x.rows]) == 0:
            with pytest.raises(Singular):
                x.inverse()
        else:
            assert x @ x.inverse() == RatMatrix.identity(x.n)

    @settings(max_examples=60)
    @given(mat_strategy(3) | sparse_matrices)
    def test_det_matches_cofactor_expansion(self, x):
        assert det(x) == naive_det([list(r) for r in x.rows])
        idx = range(1, x.n + 1)
        for k in idx:
            for rows in itertools.combinations(idx, k):
                for cols in itertools.combinations(idx, k):
                    assert minor(x, rows, cols) == naive_minor(x, rows, cols)

    def test_one_based_indexing(self):
        x = RatMatrix.from_rows([[1, 2], [3, 4]])
        assert x[(2, 1)] == 3

    @pytest.mark.parametrize("obj", [{"n": 0, "entries": []}, {"n": 3, "entries": []}])
    def test_json_rejects_empty_matrix(self, obj):
        with pytest.raises(ValueError, match="at least 1x1"):
            RatMatrix.from_json_obj(obj)

    @pytest.mark.parametrize("entry", ["1e999999999", "2E-3", "-1.5e2"])
    def test_json_rejects_exponent_notation(self, entry):
        with pytest.raises(ValueError, match="exponent notation"):
            RatMatrix.from_json_obj({"n": 1, "entries": [[entry]]})

    def test_json_roundtrip_bit_exact(self):
        x = RatMatrix.from_rows([[Fraction(1, 3), 2], [0, Fraction(-7, 5)]])
        blob = json.dumps(x.to_json_obj(), sort_keys=True)
        assert RatMatrix.from_json_obj(json.loads(blob)) == x
        assert json.dumps(x.to_json_obj(), sort_keys=True) == blob


class TestMinorsRank:
    def test_minor_indices_one_based(self):
        x = RatMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 10]])
        assert minor(x, (1, 2), (2, 3)) == Fraction(2 * 6 - 3 * 5)

    # each index set is checked for range, then for strict increase, rows first
    @pytest.mark.parametrize(
        "rows, cols, message",
        [
            ((1, 2), (3,), "equal size"),
            ((0, 2), (1, 1), "out of range"),
            ((1, 4), (1, 2), "out of range"),
            ((2, 2), (0, 1), "strictly increasing"),
            ((2, 1), (1, 2), "strictly increasing"),
            ((1, 2), (1, 4), "out of range"),
            ((1, 2), (3, 3), "strictly increasing"),
            ((), (1,), "equal size"),
            ((0,), (1,), "out of range"),
            ((1,), (4,), "out of range"),
            ((2, 1), (4, 5), "strictly increasing"),
        ],
    )
    def test_minor_rejects_bad_index_sets(self, rows, cols, message):
        x = RatMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 10]])
        with pytest.raises(ValueError, match=message):
            minor(x, rows, cols)

    def test_empty_index_set(self):
        x = RatMatrix.from_rows([[1, 2], [3, 4]])
        assert minor(x, (), ()) == 1 and type(minor(x, (), ())) is Fraction

    def test_small_minors_closed_form(self, eliminations):
        """Minors on one or two indices are the entry and a*d - b*c, with
        no elimination; they equal the Fraction elimination and the
        cofactor expansion, as reduced Fractions."""
        rng = random.Random(16)
        for n in range(1, 7):
            x = RatMatrix.from_rows(
                [[0 if rng.random() < 0.3 else Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                  for _ in range(n)] for _ in range(n)]
            )
            idx = range(1, n + 1)
            for k in (1, 2):
                for rows in itertools.combinations(idx, k):
                    for cols in itertools.combinations(idx, k):
                        m = minor(x, rows, cols)
                        assert type(m) is Fraction
                        assert m == ref_minor(x, rows, cols) == naive_minor(x, rows, cols)
        assert eliminations == []

    def test_rank_of_rank_one(self):
        x = RatMatrix.from_rows([[1, 2], [2, 4]])
        assert rank(x) == 1

    @ORACLE
    @given(sparse_matrices)
    def test_rank_is_largest_nonzero_minor(self, x):
        idx = range(1, x.n + 1)
        nonzero = [
            k
            for k in idx
            for rows in itertools.combinations(idx, k)
            for cols in itertools.combinations(idx, k)
            if naive_minor(x, rows, cols) != 0
        ]
        assert rank(x) == max(nonzero, default=0)

    def test_all_minors_nonnegative_detects_negative(self):
        assert not all_minors_nonnegative(RatMatrix.from_rows([[1, 2], [3, 4]]))
        assert all_minors_nonnegative(RatMatrix.from_rows([[1, 1], [0, 1]]))


class TestGauss:
    def rand_g0(self, rng, n):
        while True:
            rows = [
                [Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(n)]
                for _ in range(n)
            ]
            x = RatMatrix.from_rows(rows)
            try:
                f = gauss_decompose(x)
            except NotInG0:
                continue
            return x, f

    def test_roundtrip_and_shapes(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(2, 5)
            x, f = self.rand_g0(rng, n)
            assert f.lower @ f.diag @ f.upper == x
            assert is_in_N_minus(f.lower)
            assert is_in_H(f.diag)
            assert is_in_N(f.upper)

    @ORACLE
    @given(sparse_matrices)
    def test_leading_minors_decide_g0(self, x):
        vanishing = [k for k, d in enumerate(leading_minors(x), 1) if d == 0]
        assert is_in_G0(x) == (not vanishing)
        if vanishing:
            with pytest.raises(NotInG0) as exc:
                gauss_decompose(x)
            assert exc.value.witness == vanishing[0]
        else:
            f = gauss_decompose(x)
            assert f.lower @ f.diag @ f.upper == x
            assert is_in_N_minus(f.lower) and is_in_H(f.diag) and is_in_N(f.upper)

    def test_zero_pivot_witness(self):
        x = RatMatrix.from_rows([[0, 1], [1, 0]])
        with pytest.raises(NotInG0) as exc:
            gauss_decompose(x)
        assert "1x1" in str(exc.value)

    def test_gauss_plus_absorption(self):
        rng = random.Random(3)
        for _ in range(20):
            x, f = self.rand_g0(rng, 3)
            assert gauss_plus(x) == f.upper
            assert gauss_minus(x) == f.lower

    def test_same_witness_off_g0(self):
        # the witness is the size of the first vanishing leading principal minor
        for rows, witness in [
            ([[0, 1], [1, 0]], 1),
            ([[1, 2], [2, 4]], 2),
            ([[1, 0, 1], [0, 2, 5], [1, 0, 1]], 3),
        ]:
            x = RatMatrix.from_rows(rows)
            for f in (gauss_decompose, gauss_plus, gauss_minus):
                with pytest.raises(NotInG0) as exc:
                    f(x)
                assert exc.value.witness == witness

    def test_gauss_plus_and_gauss_minus_one_elimination_each(self, eliminations, monkeypatch):
        """gauss_plus and gauss_minus each eliminate x once."""
        x, f = self.rand_g0(random.Random(4), 6)
        eliminations.clear()
        assert gauss_plus(x) == f.upper
        assert len(eliminations) == 1
        eliminations.clear()
        assert gauss_minus(x) == f.lower
        assert len(eliminations) == 1
        # neither goes through the full decomposition
        monkeypatch.setattr(ratmat, "gauss_decompose", None)
        assert gauss_plus(x) == f.upper and gauss_minus(x) == f.lower


class TestPermMatrices:
    def test_perm_matrix_homomorphism(self):
        for u in all_permutations(3):
            for v in all_permutations(3):
                assert perm_matrix(u) @ perm_matrix(v) == perm_matrix(u * v)

    def test_mul_perm_agrees_with_matrix_product(self):
        x = RatMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        for w in all_permutations(3):
            assert mul_perm_right(x, w) == x @ perm_matrix(w)
            assert mul_perm_left(w, x) == perm_matrix(w) @ x
            assert conj_by_perm(w, x) == perm_matrix(w.inverse()) @ x @ perm_matrix(w)

    def test_g0u_membership(self):
        u = Permutation.parse("2,1,3")
        x = RatMatrix.from_rows([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
        assert is_in_G0_u(x, u)
        assert not is_in_G0_u(RatMatrix.identity(3), u)


class TestPredicates:
    def test_triangular_predicates(self):
        up = RatMatrix.from_rows([[1, 5], [0, 1]])
        lo = RatMatrix.from_rows([[1, 0], [5, 1]])
        assert is_in_N(up) and not is_in_N(lo)
        assert is_in_N_minus(lo) and not is_in_N_minus(up)
        assert is_in_B(RatMatrix.from_rows([[2, 5], [0, 3]]))
        assert is_in_B_minus(RatMatrix.from_rows([[2, 0], [5, 3]]))
        assert is_in_H(RatMatrix.from_rows([[2, 0], [0, 3]]))
        assert is_in_G0(RatMatrix.from_rows([[1, 2], [3, 4]]))
        assert not is_in_G0(RatMatrix.from_rows([[0, 1], [1, 0]]))


# --- oracle: the Fraction product and elimination the integer core replaced


def ref_matmul_rows(x, y):
    n = x.n
    a, b = x.rows, y.rows
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)) for i in range(n)
    )


def ref_matmul(x, y):
    return RatMatrix(ref_matmul_rows(x, y))


def ref_eliminate(work, cols, lower=None):
    pivots = {}
    for c in cols:
        p = next((i for i, r in enumerate(work) if i not in pivots and r[c] != 0), None)
        if p is None:
            continue
        pivots[p] = c
        prow = work[p]
        for i in range(p + 1, len(work)):
            if i not in pivots and work[i][c] != 0:
                f = work[i][c] / prow[c]
                if lower is not None:
                    lower[i][c] = f
                work[i] = [a - f * b for a, b in zip(work[i], prow)]
    return pivots


def ref_minor(x, rows, cols):
    work = [[x.rows[i - 1][j - 1] for j in cols] for i in rows]
    pivots = ref_eliminate(work, range(len(cols)))
    if len(pivots) < len(cols):
        return Fraction(0)
    order = [pivots[i] for i in range(len(rows))]
    sign = (-1) ** sum(a > b for a, b in itertools.combinations(order, 2))
    return math.prod((work[i][c] for i, c in pivots.items()), start=Fraction(sign))


def ref_rank(x, rows, cols):
    work = [[x.rows[i - 1][j - 1] for j in cols] for i in rows]
    return len(ref_eliminate(work, range(len(cols))))


def ref_inverse_rows(x):
    n = x.n
    aug = [list(r) + [Fraction(int(i == j)) for j in range(n)] for i, r in enumerate(x.rows)]
    pivots = ref_eliminate(aug, range(n))
    if len(pivots) < n:
        raise Singular("matrix is singular")
    back = [aug[i] for i in sorted(pivots, key=pivots.get, reverse=True)]
    ref_eliminate(back, range(n - 1, -1, -1))
    return tuple(tuple(v / r[c] for v in r[n:]) for c, r in enumerate(reversed(back)))


def ref_inverse(x):
    return RatMatrix(ref_inverse_rows(x))


def ref_gauss_rows(x):
    """The Fraction rows of [x]_-, [x]_0 and [x]_+."""
    n = x.n
    work = [list(r) for r in x.rows]
    lower = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    pivots = ref_eliminate(work, range(n), lower)
    k = next((k for k in range(n) if pivots.get(k) != k), None)
    if k is not None:
        raise NotInG0(k + 1)
    diag = [[work[i][i] if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    upper = [[work[i][j] / work[i][i] for j in range(n)] for i in range(n)]
    return lower, diag, upper


def ref_gauss_decompose(x):
    return GaussFactors(*map(RatMatrix.from_rows, ref_gauss_rows(x)))


def outcome(f, *args):
    """f's result, or the type, message and witness of what it raised."""
    try:
        return f(*args)
    except (Singular, NotInG0) as exc:
        return type(exc), str(exc), getattr(exc, "witness", None)


HUGE = Fraction(10**400)  # an integer of 401 digits, too large for a float


@st.composite
def oracle_matrices(draw, n=None):
    """n = 1..6 with signed rational entries, often one 401-digit entry,
    and often a zero row, a zero column or a row that is a combination of
    two others."""
    n = n or draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(rats, min_size=n, max_size=n), min_size=n, max_size=n))
    huge = draw(st.sampled_from([None, HUGE, -HUGE, 1 / HUGE, HUGE / 7]))
    if huge is not None:
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = huge
    k = draw(st.integers(0, n - 1))
    defect = draw(st.sampled_from(["none", "none", "zero-row", "zero-col", "dependent"]))
    if defect == "zero-row":
        rows[k] = [Fraction(0)] * n
    elif defect == "zero-col":
        for r in rows:
            r[k] = Fraction(0)
    elif defect == "dependent" and n > 2:
        i, j = draw(st.lists(st.sampled_from([m for m in range(n) if m != k]), min_size=2, max_size=2, unique=True))
        a, b = draw(rats), draw(rats)
        rows[k] = [a * p + b * q for p, q in zip(rows[i], rows[j])]
    return RatMatrix.from_rows(rows)


def index_set(draw, n, k):
    return sorted(draw(st.sets(st.integers(1, n), min_size=k, max_size=k)))


class TestIntegerCoreOracle:
    """The integer product and fraction-free elimination give exactly what
    Fraction arithmetic gives, errors and witnesses included."""

    @ORACLE
    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(oracle_matrices(n), oracle_matrices(n))))
    def test_product(self, pair):
        x, y = pair
        assert x @ y == ref_matmul(x, y)

    @ORACLE
    @given(oracle_matrices(), st.data())
    def test_det_minor_rank(self, x, data):
        n = x.n
        full = range(1, n + 1)
        assert det(x) == ref_minor(x, full, full)
        assert rank(x) == ref_rank(x, full, full)
        k = data.draw(st.integers(1, n))
        rows, cols = index_set(data.draw, n, k), index_set(data.draw, n, k)
        assert minor(x, rows, cols) == ref_minor(x, rows, cols)
        rows2 = index_set(data.draw, n, data.draw(st.integers(1, n)))
        assert rank(x, rows2, cols) == ref_rank(x, rows2, cols)

    @ORACLE
    @given(oracle_matrices())
    def test_inverse(self, x):
        assert outcome(RatMatrix.inverse, x) == outcome(ref_inverse, x)

    @ORACLE
    @given(oracle_matrices())
    def test_gauss_decompose(self, x):
        assert outcome(gauss_decompose, x) == outcome(ref_gauss_decompose, x)
        assert is_in_G0(x) == isinstance(outcome(ref_gauss_decompose, x), GaussFactors)


# --- the canonical integer form ------------------------------------------

NEAR_LIMITS = [Fraction(10**300 + 7, 3), Fraction(-3, 10**300 + 1), Fraction(1, 10**320),
               Fraction(2**1023 * 3 - 1, 2), Fraction(10**308, 10**400 + 1)]


def is_canonical(x):
    return all(d > 0 and math.gcd(d, *r) == 1 for r, d in zip(x._num, x._den))


def fraction_rows(rows):
    return tuple(tuple(Fraction(v) for v in r) for r in rows)


def bits(rows):
    return [[v.hex() for v in r] for r in rows]


def signed_rows(n, seed):
    """n x n rows of Fractions p/q, |p| <= 9 and 1 <= q <= 9, over a
    third of them zero."""
    rng = random.Random(seed)
    return [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) if rng.randrange(3) else 0
             for _ in range(n)] for _ in range(n)]


def _triangular(x, unit):
    """x's entries on and above the diagonal, with 1 on it when unit."""
    return RatMatrix([[Fraction(1) if unit and i == j else v if j >= i else Fraction(0)
                       for j, v in enumerate(r)] for i, r in enumerate(x.rows)])


class TestTriangularSolves:
    """The two substitutions give what the inverse and a product give, on
    canonical rows."""

    @settings(ORACLE, max_examples=50)
    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(
        oracle_matrices(n), oracle_matrices(n), st.permutations(range(1, n + 1)))))
    def test_unit_solve_in_any_triangular_order(self, case):
        x, b, images = case
        w = Permutation(tuple(images))
        p = conj_by_perm(w, _triangular(x, unit=True))  # its rows solve in decreasing w(i)
        order = sorted(range(x.n), key=lambda i: -images[i])
        got = unit_solve(p, b, order)
        assert got == p.inverse() @ b and is_canonical(got)

    @settings(ORACLE, max_examples=50)
    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(oracle_matrices(n), oracle_matrices(n))))
    def test_unit_right_solve(self, case):
        x, p = _triangular(case[0], unit=False), _triangular(case[1], unit=True)
        got = unit_right_solve(x, p)
        assert got == x @ p.inverse() and is_canonical(got)


class TestRepresentation:
    """A matrix is its integer rows over positive row denominators in
    lowest terms; ``.rows`` is the reduced-Fraction view of that form, and
    ``x[i, j]`` its 1-based entry, read from the integers alone."""

    @ORACLE
    @given(oracle_matrices(), st.sampled_from([1, -1, 6, -35]))
    @example(RatMatrix.from_rows([["-6/4"]]), 1)
    @example(RatMatrix.from_rows([[0]]), -1)
    @example(RatMatrix.from_rows(signed_rows(6, 0)), 6)
    @example(RatMatrix.from_rows(signed_rows(6, 1)), -35)
    def test_integer_and_fraction_builds_agree(self, x, k):
        for i, j in itertools.product(range(1, x.n + 1), repeat=2):
            v = x[i, j]
            assert type(v) is Fraction and v == x.rows[i - 1][j - 1]
            assert v.denominator > 0 and math.gcd(v.numerator, v.denominator) == 1
        rows = fraction_rows(x.rows)
        lcd = math.lcm(*[v.denominator for r in rows for v in r])
        scaled = [[v.numerator * (lcd // v.denominator) * k for v in r] for r in rows]
        from_ints = ratmat._of_ints(scaled, [lcd * k] * x.n)
        for m in (RatMatrix(rows), RatMatrix.from_rows([[str(v) for v in r] for r in rows]), from_ints):
            assert m == x and hash(m) == hash(x)
            assert is_canonical(m) and m.rows == rows

    @settings(ORACLE, max_examples=50)
    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(
        oracle_matrices(n), oracle_matrices(n), st.permutations(range(1, n + 1)))))
    def test_results_are_canonical(self, case):
        x, y, images = case
        w = Permutation(tuple(images))
        cols = [w(j + 1) - 1 for j in range(x.n)]
        order = [w.inverse()(i + 1) - 1 for i in range(x.n)]
        permuted = [
            (mul_perm_right(x, w), [[r[k] for k in cols] for r in x.rows]),
            (mul_perm_left(w, x), [x.rows[i] for i in order]),
            (conj_by_perm(w, x), [[x.rows[i][j] for j in cols] for i in cols]),
        ]
        for m, _ in permuted:  # the permutation products skip _of_ints
            assert m == ratmat._of_ints(m._num, m._den)
        made = [(x @ y, ref_matmul_rows(x, y)), *permuted]
        if rank(x) == x.n:
            made.append((x.inverse(), ref_inverse_rows(x)))
        if is_in_G0(x):
            fac = gauss_decompose(x)
            made += zip((fac.lower, fac.diag, fac.upper), ref_gauss_rows(x))
        for m, rows in made:
            ref = RatMatrix.from_rows(rows)
            assert is_canonical(m)
            assert m == ref and hash(m) == hash(ref)
            assert m.rows == fraction_rows(rows)

    @ORACLE
    @given(st.integers(1, 4).flatmap(lambda n: st.lists(
        st.lists(rats | st.sampled_from(NEAR_LIMITS), min_size=n, max_size=n), min_size=n, max_size=n)))
    def test_to_floats_is_float_of_each_fraction(self, rows):
        x = RatMatrix.from_rows(rows)
        assert bits(x.to_floats()) == bits([[float(v) for v in r] for r in x.rows])

    def test_to_floats_near_the_float_limits(self):
        x = RatMatrix.from_rows([NEAR_LIMITS[:3], NEAR_LIMITS[2:], [0, 1, NEAR_LIMITS[0]]])
        assert bits(x.to_floats()) == bits([[float(v) for v in r] for r in x.rows])

    def test_400_digit_entry_is_too_large_for_a_float(self):
        with pytest.raises(InvalidArgument, match="too large for a float"):
            RatMatrix.from_rows([[1, 10**400 + 1], [0, Fraction(1, 10**400)]]).to_floats()

    def test_repr_shows_the_fraction_rows(self):
        x = RatMatrix.from_rows([[1, "1/2"], [0, "-3/4"]])
        assert repr(x) == (
            "RatMatrix(rows=((Fraction(1, 1), Fraction(1, 2)), (Fraction(0, 1), Fraction(-3, 4))))"
        )

    @pytest.mark.parametrize("rows", [[[1, 2]], [[1, 2], [3]], [[1], [2]]])
    def test_non_square_rejected(self, rows):
        with pytest.raises(ValueError, match="^matrix must be square$"):
            RatMatrix(fraction_rows(rows))
        with pytest.raises(ValueError, match="^matrix must be square$"):
            RatMatrix.from_rows(rows)

    def test_immutable(self):
        x = RatMatrix.identity(2)
        with pytest.raises(AttributeError):
            x.rows = RatMatrix.identity(3).rows
        with pytest.raises(AttributeError):
            x._num = ((5,),)
        assert x == RatMatrix.identity(2)

    def test_copy_and_pickle_keep_the_matrix(self):
        x = RatMatrix.from_rows([[1, "1/2"], [0, "-3/4"]])
        for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert y == x and hash(y) == hash(x) and y.rows == x.rows

    def test_rho_and_psi_build_no_fractions(self):
        """fiber.rho and fiber.psi at n = 6 run on integer rows alone, lower
        Gaussian factors included: they build no Fraction.  Reading one
        matrix's Fraction view would build 36."""
        from tnn_strata.cells import lusztig_point
        from tnn_strata.fiber import pi_u, psi, rho
        from tnn_strata.perms import reduced_word

        w, u = Permutation.longest(6), Permutation.parse("2,1,4,3,6,5")
        xt = lusztig_point(reduced_word(w), [Fraction(k % 7 + 1, k % 5 + 1) for k in range(15)]).matrix
        base = lusztig_point(reduced_word(u), [Fraction(2, 3), Fraction(5), Fraction(7, 4)]).matrix
        built, original = [], Fraction.__dict__["__new__"]

        def counted(cls, *args, **kwargs):
            built.append(args)
            return original.__func__(cls, *args, **kwargs)

        Fraction.__new__ = staticmethod(counted)
        try:
            y = rho(xt, base, u)
            field = psi(y, u)
        finally:
            Fraction.__new__ = original
        assert built == []
        assert pi_u(y, u) == base and field[1, 3] == Fraction(3071, 184)
