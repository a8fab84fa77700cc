import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tnn_strata.errors import NotInG0, Singular
from tnn_strata.perms import Permutation, all_permutations
from tnn_strata.ratmat import (
    RatMatrix,
    all_minors_nonnegative,
    conj_by_perm,
    det,
    gauss_decompose,
    gauss_minus,
    gauss_plus,
    is_in_B,
    is_in_B_minus,
    is_in_G0,
    is_in_G0_u,
    is_in_H,
    is_in_N,
    is_in_N_minus,
    minor,
    mul_perm_left,
    mul_perm_right,
    perm_matrix,
    rank,
)

rats = st.fractions(
    min_value=-9, max_value=9, max_denominator=9
)


def mat_strategy(n):
    return st.lists(
        st.lists(rats, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(RatMatrix.from_rows)


def naive_det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = Fraction(0)
    for j in range(n):
        sub = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * naive_det(sub)
    return total


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

    @settings(max_examples=60)
    @given(mat_strategy(3))
    def test_det_matches_cofactor_expansion(self, x):
        assert det(x) == naive_det([list(r) for r in x.rows])

    def test_one_based_indexing(self):
        x = RatMatrix.from_rows([[1, 2], [3, 4]])
        assert x[(2, 1)] == 3

    @pytest.mark.parametrize("obj", [{"n": 0, "entries": []}, {"n": 3, "entries": []}])
    def test_json_rejects_empty_matrix(self, obj):
        with pytest.raises(ValueError, match="at least 1x1"):
            RatMatrix.from_json_obj(obj)

    def test_json_roundtrip_bit_exact(self):
        x = RatMatrix.from_rows([[Fraction(1, 3), 2], [0, Fraction(-7, 5)]])
        blob = json.dumps(x.to_json_obj(), sort_keys=True)
        assert RatMatrix.from_json_obj(json.loads(blob)) == x
        assert json.dumps(x.to_json_obj(), sort_keys=True) == blob


class TestMinorsRank:
    def test_minor_indices_one_based(self):
        x = RatMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 10]])
        assert minor(x, (1, 2), (2, 3)) == Fraction(2 * 6 - 3 * 5)

    def test_rank_of_rank_one(self):
        x = RatMatrix.from_rows([[1, 2], [2, 4]])
        assert rank(x) == 1

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
