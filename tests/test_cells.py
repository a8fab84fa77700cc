import random
from fractions import Fraction

import pytest

from tnn_strata.cells import (
    cell_of,
    chevalley_x,
    is_tnn,
    lusztig_point,
)
from tnn_strata.errors import (
    InvalidArgument,
    NonPositiveParameter,
    NotUnipotentUpper,
    RankTooLarge,
)
from tnn_strata.perms import (
    ReducedWord,
    Permutation,
    all_permutations,
    all_reduced_words,
    bruhat_leq,
    reduced_word,
)
from tnn_strata.ratmat import RatMatrix, is_in_G0_u


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
        assert pt.tnn

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
            assert pt.tnn
            assert cell_of(pt.matrix) == w


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
