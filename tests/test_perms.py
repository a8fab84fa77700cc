import itertools
import random

import pytest
from hypothesis import given, strategies as st

from tnn_strata.errors import InvalidArgument, NotComparable, RankTooLarge
from tnn_strata.perms import (
    Permutation,
    ReducedWord,
    all_permutations,
    all_reduced_words,
    bruhat_leq,
    bruhat_leq_subword,
    bruhat_less,
    decode_rank_jumps,
    interval,
    mobius,
    reduced_word,
    word_product,
)


def perm_strategy(n):
    return st.permutations(list(range(1, n + 1))).map(
        lambda img: Permutation(tuple(img))
    )


class TestBasics:
    def test_parse_serialize_roundtrip(self):
        w = Permutation.parse("3,1,4,2")
        assert w.serialize() == "3,1,4,2"
        assert w.image == (3, 1, 4, 2)

    def test_identity_and_longest(self):
        e = Permutation.identity(4)
        w0 = Permutation.longest(4)
        assert e.length == 0
        assert w0.length == 6
        assert w0.image == (4, 3, 2, 1)

    def test_composition_matches_matrix_convention(self):
        # (u*v)(i) = u(v(i))
        u = Permutation.parse("2,3,1")
        v = Permutation.parse("1,3,2")
        uv = u * v
        assert uv.image == tuple(u.image[v.image[i] - 1] for i in range(3))

    def test_inverse(self):
        for w in all_permutations(4):
            assert w * w.inverse() == Permutation.identity(4)

    def test_length_is_inversion_count(self):
        for w in all_permutations(4):
            inv = sum(
                1
                for i, j in itertools.combinations(range(4), 2)
                if w.image[i] > w.image[j]
            )
            assert w.length == inv

    def test_transposition_descents(self):
        s2 = Permutation.transposition(2, 4)
        assert s2.image == (1, 3, 2, 4)
        assert s2.descents() == [2]


class TestBruhat:
    def test_rank_dominance_matches_subword_oracle_s4(self):
        perms = all_permutations(4)
        for u in perms:
            for v in perms:
                assert bruhat_leq(u, v) == bruhat_leq_subword(u, v)

    def test_interval_guard(self):
        e = Permutation.identity(3)
        s1 = Permutation.parse("2,1,3")
        with pytest.raises(NotComparable):
            interval(s1, Permutation.parse("1,3,2"))

    def test_full_interval_size_s3(self):
        iv = interval(Permutation.identity(3), Permutation.longest(3))
        assert len(iv.elements) == 6

    def test_rank_too_large(self):
        with pytest.raises(RankTooLarge):
            interval(Permutation.identity(8), Permutation.longest(8))

    # interval tests only the w whose length lies in [l(u), l(v)]; the
    # oracle tests every w of S_n
    @staticmethod
    def brute_interval(u, v):
        return frozenset(w for w in all_permutations(u.n) if bruhat_leq(u, w) and bruhat_leq(w, v))

    def test_interval_matches_brute_force_s4(self):
        perms = all_permutations(4)
        pairs = [(u, v) for u in perms for v in perms if bruhat_leq(u, v)]
        assert pairs
        for u, v in pairs:
            assert interval(u, v).elements == self.brute_interval(u, v)

    def test_interval_matches_brute_force_s5_sample(self):
        perms = all_permutations(5)
        rng = random.Random(24)
        pairs = [p for p in (rng.sample(perms, 2) for _ in range(400)) if bruhat_leq(*p)]
        assert len(pairs) >= 20
        for u, v in pairs:
            assert interval(u, v).elements == self.brute_interval(u, v)

    def test_mobius_alternates_s3(self):
        e = Permutation.identity(3)
        for v in all_permutations(3):
            assert mobius(e, v) == (-1) ** v.length

    def test_verma_sum_vanishes_s4(self):
        perms = all_permutations(4)
        for u in perms:
            for v in perms:
                if bruhat_less(u, v):
                    assert sum((-1) ** w.length for w in interval(u, v).elements) == 0

    @given(perm_strategy(4), perm_strategy(4))
    def test_leq_antisymmetry(self, u, v):
        if bruhat_leq(u, v) and bruhat_leq(v, u):
            assert u == v


class TestWords:
    def test_reduced_word_reproduces_perm(self):
        for w in all_permutations(4):
            rw = reduced_word(w)
            assert len(rw.letters) == w.length
            assert word_product(rw.letters, 4) == w

    def test_all_reduced_words_w0_s3(self):
        w0 = Permutation.longest(3)
        assert sorted(all_reduced_words(w0)) == [(1, 2, 1), (2, 1, 2)]

    def test_word_serialize_parse(self):
        rw = reduced_word(Permutation.longest(3))
        back = ReducedWord.parse(rw.serialize(), 3)
        assert back.letters == rw.letters
        assert back.target == rw.target

    @pytest.mark.parametrize(
        "text", ["s0", "s3", "s1.s1", "s1.s2.s1.s2", "x1", "1", "s", "s1.", "s-1", "s 1", "s1.t2"]
    )
    def test_parse_rejects_bad_letters_and_unreduced_words(self, text):
        with pytest.raises(InvalidArgument):
            ReducedWord.parse(text, 3)

    @pytest.mark.parametrize("n", [0, -3])
    def test_parse_rejects_rank_below_one(self, n):
        with pytest.raises(InvalidArgument):
            ReducedWord.parse("", n)

    def test_parse_guards_rank_before_allocating(self):
        assert ReducedWord.parse("s6", 7).target.n == 7
        for n in (8, 100_000):
            with pytest.raises(RankTooLarge):
                ReducedWord.parse("", n)


class TestRankMismatch:
    def test_bruhat_leq(self):
        with pytest.raises(InvalidArgument):
            bruhat_leq(Permutation.identity(3), Permutation.identity(4))

    def test_composition(self):
        with pytest.raises(InvalidArgument):
            Permutation.identity(3) * Permutation.identity(4)


class TestDecodeRankJumps:
    def _table(self, w):
        # r[i][j] = #{k >= j : w(k) <= i}, the rank of rows 1..i, columns
        # j..n of the permutation matrix with its ones at (w(k), k)
        n = w.n
        return [
            [sum(1 for k in range(max(j, 1), n + 1) if w(k) <= i) for j in range(n + 2)]
            for i in range(n + 1)
        ]

    def test_decodes_every_permutation_of_s4(self):
        for w in all_permutations(4):
            assert decode_rank_jumps(self._table(w)) == w

    def test_table_of_no_permutation_raises(self):
        with pytest.raises(ValueError):
            decode_rank_jumps([[0] * 5 for _ in range(4)])
