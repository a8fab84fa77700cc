"""Symmetric-group combinatorics: lengths, reduced words, Bruhat order.

Permutations are stored in 1-based one-line notation, so ``w(i)`` is
``image[i-1]``.  Generator indices run over 1..n-1.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cache, cached_property

from .errors import InvalidArgument, NotComparable, RankTooLarge

INTERVAL_GUARD = 7
ALL_WORDS_GUARD = 4


@dataclass(frozen=True)
class Permutation:
    image: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.image) != list(range(1, len(self.image) + 1)):
            raise ValueError(f"not a permutation of 1..{len(self.image)}: {self.image}")

    @property
    def n(self) -> int:
        return len(self.image)

    def __call__(self, i: int) -> int:
        return self.image[i - 1]

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(tuple(range(1, n + 1)))

    @staticmethod
    def longest(n: int) -> "Permutation":
        return Permutation(tuple(range(n, 0, -1)))

    @staticmethod
    def transposition(i: int, n: int) -> "Permutation":
        """The simple reflection s_i, swapping i and i+1."""
        img = list(range(1, n + 1))
        img[i - 1], img[i] = img[i], img[i - 1]
        return Permutation(tuple(img))

    @staticmethod
    def parse(text: str) -> "Permutation":
        return Permutation(tuple(int(p) for p in text.split(",")))

    def serialize(self) -> str:
        return ",".join(str(v) for v in self.image)

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition (self*other)(i) = self(other(i))."""
        if self.n != other.n:
            raise InvalidArgument("rank mismatch")
        return Permutation(tuple(self.image[other.image[i] - 1] for i in range(self.n)))

    def inverse(self) -> "Permutation":
        img = [0] * self.n
        for i, v in enumerate(self.image):
            img[v - 1] = i + 1
        return Permutation(tuple(img))

    @cached_property
    def length(self) -> int:
        img = self.image
        return sum(
            1
            for i in range(self.n)
            for j in range(i + 1, self.n)
            if img[i] > img[j]
        )

    def descents(self) -> list[int]:
        """Right descents: i with w(i) > w(i+1)."""
        return [i + 1 for i in range(self.n - 1) if self.image[i] > self.image[i + 1]]

    @cached_property
    def rank_table(self) -> tuple[tuple[int, ...], ...]:
        """r(i,j) = #{k <= i : w(k) <= j}, the Bruhat dominance table."""
        n = self.n
        table = []
        row = [0] * (n + 1)
        for i in range(1, n + 1):
            row = row.copy()
            for j in range(self.image[i - 1], n + 1):
                row[j] += 1
            table.append(tuple(row))
        return tuple(table)


def decode_rank_jumps(r) -> Permutation:
    """The w whose rank table is r, where r[i][j] (1 <= i, j <= n) is the
    rank of rows 1..i and columns j..n, and r[0][*] = r[*][n+1] = 0:
    w(k) = i exactly where the double difference of r at (i, k) is 1.

    Raises ValueError when r decodes to no permutation.
    """
    n = len(r) - 1
    img = [0] * n
    for k in range(1, n + 1):
        for i in range(1, n + 1):
            if r[i][k] - r[i - 1][k] - r[i][k + 1] + r[i - 1][k + 1] == 1:
                img[k - 1] = i
                break
    return Permutation(tuple(img))


def bruhat_leq(u: Permutation, v: Permutation) -> bool:
    """Bruhat order via rank-table dominance: u <= v iff r_u >= r_v entrywise."""
    if u.n != v.n:
        raise InvalidArgument("rank mismatch")
    flat = itertools.chain.from_iterable
    return all(map(operator.ge, flat(u.rank_table), flat(v.rank_table)))


def bruhat_less(u: Permutation, v: Permutation) -> bool:
    return u != v and bruhat_leq(u, v)


@cache
def all_permutations(n: int) -> tuple[Permutation, ...]:
    """S_n in lexicographic order, built once per n: Permutation is frozen,
    so every caller shares the same elements and their cached rank tables."""
    return tuple(Permutation(img) for img in itertools.permutations(range(1, n + 1)))


@dataclass(frozen=True)
class BruhatInterval:
    lower: Permutation
    upper: Permutation
    elements: frozenset[Permutation]


def interval(u: Permutation, v: Permutation) -> BruhatInterval:
    if u.n > INTERVAL_GUARD:
        raise RankTooLarge(f"interval enumeration guarded at n <= {INTERVAL_GUARD}")
    if not bruhat_leq(u, v):
        raise NotComparable(f"{u.serialize()} is not <= {v.serialize()}")
    # u <= w <= v implies l(u) <= l(w) <= l(v): test only those lengths
    elems = frozenset(
        w
        for w in all_permutations(u.n)
        if u.length <= w.length <= v.length and bruhat_leq(u, w) and bruhat_leq(w, v)
    )
    return BruhatInterval(u, v, elems)


def mobius(u: Permutation, v: Permutation) -> int:
    """Mobius function of the Bruhat order, by the recursive sieve."""
    box = interval(u, v)
    ordered = sorted(box.elements, key=lambda w: w.length)
    mu: dict[Permutation, int] = {}
    for w in ordered:
        if w == u:
            mu[w] = 1
            continue
        mu[w] = -sum(mu[z] for z in ordered if z != w and bruhat_leq(z, w))
    return mu[v]


@dataclass(frozen=True)
class ReducedWord:
    letters: tuple[int, ...]
    target: Permutation

    def serialize(self) -> str:
        return ".".join(f"s{a}" for a in self.letters)

    @staticmethod
    def parse(text: str, n: int) -> "ReducedWord":
        if n < 1:
            raise InvalidArgument(f"rank {n} must be at least 1")
        if n > INTERVAL_GUARD:
            raise RankTooLarge(f"reduced words guarded at n <= {INTERVAL_GUARD}")
        parts = text.split(".") if text else []
        if not all(p[:1] == "s" and p[1:].isdecimal() for p in parts):
            raise InvalidArgument(f"{text!r} is not a word of letters s<i> joined by '.'")
        letters = tuple(int(p[1:]) for p in parts)
        if not all(1 <= a <= n - 1 for a in letters):
            raise InvalidArgument(f"letters of {text!r} must lie in 1..{n - 1}")
        target = word_product(letters, n)
        if len(letters) != target.length:
            raise InvalidArgument(f"{text!r} is not a reduced word")
        return ReducedWord(letters, target)


def word_product(letters: tuple[int, ...], n: int) -> Permutation:
    w = Permutation.identity(n)
    for a in letters:
        w = w * Permutation.transposition(a, n)
    return w


@cache
def reduced_word(w: Permutation) -> ReducedWord:
    """Canonical reduced word, peeling off the leftmost descent on the right."""
    letters: list[int] = []
    v = w
    while True:
        ds = v.descents()
        if not ds:
            break
        i = ds[0]
        letters.append(i)
        v = v * Permutation.transposition(i, v.n)
    letters.reverse()
    return ReducedWord(tuple(letters), w)


def all_reduced_words(w: Permutation) -> set[tuple[int, ...]]:
    if w.n > ALL_WORDS_GUARD:
        raise RankTooLarge(f"all_reduced_words guarded at n <= {ALL_WORDS_GUARD}")
    if w.length == 0:
        return {()}
    out: set[tuple[int, ...]] = set()
    for i in w.descents():
        shorter = w * Permutation.transposition(i, w.n)
        out.update(word + (i,) for word in all_reduced_words(shorter))
    return out


def bruhat_leq_subword(u: Permutation, v: Permutation) -> bool:
    """Test oracle: some reduced word of u is a subword of every reduced word of v.

    By the subword property it suffices to scan one reduced word of v for
    every reduced word of u.
    """
    if u == v:
        return True
    if u.length >= v.length:
        return False
    vword = reduced_word(v).letters
    for uword in all_reduced_words(u):
        it = iter(vword)
        if all(a in it for a in uword):
            return True
    return False
