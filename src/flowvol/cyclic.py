"""Cycle-lemma machinery on extended labeled words.

An extended word has one more up-step than it has down-steps, starts with
U, and keeps the weak-decrease condition on consecutive down-steps.
Repeatedly deleting cyclically adjacent (U, D) pairs leaves a single U
whose ordinal is the survivor index; every deletion order leaves the same U
(the cycle lemma of Dvoretzky and Motzkin, 1947).  Rotating the word to end
at that U realizes the cyclic shifts, and together they give the
many-to-one projection onto labeled Dyck words.

Extended words are enumerated by ``dyck``'s one walker, started from the
prefix U with a height floor below any height the word can reach, and
validated by ``dyck``'s step validator; this module adds only the "starts
with U" and up/down-count conditions.  A whole word is its prefix class at
height 0: ``ExtendedWord`` is a ``PrefixExtendedWord`` that ends at height
0, as ``dyck.LabeledDyckWord`` is a ``dyck.DyckPrefixWord``.
"""

from __future__ import annotations

from typing import Iterator

from . import dyck
from ._record import Record
from .dyck import UP, LabeledDyckWord, tokenize_steps
from .graphs import _integers


class PrefixExtendedWord(Record):
    """Word of length 2n-i+1 with n+1 up-steps, starting with U."""

    _fields = ("letters", "k")

    def __init__(self, letters: tuple[int, ...], k: int) -> None:
        if _validate_letters(letters, k) < 0:
            raise ValueError("prefix extended word has too many down-steps")
        self.__dict__["letters"] = letters
        self.__dict__["k"] = k

    @property
    def n(self) -> int:
        return self.letters.count(UP) - 1

    @property
    def height(self) -> int:
        # i in length 2n-i+1: the down-step deficit
        return 2 * self.n + 1 - len(self.letters)

    def __str__(self) -> str:
        return dyck._format_steps(self.letters)


class ExtendedWord(PrefixExtendedWord):
    """Prefix extended word at height 0: length 2n+1 with n+1 up-steps."""

    def __init__(self, letters: tuple[int, ...], k: int) -> None:
        # not the prefix check: too many down-steps gets this message too
        if _validate_letters(letters, k) != 0:
            raise ValueError("extended word must have exactly one more U than down-steps")
        self.__dict__["letters"] = letters
        self.__dict__["k"] = k


def _validate_letters(letters: tuple[int, ...], k: int) -> int:
    """The step conditions and the leading U; returns the height i in length 2n-i+1."""
    # an extended word has no height condition: its floor is out of reach
    end = dyck._validate_steps(letters, k, -len(letters))
    if not letters or letters[0] != UP:
        raise ValueError("word must start with U")
    return end - 1


def parse_extended_word(text: str, k: int) -> ExtendedWord:
    return ExtendedWord(tokenize_steps(text), k)


def survivor_index(word: PrefixExtendedWord) -> int:
    """Ordinal (1-based, among the original U's) of the U left by repeatedly
    deleting cyclically adjacent (U, D) pairs from a word at height 0.

    Every deletion order leaves the same U, so one scan pairs each down-step
    with the nearest unpaired U before it.  The d down-steps it leaves
    unpaired meet, across the end, the last d of the d + 1 unpaired U's: the
    first unpaired U survives.  ``index_candidates`` follows every order;
    ``test_deletion_order_does_not_matter`` checks that the two agree.
    """
    if word.height != 0:
        raise ValueError(f"survivor index needs height 0; the word is at height {word.height}")
    unpaired = []
    ordinal = 0
    for s in word.letters:
        if s == UP:
            ordinal += 1
            unpaired.append(ordinal)
        elif unpaired:
            unpaired.pop()
    return unpaired[0]


def _items(word: PrefixExtendedWord) -> tuple[int, ...]:
    """One int per letter: the U's ordinal among the word's U's, or 0 for a down-step."""
    ordinals = iter(range(1, len(word.letters) + 1))
    return tuple(next(ordinals) if s == UP else 0 for s in word.letters)


def _deletable(items: tuple[int, ...]) -> list[int]:
    """Positions of the U's followed, cyclically, by a down-step."""
    size = len(items)
    return [t for t in range(size) if items[t] and not items[(t + 1) % size]]


def _without_pair(items: tuple[int, ...], t: int) -> tuple[int, ...]:
    """items without position t and the one after it, cyclically."""
    if t + 1 < len(items):
        return items[:t] + items[t + 2:]
    return items[1:t]


def shift(word: ExtendedWord) -> ExtendedWord:
    """Rotate so the final U-started suffix moves to the front."""
    last_up = max(t for t, s in enumerate(word.letters) if s == UP)
    return ExtendedWord(word.letters[last_up:] + word.letters[:last_up], word.k)


def project(word: ExtendedWord) -> tuple[LabeledDyckWord, int]:
    """The unique rotation count j with shift^j(word) = w'U for a valid
    labeled Dyck word w'; returns (w', j).

    The rotation ends at the surviving U, and j is pinned by its index
    (shifting increments it mod n+1, and dropping the final U of a valid
    word needs index n+1).  So the letters are sliced once after that U, and
    only w' is built.
    """
    n = word.n
    survivor = survivor_index(word)
    letters = word.letters
    end = [t for t, s in enumerate(letters) if s == UP][survivor - 1] + 1
    return LabeledDyckWord(letters[end:] + letters[:end - 1], word.k), (n + 1 - survivor) % (n + 1)


def index_candidates(word: PrefixExtendedWord) -> frozenset[int]:
    """Ordinals of U's that can survive cyclic deletion down to i+1 U's,
    over every maximal deletion order, for a word at height i.

    The cyclic lemma says the set has exactly i+1 members.  The set is
    returned unchecked, so that a caller that counts it, as the
    ``CYC-CANDIDATES`` case does, reports a wrong count as a FAIL rather
    than stopping on an exception.

    The orders are walked level by level, one deletion per level, so a long
    word needs no recursion.  Every state of a level has the same length,
    so the set of a level holds each reachable state once."""
    level = {_items(word)}
    survivors: set[int] = set()
    while level:
        below = set()
        for items in level:
            candidates = _deletable(items)
            if candidates:
                below.update(_without_pair(items, t) for t in candidates)
            else:
                survivors.update(filter(None, items))
        level = below
    return frozenset(survivors)


def extended_words(n: int, k: int) -> Iterator[ExtendedWord]:
    """All extended words of length 2n+1, same order convention as the
    Dyck enumerations (high labels first, U last)."""
    n, k = _integers((n, k), "extended_words argument")
    if n < 0:
        raise ValueError("extended word size n must be >= 0")
    return _words(n, n, k, ExtendedWord)


def prefix_extended_words(n: int, i: int, k: int) -> Iterator[PrefixExtendedWord]:
    """All prefix extended words of length 2n-i+1 with n+1 up-steps."""
    n, i, k = _integers((n, i, k), "prefix_extended_words argument")
    if not 0 <= i <= n:
        raise ValueError("height i must lie in 0..n")
    return _words(n, n - i, k, PrefixExtendedWord)


def _words(n: int, downs: int, k: int, build) -> Iterator:
    """The words that start with U and have n+1 U's and ``downs`` down-steps;
    the floor, minus the word length, is out of reach of every height."""
    if k < 1:
        raise ValueError("label bound k must be >= 1")
    return dyck._walk([UP], n + 1, downs, k, (0,) * (k + 1), [downs], -(n + 1 + downs), build)
