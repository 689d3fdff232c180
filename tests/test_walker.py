"""Every enumerator built on the shared word walker against a brute-force
oracle: all step tuples over {U, D0..Dk} that the word's validating
constructor accepts, in reverse-sorted order (the enumeration order)."""

from functools import lru_cache
from itertools import product

import pytest

from flowvol import cyclic, dyck
from flowvol.dyck import UP

GRID = [(n, k) for n in range(4) for k in (1, 2)]


@lru_cache(maxsize=None)
def _accepted(length, k, build):
    words = []
    for steps in sorted(product((UP,) + tuple(range(k + 1)), repeat=length), reverse=True):
        try:
            words.append(build(steps, k))
        except ValueError:
            continue
    return words


def _oracle(length, k, build, keep=lambda word: True):
    return [word for word in _accepted(length, k, build) if keep(word)]


def _compositions(total, length):
    return [c for c in product(range(total + 1), repeat=length) if sum(c) == total]


@pytest.mark.parametrize("n,k", GRID)
def test_labeled_words_match_oracle(n, k):
    every = _oracle(2 * n, k, dyck.LabeledDyckWord)
    assert list(dyck.labeled_dyck_words(n, k)) == every
    for d in range(n + 1):
        assert list(dyck.labeled_dyck_words(n, k, zeros=d)) == [
            w for w in every if w.zero_label_count == d
        ]
    for comp in _compositions(n, k + 1):
        assert list(dyck.labeled_dyck_words(n, k, label_counts=comp)) == [
            w for w in every if w.label_counts() == comp
        ]


@pytest.mark.parametrize("n,k", GRID)
def test_prefixes_match_oracle(n, k):
    for i in range(n + 1):
        for comp in _compositions(n - i, k + 1):
            expected = _oracle(
                2 * n - i, k, dyck.DyckPrefixWord,
                lambda w: w.n == n and w.label_counts() == comp,
            )
            assert list(dyck.dyck_prefixes(n, i, k, comp)) == expected


@pytest.mark.parametrize("n,k", GRID)
def test_unfiltered_prefixes_match_oracle(n, k):
    for i in range(n + 1):
        expected = _oracle(2 * n - i, k, dyck.DyckPrefixWord, lambda w: w.n == n)
        assert list(dyck.dyck_prefixes(n, i, k)) == expected


@pytest.mark.parametrize("k", [0, -1, -2])
@pytest.mark.parametrize("n,i", [(0, 0), (2, 0), (2, 1), (2, 2)])
def test_unfiltered_prefixes_reject_a_bound_below_one(n, i, k):
    # the shared pool of k = -1 is empty: without the check the walk would
    # place no down-step and yield nothing
    with pytest.raises(ValueError, match="k must be >= 1"):
        list(dyck.dyck_prefixes(n, i, k))


@pytest.mark.parametrize("n,k", GRID)
def test_extended_words_match_oracle(n, k):
    assert list(cyclic.extended_words(n, k)) == _oracle(2 * n + 1, k, cyclic.ExtendedWord)
    for i in range(n + 1):
        expected = _oracle(2 * n - i + 1, k, cyclic.PrefixExtendedWord, lambda w: w.n == n)
        assert list(cyclic.prefix_extended_words(n, i, k)) == expected
