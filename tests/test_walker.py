"""Every enumerator built on the shared word walker against a brute-force
oracle: all step tuples over {U, D0..Dk} that the word's validating
constructor accepts, in reverse-sorted order (the enumeration order).
Past the oracle's reach, the walker is checked against two walkers kept
here as references: a recursive one, and one that opens a node for every
step, the final down-run's included."""

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


def _recursive_walk(prefix, up_total, down_total, k, pool, counts, floor, build):
    """The walker as one recursive generator per step: the reference for
    ``dyck._walk``, which takes the same arguments."""

    def walk(ups, downs):
        if ups == up_total and downs == down_total:
            yield build(tuple(prefix), k)
            return
        if downs < down_total and ups - downs > floor:
            top = prefix[-1] if prefix and prefix[-1] != UP else k
            for label in range(top, -1, -1):
                slot = pool[label]
                if counts[slot]:
                    prefix.append(label)
                    counts[slot] -= 1
                    yield from walk(ups, downs + 1)
                    counts[slot] += 1
                    prefix.pop()
        if ups < up_total:
            prefix.append(UP)
            yield from walk(ups + 1, downs)
            prefix.pop()

    ups = prefix.count(UP)
    return walk(ups, len(prefix) - ups)


def _node_walk(prefix, up_total, down_total, k, pool, counts, floor, build):
    """The walker with one node per step to the end of the word, the
    down-steps after the last U included, in one frame: the reference for
    ``dyck._walk``'s final down-runs, which takes the same arguments."""
    ups = prefix.count(UP)
    downs = len(prefix) - ups
    if ups == up_total and downs == down_total:
        yield build(tuple(prefix), k)
        return
    if downs < down_total and ups - downs > floor:
        todo = [prefix[-1] if prefix and prefix[-1] != UP else k]
    else:
        todo = [UP]
    while todo:
        s = todo[-1]
        while s >= 0 and not counts[pool[s]]:
            s -= 1
        if s >= 0:
            todo[-1] = s - 1
            counts[pool[s]] -= 1
            downs += 1
        elif s == UP and ups < up_total:
            todo[-1] = UP - 1
            ups += 1
        else:
            todo.pop()
            if todo:
                s = prefix.pop()
                if s == UP:
                    ups -= 1
                else:
                    counts[pool[s]] += 1
                    downs -= 1
            continue
        prefix.append(s)
        if ups == up_total and downs == down_total:
            yield build(tuple(prefix), k)
            prefix.pop()
            if s == UP:
                ups -= 1
            else:
                counts[pool[s]] += 1
                downs -= 1
        elif downs < down_total and ups - downs > floor:
            todo.append(k if s == UP else s)
        else:
            todo.append(UP)


def _both_walkers(monkeypatch, enumerate_words, reference=_recursive_walk):
    """The words of ``enumerate_words()`` from the walker and from a
    reference walker, the recursive one unless named, as two lists."""
    fast = list(enumerate_words())
    with monkeypatch.context() as patch:
        patch.setattr(dyck, "_walk", reference)
        slow = list(enumerate_words())
    return fast, slow


WIDE_GRID = [(n, k) for n in range(7) for k in (1, 2, 3)]


@pytest.mark.parametrize("n,k", WIDE_GRID)
def test_labeled_words_match_the_recursive_walker(monkeypatch, n, k):
    fast, slow = _both_walkers(monkeypatch, lambda: dyck.labeled_dyck_words(n, k))
    assert fast == slow
    if n > 5:
        return
    for d in range(n + 1):
        fast, slow = _both_walkers(monkeypatch, lambda: dyck.labeled_dyck_words(n, k, zeros=d))
        assert fast == slow
    for comp in _compositions(n, k + 1):
        fast, slow = _both_walkers(
            monkeypatch, lambda: dyck.labeled_dyck_words(n, k, label_counts=comp)
        )
        assert fast == slow


@pytest.mark.parametrize("n,k", WIDE_GRID)
def test_prefixes_match_the_recursive_walker(monkeypatch, n, k):
    for i in range(n + 1):
        fast, slow = _both_walkers(monkeypatch, lambda: dyck.dyck_prefixes(n, i, k))
        assert fast == slow


@pytest.mark.parametrize("n,k", [(n, k) for n in range(5) for k in (1, 2, 3)])
def test_extended_words_match_the_recursive_walker(monkeypatch, n, k):
    fast, slow = _both_walkers(monkeypatch, lambda: cyclic.extended_words(n, k))
    assert fast == slow
    for i in range(n + 1):
        fast, slow = _both_walkers(monkeypatch, lambda: cyclic.prefix_extended_words(n, i, k))
        assert fast == slow


def test_walker_restores_its_prefix_and_counts():
    prefix, counts = [UP], [2, 1]
    words = list(dyck._walk(prefix, 3, 3, 2, (0, 1, 1), counts, -6, lambda steps, k: steps))
    assert words and prefix == [UP] and counts == [2, 1]


def test_deep_walk_needs_no_recursion():
    word = next(dyck.labeled_dyck_words(1200, 1))
    assert len(word.steps) == 2400
    assert word.steps == (UP, 1) * 1200


def _enumerations(n, k):
    """Every enumeration of (n, k) that runs on the walker: the labeled
    words unfiltered, by zeros and by label counts, and the prefixes of
    every height with and without label counts; for n <= 4 also the
    extended words, the prefix extended words and the doubly labeled
    words."""
    calls = [lambda: dyck.labeled_dyck_words(n, k)]
    calls += [lambda d=d: dyck.labeled_dyck_words(n, k, zeros=d) for d in range(n + 1)]
    calls += [
        lambda comp=comp: dyck.labeled_dyck_words(n, k, label_counts=comp)
        for comp in _compositions(n, k + 1)
    ]
    for i in range(n + 1):
        calls.append(lambda i=i: dyck.dyck_prefixes(n, i, k))
        calls += [
            lambda i=i, comp=comp: dyck.dyck_prefixes(n, i, k, comp)
            for comp in _compositions(n - i, k + 1)
        ]
    if n <= 4:
        calls.append(lambda: cyclic.extended_words(n, k))
        calls += [lambda i=i: cyclic.prefix_extended_words(n, i, k) for i in range(n + 1)]
        calls.append(lambda: dyck.doubly_labeled_dyck_words(n, k))
    return calls


@pytest.mark.parametrize("n,k", [(n, k) for n in range(6) for k in (1, 2, 3)])
def test_final_down_runs_match_the_node_walker(monkeypatch, n, k):
    for enumerate_words in _enumerations(n, k):
        fast, slow = _both_walkers(monkeypatch, enumerate_words, _node_walk)
        assert fast == slow


def _steps(steps, k):
    return steps


@pytest.mark.parametrize(
    "prefix,up_total,down_total,k,pool,counts,floor",
    [
        ([], 0, 0, 2, (0, 0, 0), [0], 0),  # n = 0: the empty word
        ([UP], 1, 0, 2, (0, 0, 0), [0], -1),  # extended word of n = 0
        ([UP, UP, UP], 3, 3, 2, (0, 0, 0), [3], 0),  # the root holds every up-step
        ([UP, UP, UP], 3, 3, 2, (0, 1, 2), [1, 1, 1], 0),
        ([UP, UP, UP], 3, 3, 2, (0, 1, 1), [0, 3], 0),
        ([UP, UP, UP], 3, 3, 2, (0, 1, 2), [0, 0, 3], 0),  # only the top class has a count
        ([UP, UP, UP], 3, 3, 2, (0, 1, 1), [1, 2], 0),
        ([], 3, 1, 2, (0, 0, 0), [1], 2),  # the end height meets the floor
        ([], 3, 1, 2, (0, 0, 0), [1], 3),  # the end height is below the floor
        ([], 2, 3, 2, (0, 0, 0), [3], 0),  # a word that cannot end at height 0
        ([UP], 2, 4, 1, (0, 0), [4], -6),
    ],
)
def test_final_down_run_edge_cases(prefix, up_total, down_total, k, pool, counts, floor):
    args = (up_total, down_total, k, pool)
    want = list(_node_walk(list(prefix), *args, list(counts), floor, _steps))
    root, left = list(prefix), list(counts)
    got = list(dyck._walk(root, *args, left, floor, _steps))
    assert got == want
    assert root == prefix and left == counts
    if up_total - down_total < floor:
        assert got == []


def test_edge_cases_yield_words():
    assert list(dyck.labeled_dyck_words(0, 2)) == [dyck.LabeledDyckWord((), 2)]
    assert list(dyck._walk([UP, UP, UP], 3, 3, 1, (0, 0), [3], 0, _steps)) == [
        (UP, UP, UP, 1, 1, 1),
        (UP, UP, UP, 1, 1, 0),
        (UP, UP, UP, 1, 0, 0),
        (UP, UP, UP, 0, 0, 0),
    ]
    assert list(dyck._walk([UP, UP, UP], 3, 3, 2, (0, 1, 2), [1, 1, 1], 0, _steps)) == [
        (UP, UP, UP, 2, 1, 0),
    ]
    # the end height -1 is below the floor
    assert list(dyck._walk([UP, UP, UP], 3, 4, 2, (0, 1, 2), [1, 1, 2], 0, _steps)) == []
