import random

import pytest

from flowvol import cyclic
from flowvol.closedforms import labeled_dyck_count, multiset_coeff
from flowvol.cyclic import (
    ExtendedWord,
    PrefixExtendedWord,
    extended_words,
    index_candidates,
    parse_extended_word,
    prefix_extended_words,
    project,
    shift,
    survivor_index,
)
from flowvol.dyck import UP, LabeledDyckWord, labeled_dyck_words, tokenize_steps

EXAMPLE = "UD1D0UUD1U"


def test_survivor_index_example():
    assert survivor_index(parse_extended_word(EXAMPLE, 1)) == 2


def test_survivor_index_single_letter():
    assert survivor_index(ExtendedWord((UP,), 1)) == 1


def test_shift_example():
    assert str(shift(parse_extended_word(EXAMPLE, 1))) == "UUD1D0UUD1"


def test_shift_fixed_point():
    single = ExtendedWord((UP,), 1)
    assert shift(single) == single


def test_survivor_index_of_shifted_example():
    assert survivor_index(parse_extended_word("UUD1D0UUD1", 1)) == 3


def test_shift_increments_survivor_index():
    for n, k in ((2, 1), (3, 1), (2, 2)):
        for word in extended_words(n, k):
            expect = (survivor_index(word) % (n + 1)) + 1
            assert survivor_index(shift(word)) == expect


def test_shift_n_plus_one_times_is_identity_on_index():
    for word in extended_words(2, 1):
        rotated = word
        for _ in range(3):
            rotated = shift(rotated)
        assert survivor_index(rotated) == survivor_index(word)


def test_deletion_order_does_not_matter():
    rng = random.Random(915)
    words = []
    for n, k in ((3, 1), (3, 2), (4, 2)):
        words.extend(extended_words(n, k))
    rng.shuffle(words)
    for word in words[:200]:
        assert index_candidates(word) == frozenset({survivor_index(word)})


def _leftmost_pair_survivor(word):
    """The deletion simulation: delete the leftmost cyclically adjacent (U, D)
    pair until one U is left, over (letter, ordinal) pairs."""
    items = _pair_items(word)
    ups = word.letters.count(UP)
    while ups > 1:
        items = _pair_without(items, _pair_deletable(items)[0])
        ups -= 1
    return min(ordinal for letter, ordinal in items if letter == UP)


def _pair_items(word):
    ordinals = iter(range(1, len(word.letters) + 1))
    return tuple((s, next(ordinals) if s == UP else 0) for s in word.letters)


def _pair_deletable(items):
    size = len(items)
    return [t for t in range(size) if items[t][0] == UP and items[(t + 1) % size][0] != UP]


def _pair_without(items, t):
    return items[:t] + items[t + 2:] if t + 1 < len(items) else items[1:t]


def _pair_candidates(word):
    """Every maximal deletion order, explored over (letter, ordinal) pairs."""
    memo = {}

    def explore(items):
        if items not in memo:
            candidates = _pair_deletable(items)
            memo[items] = frozenset().union(
                *(explore(_pair_without(items, t)) for t in candidates)
            ) if candidates else frozenset(o for letter, o in items if letter == UP)
        return memo[items]

    return explore(_pair_items(word))


def test_survivor_index_matches_the_deletion_simulation():
    for n in range(6):
        for k in (1, 2):
            for word in extended_words(n, k):
                survivor = survivor_index(word)
                assert type(survivor) is int
                assert survivor == _leftmost_pair_survivor(word)


def test_index_candidates_match_the_pair_explorer():
    for n in range(5):
        for i in range(n + 1):
            for k in (1, 2):
                for word in prefix_extended_words(n, i, k):
                    assert index_candidates(word) == _pair_candidates(word)


def test_index_candidates_walk_a_long_word_without_recursion():
    # one deletion order, 1200 deletions deep: past the default recursion limit
    word = ExtendedWord((UP,) * 1201 + (0,) * 1200, 1)
    assert index_candidates(word) == frozenset({1})


def test_deletion_states_are_ordinals():
    items = cyclic._items(parse_extended_word(EXAMPLE, 1))
    assert items == (1, 0, 0, 2, 3, 0, 4)
    assert all(type(item) is int for item in items)


def test_survivor_index_and_project_simulate_no_deletion(monkeypatch):
    calls = []
    for name in ("_deletable", "_without_pair"):
        original = getattr(cyclic, name)
        monkeypatch.setattr(cyclic, name, lambda *args, f=original: calls.append(args) or f(*args))
    for word in extended_words(3, 2):
        survivor_index(word)
        project(word)
    assert calls == []
    # the counter sees the explorer's calls
    index_candidates(parse_extended_word(EXAMPLE, 1))
    assert calls


def test_project_already_dyck():
    base, j = project(parse_extended_word("UUD1D1U", 1))
    assert str(base) == "UUD1D1"
    assert j == 0


def test_project_single_shift():
    base, j = project(parse_extended_word("UD1UUD1", 1))
    assert str(base) == "UD1UD1"
    assert j == 1


def test_project_fibers_have_size_n_plus_one():
    n, k = 2, 1
    fibers = {}
    for word in extended_words(n, k):
        base, _ = project(word)
        fibers.setdefault(base, []).append(word)
    dyck_words = set(labeled_dyck_words(n, k))
    assert set(fibers) == dyck_words
    for base, sources in fibers.items():
        assert len(sources) == n + 1
        for source in sources:
            assert sorted(s for s in source.letters if s != UP) == sorted(
                s for s in base.steps if s != UP
            )


def test_project_rotates_once_without_shift(monkeypatch):
    # the reference: shift j times, each shift a validated word
    expected = {}
    for word in extended_words(3, 2):
        j = (word.n + 1 - survivor_index(word)) % (word.n + 1)
        rotated = word
        for _ in range(j):
            rotated = shift(rotated)
        expected[word] = (LabeledDyckWord(rotated.letters[:-1], 2), j)
    assert {j for _, j in expected.values()} == {0, 1, 2, 3}
    calls = []
    monkeypatch.setattr(cyclic, "shift", lambda word: calls.append(word) or shift(word))
    assert {word: project(word) for word in expected} == expected
    assert calls == []


def test_extended_word_count_is_multiset_product():
    for n, k in ((2, 1), (3, 1), (2, 2), (3, 2)):
        by_counts = {}
        for word in extended_words(n, k):
            counts = [0] * (k + 1)
            for s in word.letters:
                if s != UP:
                    counts[s] += 1
            key = tuple(counts)
            by_counts[key] = by_counts.get(key, 0) + 1
        for counts, size in by_counts.items():
            product = 1
            for c in counts:
                product *= multiset_coeff(n + 1, c)
            assert size == product
            assert size == (n + 1) * labeled_dyck_count(n, k, counts)


def test_index_candidates_degenerate_is_survivor():
    word = parse_extended_word(EXAMPLE, 1)
    prefix = PrefixExtendedWord(word.letters, 1)
    assert index_candidates(prefix) == frozenset({survivor_index(word)})


def test_index_candidates_of_a_whole_word():
    assert index_candidates(parse_extended_word(EXAMPLE, 1)) == frozenset({2})


def test_survivor_index_names_the_height_of_a_prefix_word():
    with pytest.raises(ValueError, match="height 1"):
        survivor_index(PrefixExtendedWord(tokenize_steps("UU"), 1))
    with pytest.raises(ValueError, match="height 2"):
        survivor_index(PrefixExtendedWord(tokenize_steps("UUU"), 1))


def test_extended_word_is_a_prefix_at_height_zero():
    word = parse_extended_word(EXAMPLE, 1)
    prefix = PrefixExtendedWord(word.letters, 1)
    assert isinstance(word, PrefixExtendedWord)
    assert word.height == 0
    assert word.n == 3
    assert word != prefix
    assert str(word) == str(prefix) == EXAMPLE


def test_index_candidates_all_up():
    prefix = PrefixExtendedWord(tokenize_steps("UUU"), 1)
    assert index_candidates(prefix) == frozenset({1, 2, 3})


def test_index_candidates_two_survivors():
    prefix = PrefixExtendedWord(tokenize_steps("UUD0U"), 1)
    assert len(index_candidates(prefix)) == 2


def test_index_candidate_counts_exhaustive():
    for n in range(0, 4):
        for i in range(n + 1):
            for word in prefix_extended_words(n, i, 1):
                assert len(index_candidates(word)) == i + 1


def test_validation():
    with pytest.raises(ValueError):
        ExtendedWord(tokenize_steps("D0U"), 1)  # must start with U
    with pytest.raises(ValueError):
        ExtendedWord(tokenize_steps("UUUD1"), 1)  # U count off
    with pytest.raises(ValueError):
        ExtendedWord(tokenize_steps("UD0D1UU"), 1)  # labels must weakly decrease
    with pytest.raises(ValueError):
        PrefixExtendedWord(tokenize_steps("UD0D0"), 1)  # too many downs


def test_extended_words_count():
    # inserting downs after any of the n+1 ups independently per label
    assert sum(1 for _ in extended_words(2, 1)) == multiset_coeff(6, 2)
    assert sum(1 for _ in extended_words(3, 2)) == multiset_coeff(12, 3)


@pytest.mark.parametrize(
    "call",
    [
        lambda: extended_words(-1, 1),
        lambda: prefix_extended_words(2, 3, 1),
        lambda: extended_words(2.5, 1),
        lambda: extended_words(2, 1.5),
        lambda: prefix_extended_words(3, 1.5, 1),
    ],
    ids=["extended_words", "prefix_extended_words", "extended_words-n", "extended_words-k",
         "prefix_extended_words-i"],
)
def test_enumerators_check_arguments_at_the_call(call):
    with pytest.raises(ValueError):
        call()


def test_extended_words_reject_negative_size():
    with pytest.raises(ValueError):
        list(extended_words(-1, 1))
    with pytest.raises(ValueError):
        list(extended_words(2, 0))
