import pickle
from itertools import product

import pytest
from hypothesis import given, strategies as st

from flowvol.closedforms import labeled_dyck_count
from flowvol.cyclic import ExtendedWord, PrefixExtendedWord
from flowvol.dyck import (
    UP,
    DoublyLabeledDyckWord,
    DyckPrefixWord,
    LabeledDyckWord,
    doubly_labeled_dyck_words,
    dyck_prefixes,
    format_word,
    labeled_dyck_words,
    min_constrained_count,
    min_constrained_run_vectors,
    parse_word,
    tokenize_steps,
    weakly_increasing_tuples,
    _validate_steps,
)

FIGURE_WORD = "UD0UUUUD5UD3D0UUUD4D2D0D0UD1D1"


def test_parse_figure_word():
    word = parse_word(FIGURE_WORD, 5)
    assert isinstance(word, LabeledDyckWord)
    assert word.n == 10
    assert word.zero_label_count == 4
    assert format_word(word) == FIGURE_WORD


def test_parse_doubly_labeled():
    word = parse_word("UD0UD1|1,1,1", 1, doubly=True)
    assert isinstance(word, DoublyLabeledDyckWord)
    assert word.base.eligible_positions() == (0, 1, 2)
    assert word.extra == (1, 1, 1)


def test_weak_decrease_violation_reports_position():
    with pytest.raises(ValueError, match="step 4"):
        parse_word("UUD1D2", 2)


def test_prefix_violation_reports_position():
    with pytest.raises(ValueError, match="step 3"):
        LabeledDyckWord(tokenize_steps("UD0D0U"), 1)


def test_malformed_tokens_report_position():
    with pytest.raises(ValueError, match="position 3"):
        tokenize_steps("UUX")
    with pytest.raises(ValueError, match="position 2"):
        tokenize_steps("UD")


def test_extra_channel_gating():
    with pytest.raises(ValueError):
        parse_word("UD0", 1, doubly=True)
    with pytest.raises(ValueError):
        parse_word("UD1|1", 1)


def test_extra_channel_validation():
    base = parse_word("UD0UD1", 2)
    with pytest.raises(ValueError):
        DoublyLabeledDyckWord(base, (1,))  # wrong length
    with pytest.raises(ValueError):
        DoublyLabeledDyckWord(base, (2, 1, 1))  # not weakly increasing
    with pytest.raises(ValueError):
        DoublyLabeledDyckWord(base, (1, 1, 3))  # label out of range
    with pytest.raises(ValueError, match="expected 3"):
        DoublyLabeledDyckWord(base, (1, 1, 1, 1))  # wrong length


@pytest.mark.parametrize(
    "base,message",
    [
        # an unbalanced prefix would print UUD0|1,1, which parse_word rejects
        (DyckPrefixWord((UP, UP, 0), 1), "base must be a LabeledDyckWord, not DyckPrefixWord"),
        ((UP, 0), "base must be a LabeledDyckWord, not tuple"),
    ],
    ids=["prefix", "tuple"],
)
def test_doubly_labeled_base_must_be_a_labeled_word(base, message):
    with pytest.raises(ValueError) as info:
        DoublyLabeledDyckWord(base, (1, 1))
    assert str(info.value) == message


def test_an_unbalanced_base_has_no_text():
    with pytest.raises(ValueError, match="must balance"):
        parse_word("UUD0|1,1", 1, doubly=True)


def _reference_extra_error(extra, k):
    """The first error of the extra channel, slot by slot, range before order."""
    for t, e in enumerate(extra):
        if not 1 <= e <= k:
            return f"extra label {e} at slot {t + 1} outside 1..{k}"
        if t and e < extra[t - 1]:
            return f"extra labels must be weakly increasing; violated at slot {t + 1}"
    return None


@pytest.mark.parametrize(
    "extra,message",
    [
        ((1,), "extra channel has 1 labels; expected 2"),
        ((1, 1, 1), "extra channel has 3 labels; expected 2"),
        ((0, 1), "extra label 0 at slot 1 outside 1..3"),
        ((4, 1), "extra label 4 at slot 1 outside 1..3"),
        ((2, 1), "extra labels must be weakly increasing; violated at slot 2"),
        ((2, 0), "extra label 0 at slot 2 outside 1..3"),  # range before order
        ((2, 4), "extra label 4 at slot 2 outside 1..3"),
    ],
)
def test_extra_channel_messages(extra, message):
    base = parse_word("UD0", 3)
    with pytest.raises(ValueError) as info:
        DoublyLabeledDyckWord(base, extra)
    assert str(info.value) == message


def test_extra_channel_reports_the_first_bad_slot():
    base = parse_word("UD0UD0", 3)  # four slots
    for extra in product(range(-1, 6), repeat=4):
        want = _reference_extra_error(extra, 3)
        if want is None:
            assert DoublyLabeledDyckWord(base, extra).extra == extra
            continue
        with pytest.raises(ValueError) as info:
            DoublyLabeledDyckWord(base, extra)
        assert str(info.value) == want


def _reference_step_error(steps, k, floor):
    """The first error of a step tuple, step by step: range, then height,
    then order."""
    height, top = 0, k
    for t, s in enumerate(steps, 1):
        if s == UP:
            height, top = height + 1, k
            continue
        if not 0 <= s <= k:
            return f"step {t}: label {s} outside 0..{k}"
        height -= 1
        if height < floor:
            return f"step {t}: prefix has more down-steps than up-steps"
        if s > top:
            return f"step {t}: down-run labels must weakly decrease"
        top = s
    return None


@pytest.mark.parametrize("k", [1, 2])
def test_step_messages_exhaustive(k):
    alphabet = range(-2, k + 2)
    for length in range(7):
        for steps in product(alphabet, repeat=length):
            for floor in (0, -length):
                want = _reference_step_error(steps, k, floor)
                if want is None:
                    _validate_steps(steps, k, floor)
                    continue
                with pytest.raises(ValueError) as info:
                    _validate_steps(steps, k, floor)
                assert str(info.value) == want


class _CountingTuple(tuple):
    """A tuple that counts the calls of its ``__iter__``."""

    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


@pytest.mark.parametrize(
    "steps",
    [(UP, 2), (0,), (UP, 0, 0), (UP, UP, 0, 1)],
    ids=["range", "height", "height-later", "order"],
)
def test_a_rejected_word_is_walked_once(steps):
    steps = _CountingTuple(steps)
    with pytest.raises(ValueError):
        _validate_steps(steps, 1)
    assert steps.iterations == 1


def test_a_rejected_extra_channel_is_walked_once():
    base = parse_word("UD0", 3)  # two slots
    for extra in ((0, 1), (2, 1), (2, 4)):
        extra = _CountingTuple(extra)
        with pytest.raises(ValueError):
            DoublyLabeledDyckWord(base, extra)
        assert extra.iterations == 1


def test_validate_steps_returns_the_end_height():
    assert _validate_steps((UP, UP, 0), 1) == 1
    assert _validate_steps((), 1) == 0
    assert _validate_steps((0,), 1, -1) == -1
    for i in range(4):
        for prefix in dyck_prefixes(4, i, 2):
            assert _validate_steps(prefix.steps, 2) == prefix.height == i


def test_eligible_positions_memo_is_invisible():
    warm = parse_word(FIGURE_WORD, 5)
    cold = parse_word(FIGURE_WORD, 5)
    warm.eligible_positions()
    assert warm == cold
    assert hash(warm) == hash(cold)
    assert repr(warm) == repr(cold)
    assert pickle.dumps(warm) == pickle.dumps(cold)
    restored = pickle.loads(pickle.dumps(warm))
    assert restored == warm
    assert restored.eligible_positions() == warm.eligible_positions()


def test_weakly_increasing_tuples_match_brute_force():
    for length in range(0, 7):
        for hi in range(1, 5):
            brute = [
                t
                for t in product(range(1, hi + 1), repeat=length)
                if all(a <= b for a, b in zip(t, t[1:]))
            ]
            assert list(weakly_increasing_tuples(length, hi)) == brute


def test_weakly_increasing_tuples_read_integral_floats():
    assert list(weakly_increasing_tuples(2.0, 2.0)) == list(weakly_increasing_tuples(2, 2))


def test_weakly_increasing_tuples_reject_negative_length():
    with pytest.raises(ValueError, match="length"):
        weakly_increasing_tuples(-1, 2)


def test_run_with_decreasing_labels_is_valid():
    assert parse_word("UUD1D0", 2).label_counts() == (1, 1, 0)
    with pytest.raises(ValueError):
        parse_word("UUD0D1", 2)


def test_enumerate_golden_order():
    words = [format_word(w) for w in labeled_dyck_words(2, 1, zeros=0)]
    assert words == ["UD1UD1", "UUD1D1"]


def test_enumerate_full_ld21():
    words = [w.steps for w in labeled_dyck_words(2, 1)]
    assert len(words) == len(set(words)) == 7
    # decreasing lexicographic in the step encoding (U below all labels)
    assert words == sorted(words, reverse=True)
    assert words[0] == tokenize_steps("UD1UD1")


def test_enumerate_composition_filter():
    assert sum(1 for _ in labeled_dyck_words(3, 3, label_counts=(0, 1, 1, 1))) == 16


def test_enumerate_forced_zero():
    assert [format_word(w) for w in labeled_dyck_words(1, 2, zeros=1)] == ["UD0"]


def test_enumerate_empty_word():
    assert [w.steps for w in labeled_dyck_words(0, 2)] == [()]


def test_enumerate_filter_validation():
    with pytest.raises(ValueError):
        list(labeled_dyck_words(2, 1, zeros=3))
    with pytest.raises(ValueError):
        list(labeled_dyck_words(2, 1, label_counts=(1, 0)))
    with pytest.raises(ValueError):
        list(labeled_dyck_words(2, 1, zeros=0, label_counts=(0, 2)))


def test_doubly_labeled_counts():
    assert sum(1 for _ in doubly_labeled_dyck_words(2, 1)) == 7
    assert sum(1 for _ in doubly_labeled_dyck_words(1, 1)) == 2
    assert sum(1 for _ in doubly_labeled_dyck_words(0, 3)) == 1


def test_doubly_labeled_channel_lengths():
    for word in doubly_labeled_dyck_words(3, 2):
        assert len(word.extra) == word.base.n + word.base.zero_label_count


def test_prefix_golden():
    words = [format_word(w) for w in dyck_prefixes(2, 1, 1, (1, 0))]
    assert words == ["UD0U", "UUD0"]


def test_prefix_all_up():
    assert [format_word(w) for w in dyck_prefixes(2, 2, 1, (0, 0))] == ["UU"]


def test_prefix_count():
    assert sum(1 for _ in dyck_prefixes(3, 1, 2, (1, 1, 0))) == 8


def test_prefix_heights():
    for word in dyck_prefixes(4, 2, 2, (1, 1, 0)):
        assert word.height == 2
        assert word.n == 4
        assert word.label_counts() == (1, 1, 0)


def test_labeled_word_is_a_prefix_at_height_zero():
    word = parse_word("UUD1D0", 2)
    prefix = DyckPrefixWord(word.steps, 2)
    assert isinstance(word, DyckPrefixWord)
    assert word.height == 0
    assert word != prefix
    assert prefix != word
    assert repr(word).startswith("LabeledDyckWord(")


@pytest.mark.parametrize(
    "call",
    [
        lambda: labeled_dyck_words(-1, 1),
        lambda: doubly_labeled_dyck_words(-1, 1),
        lambda: dyck_prefixes(2, 3, 1),
        lambda: dyck_prefixes(2, 1, 0, (1,)),
        lambda: min_constrained_run_vectors(2, (1,)),
    ],
    ids=["labeled_dyck_words", "doubly_labeled_dyck_words", "dyck_prefixes",
         "dyck_prefixes-k-with-label-counts", "min_constrained_run_vectors"],
)
def test_enumerators_check_arguments_at_the_call(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize(
    ("call", "message"),
    [
        (lambda: labeled_dyck_words(2, 1, zeros=0.5), "zeros filter 0.5"),
        (lambda: labeled_dyck_words(2, 1, label_counts=(2.5, -0.5)), "label count 2.5"),
        (lambda: labeled_dyck_words(2.5, 1), "labeled_dyck_words argument 2.5"),
        (lambda: dyck_prefixes(3, 1.5, 1), "dyck_prefixes argument 1.5"),
        (lambda: min_constrained_run_vectors(2, (1.5, 0.5)), "mins entry 1.5"),
        (lambda: weakly_increasing_tuples(2.5, 2), "weakly_increasing_tuples argument 2.5"),
        (lambda: weakly_increasing_tuples(2, 2.5), "weakly_increasing_tuples argument 2.5"),
    ],
    ids=["zeros", "label_counts", "labeled_dyck_words-n", "dyck_prefixes-i", "mins",
         "weakly_increasing_tuples-length", "weakly_increasing_tuples-hi"],
)
def test_enumerators_reject_non_integers_at_the_call(call, message):
    # each was truncated or ignored before, which gave a plausible count
    with pytest.raises(ValueError, match=f"^{message} is not an integer$"):
        call()


@pytest.mark.parametrize(
    ("build", "steps"),
    [
        (LabeledDyckWord, (UP, 1)),
        (DyckPrefixWord, (UP, UP, 1)),
        (ExtendedWord, (UP, UP, 1)),
        (PrefixExtendedWord, (UP, UP)),
        (lambda steps, k: parse_word(format_word(LabeledDyckWord(steps, 1)), k), (UP, 1)),
    ],
    ids=["LabeledDyckWord", "DyckPrefixWord", "ExtendedWord", "PrefixExtendedWord", "parse_word"],
)
@pytest.mark.parametrize("k", [2.5, 1.0, True, "2"])
def test_word_records_reject_a_label_bound_that_is_not_an_int(build, steps, k):
    # each was accepted, and label_counts() then raised TypeError
    with pytest.raises(ValueError, match=f"^label bound k must be an integer, got {k!r}$"):
        build(steps, k)
    assert build(steps, 2).k == 2


def test_prefix_validation():
    with pytest.raises(ValueError):
        list(dyck_prefixes(2, 3, 1, (0, 0)))
    with pytest.raises(ValueError):
        list(dyck_prefixes(3, 1, 1, (1, 0)))  # counts sum != n - i


def test_min_constrained_examples():
    assert min_constrained_count(2, (0, 0)) == 2
    assert min_constrained_count(2, (1, 1)) == 1
    assert min_constrained_count(3, (0, 1, 0)) == 3


def test_min_constrained_run_vectors_are_dyck():
    for d in min_constrained_run_vectors(4, (0, 0, 0, 0)):
        assert sum(d) == 4
        assert all(sum(d[: j + 1]) >= j + 1 for j in range(4))
    assert min_constrained_count(4, (0, 0, 0, 0)) == 14  # Catalan


def _recursive_run_vectors(n, mins):
    """The recursive walk that ``min_constrained_run_vectors`` replaced, kept
    as the reference: d_i counts down from what is left to its floor."""

    def walk(prefix, total):
        idx = len(prefix)
        if idx == n:
            if total == n:
                yield tuple(prefix)
            return
        for d in range(n - total, max(mins[idx], idx + 1 - total) - 1, -1):
            prefix.append(d)
            yield from walk(prefix, total + d)
            prefix.pop()

    return walk([], 0)


def test_min_constrained_run_vectors_match_the_recursive_walk():
    checked = 0
    for n in range(8):
        for mins in product(range(3), repeat=n):
            if sum(mins) <= n:
                expected = list(_recursive_run_vectors(n, mins))
                assert list(min_constrained_run_vectors(n, mins)) == expected
                checked += 1
    assert checked == 1948


def test_min_constrained_run_vectors_walk_without_recursion():
    first = next(min_constrained_run_vectors(1200, (0,) * 1200))
    assert first == (1200,) + (0,) * 1199


def test_min_constrained_validation():
    with pytest.raises(ValueError):
        min_constrained_count(2, (2, 1))
    with pytest.raises(ValueError):
        min_constrained_count(2, (1,))


@given(st.integers(min_value=0, max_value=4), st.integers(min_value=1, max_value=3))
def test_serialize_parse_round_trip(n, k):
    for word in labeled_dyck_words(n, k):
        assert parse_word(format_word(word), k) == word


def test_doubly_serialize_round_trip():
    for word in doubly_labeled_dyck_words(2, 2):
        assert parse_word(format_word(word), 2, doubly=True) == word


def test_enumeration_counts_match_closed_form_small():
    for n in range(0, 5):
        for k in (1, 2):
            buckets = {}
            for word in labeled_dyck_words(n, k):
                buckets[word.label_counts()] = buckets.get(word.label_counts(), 0) + 1
            for counts, size in buckets.items():
                assert size == labeled_dyck_count(n, k, counts)
