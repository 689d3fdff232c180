"""Labeled Dyck words: validation, serialization, exhaustive enumeration.

A step is encoded as an int: UP (-1) for an up-step, or the label 0..k for
a labeled down-step.  Within every maximal run of consecutive down-steps
the labels must be weakly decreasing.  Enumeration order is decreasing
lexicographic with respect to U < D0 < ... < Dk, i.e. at each position
down-steps with high labels are tried first and U last; this int encoding
makes that plain tuple comparison reversed.

One private walker, ``_walk``, enumerates the labeled words, the prefixes
and (for ``cyclic``) the extended words.  It is driven by data: label t
draws on ``counts[pool[t]]``, so one shared count gives every word, the
identity pool fixes the label-count vector and the pool (0, 1, ..., 1)
fixes the number of 0-labels; a down-step may not take the height below
``floor``, which is 0 for Dyck words and below reach for extended words.
The walker runs in one generator frame with an explicit stack of the next
option at each open node, so each word is handed to the caller once, not
up through one generator per step, and no word length reaches the
recursion limit.  The walk ends at the last up-step: the rest of the word
is one weakly decreasing down-run, which comes per pool class, highest
class first, from ``combinations_with_replacement`` over that class's
labels, so no node is opened for a down-step after the last U.

One validator, ``_validate_steps``, checks every kind of word the same way,
in one pass, after it checks that the label bound k is an int.  It tests
each down-step with one merged condition (label in range and no higher than
the run allows, height above the floor) and returns the height where the
steps end.  A rejected word is diagnosed from the state where the pass
stopped: the failing step, its position and the height and run top before
it name the rule, range before height before order.  The extra channel of a
doubly labeled word is checked the same way, and its base must be a
``LabeledDyckWord``.

A whole word is its prefix class at height 0: ``LabeledDyckWord`` is a
``DyckPrefixWord`` that adds only the balance check.  Every enumerated word
is built through its validating constructor, and every enumerator checks
its arguments at the call, before anything is iterated.  ``iter_dominant``
walks the compositions that dominate a vector in one frame too, for the
run vectors here and the sums of ``closedforms``, and ``_count`` counts an
enumeration in C.  Nothing here imports a flow-count module.
"""

from __future__ import annotations

from collections import deque
from itertools import accumulate, combinations_with_replacement, count, product, repeat
from operator import add
from typing import Callable, Iterator, Sequence

from ._record import Record
from .graphs import _integers

UP = -1


class DyckPrefixWord(Record):
    """Word prefix with the step conditions, ending at height i >= 0."""

    _fields = ("steps", "k")

    def __init__(self, steps: tuple[int, ...], k: int) -> None:
        _validate_steps(steps, k)
        self.__dict__["steps"] = steps
        self.__dict__["k"] = k

    @property
    def n(self) -> int:
        return self.steps.count(UP)

    @property
    def height(self) -> int:
        return 2 * self.n - len(self.steps)

    def label_counts(self) -> tuple[int, ...]:
        counts = [0] * (self.k + 1)
        for s in self.steps:
            if s != UP:
                counts[s] += 1
        return tuple(counts)

    def __str__(self) -> str:
        return format_word(self)


class LabeledDyckWord(DyckPrefixWord):
    """Dyck prefix that ends at height 0: a balanced word."""

    def __init__(self, steps: tuple[int, ...], k: int) -> None:
        # the prefix check, called directly: every enumerated word pays for super()
        height = _validate_steps(steps, k)
        if height:
            ups = (len(steps) + height) // 2
            raise ValueError(
                f"word has {ups} up-steps and {len(steps) - ups} down-steps; must balance"
            )
        self.__dict__["steps"] = steps
        self.__dict__["k"] = k

    @property
    def zero_label_count(self) -> int:
        return self.steps.count(0)

    def eligible_positions(self) -> tuple[int, ...]:
        """Positions (0-based) of up-steps and 0-labeled down-steps, in path order."""
        return tuple(t for t, s in enumerate(self.steps) if s == UP or s == 0)


class DoublyLabeledDyckWord(Record):
    """Labeled word plus a weakly increasing channel over up-steps and 0-labeled down-steps."""

    _fields = ("base", "extra")

    def __init__(self, base: LabeledDyckWord, extra: tuple[int, ...]) -> None:
        # an unbalanced prefix would print as text that parse_word rejects
        if not isinstance(base, LabeledDyckWord):
            raise ValueError(f"base must be a LabeledDyckWord, not {type(base).__name__}")
        steps = base.steps
        # the eligible positions, counted inline: this runs for every enumerated word
        want = len(steps) // 2 + steps.count(0)
        if len(extra) != want:
            raise ValueError(f"extra channel has {len(extra)} labels; expected {want}")
        k = base.k
        prev = 1  # every label is at least 1, so the first slot needs no order check
        rest = iter(extra)
        for e in rest:
            if not prev <= e <= k:
                break
            prev = e
        else:
            self.__dict__["base"] = base
            self.__dict__["extra"] = extra
            return
        # rejected at label e, with prev before it: the range is checked before the order
        slot = len(extra) - _count(rest)
        if not 1 <= e <= k:
            raise ValueError(f"extra label {e} at slot {slot} outside 1..{k}")
        raise ValueError(f"extra labels must be weakly increasing; violated at slot {slot}")

    def __str__(self) -> str:
        return format_word(self)


def _validate_steps(steps: Sequence[int], k: int, floor: int = 0) -> int:
    """Label bound, label range, weak decrease within down-runs, and no
    down-step below height ``floor`` (the height starts at 0); returns the
    height where the steps end."""
    if type(k) is not int:
        raise ValueError(f"label bound k must be an integer, got {k!r}")
    if k < 1:
        raise ValueError("label bound k must be >= 1")
    height = 0
    top = k  # the highest label the next down-step may carry
    rest = iter(steps)
    for s in rest:
        if s == UP:
            height += 1
            top = k
        elif 0 <= s <= top and height > floor:
            height -= 1
            top = s
        else:
            break
    else:
        return height
    # rejected at down-step s, with the height and top before it
    t = len(steps) - _count(rest)
    if not 0 <= s <= k:
        raise ValueError(f"step {t}: label {s} outside 0..{k}")
    if height <= floor:
        raise ValueError(f"step {t}: prefix has more down-steps than up-steps")
    raise ValueError(f"step {t}: down-run labels must weakly decrease")


def tokenize_steps(text: str) -> tuple[int, ...]:
    """Turn ``U``/``D<decimal>`` text into the step encoding; no whitespace allowed."""
    steps = []
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch == "U":
            steps.append(UP)
            pos += 1
            continue
        if ch == "D":
            end = pos + 1
            while end < len(text) and text[end].isdigit():
                end += 1
            if end == pos + 1:
                raise ValueError(f"position {pos + 1}: D needs a decimal label")
            steps.append(int(text[pos + 1 : end]))
            pos = end
            continue
        raise ValueError(f"position {pos + 1}: unexpected character {ch!r}")
    return tuple(steps)


def parse_word(text: str, k: int, *, doubly: bool = False) -> LabeledDyckWord | DoublyLabeledDyckWord:
    """Parse the word grammar, with the ``|extras`` channel required exactly
    when a doubly labeled word is requested."""
    body, bar, tail = text.partition("|")
    if doubly and not bar:
        raise ValueError("doubly labeled word needs a '|' extra-label channel")
    if not doubly and bar:
        raise ValueError("plain labeled word must not carry a '|' channel")
    base = LabeledDyckWord(tokenize_steps(body), k)
    if not doubly:
        return base
    extra = tuple(int(tok) for tok in tail.split(",")) if tail else ()
    return DoublyLabeledDyckWord(base, extra)


def format_word(word: DyckPrefixWord | DoublyLabeledDyckWord) -> str:
    if isinstance(word, DoublyLabeledDyckWord):
        extras = ",".join(str(e) for e in word.extra)
        return format_word(word.base) + "|" + extras
    return _format_steps(word.steps)


def _format_steps(steps: Sequence[int]) -> str:
    return "".join("U" if s == UP else f"D{s}" for s in steps)


def labeled_dyck_words(
    n: int,
    k: int,
    *,
    zeros: int | None = None,
    label_counts: Sequence[int] | None = None,
) -> Iterator[LabeledDyckWord]:
    """All words of half-length n, optionally filtered by the number of
    0-labels or by the full label-count vector (a_0..a_k)."""
    n, k = _integers((n, k), "labeled_dyck_words argument")
    if n < 0 or k < 1:
        raise ValueError("labeled_dyck_words requires n >= 0 and k >= 1")
    if zeros is not None and label_counts is not None:
        raise ValueError("give at most one of zeros and label_counts")
    pool, counts = (0,) * (k + 1), [n]
    if label_counts is not None:
        pool, counts = tuple(range(k + 1)), _label_counts(label_counts, k, n, "n")
    if zeros is not None:
        (zeros,) = _integers((zeros,), "zeros filter")
        if not 0 <= zeros <= n:
            raise ValueError("zeros filter must lie in 0..n")
        # 0-labels draw on the zeros owed, every other label on the rest
        pool, counts = (0,) + (1,) * k, [zeros, n - zeros]
    return _walk([], n, n, k, pool, counts, 0, LabeledDyckWord)


def _label_counts(label_counts: Sequence[int], k: int, total: int, what: str) -> list[int]:
    """The label counts (a_0..a_k) as a list of ints, or ValueError unless
    they are k+1 nonnegative integers summing to total, which the message
    calls ``what``."""
    counts = list(_integers(label_counts, "label count"))
    if len(counts) != k + 1 or any(c < 0 for c in counts) or sum(counts) != total:
        raise ValueError(f"label_counts must be k+1 nonnegative entries summing to {what}")
    return counts


def doubly_labeled_dyck_words(n: int, k: int) -> Iterator[DoublyLabeledDyckWord]:
    """All doubly labeled words, by base word then extra channel."""
    bases = labeled_dyck_words(n, k)
    return (
        DoublyLabeledDyckWord(base, extra)
        for base in bases
        for extra in combinations_with_replacement(range(1, base.k + 1), base.n + base.zero_label_count)
    )


def weakly_increasing_tuples(length: int, hi: int) -> Iterator[tuple[int, ...]]:
    """Weakly increasing tuples over 1..hi in increasing lexicographic order."""
    length, hi = _integers((length, hi), "weakly_increasing_tuples argument")
    if length < 0:
        raise ValueError("tuple length must be >= 0")
    return combinations_with_replacement(range(1, hi + 1), length)


def dyck_prefixes(
    n: int, i: int, k: int, label_counts: Sequence[int] | None = None
) -> Iterator[DyckPrefixWord]:
    """All prefixes with n up-steps ending at height i, in enumeration order,
    optionally filtered by the down-label multiplicities (a_0..a_k summing to
    n-i).  Without the filter one walk yields every such prefix once."""
    n, i, k = _integers((n, i, k), "dyck_prefixes argument")
    if not 0 <= i <= n:
        raise ValueError("height i must lie in 0..n")
    # at the call, not at the first word; for k < 0 the walk would yield nothing
    if k < 1:
        raise ValueError("label bound k must be >= 1")
    if label_counts is None:
        pool, counts = (0,) * (k + 1), [n - i]
    else:
        pool, counts = tuple(range(k + 1)), _label_counts(label_counts, k, n - i, "n-i")
    return _walk([], n, n - i, k, pool, counts, 0, DyckPrefixWord)


def _walk(
    prefix: list[int],
    up_total: int,
    down_total: int,
    k: int,
    pool: Sequence[int],
    counts: list[int],
    floor: int,
    build: Callable[[tuple[int, ...], int], object],
) -> Iterator:
    """Every ``build(steps, k)`` whose steps extend the up-steps ``prefix``
    to up_total up-steps and down_total down-steps, in the enumeration order.

    Label t is available while ``counts[pool[t]]`` is positive, and the
    counts sum to the down-steps still to place; no down-step may take the
    height below ``floor``.  The pool is weakly increasing in the label, so
    each class's labels lie above those of every lower class.  ``prefix``
    and ``counts`` are worked in place and restored.

    The walk ends at the last up-step.  What follows it is one weakly
    decreasing down-run that uses up every count, and the height only falls
    along it, so the run keeps the floor exactly when its end height
    ``up_total - down_total`` does; ``_tails`` gives every such run.

    The steps up to the last up-step are walked in this one frame.  ``todo``
    holds, for each open node, the next option to try there: its down
    labels from the top one to 0, then UP, so the options count down one
    range and an option below UP means the node is done."""
    if up_total - down_total < floor:
        return
    # each pool class's labels counted down from k, the highest class first
    labels = [[t for t in range(k, -1, -1) if pool[t] == c] for c in reversed(range(len(counts)))]
    ups, downs = len(prefix), 0
    if ups == up_total:
        head = tuple(prefix)
        for tail in _tails(labels, counts):
            yield build(head + tail, k)
        return
    todo = [k if down_total and ups > floor else UP]
    while todo:
        s = todo[-1]
        while s >= 0 and not counts[pool[s]]:
            s -= 1
        if s >= 0:
            todo[-1] = s - 1
            counts[pool[s]] -= 1
            downs += 1
        elif s == UP:
            # an open node is short of an up-step, or it would not be open
            todo[-1] = UP - 1
            ups += 1
        else:
            # the node is done: take back the step that opened it
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
        if ups == up_total:
            # the last up-step: every word that extends it ends in one down-run
            head = tuple(prefix)
            for tail in _tails(labels, counts):
                yield build(head + tail, k)
            prefix.pop()
            ups -= 1
        elif downs < down_total and ups - downs > floor:
            todo.append(k if s == UP else s)
        else:
            todo.append(UP)


def _tails(labels: list[list[int]], counts: list[int]) -> Iterator[tuple[int, ...]]:
    """Each weakly decreasing down-run that uses up ``counts``, in the
    enumeration order.  ``labels`` lists each pool class's labels no higher
    than the run's top, counted down, the highest class first.  The run is
    one part per class, in that order, and a class's part is a
    ``combinations_with_replacement`` run of its labels of length
    ``counts[c]``; under the shared pool that is the whole run."""
    if len(counts) == 1:
        return combinations_with_replacement(labels[0], counts[0])
    # a class with no count left adds only (), so only the others are joined
    runs = [combinations_with_replacement(run, c) for run, c in zip(labels, reversed(counts)) if c]
    if len(runs) == 1:
        return runs[0]
    return map(sum, product(*runs), repeat(()))


def iter_dominant(total: int, length: int, t: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """The compositions of total into `length` nonnegative parts whose every
    prefix sum is at least the matching prefix sum of t, in lexicographically
    decreasing order, generated with prefix-sum pruning in one generator
    frame, so any length walks without recursion.  t entries may be negative
    (shifted out-degree vectors can be).  A non-integral argument or a t of
    the wrong length raises ValueError at the call, before anything is
    iterated."""
    total, length = _integers((total, length), "iter_dominant argument")
    t = _integers(t, "iter_dominant t entry")
    if len(t) != length:
        raise ValueError("t must have the given length")
    return _dominant(total, length, t)


def _dominant(total: int, length: int, t: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """The walk behind ``iter_dominant``, in this one frame.  Part i counts
    down from ``total`` minus the sum before it to its floor, ``max(0,
    tsums[i] - sum before it)``; a part that starts below its floor is an
    empty node.  The next-to-last part runs its whole range in one loop, as
    the last part takes what is left."""
    if length == 0:
        if total == 0:
            yield ()
        return
    tsums = list(accumulate(t))
    if total < max(tsums[-1], 0):
        return
    if length == 1:
        yield (total,)
        return
    last = length - 1
    parts = [total] + [0] * last
    before = [0] * length  # before[i]: the sum of parts[:i]
    low = [max(0, tsums[0])] + [0] * last  # low[i]: the floor of parts[i]
    i = 0
    while True:
        if i + 1 == last:
            rest = total - before[i]
            for v in range(parts[i], low[i] - 1, -1):
                parts[i] = v
                parts[last] = rest - v
                yield tuple(parts)
        elif parts[i] >= low[i]:
            s = before[i] + parts[i]
            i += 1
            before[i] = s
            parts[i] = total - s
            low[i] = max(0, tsums[i] - s)
            continue
        # part i has run its range: the part before it takes its next value
        if i == 0:
            return
        i -= 1
        parts[i] -= 1


def min_constrained_run_vectors(n: int, mins: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Run-length vectors (d_1..d_n) of Dyck words U D^{d_n} ... U D^{d_1}
    with d_i >= mins[i]; the word condition is dominance of (d_1..d_n) over
    all-ones.  Less mins, they are the compositions of n - sum(mins)
    dominating 1 - mins, so ``iter_dominant`` walks them, in decreasing
    lexicographic order and without recursion."""
    (n,) = _integers((n,), "min_constrained_run_vectors argument")
    mins = _integers(mins, "mins entry")
    if len(mins) != n or any(a < 0 for a in mins):
        raise ValueError("mins must be n nonnegative integers")
    if sum(mins) > n:
        raise ValueError("mins must sum to at most n")
    excess = iter_dominant(n - sum(mins), n, tuple(1 - a for a in mins))
    return (tuple(map(add, e, mins)) for e in excess)


def min_constrained_count(n: int, mins: Sequence[int]) -> int:
    return _count(min_constrained_run_vectors(n, mins))


def _count(items) -> int:
    """The number of items, counted in C: ``zip`` draws one tally per item,
    and a ``deque`` of length 0 runs it without a Python frame per item."""
    tally = count()
    deque(zip(items, tally), maxlen=0)
    return next(tally)
