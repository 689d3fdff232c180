"""The value records keep the semantics of frozen dataclasses: repr, equality
and hashing over the fields, pickling and copying, and no assignment."""

import copy
import dataclasses
import pickle
import re

import pytest

from flowvol.ctengine import CTExpression
from flowvol.cyclic import ExtendedWord, PrefixExtendedWord, extended_words
from flowvol.dyck import (
    UP,
    DoublyLabeledDyckWord,
    DyckPrefixWord,
    LabeledDyckWord,
    doubly_labeled_dyck_words,
)
from flowvol.graphs import DirectedStepGraph, FlowAssignment, NetFlow
from flowvol.verify import CaseRecord, CaseSpec, VerificationReport


def _case_record():
    return CaseRecord("EQ1", (("n", 2), ("k", 1)), "3", "3", "PASS")


# each builds a fresh, equal instance on every call
BUILDERS = [
    lambda: DirectedStepGraph(3, ((2, 3), (1, 2), (1, 3))),
    lambda: NetFlow((1, 2, -3)),
    lambda: FlowAssignment((0, 1, 2)),
    lambda: CTExpression(2, (0, -1), ((2, 1), (1, 2)), ((1, 2),)),
    lambda: DyckPrefixWord((UP, UP, 1), 2),
    lambda: LabeledDyckWord((UP, UP, 1, 0), 2),
    lambda: DoublyLabeledDyckWord(LabeledDyckWord((UP, 0), 1), (1, 1)),
    lambda: PrefixExtendedWord((UP, UP, 1), 1),
    lambda: ExtendedWord((UP, UP, 1), 1),
    lambda: CaseSpec("EQ1", (("n", 2), ("k", 1))),
    _case_record,
    lambda: VerificationReport("all", (_case_record(),), 12),
    # words as the enumerators build them, at the end of a final down-run
    pytest.param(
        lambda: list(doubly_labeled_dyck_words(2, 2))[-1], id="DoublyLabeledDyckWord-enumerated"
    ),
    pytest.param(lambda: list(extended_words(2, 2))[-1], id="ExtendedWord-enumerated"),
]


def _reference(record):
    """The same fields, in the same order, in a frozen dataclass of the same name."""
    fields = vars(record)
    reference = dataclasses.make_dataclass(type(record).__qualname__, list(fields), frozen=True)
    return reference(**fields)


@pytest.mark.parametrize("build", BUILDERS, ids=lambda build: type(build()).__name__)
def test_record_behaves_as_a_frozen_dataclass(build):
    record = build()
    reference = _reference(record)
    assert repr(record) == repr(reference)

    twin = build()
    assert twin is not record
    assert twin == record and not twin != record
    assert hash(twin) == hash(record)
    assert record != reference

    for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(clone) is type(record)
        assert clone == record and repr(clone) == repr(record)

    field = list(vars(record))[-1]
    for change in (lambda obj: setattr(obj, field, None), lambda obj: delattr(obj, field)):
        with pytest.raises(AttributeError) as expected:
            change(reference)
        with pytest.raises(AttributeError, match=f"^{re.escape(str(expected.value))}$"):
            change(record)
    assert repr(record) == repr(reference)


def test_ct_expression_keywords_take_the_default_factors():
    expr = CTExpression(nvars=2, monomial=(1, -1))
    assert expr.pow_factors == () and expr.diff_factors == ()
    assert expr == CTExpression(2, (1, -1), (), ())
