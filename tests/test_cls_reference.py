"""The production CLS against its per-record reference.

``tests/reference/cls.py`` transcribes the six CLS rules of the
:mod:`repro.core.cls` docstring literally, visiting the exit rule on
every taken transfer.  ``CurrentLoopStack.process_batch`` skips
transfers the rules prove change nothing; it must still emit the
reference's events, in order and field for field, and count the same
overflows.  Coverage: every analog and every
frontier case at CLS capacities 16, 2 and 1, and arbitrary transfer
sequences from the CLS property tests' strategy.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cls import CurrentLoopStack
from repro.search.corpus import frontier_names
from repro.trace.record import CFRecord
from repro.workloads import SUITE_ORDER, get

from reference import cut
from reference.cls import reference_events
from test_cls_properties import BR, CALL, JMP, RET, _transfer

#: Instructions traced per program, which bounds the per-record
#: reference's share of the suite's time.
BUDGET = 100_000
CAPACITIES = (16, 2, 1)


def _reprs(events):
    return [repr(event) for event in events]


def assert_matches_reference(records, total, capacity):
    expected, overflows = reference_events(records, capacity, total)
    expected = _reprs(expected)

    stack = CurrentLoopStack(capacity)
    events = []
    for batch in cut(records, 97):
        stack.process_batch(batch, events)
    events.extend(stack.flush(total))
    assert _reprs(events) == expected, \
        "process_batch, capacity %d" % capacity
    assert stack.overflow_count == overflows


@pytest.mark.parametrize("capacity", CAPACITIES)
@pytest.mark.parametrize("name", list(SUITE_ORDER) + frontier_names())
def test_workload_events_match_reference(name, capacity):
    trace = get(name).cf_trace(1, BUDGET)
    records = list(trace.iter_records())
    assert records
    assert_matches_reference(records, trace.total_instructions,
                             capacity)


#: The same transfers over a dozen pcs, so branches land on loop heads
#: and bodies overlap far more often.
_dense_transfer = st.tuples(
    st.integers(0, 12),
    st.sampled_from([BR, BR, BR, JMP, CALL, RET]),
    st.booleans(),
    st.integers(0, 12),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(_transfer, _dense_transfer), max_size=120),
       st.sampled_from(CAPACITIES))
def test_arbitrary_transfers_match_reference(transfers, capacity):
    records = []
    for seq, (pc, kind, taken, target) in enumerate(transfers):
        if kind in (JMP, CALL, RET):
            taken = True
        records.append(CFRecord(seq, pc, kind, taken, target))
    assert_matches_reference(records, len(records), capacity)

