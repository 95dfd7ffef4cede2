"""The production CLS and detector against the per-record reference.

``tests/reference/cls.py`` transcribes the six CLS rules of the
:mod:`repro.core.cls` docstring literally, visiting the exit rule on
every taken transfer, and emits event objects.  The production
:class:`~repro.core.cls.CurrentLoopStack` skips transfers the rules
prove change nothing and writes its events straight into
:class:`~repro.core.events.EventColumns`, per-execution start rows,
end rows and end reasons included.  Both must equal the reference's
events converted by ``tests/reference/events.py``: every column, the
iteration positions, every field of the execution records
``column_records`` reads off the production columns (``loop``,
``start_seq``, ``iter_seqs``, ``end_seq``, ``iterations``, ``reason``,
``depth``) and the overflow count.  The Table-1 statistics and the
loop coverage read off the columns must equal the per-record fold of
``tests/reference/loopstats.py`` over the reference's records.  Each
``LoopDetector.feed_batch``/``finish`` call returns exactly the range
of rows it appended.

Coverage: every analog and every frontier case at CLS capacities 16,
4, 2 and 1, the generator fuzz samples (``REPRO_FUZZ_SEED``) at 16, 4
and 2, and arbitrary transfer sequences from the CLS property tests'
strategy.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.detector import LoopDetector
from repro.core.loopstats import compute_loop_statistics, loop_coverage
from repro.cpu import trace_control_flow
from repro.search.corpus import frontier_names
from repro.workloads import SUITE_ORDER, get
from repro.workloads.synthetic import make_workload

from capture import workload_trace
from records import CFRecord, iter_records
from reference import cut
from reference.cls import reference_events
from reference.events import (
    columns_state,
    index_records,
    records_state,
    to_columns,
    to_records,
)
from reference.loopstats import reference_coverage, reference_statistics
from test_cls_properties import BR, CALL, JMP, RET, _transfer
from test_generator_fuzz import (
    DIFFERENTIAL_BUDGET,
    FUZZ_SEED,
    PROFILES,
    SEEDS,
    _ids,
)

#: Instructions traced per program, which bounds the per-record
#: reference's share of the suite's time.
BUDGET = 100_000
CAPACITIES = (16, 4, 2, 1)
FUZZ_CAPACITIES = (16, 4, 2)


def detect(batches, total, capacity):
    """A detector of *capacity* walked over *batches* and finished at
    *total*, checking that every call returns the rows it appended."""
    detector = LoopDetector(cls_capacity=capacity)
    cols = detector.columns
    for batch in batches:
        before = len(cols)
        appended = detector.feed_batch(batch)
        assert appended == range(before, len(cols))
    before = len(cols)
    appended = detector.finish(total)
    assert appended == range(before, len(cols))
    return detector


def assert_matches_reference(records, total, capacity, context=""):
    expected, overflows = reference_events(records, capacity, total)
    detector = detect(cut(records, 97), total, capacity)
    index = detector.index(total)
    where = "capacity %d%s" % (capacity, context)
    assert columns_state(index.columns) \
        == columns_state(to_columns(expected)), where
    records = to_records(expected)
    assert records_state(index_records(index)) \
        == records_state(records), where
    assert compute_loop_statistics(index, "w").state() \
        == reference_statistics(records, total, "w").state(), where
    assert loop_coverage(index) == reference_coverage(records, total), where
    assert detector.cls.overflow_count == overflows, where


@pytest.mark.parametrize("capacity", CAPACITIES)
@pytest.mark.parametrize("name", list(SUITE_ORDER) + frontier_names())
def test_workload_events_match_reference(name, capacity):
    trace = workload_trace(get(name), 1, BUDGET)
    records = list(iter_records(trace))
    assert records
    assert_matches_reference(records, trace.total_instructions,
                             capacity)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("profile", PROFILES, ids=_ids(PROFILES))
def test_fuzz_sample_events_match_reference(profile, seed):
    budget = min(profile.default_max_instructions, DIFFERENTIAL_BUDGET)
    trace = trace_control_flow(make_workload(profile, seed).program(),
                               budget)
    records = list(iter_records(trace))
    for capacity in FUZZ_CAPACITIES:
        assert_matches_reference(records, trace.total_instructions,
                                 capacity,
                                 " (REPRO_FUZZ_SEED=%d)" % FUZZ_SEED)


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
