"""The single-pass data-speculation study against its two-pass
reference.

``tests/reference/dataspec.py`` keeps the per-record study: one
tracker per in-flight iteration with explicit written-sets, the
reference CLS, and a second pass that scores each loop's
most-frequent-path iterations.  The production
:meth:`~repro.core.dataspec.stats.DataSpeculationAnalyzer.
analyze_batches` replaces the written-sets with per-location stamps and
the second pass with per-path score buckets; every counter must still
match, whatever the batch boundaries.  Coverage: every analog and every
frontier case, CLS capacities 16 and 2, chunk sizes 1, 777 and the
tracer's default.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.dataspec import DataSpeculationAnalyzer
from repro.cpu import trace_full
from repro.cpu.tracer import ChunkedFullTracer
from repro.isa.instructions import InstrKind
from repro.search.corpus import frontier_names
from repro.trace.record import FullRecord
from repro.trace.stream import FullTrace
from repro.workloads import SUITE_ORDER, get

from reference.dataspec import reference_stats

#: Instructions per full trace; every analog runs several loop
#: executions inside it.  One-row batches re-enter the tracer and the
#: detector per instruction, so they get a shorter prefix.
BUDGET = 20_000
ONE_ROW_BUDGET = 5_000


def assert_matches_reference(program, budget, capacity, chunk_sizes):
    expected = reference_stats(trace_full(program, budget), "w",
                               capacity).state()
    assert expected["total_iterations"] > 0
    analyzer = DataSpeculationAnalyzer(cls_capacity=capacity)
    for chunk_size in chunk_sizes:
        options = {} if chunk_size is None else {"chunk_size": chunk_size}
        tracer = ChunkedFullTracer(program, budget, **options)
        got = analyzer.analyze_batches(tracer.batches(), "w").state()
        assert got == expected, "chunk size %s" % chunk_size


@pytest.mark.parametrize("capacity", (16, 2))
@pytest.mark.parametrize("name", list(SUITE_ORDER) + frontier_names())
def test_study_matches_reference(name, capacity):
    program = get(name).program(1)
    assert_matches_reference(program, BUDGET, capacity, (777, None))
    assert_matches_reference(program, ONE_ROW_BUDGET, capacity, (1,))


def test_full_trace_adapter_matches_reference():
    """``analyze`` (a materialized trace) is the same study."""
    trace = trace_full(get("compress").program(1), BUDGET)
    assert DataSpeculationAnalyzer().analyze(trace, "w").state() \
        == reference_stats(trace, "w").state()


#: One instruction over a tiny machine: pc, kind, taken, target, the
#: registers read, the register written (0 for none), the load and
#: store addresses (None for none) and the value written.  Few pcs,
#: registers and addresses, so loops close on instructions that read
#: or write the very locations the next iteration reads first -- the
#: tie cases of the stamp rules.
_step = st.tuples(
    st.integers(0, 9),
    st.sampled_from([0, 0, 0, int(InstrKind.BRANCH), int(InstrKind.BRANCH),
                     int(InstrKind.JUMP), int(InstrKind.RET)]),
    st.booleans(),
    st.integers(0, 9),
    st.lists(st.integers(1, 4), max_size=2),
    st.integers(0, 4),
    st.one_of(st.none(), st.integers(0, 3)),
    st.one_of(st.none(), st.integers(0, 3)),
    st.integers(-3, 3),
)


def _machine_trace(steps):
    """A :class:`FullTrace` whose reads return what was last written
    (0 before any write), as on a real machine."""
    regs = {}
    mem = {}
    records = []
    for seq, (pc, kind, taken, target, reads, write, load, store,
              value) in enumerate(steps):
        control = kind != 0
        records.append(FullRecord(
            seq, pc, kind, control and (taken or kind != 1),
            target if control else None,
            tuple((reg, regs.get(reg, 0)) for reg in reads),
            ((write, value),) if write else (),
            () if load is None else ((load, mem.get(load, 0)),),
            () if store is None else ((store, value),)))
        if write:
            regs[write] = value
        if store is not None:
            mem[store] = value
    return FullTrace(records, len(records), True)


@settings(max_examples=300, deadline=None)
@given(st.lists(_step, max_size=150), st.sampled_from((16, 2)))
def test_arbitrary_machine_traces_match_reference(steps, capacity):
    trace = _machine_trace(steps)
    got = DataSpeculationAnalyzer(cls_capacity=capacity).analyze(trace)
    assert got.state() == reference_stats(trace, "workload",
                                          capacity).state()
