"""Table-1 statistics one execution record at a time: the fold the
production :func:`~repro.core.loopstats.compute_loop_statistics` and
:func:`~repro.core.loopstats.loop_coverage` replace with reads of the
event columns.  Fed the records of ``reference/cls.py``'s events
(``reference.events.to_records``), so no production CLS is in the
chain."""

from repro.core.loopstats import LoopStatistics


def reference_statistics(executions, total_instructions, name="workload"):
    """The :class:`LoopStatistics` of the records *executions*
    (``exec_id`` -> record), every execution ended."""
    stats = LoopStatistics(name)
    stats.total_instructions = total_instructions
    loops = set()
    for rec in executions.values():
        loops.add(rec.loop)
        stats.executions += 1
        stats.iterations += rec.iterations
        if rec.iterations == 1:
            stats.single_iteration_executions += 1
        lengths = rec.iteration_lengths()
        stats.measured_iterations += len(lengths)
        stats.measured_iteration_instructions += sum(lengths)
        stats.nesting_sum += rec.depth
        stats.max_nesting = max(stats.max_nesting, rec.depth)
    stats.static_loops = len(loops)
    return stats


def reference_coverage(executions, total_instructions):
    """The share of instructions inside depth-1 executions."""
    if not total_instructions:
        return 0.0
    covered = sum(rec.end_seq - rec.start_seq
                  for rec in executions.values() if rec.depth == 1)
    return min(1.0, covered / total_instructions)
