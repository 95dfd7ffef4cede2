"""Bulk columnar kernels over :class:`~repro.trace.batch.RecordBatch`
columns.

The state-free hot consumers of the record stream -- the branch
predictors and the ``classcost`` timing model -- need the same handful
of elementwise column operations: "which records are backward taken
transfers", "which records are conditional branches", "what does each
instruction class cost".  This module is that inventory, computed once
per batch in bulk instead of once per record in the consumer's inner
loop.  (Stateful consumers -- the CLS and the loop detector it drives
-- use fused scalar loops over the same columns instead; see the note
below.)

The kernels are plain ``array``/``bytes`` loops with no third-party
dependency.  Vectorizing them with numpy measured no end-to-end gain:
slower cold and tied warm, since these per-batch loops are a small
share of a replay.
"""

from repro.isa.instructions import InstrKind
from repro.obs import collector as _obs

_K_BRANCH = int(InstrKind.BRANCH)


def backend():
    """The kernel implementation in use: always ``"stdlib"``."""
    return "stdlib"


def _count(name):
    """Per-kernel invocation counter (``kernel.<fn>``), a no-op unless
    an obs collector is active.  Kernels run once per batch, not per
    record, so the disabled check is far off the per-record path."""
    collector = _obs.active()
    if collector is not None:
        collector.add("kernel." + name)


# There is deliberately no CLS-walk kernel here.  The CurrentLoopStack
# is a stateful stack machine: every record's effect depends on the
# stack the previous record left behind, so a vectorized candidate
# walk ends up re-deriving per-record verdicts against ever-changing
# stack bounds -- measured ~3x slower than the fused scalar column
# loop in CurrentLoopStack.process_batch on real traces (only ~10% of
# control transfers are skippable, and exit-rule verdict vectors go
# stale on every push/pop/B-update).  Kernels belong here only for
# state-free bulk work: masks, gathers, run-length summaries, cost
# columns.


# -- branch predictor columns ------------------------------------------------

def backward_branch_mask(batch):
    """``bytes`` mask: 1 where the record is a conditional branch with
    a backward (or self) target, taken or not."""
    _count("backward_branch_mask")
    out = bytearray(len(batch))
    k_branch = _K_BRANCH
    i = 0
    for pc, kind, target in zip(batch.pcs, batch.kinds, batch.targets):
        if kind == k_branch and 0 <= target <= pc:
            out[i] = 1
        i += 1
    return bytes(out)


def taken_mask(batch):
    """``bytes`` mask: 1 where the record committed taken."""
    _count("taken_mask")
    return bytes(bytearray(1 if taken else 0 for taken in batch.takens))


def branch_columns(batch):
    """``(pcs, takens)`` of the conditional-branch records only, as
    plain lists of Python ints (``takens`` is 0/1), in stream order."""
    _count("branch_columns")
    pcs = []
    takens = []
    k_branch = _K_BRANCH
    for pc, kind, taken in zip(batch.pcs, batch.kinds, batch.takens):
        if kind == k_branch:
            pcs.append(pc)
            takens.append(1 if taken else 0)
    return pcs, takens


def closing_branch_pcs(batch):
    """The set of pcs observed as *taken backward* conditional branches
    in this batch (the loop-closing candidates of the branch-prediction
    baseline)."""
    _count("closing_branch_pcs")
    out = set()
    k_branch = _K_BRANCH
    for pc, kind, taken, target in zip(batch.pcs, batch.kinds,
                                       batch.takens, batch.targets):
        if kind == k_branch and taken and 0 <= target <= pc:
            out.add(pc)
    return out


# -- classcost prefix sums ---------------------------------------------------

def classcost_extras(batch, cost_by_kind, other, total):
    """The ``classcost`` prefix-sum increments for one batch.

    *cost_by_kind* maps instruction-class ints to cycle costs; *other*
    is the straight-line rate; *total* the running extra-cost total.
    Returns ``(seqs, extras, new_total)`` -- the seq column values of
    the records whose class costs differ from *other* and the running
    cumulative extra cost after each, ready to extend the model's
    prefix arrays.
    """
    _count("classcost_extras")
    seqs = []
    extras = []
    for seq, kind in zip(batch.seqs, batch.kinds):
        delta = cost_by_kind[kind] - other
        if delta:
            total += delta
            seqs.append(seq)
            extras.append(total)
    return seqs, extras, total


# -- per-pc run-length grouping ----------------------------------------------

def per_pc_runs(pcs, values):
    """Group parallel ``(pc, value)`` sequences into per-pc run-length
    lists: ``{pc: [(value, run_length), ...]}`` in first-seen pc order,
    runs in occurrence order.

    The run-length view of a pc's taken history is what makes saturating
    per-pc predictors (bimodal) O(#runs) instead of O(#occurrences); it
    is also a compact per-branch behaviour summary for characterization.
    """
    _count("per_pc_runs")
    out = {}
    for pc, value in zip(pcs, values):
        runs = out.get(pc)
        if runs is None:
            out[pc] = [(value, 1)]
        else:
            last_value, count = runs[-1]
            if last_value == value:
                runs[-1] = (value, count + 1)
            else:
                runs.append((value, 1))
    return out
