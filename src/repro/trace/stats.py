"""Dynamic-trace statistics (instruction mix, branch behaviour).

These are validation aids: the workload suite uses them to check that a
synthetic benchmark has the control-flow character it claims (branch
density, taken ratio, backward-branch share) before the loop-level
statistics of the paper are even computed.
"""

from collections import Counter

from repro.isa.instructions import InstrKind


class CFStats:
    """Summary statistics over a control-flow trace."""

    def __init__(self, total_instructions=0):
        self.total_instructions = total_instructions
        self.by_kind = Counter()
        self.taken_branches = 0
        self.not_taken_branches = 0
        self.backward_taken = 0
        self.backward_not_taken = 0
        self.unique_branch_pcs = set()
        self.unique_backward_targets = set()

    @property
    def control_transfers(self):
        return sum(self.by_kind.values())

    @property
    def branch_count(self):
        return self.taken_branches + self.not_taken_branches

    @property
    def taken_ratio(self):
        total = self.branch_count
        return self.taken_branches / total if total else 0.0

    @property
    def backward_branch_share(self):
        """Share of branch executions that are backward."""
        total = self.branch_count
        if not total:
            return 0.0
        return (self.backward_taken + self.backward_not_taken) / total

    @property
    def control_density(self):
        if not self.total_instructions:
            return 0.0
        return self.control_transfers / self.total_instructions

    def as_dict(self):
        return {
            "total_instructions": self.total_instructions,
            "control_transfers": self.control_transfers,
            "branches": self.branch_count,
            "taken_ratio": self.taken_ratio,
            "backward_branch_share": self.backward_branch_share,
            "control_density": self.control_density,
            "static_branch_sites": len(self.unique_branch_pcs),
            "static_backward_targets": len(self.unique_backward_targets),
        }


def collect_cf_stats(cf_trace):
    """Compute :class:`CFStats` for a control-flow trace."""
    stats = CFStats(total_instructions=cf_trace.total_instructions)
    k_branch = int(InstrKind.BRANCH)
    for rec in cf_trace.iter_records():
        stats.by_kind[rec.kind] += 1
        if rec.kind == k_branch:
            stats.unique_branch_pcs.add(rec.pc)
            backward = rec.target is not None and rec.target <= rec.pc
            if rec.taken:
                stats.taken_branches += 1
                if backward:
                    stats.backward_taken += 1
            else:
                stats.not_taken_branches += 1
                if backward:
                    stats.backward_not_taken += 1
            if backward:
                stats.unique_backward_targets.add(rec.target)
        elif rec.kind == int(InstrKind.JUMP):
            if rec.target is not None and rec.target <= rec.pc:
                stats.unique_backward_targets.add(rec.target)
    return stats


def basic_block_profile(cf_trace):
    """Histogram of straight-line run lengths between control transfers."""
    histogram = Counter()
    prev_seq = -1
    for rec in cf_trace.iter_records():
        histogram[rec.seq - prev_seq] += 1
        prev_seq = rec.seq
    return histogram
