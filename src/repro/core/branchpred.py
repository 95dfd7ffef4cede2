"""Branch-prediction baselines.

The paper's premise (section 2): "the closing branches of loops are
highly predictable", which is why loops anchor thread-level control
speculation.  These conventional predictors quantify that over our
traces:

* :class:`BimodalPredictor` -- per-pc two-bit counters (Smith, 1981 --
  the paper's reference [8]).
* :class:`GSharePredictor` -- global-history XOR indexing (in the
  spirit of the two-level predictors of Yeh & Patt, reference [13]).

:func:`measure_branch_prediction` reports accuracy split into loop-
closing backward branches vs all other conditional branches, supporting
the claim directly.
"""

from repro.trace import kernels


class BimodalPredictor:
    """Per-pc two-bit saturating counters (initialized weakly taken)."""

    def __init__(self, entries=2048):
        if entries < 1 or entries & (entries - 1):
            raise ValueError("entries must be a positive power of two")
        self.mask = entries - 1
        self.counters = [2] * entries

    def predict(self, pc):
        return self.counters[pc & self.mask] >= 2

    def update(self, pc, taken):
        index = pc & self.mask
        counter = self.counters[index]
        if taken:
            if counter < 3:
                self.counters[index] = counter + 1
        elif counter > 0:
            self.counters[index] = counter - 1


class GSharePredictor:
    """Two-bit counters indexed by pc XOR global branch history."""

    def __init__(self, entries=4096, history_bits=10):
        if entries < 1 or entries & (entries - 1):
            raise ValueError("entries must be a positive power of two")
        self.mask = entries - 1
        self.history_mask = (1 << history_bits) - 1
        self.counters = [2] * entries
        self.history = 0

    def _index(self, pc):
        return (pc ^ self.history) & self.mask

    def predict(self, pc):
        return self.counters[self._index(pc)] >= 2

    def update(self, pc, taken):
        index = self._index(pc)
        counter = self.counters[index]
        if taken:
            if counter < 3:
                self.counters[index] = counter + 1
        elif counter > 0:
            self.counters[index] = counter - 1
        self.history = ((self.history << 1) | (1 if taken else 0)) \
            & self.history_mask


class BranchPredictionReport:
    """Accuracy split into loop-closing and other branches."""

    __slots__ = ("name", "closing_correct", "closing_total",
                 "other_correct", "other_total")

    def __init__(self, name):
        self.name = name
        self.closing_correct = 0
        self.closing_total = 0
        self.other_correct = 0
        self.other_total = 0

    @property
    def closing_accuracy(self):
        if not self.closing_total:
            return 0.0
        return self.closing_correct / self.closing_total

    @property
    def other_accuracy(self):
        if not self.other_total:
            return 0.0
        return self.other_correct / self.other_total

    @property
    def overall_accuracy(self):
        total = self.closing_total + self.other_total
        if not total:
            return 0.0
        return (self.closing_correct + self.other_correct) / total

    def state(self):
        """Every field as a JSON-serializable dict -- the exact inverse
        of :meth:`from_state`."""
        return {field: getattr(self, field) for field in self.__slots__}

    @classmethod
    def from_state(cls, state):
        """Rebuild a report from :meth:`state` output.

        Raises ``KeyError``/``TypeError`` on malformed input and
        ``ValueError`` on counters no measurement can produce (a
        negative count, or more correct predictions than branches);
        derived caches treat any of them as a miss.
        """
        report = cls(state["name"])
        for field in cls.__slots__[1:]:
            value = state[field]
            if type(value) is not int:
                raise TypeError("non-integer counter %r" % field)
            setattr(report, field, value)
        if not (0 <= report.closing_correct <= report.closing_total
                and 0 <= report.other_correct <= report.other_total):
            raise ValueError("branch-prediction counters out of range")
        return report


def closing_branch_pcs(cf_trace):
    """Static pcs of loop-closing branches: conditional backward
    branches observed taken at least once."""
    return set().union(*map(kernels.closing_branch_pcs, cf_trace.batches))


class BranchPredictionStream:
    """Single-pass accuracy measurement for several predictors at once.

    Whether a branch counts as loop-closing depends on the *whole*
    trace (a pc is closing if it was ever observed taken backward), so
    the stream keeps per-pc tallies and classifies them only in
    :meth:`reports` -- the totals come out identical to a two-pass
    replay against a precomputed closing set, in one pass.
    """

    def __init__(self, predictors):
        self.predictors = list(predictors)
        self._per_pc = {}      # pc -> [total, correct_0, correct_1, ...]
        self._closing = set()
        # The baseline study always measures exactly one bimodal and one
        # gshare; that pair gets a fused batch loop with the predictor
        # state in locals instead of two method calls per branch.
        self._fused_pair = (
            len(self.predictors) == 2
            and type(self.predictors[0]) is BimodalPredictor
            and type(self.predictors[1]) is GSharePredictor)

    def feed_batch(self, batch):
        """Account one :class:`~repro.trace.batch.RecordBatch`
        (non-branch records are ignored)."""
        pcs, takens = kernels.branch_columns(batch)
        if not pcs:
            return
        if self._fused_pair:
            self._feed_branches_fused(pcs, takens)
        else:
            self._feed_branches(pcs, takens)
        self._closing |= kernels.closing_branch_pcs(batch)

    def _feed_branches(self, pcs, takens):
        """Generic accounting over branch-only columns: every
        predictor predicts, then updates, in list order."""
        per_pc = self._per_pc
        predictors = self.predictors
        for pc, taken in zip(pcs, takens):
            taken = bool(taken)
            tallies = per_pc.get(pc)
            if tallies is None:
                tallies = per_pc[pc] = [0] * (len(predictors) + 1)
            tallies[0] += 1
            for slot, predictor in enumerate(predictors, start=1):
                if predictor.predict(pc) == taken:
                    tallies[slot] += 1
                predictor.update(pc, taken)

    def _feed_branches_fused(self, pcs, takens):
        """Fused bimodal+gshare accounting over branch-only columns.

        Exactly the sequence of :meth:`_feed_branches` -- bimodal
        predict/update, then gshare predict/update -- with both
        predictors' tables and the gshare history held in locals for
        the whole batch.
        """
        bimodal, gshare = self.predictors
        bcounters = bimodal.counters
        bmask = bimodal.mask
        gcounters = gshare.counters
        gmask = gshare.mask
        hmask = gshare.history_mask
        history = gshare.history
        per_pc = self._per_pc
        for pc, taken in zip(pcs, takens):
            tallies = per_pc.get(pc)
            if tallies is None:
                tallies = per_pc[pc] = [0, 0, 0]
            tallies[0] += 1
            index = pc & bmask
            counter = bcounters[index]
            if taken:
                if counter >= 2:
                    tallies[1] += 1
                if counter < 3:
                    bcounters[index] = counter + 1
                index = (pc ^ history) & gmask
                counter = gcounters[index]
                if counter >= 2:
                    tallies[2] += 1
                if counter < 3:
                    gcounters[index] = counter + 1
                history = ((history << 1) | 1) & hmask
            else:
                if counter < 2:
                    tallies[1] += 1
                if counter > 0:
                    bcounters[index] = counter - 1
                index = (pc ^ history) & gmask
                counter = gcounters[index]
                if counter < 2:
                    tallies[2] += 1
                if counter > 0:
                    gcounters[index] = counter - 1
                history = (history << 1) & hmask
        gshare.history = history

    def reports(self, name="workload"):
        """One :class:`BranchPredictionReport` per predictor, in order."""
        reports = [BranchPredictionReport(name)
                   for _ in self.predictors]
        closing = self._closing
        for pc, tallies in self._per_pc.items():
            total = tallies[0]
            for slot, report in enumerate(reports, start=1):
                correct = tallies[slot]
                if pc in closing:
                    report.closing_total += total
                    report.closing_correct += correct
                else:
                    report.other_total += total
                    report.other_correct += correct
        return reports


def measure_branch_prediction(cf_trace, predictor, name="workload"):
    """Replay every conditional branch through *predictor*."""
    stream = BranchPredictionStream([predictor])
    for batch in cf_trace.batches:
        stream.feed_batch(batch)
    return stream.reports(name)[0]
