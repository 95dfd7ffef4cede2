"""Tests for the branch-prediction baselines."""

import pytest

from repro.core.branchpred import (
    BimodalPredictor,
    BranchPredictionReport,
    GSharePredictor,
    closing_branch_pcs,
    measure_branch_prediction,
)
from repro.cpu import trace_control_flow
from repro.lang import Assign, For, If, Module, Return, Var, \
    compile_module
from repro.isa import InstrKind

from capture import workload_trace
from records import CFRecord, trace_of

BR = int(InstrKind.BRANCH)


def branch_trace(sequence):
    """Build a CF trace of conditional branches from (pc, taken, target)."""
    records = [CFRecord(i, pc, BR, taken, target)
               for i, (pc, taken, target) in enumerate(sequence)]
    return trace_of(records, len(sequence), True, "synthetic")


class TestBimodal:
    def test_learns_always_taken(self):
        p = BimodalPredictor(entries=16)
        for _ in range(4):
            p.update(5, True)
        assert p.predict(5)

    def test_learns_never_taken(self):
        p = BimodalPredictor(entries=16)
        for _ in range(4):
            p.update(5, False)
        assert not p.predict(5)

    def test_hysteresis_tolerates_single_flip(self):
        p = BimodalPredictor(entries=16)
        for _ in range(4):
            p.update(5, True)
        p.update(5, False)          # one not-taken
        assert p.predict(5)         # still predicts taken

    def test_entries_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            BimodalPredictor(entries=12)


class TestGShare:
    def test_learns_alternating_pattern(self):
        # T, N, T, N ... is inseparable for bimodal but trivial with
        # one bit of history.
        p = GSharePredictor(entries=64, history_bits=4)
        correct = 0
        total = 200
        for i in range(total):
            taken = i % 2 == 0
            if p.predict(100) == taken:
                correct += 1
            p.update(100, taken)
        assert correct / total > 0.9

    def test_bimodal_fails_alternating_pattern(self):
        p = BimodalPredictor(entries=64)
        correct = 0
        total = 200
        for i in range(total):
            taken = i % 2 == 0
            if p.predict(100) == taken:
                correct += 1
            p.update(100, taken)
        assert correct / total < 0.7


class TestClosingBranchDetection:
    def test_backward_taken_branches_are_closers(self):
        trace = branch_trace([(20, True, 10), (30, True, 40),
                              (20, False, 10)])
        assert closing_branch_pcs(trace) == {20}

    def test_never_taken_backward_branch_not_closer(self):
        trace = branch_trace([(20, False, 10), (20, False, 10)])
        assert closing_branch_pcs(trace) == set()


class TestMeasurement:
    def test_loop_closers_highly_predictable(self):
        m = Module("t")
        m.function("main", [], [
            Assign("acc", 0),
            For("i", 0, 200, [
                If(Var("i") % 7 < 3, [Assign("acc", Var("acc") + 1)]),
            ]),
            Return(Var("acc")),
        ])
        trace = trace_control_flow(compile_module(m))
        report = measure_branch_prediction(trace, BimodalPredictor())
        # The closing branch is taken 199 times then falls through once.
        assert report.closing_accuracy > 0.95
        # The %7 pattern defeats a bimodal predictor.
        assert report.other_accuracy < report.closing_accuracy

    def test_report_accounting_consistent(self):
        trace = branch_trace([(20, True, 10)] * 10 + [(25, True, 40)] * 5)
        report = measure_branch_prediction(trace, BimodalPredictor())
        assert report.closing_total == 10
        assert report.other_total == 5
        overall = (report.closing_correct + report.other_correct) / 15
        assert abs(report.overall_accuracy - overall) < 1e-12

    def test_empty_trace(self):
        report = measure_branch_prediction(branch_trace([]),
                                           BimodalPredictor())
        assert report.overall_accuracy == 0.0

    def test_suite_premise_on_regular_workload(self):
        # The paper's premise on a regular workload: closing branches
        # are nearly perfectly predictable.
        from repro.workloads import get
        trace = workload_trace(get("swim"), scale=1)
        report = measure_branch_prediction(trace, BimodalPredictor(),
                                           "swim")
        assert report.closing_accuracy > 0.95
        assert report.closing_accuracy >= report.other_accuracy

    def test_branchy_workload_closers_still_decent(self):
        from repro.workloads import get
        trace = workload_trace(get("gcc"), scale=1)
        report = measure_branch_prediction(trace, BimodalPredictor(),
                                           "gcc")
        assert report.closing_accuracy > 0.8
