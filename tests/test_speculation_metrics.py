"""Unit tests for SpeculationResult's derived metrics and the CLI."""

import pytest

from repro.core.speculation.metrics import SpeculationResult


def make_result(**kwargs):
    result = SpeculationResult("demo", 4, "STR")
    for key, value in kwargs.items():
        setattr(result, key, value)
    return result


class TestDerivedMetrics:
    def test_tpc_from_credit(self):
        result = make_result(total_cycles=1000, credit_waiting=2500,
                             credit_executing=2000)
        assert result.tpc == 3.5
        assert result.tpc_executing == 3.0

    def test_tpc_defaults_to_one_without_cycles(self):
        result = make_result()
        assert result.tpc == 1.0
        assert result.tpc_executing == 1.0

    def test_hit_ratio(self):
        result = make_result(promoted=9, squashed_misspec=1)
        assert result.hit_ratio == 0.9
        result = make_result(promoted=0, squashed_misspec=0)
        assert result.hit_ratio == 0.0

    def test_squashed_sums_both_kinds(self):
        result = make_result(squashed_misspec=3, squashed_policy=4)
        assert result.squashed == 7

    def test_threads_per_speculation(self):
        result = make_result(speculation_events=4, threads_spawned=10)
        assert result.threads_per_speculation == 2.5
        assert make_result().threads_per_speculation == 0.0

    def test_avg_instr_to_verification(self):
        result = make_result(resolved=4, instr_to_verif_total=200)
        assert result.avg_instr_to_verification == 50.0

    def test_speedup_bound(self):
        result = make_result(total_cycles=250, total_instructions=1000)
        assert result.speedup_bound == 4.0

    def test_table2_row_rounding(self):
        result = make_result(speculation_events=3, threads_spawned=7,
                             promoted=2, squashed_misspec=1,
                             resolved=3, instr_to_verif_total=100,
                             total_cycles=100, credit_waiting=150)
        row = result.as_table2_row()
        assert row == ("demo", 3, 2.33, 66.67, 33.33, 2.5)

    def test_derived_metrics_recomputed_on_restore(self):
        result = make_result(speculation_events=3, threads_spawned=7,
                             promoted=2, squashed_misspec=1,
                             resolved=3, instr_to_verif_total=100,
                             total_cycles=100, credit_waiting=150,
                             credit_executing=120)
        restored = SpeculationResult.from_state(result.state())
        assert restored.as_table2_row() == result.as_table2_row()
        assert restored.tpc_executing == result.tpc_executing == 2.2


class TestRunnerCli:
    def test_single_experiment_end_to_end(self, capsys):
        from repro.experiments.runner import main
        assert main(["figure4", "--scale", "1"]) == 0
        out = capsys.readouterr().out
        assert "LET hit %" in out
        assert "figure4 done" in out

    def test_unknown_experiment_rejected(self, capsys):
        from repro.experiments.runner import main
        with pytest.raises(SystemExit):
            main(["nosuch"])
