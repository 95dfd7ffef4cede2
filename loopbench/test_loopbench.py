"""Self-tests of the benchmark's own logic.

Run from the repository root::

    python3 -m pytest -q loopbench/test_loopbench.py
"""

import json
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: Smoke sizes: two analogs, short traces, a 2x2 grid, 4 candidates.
SMOKE = dict(analogs=("swim", "go"), max_instructions=20000,
             spawn_costs=(0, 8), tus=(2, 4), search_budget=4)


@pytest.fixture(scope="module", autouse=True)
def program():
    run._import_program()


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(1000) == 99.0
    assert run.tail_percentile(250) == 95.0
    assert run.tail_percentile(200) == 95.0
    assert run.tail_percentile(199) == 90.0
    assert run.tail_percentile(100) == 90.0
    assert run.tail_percentile(20) == 50.0
    assert run.tail_percentile(19) is None


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert run.percentile(values, 50.0) == 50
    assert run.percentile(values, 95.0) == 95
    assert run.percentile([3.0], 99.0) == 3.0


def test_digest_mismatch_is_a_failure(tmp_path):
    pinned = workloads.Run(str(tmp_path), workloads.Settings(),
                           {"paper/table1": "aaaa"})
    assert pinned.check("paper/table1", "aaaa") == 0
    assert pinned.check("paper/table1", "bbbb") == 1
    # Unpinned sizes: the first digest a run sees is the reference.
    smoke = workloads.Run(str(tmp_path), workloads.Settings(**SMOKE),
                          {"paper/table1": "aaaa"})
    assert smoke.check("paper/table1", "cccc") == 0
    assert smoke.check("paper/table1", "dddd") == 1


def test_digest_mismatch_fails_the_run(tmp_path, monkeypatch):
    values = iter(range(10 ** 6))
    monkeypatch.setattr(workloads, "digest",
                        lambda texts: "d%d" % next(values))
    result, _, _ = run.measure(
        "paper-warm", 1, 0, 0, settings=workloads.Settings(**SMOKE),
        scratch=str(tmp_path))
    assert result["failed"] > 0
    assert result["correct"] is False
    assert result["metrics"]["ok_frac"]["value"] < 1.0


def test_host_samples_stop_the_pass_clock(tmp_path):
    bench_run = workloads.Run(str(tmp_path), workloads.Settings(), {})
    start, real = bench_run.clock(), workloads.clock()
    bench_run.sample()
    bench_run.sample()
    paused = sum(bench_run.ref_times)
    assert len(bench_run.ref_times) == 2
    assert bench_run.clock() - start == pytest.approx(
        workloads.clock() - real - paused, abs=1e-3)
    nominal = workloads.REFERENCE_S
    assert workloads.host_scale([nominal]) == 1.0
    assert workloads.host_scale([nominal, 3 * nominal]) == 0.5


def test_metric_names_and_benchmark_file():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              encoding="utf-8") as fh:
        spec = json.load(fh)
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    assert end_to_end == [name for name, _ in run.END_TO_END]
    assert per_layer == [name for name, _, _ in layers.LAYER_METRICS]
    assert sorted(w["name"] for w in spec["workloads"]) \
        == sorted(workloads.WORKLOADS)
    names = end_to_end + per_layer + [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name


def test_self_time_subtracts_direct_children():
    spans = [
        ["root", 0.0, 10.0, None],
        ["detector", 1.0, 4.0, 0],
        ["trace.decode", 2.0, 3.0, 1],
        ["detector", 5.0, 6.0, 0],
        ["check", 11.0, 12.0, None],
    ]
    times = layers.self_times(spans)
    assert times["root"] == pytest.approx(6.0)
    assert times["detector"] == pytest.approx(3.0)
    assert times["trace.decode"] == pytest.approx(1.0)
    windowed = layers.self_times(spans, 0.0, 10.0)
    assert "check" not in windowed
    assert windowed["root"] == pytest.approx(6.0)


def test_tracer_records_parents_with_an_injected_clock():
    ticks = iter(range(100))
    tracer = layers.Tracer(clock=lambda: float(next(ticks)))
    outer = tracer.open("sweep")
    inner = tracer.open("sweep.cells")
    assert tracer.inside("sweep")
    tracer.close(inner)
    tracer.close(outer)
    assert not tracer.inside("sweep")
    assert tracer.spans == [["sweep", 0.0, 3.0, None],
                            ["sweep.cells", 1.0, 2.0, 0]]
    assert layers.self_times(tracer.spans) == {"sweep": 2.0,
                                               "sweep.cells": 1.0}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run(workload, trace, tmp_path):
    result, meta, observed = run.measure(
        workload, 7, 0, trace, settings=workloads.Settings(**SMOKE),
        scratch=str(tmp_path))
    assert result["correct"] is True, result
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    assert observed
    metrics = result["metrics"]
    if trace:
        assert set(metrics) == {n for n, _, _ in layers.LAYER_METRICS}
        coverage = metrics["layers.coverage"]["value"]
        assert 0.0 < coverage <= 1.0
    else:
        assert set(metrics) == {n for n, _ in run.END_TO_END}
        for name, metric in metrics.items():
            assert metric["value"] > 0, name
    assert len(meta["pass_walls"]) >= 1
