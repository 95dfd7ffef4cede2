"""Unit tests for the experiment result container."""

import pytest

from repro.experiments.report import ExperimentResult
from repro.experiments.runner import _emit


@pytest.fixture()
def result():
    return ExperimentResult(
        "Demo", ("program", "value"),
        [("swim", 1.5), ("go, jr", 2.5)],
        notes=["a note"],
    )


class TestRender:
    def test_render_contains_everything(self, result):
        text = result.render()
        assert "Demo" in text
        assert "swim" in text
        assert "note: a note" in text


class TestCsv:
    def test_csv_round_trip_shape(self, result):
        import csv
        import io
        rows = list(csv.reader(io.StringIO(result.to_csv())))
        assert rows[0] == ["program", "value"]
        assert rows[1] == ["swim", "1.5"]
        assert rows[2] == ["go, jr", "2.5"]    # comma quoted correctly

    def test_save_csv(self, result, tmp_path, capsys):
        _emit("demo", [result], "csv", str(tmp_path))
        path = tmp_path / "demo.csv"
        assert path.read_text().startswith("program,value")
        assert capsys.readouterr().out == "wrote %s\n" % path

    def test_json_round_trip(self, result):
        import json
        data = json.loads(result.to_json())
        assert data["name"] == "Demo"
        assert data["headers"] == ["program", "value"]
        assert data["rows"] == [["swim", 1.5], ["go, jr", 2.5]]
        assert data["notes"] == ["a note"]
        assert "extra" not in data

    def test_save_json(self, result, tmp_path):
        import json
        _emit("demo", [result], "json", str(tmp_path))
        path = tmp_path / "demo.json"
        assert json.loads(path.read_text())["name"] == "Demo"

    def test_save_numbers_each_result(self, result, tmp_path):
        _emit("demo", [result, result], "text", str(tmp_path))
        assert sorted(p.name for p in tmp_path.iterdir()) \
            == ["demo-1.txt", "demo-2.txt"]
        assert (tmp_path / "demo-2.txt").read_text() \
            == result.render() + "\n"

    def test_real_experiment_csv(self):
        from repro.experiments import SimulationSession
        from capture import run_experiment
        runner = SimulationSession(workloads=("mgrid",), cache_dir=None)
        csv_text = run_experiment("table1", runner).to_csv()
        assert csv_text.splitlines()[0].startswith("program,")
        assert "mgrid" in csv_text
