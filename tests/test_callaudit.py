"""``tools/callaudit.py``: what a command runs is not listed, what it
never calls is, and the allow-list gate fails on every unexcused or
stale entry."""

import importlib.util
import os

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_tool():
    spec = importlib.util.spec_from_file_location(
        "callaudit", os.path.join(REPO_ROOT, "tools", "callaudit.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _listed(tool, uncalled):
    return {tool.entry(path, name) for path, _, name, _ in uncalled}


def test_audit_lists_only_uncalled_functions():
    tool = _load_tool()
    command = ("table1 --workloads swim --max-instructions 5000"
               " --no-cache")
    uncalled, functions, statuses = tool.audit((command,))
    assert statuses == [0]
    listed = _listed(tool, uncalled)
    assert len(listed) < len(functions)
    assert "repro/core/cls.py:CurrentLoopStack.process_batch" \
        not in listed
    assert "repro/cpu/tracer.py:trace_full" in listed
    report = tool.render(uncalled, functions, (command,), statuses)
    assert "src/repro/cpu/tracer.py:" in report
    assert "CurrentLoopStack.process_batch" not in report


def test_a_profiled_command_does_not_end_the_recording():
    """``--profile-run`` replaces the profile hook with cProfile's and
    leaves none behind; the next command is recorded all the same."""
    tool = _load_tool()
    commands = ("table1 --workloads swim --max-instructions 5000"
                " --no-cache --profile-run 3",
                "figure5 --workloads swim --max-instructions 5000"
                " --no-cache")
    uncalled, _, statuses = tool.audit(commands)
    assert statuses == [0, 0]
    assert "repro/experiments/figure5.py:Figure5Analysis.finish" \
        not in _listed(tool, uncalled)


SRC = os.path.join(REPO_ROOT, "src")


def _uncalled(*entries):
    """Synthetic audit rows for ``path:qualname`` *entries*."""
    rows = []
    for entry in entries:
        path, name = entry.split(":")
        rows.append((os.path.realpath(os.path.join(SRC, path)), 1, name, 3))
    return rows


class TestAllowList:
    def test_compare_names_unexcused_and_stale_entries(self):
        tool = _load_tool()
        allowed = tool.read_allow_list([
            "# a comment",
            "",
            "repro/a.py:f  error path",
            "repro/a.py:C.g  rare command  # a trailing note",
            "repro/b.py:gone  test reference",
        ])
        uncalled = _uncalled("repro/a.py:f", "repro/a.py:C.g",
                             "repro/b.py:h")
        assert tool.compare(uncalled, allowed) \
            == (["repro/b.py:h"], ["repro/b.py:gone"])
        assert tool.compare(uncalled[:2], dict(list(allowed.items())[:2])) \
            == ([], [])

    @pytest.mark.parametrize("line", [
        "repro/a.py:f",
        "repro/a.py:f  because",
        "repro/a.py:f  error",
    ])
    def test_every_entry_needs_a_known_reason(self, line):
        tool = _load_tool()
        with pytest.raises(ValueError, match="needs a reason"):
            tool.read_allow_list([line])

    def test_an_entry_is_listed_once(self):
        tool = _load_tool()
        with pytest.raises(ValueError, match="twice"):
            tool.read_allow_list(["repro/a.py:f  error path",
                                  "repro/a.py:f  rare command"])

    def test_main_fails_naming_each_entry(self, monkeypatch, tmp_path,
                                          capsys):
        tool = _load_tool()
        allow = tmp_path / "allow.txt"
        allow.write_text("repro/a.py:f  error path\n"
                         "repro/a.py:stale  rare command\n")
        uncalled = _uncalled("repro/a.py:f", "repro/a.py:new")
        monkeypatch.setattr(tool, "ALLOW_LIST", str(allow))
        monkeypatch.setattr(tool, "audit", lambda: (
            uncalled, {}, [0] * len(tool.COMMANDS)))
        assert tool.main(["--output", str(tmp_path / "report.txt")]) == 1
        err = capsys.readouterr().err
        assert "repro/a.py:new is never called and not on the allow-list" \
            in err
        assert "stale allow-list entry repro/a.py:stale" in err
        assert "repro/a.py:f " not in err

        allow.write_text("repro/a.py:f  error path\n"
                         "repro/a.py:new  error path\n")
        assert tool.main(["--output", str(tmp_path / "report.txt")]) == 0

    def test_committed_allow_list_reads(self):
        tool = _load_tool()
        with open(tool.ALLOW_LIST, encoding="utf-8") as handle:
            allowed = tool.read_allow_list(handle)
        assert allowed
        for entry in allowed:
            path = entry.split(":")[0]
            assert os.path.exists(os.path.join(SRC, path)), entry
