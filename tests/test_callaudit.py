"""``tools/callaudit.py`` on one tiny command: what the command runs is
not listed, and what only tests use (``isa/assembler.py``) is."""

import importlib.util
import os

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_tool():
    spec = importlib.util.spec_from_file_location(
        "callaudit", os.path.join(REPO_ROOT, "tools", "callaudit.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_audit_lists_only_uncalled_functions():
    tool = _load_tool()
    command = ("table1 --workloads swim --max-instructions 5000"
               " --no-cache")
    uncalled, functions, statuses = tool.audit((command,))
    assert statuses == [0]
    listed = {(os.path.relpath(path, tool.SRC_ROOT), name)
              for path, _, name, _ in uncalled}
    assert len(listed) < len(functions)
    assert (os.path.join("repro", "core", "cls.py"),
            "CurrentLoopStack.process_batch") not in listed
    assert (os.path.join("repro", "isa", "assembler.py"),
            "assemble") in listed
    report = tool.render(uncalled, functions, (command,), statuses)
    assert "src/repro/isa/assembler.py:" in report
    assert "CurrentLoopStack.process_batch" not in report
