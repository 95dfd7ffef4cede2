"""Documentation and source health: intra-repo Markdown links must
resolve, and no module imports a name it never uses.

The same checks run in CI (`tools/check_links.py`,
`tools/check_imports.py`); running them in tier-1 catches a renamed
doc, a stale reference or a dead import before a PR does.
"""

import importlib.util
import os

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_checker(name="check_links"):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(REPO_ROOT, "tools", name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_no_broken_markdown_links():
    checker = _load_checker()
    problems = checker.broken_links(REPO_ROOT)
    assert not problems, "\n".join(
        "%s:%d -> %s" % (os.path.relpath(p, REPO_ROOT), line, target)
        for p, line, target in problems)


def test_front_door_docs_exist():
    for doc in ("README.md", "docs/ARCHITECTURE.md", "docs/PIPELINE.md",
                "docs/ANALYSIS.md", "docs/WORKLOADS.md"):
        assert os.path.exists(os.path.join(REPO_ROOT, doc)), doc


def test_checker_flags_broken_link(tmp_path):
    (tmp_path / "doc.md").write_text("see [missing](nope/gone.md)\n")
    checker = _load_checker()
    problems = checker.broken_links(str(tmp_path))
    assert len(problems) == 1
    assert problems[0][2] == "nope/gone.md"


def test_checker_ignores_external_and_fenced(tmp_path):
    (tmp_path / "doc.md").write_text(
        "[a](https://example.com) [b](#anchor)\n"
        "```\n[c](not/a/file.md)\n```\n")
    checker = _load_checker()
    assert checker.broken_links(str(tmp_path)) == []


def test_no_unused_imports():
    problems = _load_checker("check_imports").check(REPO_ROOT)
    assert not problems, "\n".join(
        "%s:%d: %r imported but unused"
        % (os.path.relpath(p, REPO_ROOT), line, name)
        for p, line, name in problems)


def test_import_checker_flags_and_exempts(tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("from os import path\n")
    (package / "mod.py").write_text(
        "import os\n"
        "import os.path as osp\n"
        "import json.decoder\n"
        "from sys import argv, exit\n"
        "from abc import ABC\n"
        "import string  # noqa: F401  (kept for its side effect)\n"
        "from itertools import (\n"
        "    chain,  # noqa: F401\n"
        "    count,\n"
        ")\n"
        "__all__ = ['ABC']\n"
        "\n"
        "def run():\n"
        "    import re\n"
        "    from math import pi\n"
        "    def inner():\n"
        "        return pi\n"
        "    return json.decoder, argv, inner\n"
        "\n"
        "def shadowed():\n"
        "    import glob\n"
        "    return 1\n"
        "\n"
        "glob = None\n"
        "print(glob)\n")
    checker = _load_checker("check_imports")
    found = [(os.path.basename(path), line, name)
             for path, line, name in checker.check(str(tmp_path))]
    assert found == [("mod.py", 1, "os"), ("mod.py", 2, "osp"),
                     ("mod.py", 4, "exit"), ("mod.py", 14, "re"),
                     ("mod.py", 21, "glob")]
