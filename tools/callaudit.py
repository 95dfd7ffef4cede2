#!/usr/bin/env python3
"""List the ``src/`` functions a production command set never calls.

Runs each command of a set through ``repro.experiments.runner.main``
in this process, in a fresh temporary directory (trace cache, derived
store and sweep stores all start empty, so every run is cold), under a
``sys.setprofile`` hook that records the code object of every Python
call.  Then it parses every module under ``src/repro`` and prints each
function or method whose code never ran, with its file, first line and
line count, grouped by file, largest files first.

The default set (:data:`COMMANDS`) is a cold ``runner all --workloads
swim,go``, one tiny sensitivity sweep and one tiny search.  It is a
sample of production, not all of it: a function it lists may still run
on an error path, under a flag the set does not pass, or from a tool
or an example.

Usage::

    python tools/callaudit.py                     # report to stdout
    python tools/callaudit.py --output audit.txt

The report lists nothing that this tool cannot
map to a function definition: code compiled at run time (the
speculation walks, translated blocks) has no ``src/`` file.
"""

import argparse
import ast
import contextlib
import io
import os
import shutil
import sys
import tempfile
import threading

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_ROOT = os.path.join(REPO_ROOT, "src")

#: The production command set: runner argv lists; ``{tmp}`` is the
#: run's temporary directory.  ``--jobs 1`` keeps tracing in this
#: process, where the hook sees it.
COMMANDS = (
    "all --workloads swim,go --jobs 1 --cache-dir {tmp}/cache",
    "sweep sensitivity --workloads swim,go --max-instructions 20000"
    " --spawn-cost 0,8 --tus 2,4 --jobs 1 --store {tmp}/sweeps"
    " --cache-dir {tmp}/cache",
    "search --objective tpc-inversion --budget 4 --seed 1"
    " --store {tmp}/search-store --cache-dir {tmp}/search-cache",
)


def defined_functions():
    """``(path, first line) -> (qualified name, line count)`` of every
    function and method under ``src/``.  The first line is the one a
    code object reports: the first decorator's, if any."""
    functions = {}
    for directory, _, files in os.walk(SRC_ROOT):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(directory, name)
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), path)
            _collect(tree, "", os.path.realpath(path), functions)
    return functions


def _collect(node, prefix, path, functions):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([child.lineno] + [decorator.lineno for decorator
                                          in child.decorator_list])
            qualname = prefix + child.name
            functions[path, first] = (qualname,
                                      child.end_lineno - first + 1)
            _collect(child, qualname + ".", path, functions)
        elif isinstance(child, ast.ClassDef):
            _collect(child, prefix + child.name + ".", path, functions)
        else:
            _collect(child, prefix, path, functions)


def called_code(commands, tmp):
    """The ``(path, first line)`` of every code object called while
    *commands* run (stdout and stderr swallowed), and the commands'
    exit codes.  The runner is imported under the hook, so functions
    called at import time (registrations) count as called."""
    seen = set()
    add = seen.add

    def hook(frame, event, arg):
        if event == "call":
            add(frame.f_code)

    statuses = []
    sink = io.StringIO()
    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        from repro.experiments.runner import main
        for command in commands:
            argv = command.format(tmp=tmp).split()
            with contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                try:
                    statuses.append(main(argv) or 0)
                except SystemExit as exit_:
                    statuses.append(exit_.code)
            sink.seek(0)
            sink.truncate()
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    called = {(os.path.realpath(code.co_filename), code.co_firstlineno)
              for code in seen}
    return called, statuses


def audit(commands=COMMANDS):
    """``(uncalled, functions, statuses)``: the sorted ``(path, first
    line, name, lines)`` of every function under ``src/`` that
    *commands* never call, every function found, and the commands'
    exit codes."""
    functions = defined_functions()
    tmp = tempfile.mkdtemp(prefix="callaudit-")
    try:
        called, statuses = called_code(commands, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    uncalled = sorted((path, first, name, lines)
                      for (path, first), (name, lines) in functions.items()
                      if (path, first) not in called)
    return uncalled, functions, statuses


def render(uncalled, functions, commands, statuses):
    """The text report: a summary, then each file's uncalled functions,
    files with the most uncalled lines first."""
    base = os.path.dirname(os.path.realpath(SRC_ROOT))
    by_file = {}
    for path, first, name, lines in uncalled:
        by_file.setdefault(os.path.relpath(path, base), []).append(
            (first, name, lines))
    total_lines = sum(lines for _, _, _, lines in uncalled)
    out = ["call audit: %d of %d src/ functions never called (%d lines)"
           % (len(uncalled), len(functions), total_lines)]
    for command, status in zip(commands, statuses):
        out.append("  runner %s  -> exit %s" % (command, status))
    for path, rows in sorted(by_file.items(),
                             key=lambda item: (-sum(r[2] for r in item[1]),
                                               item[0])):
        out.append("")
        out.append("%s: %d function(s), %d lines"
                   % (path, len(rows), sum(r[2] for r in rows)))
        for first, name, lines in rows:
            out.append("  %s:%d  %s  (%d lines)" % (path, first, name,
                                                    lines))
    return "\n".join(out) + "\n"


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="List src/ functions a production command set "
                    "never calls.")
    parser.add_argument("--output", metavar="PATH",
                        help="write the report here instead of stdout")
    args = parser.parse_args(argv)
    if SRC_ROOT not in sys.path:
        sys.path.insert(0, SRC_ROOT)
    uncalled, functions, statuses = audit()
    report = render(uncalled, functions, COMMANDS, statuses)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report)
    else:
        sys.stdout.write(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
