#!/usr/bin/env python3
"""Check that production calls every ``src/`` function the allow-list
does not excuse.

Runs each command of the production set (:data:`COMMANDS`) in this
process, all under one fresh temporary directory (trace caches,
derived stores and sweep stores start empty; later commands see what
earlier ones left, so a warm rerun is warm), with a
``sys.setprofile`` hook that records the code object of every Python
call.  A command is a ``runner`` argv or a script of the repository with
its arguments (an example or a tool), which runs through
:mod:`runpy`.  Then
it parses every module under ``src/repro``, lists each function or
method whose code never ran (file, first line, line count; grouped by
file, largest first) and compares that list with the committed
allow-list, ``tools/callaudit_allow.txt``.

The allow-list has one ``path:qualname  reason`` line per function
production may leave uncalled, *path* relative to ``src/``, *reason*
one of :data:`REASONS`.  The tool exits 1, naming each entry, when an
uncalled function is not on the list, or when a listed one is no
longer uncalled (it ran, or it is gone): a stale entry.

Usage::

    python tools/callaudit.py                     # report to stdout
    python tools/callaudit.py --output audit.txt

The report lists nothing that this tool cannot map to a function
definition: code compiled at run time (the speculation walks,
translated blocks) has no ``src/`` file.  Calls made while
``--profile-run`` profiles a run are invisible (cProfile holds the
profile hook then); the hook is re-installed before every command.
"""

import argparse
import ast
import contextlib
import io
import os
import runpy
import shutil
import sys
import tempfile
import threading

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_ROOT = os.path.join(REPO_ROOT, "src")
ALLOW_LIST = os.path.join(REPO_ROOT, "tools", "callaudit_allow.txt")

#: Why production may leave a function uncalled.
REASONS = (
    "error path",
    "wrapped by loopbench/layers.py",
    "test reference",
    "rare command",
)

_SWIM_GO = "--workloads swim,go --cache-dir {tmp}/cache"
_SWEEP = ("sweep sensitivity --workloads swim,go --max-instructions 20000"
          " --spawn-cost 0,8 --tus 2,4 --store {tmp}/sweeps"
          " --cache-dir {tmp}/cache")
_SEARCH = ("search --budget 4 --max-instructions 20000"
           " --store {tmp}/search-store --cache-dir {tmp}/search-cache")

#: The production command set; ``{tmp}`` is the run's temporary
#: directory.  Runner commands but two keep the default ``--jobs 1``,
#: so tracing runs in this process, where the hook sees it; the two
#: cold pool runs (one observed) record only what the parent process
#: calls.
COMMANDS = (
    "--list",
    "all %s --metrics {tmp}/cold.json --timeline" % _SWIM_GO,
    "all %s --metrics {tmp}/warm.json --timeline" % _SWIM_GO,
    "all --max-instructions 20000 --no-cache --format json",
    "characterize --count 2 --max-instructions 20000"
    " --cache-dir {tmp}/cache",
    "sensitivity --workloads swim --max-instructions 20000"
    " --spawn-cost 0,8 --tus 2,4 --cache-dir {tmp}/cache",
    "table2 %s --timing width:width=2" % _SWIM_GO,
    "all %s --timing classcost:branch=2,call=4" % _SWIM_GO,
    "figure6 %s --format csv --output-dir {tmp}/figure6" % _SWIM_GO,
    "table1 --workloads swim --max-instructions 20000 --no-cache"
    " --profile-run 5",
    _SWEEP,
    _SWEEP,
    "query --store {tmp}/sweeps --list",
    "query --store {tmp}/sweeps --report",
    "query --store {tmp}/sweeps --group-by policy",
    "query --store {tmp}/sweeps --kind loopstats --format csv",
    "query --store {tmp}/sweeps --workloads swim --policies str --tus 4"
    " --format json",
    _SEARCH + " --objective tpc-inversion --seed 1"
    " --metrics {tmp}/search.json",
    _SEARCH + " --objective coverage-collapse --seed 2",
    "search --objective policy-divergence --budget 3 --seed 3"
    " --max-instructions 20000 --no-store --no-cache"
    " --export-dir {tmp}/export",
    "search --list",
    "examples/quickstart.py",
    "examples/custom_program.py",
    "examples/loop_profiler.py compress",
    "examples/policy_explorer.py mgrid",
    "examples/value_prediction.py swim",
    "table1 --workloads swim,go --max-instructions 20000"
    " --cache-dir {tmp}/pool-metrics-cache --jobs 2"
    " --metrics {tmp}/pool.json",
    "table1 --workloads swim,go --max-instructions 20000"
    " --cache-dir {tmp}/pool-cache --jobs 2",
    "tools/obs_report.py {tmp}/cold.json --diff {tmp}/warm.json",
    "tools/trace_cache.py ls --cache-dir {tmp}/cache",
    "tools/trace_cache.py prune --max-bytes 20000 --cache-dir {tmp}/cache",
    "tools/trace_cache.py sweeps ls --store {tmp}/sweeps",
    "tools/trace_cache.py sweeps prune --store {tmp}/sweeps",
    "tools/trace_cache.py sweeps clear --store {tmp}/sweeps",
    "tools/trace_cache.py clear --cache-dir {tmp}/cache",
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


def _run(command, tmp):
    """Run one command; its exit code."""
    argv = command.format(tmp=tmp).split()
    if argv[0].endswith(".py"):
        saved = sys.argv
        try:
            sys.argv = [os.path.join(REPO_ROOT, argv[0])] + argv[1:]
            runpy.run_path(sys.argv[0], run_name="__main__")
        finally:
            sys.argv = saved
        return 0
    from repro.experiments.runner import main
    return main(argv) or 0


def called_code(commands, tmp):
    """The ``(path, first line)`` of every code object called while
    *commands* run (stdout and stderr swallowed), and the commands'
    exit codes.  The runner is imported under the hook, so functions
    called at import time count as called."""
    seen = set()
    add = seen.add

    def hook(frame, event, arg):
        if event == "call":
            add(frame.f_code)

    statuses = []
    sink = io.StringIO()
    try:
        for command in commands:
            # A profiled command (--profile-run) replaces the hook and
            # leaves none behind: install it afresh every time.
            threading.setprofile(hook)
            sys.setprofile(hook)
            with contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                try:
                    statuses.append(_run(command, tmp))
                except SystemExit as exit_:
                    statuses.append(exit_.code or 0)
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


def entry(path, name):
    """The allow-list key of function *name* in file *path*."""
    return "%s:%s" % (os.path.relpath(path, os.path.realpath(SRC_ROOT))
                      .replace(os.sep, "/"), name)


def read_allow_list(lines):
    """``entry -> reason`` from allow-list *lines* (``#`` comments and
    blank lines skipped).  Raises ``ValueError`` naming a line whose
    reason is not one of :data:`REASONS`, or a repeated entry."""
    allowed = {}
    for number, line in enumerate(lines, 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, reason = line.partition(" ")
        reason = reason.strip()
        if reason not in REASONS:
            raise ValueError("allow-list line %d: %r needs a reason, one "
                             "of: %s" % (number, key, "; ".join(REASONS)))
        if key in allowed:
            raise ValueError("allow-list line %d: %r is listed twice"
                             % (number, key))
        allowed[key] = reason
    return allowed


def compare(uncalled, allowed):
    """``(unexcused, stale)``: the sorted entries of *uncalled* (as
    from :func:`audit`) that *allowed* does not list, and the sorted
    allowed entries that are not uncalled."""
    listed = {entry(path, name) for path, _, name, _ in uncalled}
    return sorted(listed - set(allowed)), sorted(set(allowed) - listed)


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
        out.append("  %s  -> exit %s" % (command, status))
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
        description="Check that the production command set calls every "
                    "src/ function the allow-list does not excuse.")
    parser.add_argument("--output", metavar="PATH",
                        help="write the report here instead of stdout")
    args = parser.parse_args(argv)
    if SRC_ROOT not in sys.path:
        sys.path.insert(0, SRC_ROOT)
    with open(ALLOW_LIST, encoding="utf-8") as handle:
        allowed = read_allow_list(handle)
    uncalled, functions, statuses = audit()
    report = render(uncalled, functions, COMMANDS, statuses)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report)
    else:
        sys.stdout.write(report)
    unexcused, stale = compare(uncalled, allowed)
    for key in unexcused:
        print("callaudit: %s is never called and not on the allow-list"
              % key, file=sys.stderr)
    for key in stale:
        print("callaudit: stale allow-list entry %s: it is called or gone"
              % key, file=sys.stderr)
    failed = [(c, s) for c, s in zip(COMMANDS, statuses) if s != 0]
    for command, status in failed:
        print("callaudit: %r exited %s" % (command, status),
              file=sys.stderr)
    return 1 if unexcused or stale or failed else 0


if __name__ == "__main__":
    sys.exit(main())
