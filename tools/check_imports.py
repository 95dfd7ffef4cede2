#!/usr/bin/env python
"""Flag imported names that nothing in their scope uses.

Parses every ``*.py`` under ``src/``, ``tests/``, ``tools/`` and
``examples/`` with :mod:`ast` (standard library only) and reports each
name an ``import`` or ``from ... import`` binds that is never read in
the scope it was imported into: the whole module for a module-level
import, the function (nested functions included) for an import inside
one.  ``import a.b`` binds ``a``; ``import a.b as c`` binds ``c``.

Exempt: every ``__init__.py`` (its imports are the package's
re-exports), names listed in a module's ``__all__``, star imports, and
an import with ``# noqa`` on one of its lines (an import kept for its
side effect, such as registering workloads).

Exit status 1 lists every unused import; used by the CI docs job and
by ``tests/test_docs.py``::

    python tools/check_imports.py [root]
"""

import ast
import os
import sys

#: The directories scanned, relative to the root.
SCANNED = ("src", "tests", "tools", "examples")

_SKIP_DIRS = {"__pycache__", ".pytest_cache"}

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def python_files(root):
    for top in SCANNED:
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames[:] = sorted(d for d in dirnames if d not in _SKIP_DIRS)
            for filename in sorted(filenames):
                if filename.endswith(".py") and filename != "__init__.py":
                    yield os.path.join(dirpath, filename)


def _exported(tree):
    """The names a module lists in ``__all__``."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets) \
                and isinstance(node.value, (ast.List, ast.Tuple)):
            names.update(elt.value for elt in node.value.elts
                         if isinstance(elt, ast.Constant))
    return names


def _read_names(scope):
    """Every name read anywhere under *scope*."""
    return {node.id for node in ast.walk(scope)
            if isinstance(node, ast.Name)
            and not isinstance(node.ctx, ast.Store)}


def _imports(scope):
    """``(import node, bound name)`` for every import directly in
    *scope*, not inside a nested function."""
    found = []
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, _SCOPES):
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                found.append((node, alias.asname
                              or alias.name.partition(".")[0]))
        elif isinstance(node, ast.ImportFrom):
            found.extend((node, alias.asname or alias.name)
                         for alias in node.names if alias.name != "*")
        stack.extend(ast.iter_child_nodes(node))
    return found


def unused_imports(path):
    """``(line, name)`` of every unused import in the file *path*."""
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    tree = ast.parse(source, filename=path)
    lines = source.splitlines()
    exported = _exported(tree)
    problems = []
    scopes = [tree] + [node for node in ast.walk(tree)
                       if isinstance(node, _SCOPES)]
    for scope in scopes:
        imports = _imports(scope)
        if not imports:
            continue
        read = _read_names(scope)
        for node, name in imports:
            if name in read or (scope is tree and name in exported) \
                    or any("# noqa" in line for line in
                           lines[node.lineno - 1:node.end_lineno]):
                continue
            problems.append((node.lineno, name))
    return sorted(problems)


def check(root):
    """``(path, line, name)`` of every unused import under *root*."""
    return [(path, line, name)
            for path in python_files(root)
            for line, name in unused_imports(path)]


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    root = argv[0] if argv else os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    problems = check(root)
    for path, line, name in problems:
        print("%s:%d: %r imported but unused"
              % (os.path.relpath(path, root), line, name))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
