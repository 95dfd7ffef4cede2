#!/usr/bin/env python
"""Inspect and bound the on-disk trace cache.

The content-keyed cache (:mod:`repro.pipeline.cache`) only ever
*orphans* entries -- a format bump or workload edit changes the key and
the old file just sits there.  This tool makes the cache directory
inspectable and bounded::

    python tools/trace_cache.py ls
    python tools/trace_cache.py prune --max-bytes 50000000
    python tools/trace_cache.py clear
    python tools/trace_cache.py sweeps ls
    python tools/trace_cache.py sweeps prune --dry-run
    python tools/trace_cache.py sweeps clear

``ls`` prints one row per entry with its format version, record count,
total instructions, compressed (on-disk) and uncompressed (decoded
column bytes) sizes, and the compression ratio, each followed by one
row per loop index entry stored beside it (``+ .c<capacity>-...``,
format ``index``: its event rows, instructions and size); an index
whose trace is gone is listed last as ``orphan``, one this build no
longer reads (another format version or detector) as ``stale``.
``prune`` deletes corrupt entries -- anything without a valid v3
header, which includes files from the retired v1/v2 text formats --
then, if ``--max-bytes`` is given, the oldest remaining entries until
the cache (traces and indexes) fits the budget; it also deletes every
index entry that is corrupt, stale, or whose trace is gone.  Deleting
an entry also deletes the results stored under its key (its rows in
``derived/results.sqlite``, see :mod:`repro.pipeline.derived`) and its
index entries, so nothing outlives its trace.  ``clear`` deletes every
entry, every index entry and the whole ``derived/`` store.  All
commands honour ``--cache-dir`` and the ``REPRO_TRACE_CACHE``
environment variable, defaulting to the pipeline's default cache
location; ``--dry-run`` reports what ``prune``/``clear`` would delete.

``sweeps`` manages the sweep result store (:mod:`repro.sweep.store`,
``--store`` / ``REPRO_SWEEP_STORE``) the same way: ``sweeps ls`` lists
stored sweeps with their cell progress, ``sweeps prune`` drops failed
cell rows (so resubmission retries them) and cells no sweep references,
``sweeps clear`` deletes the store database -- including a corrupt or
version-mismatched one the other commands refuse to open.
"""

import argparse
import os
import shutil
import sys

sys.path.insert(0, os.path.join(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.pipeline.cache import (                            # noqa: E402
    INDEX_SUFFIX,
    parse_index_name,
    read_index,
)
from repro.pipeline.config import default_cache_dir          # noqa: E402
from repro.pipeline.derived import DerivedCache               # noqa: E402
from repro.trace.io import read_cf_header                     # noqa: E402
from repro.util.fmt import format_table                      # noqa: E402


class Entry:
    """One cache file plus whatever its header reveals.

    *stat* is the caller's ``os.stat_result`` when it already has one
    (:func:`scan` hands over the ``DirEntry`` stat), so listing a
    directory stats each file exactly once.
    """

    __slots__ = ("path", "name", "size", "mtime", "version", "records",
                 "total", "error")

    def __init__(self, path, stat=None):
        self.path = path
        self.name = os.path.basename(path)
        if stat is None:
            stat = os.stat(path)
        self.size = stat.st_size
        self.mtime = stat.st_mtime
        self.version = None
        self.records = None
        self.total = None
        self.error = None
        try:
            header = read_cf_header(path)
        except (OSError, ValueError) as exc:
            self.error = str(exc)
        else:
            self.version = header.version
            self.records = header.records
            self.total = header.total_instructions

    @property
    def key(self):
        """The trace key the file name holds."""
        return self.name[:-len(".cft")]

    @property
    def status(self):
        return "ok" if self.error is None else "corrupt"

    @property
    def raw_bytes(self):
        """Decoded size: 26 column bytes per record (8+8+1+1+8);
        unknown for unreadable entries."""
        if self.records is None:
            return None
        return self.records * 26

    @property
    def ratio(self):
        """On-disk bytes per decoded byte (lower is better)."""
        raw = self.raw_bytes
        if not raw:
            return None
        return self.size / raw


class IndexEntry:
    """One loop index entry file (see :mod:`repro.pipeline.cache`):
    its trace key and CLS capacity from its name, and its status --
    ``ok``, ``stale`` (this build reads another format version or
    detector), ``corrupt`` (unreadable) or ``orphan`` (its trace is
    gone, set by :func:`scan_indexes`)."""

    __slots__ = ("path", "name", "size", "trace_key", "capacity",
                 "events", "total", "status")

    def __init__(self, path, stat, parsed):
        self.path = path
        self.name = os.path.basename(path)
        self.size = stat.st_size
        self.trace_key, self.capacity, current = parsed
        self.events = self.total = None
        self.status = "ok" if current else "stale"
        if current:
            try:
                with open(path, "rb") as fh:
                    index = read_index(fh)
            except (OSError, ValueError):
                self.status = "corrupt"
            else:
                self.events = len(index.columns)
                self.total = index.total_instructions


def scan(root):
    """Every ``*.cft`` entry under *root*, oldest first."""
    if not os.path.isdir(root):
        return []
    with os.scandir(root) as it:
        entries = [Entry(item.path, item.stat())
                   for item in it if item.name.endswith(".cft")]
    entries.sort(key=lambda e: e.mtime)
    return entries


def scan_indexes(root, entries):
    """``{trace key: [IndexEntry, ...]}`` of every index entry under
    *root*, by capacity; an index whose trace is not among *entries*
    is marked ``orphan``."""
    if not os.path.isdir(root):
        return {}
    traces = {entry.key for entry in entries}
    found = {}
    with os.scandir(root) as it:
        for item in it:
            parsed = (parse_index_name(item.name)
                      if item.name.endswith(INDEX_SUFFIX) else None)
            if parsed is not None:
                index = IndexEntry(item.path, item.stat(), parsed)
                if index.trace_key not in traces:
                    index.status = "orphan"
                found.setdefault(index.trace_key, []).append(index)
    for indexes in found.values():
        indexes.sort(key=lambda index: (index.capacity, index.name))
    return found


def _fmt_count(value):
    return "?" if value is None else "%d" % value


def _last_run_summary(directory, names, by_command=None):
    """The one-line counter digest of the ``last-run-manifest.json``
    an instrumented run (``--metrics``) dropped into *directory*, or
    ``None`` when there is no readable manifest.

    *names* maps counter names to printed labels, in print order;
    *by_command* maps a manifest's ``meta.command`` to the *names* its
    runs print instead.  Counters the manifest lacks render as 0.
    """
    from repro.obs.manifest import LAST_RUN_MANIFEST, ManifestError, \
        load_manifest

    path = os.path.join(directory, LAST_RUN_MANIFEST)
    if not os.path.isfile(path):
        return None
    try:
        manifest = load_manifest(path)
    except (OSError, ValueError, ManifestError):
        return None     # corrupt digest: no summary beats a crash
    counters = manifest.get("counters", {})
    command = manifest.get("meta", {}).get("command", "?")
    names = (by_command or {}).get(command, names)
    parts = ["%s %s" % (label, _fmt_count(counters.get(name, 0)))
             for name, label in names]
    return ("last instrumented run (%s): %s"
            % (command, ", ".join(parts)))


def _index_row(index, name):
    """An ``ls`` row of *index*, shown as *name*."""
    return (name, "index", _fmt_count(index.events),
            _fmt_count(index.total), index.size, "-", "-", index.status)


def cmd_ls(root, _args):
    entries = scan(root)
    indexes = scan_indexes(root, entries)
    if not entries and not indexes:
        print("trace cache %s is empty" % root)
        return 0
    rows = []
    for e in sorted(entries, key=lambda e: e.name):
        rows.append((e.name, "v%s" % (e.version if e.version is not None
                                      else "?"),
                     _fmt_count(e.records), _fmt_count(e.total), e.size,
                     _fmt_count(e.raw_bytes),
                     "?" if e.ratio is None else "%.3f" % e.ratio,
                     e.status))
        rows.extend(_index_row(index, "+ " + index.name[len(e.key):])
                    for index in indexes.get(e.key, ()))
    orphans = [index for key in sorted(indexes)
               for index in indexes[key] if index.status == "orphan"]
    rows.extend(_index_row(index, index.name) for index in orphans)
    print(format_table(
        ("entry", "fmt", "records", "instructions", "compressed",
         "uncompressed", "ratio", "status"),
        rows, title="trace cache %s" % root))
    total = sum(e.size for e in entries)
    raw_total = sum(e.raw_bytes for e in entries
                    if e.raw_bytes is not None)
    summary = ("%d entr%s, %d bytes on disk"
               % (len(entries), "y" if len(entries) == 1 else "ies",
                  total))
    if raw_total:
        summary += (", %d decoded (ratio %.3f)"
                    % (raw_total, total / raw_total))
    all_indexes = [index for found in indexes.values() for index in found]
    if all_indexes:
        summary += ("; %d loop index entr%s, %d bytes"
                    % (len(all_indexes),
                       "y" if len(all_indexes) == 1 else "ies",
                       sum(index.size for index in all_indexes)))
    print(summary)
    last = _last_run_summary(root, (
        ("pipeline.cache_hits", "cache hits"),
        ("pipeline.traced", "misses (traced)"),
        ("pipeline.replays", "replays"),
        ("cache.index_hits", "index hits"),
        ("cache.bytes_read", "bytes read"),
        ("cache.bytes_written", "bytes written")))
    if last is not None:
        print(last)
    return 0


def _unlink(entry, reason, dry_run, derived=None):
    """Delete *entry* (a trace or an index entry) and, given the
    cache's :class:`~repro.pipeline.derived.DerivedCache`, the derived
    results stored under a trace's key."""
    verb = "would remove" if dry_run else "removing"
    print("%s %s (%s, %d bytes)" % (verb, entry.name, reason, entry.size))
    if not dry_run:
        try:
            os.unlink(entry.path)
        except OSError as exc:
            print("  failed: %s" % exc)
            return False
        if derived is not None and os.path.exists(derived.path):
            derived.drop(entry.key)
    return True


def cmd_prune(root, args):
    entries = scan(root)
    indexes = scan_indexes(root, entries)
    kept = []
    removed = 0
    derived = DerivedCache(root)

    def drop(entry, reason):
        nonlocal removed
        if not _unlink(entry, reason, args.dry_run, derived):
            return False
        removed += 1
        for index in indexes.pop(entry.key, ()):
            if _unlink(index, "trace removed", args.dry_run):
                removed += 1
        return True

    for entry in entries:
        if entry.status != "ok":
            drop(entry, entry.status)
        else:
            kept.append(entry)
    for found in indexes.values():
        for index in list(found):
            if index.status != "ok":
                if _unlink(index, index.status, args.dry_run):
                    removed += 1
                found.remove(index)

    def size(entry):
        return entry.size + sum(index.size
                                for index in indexes.get(entry.key, ()))

    remaining = sum(map(size, kept))
    if args.max_bytes is not None:
        for entry in kept:              # oldest first
            if remaining <= args.max_bytes:
                break
            held = size(entry)
            if drop(entry, "over budget"):
                remaining -= held
    derived.close()
    verb = "would prune" if args.dry_run else "pruned"
    print("%s %d entr%s" % (verb, removed,
                            "y" if removed == 1 else "ies"))
    if not args.dry_run:
        # Tallied from the entries kept above -- no second directory
        # scan (and re-stat of every entry) just to print a total.
        print("%d bytes remain in %s" % (remaining, root))
    return 0


def cmd_clear(root, args):
    entries = scan(root)
    indexes = [index for found in scan_indexes(root, entries).values()
               for index in found]
    removed = sum(1 for entry in entries + indexes
                  if _unlink(entry, "clear", args.dry_run))
    verb = "would remove" if args.dry_run else "removed"
    print("%s %d entr%s from %s"
          % (verb, removed, "y" if removed == 1 else "ies", root))
    derived = os.path.join(root, "derived")
    if os.path.isdir(derived):
        if not args.dry_run:
            shutil.rmtree(derived)
        print("%s the derived-results store %s" % (verb, derived))
    return 0


def cmd_sweeps_ls(store, _args):
    from repro.sweep.query import sweep_overview

    if not store.sweeps():
        print("sweep store %s is empty" % store.root)
        return 0
    print(sweep_overview(store).render())
    last = _last_run_summary(store.root, (
        ("sweep.cells_planned", "planned"),
        ("sweep.cells_resumed", "resumed"),
        ("sweep.cells_executed", "executed"),
        ("sweep.cells_failed", "failed"),
        ("sweep.checkpoints", "checkpoints")), by_command={"search": (
            ("search.candidates", "candidates"),
            ("search.memo_hits", "memo hits"),
            ("search.cells_executed", "cells executed"),
            ("search.cells_restored", "cells restored"),
            ("search.failures", "failures"))})
    if last is not None:
        print(last)
    return 0


def cmd_sweeps_prune(store, args):
    failed, orphaned = store.prune(dry_run=args.dry_run)
    verb = "would prune" if args.dry_run else "pruned"
    print("%s %d failed cell(s), %d orphaned cell(s) from %s"
          % (verb, failed, orphaned, store.root))
    return 0


def cmd_sweeps_clear(store, args):
    if args.dry_run:
        print("would remove the sweep store database under %s"
              % store.root)
        return 0
    store.clear()
    print("removed the sweep store database under %s" % store.root)
    return 0


SWEEP_ACTIONS = {"ls": cmd_sweeps_ls, "prune": cmd_sweeps_prune,
                 "clear": cmd_sweeps_clear}


def cmd_sweeps(_root, args):
    from repro.sweep.store import SweepStore, SweepStoreError

    store = SweepStore(args.store)
    try:
        return SWEEP_ACTIONS[args.action](store, args)
    except SweepStoreError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    finally:
        store.close()


COMMANDS = {"ls": cmd_ls, "prune": cmd_prune, "clear": cmd_clear,
            "sweeps": cmd_sweeps}


def main(argv=None):
    from repro.sweep.store import default_store_dir

    parser = argparse.ArgumentParser(
        description="Inspect and bound the on-disk trace cache and "
                    "sweep result store.")
    parser.add_argument("command", choices=sorted(COMMANDS),
                        help="ls: list entries; prune: drop corrupt "
                             "entries and enforce --max-bytes; "
                             "clear: drop everything; sweeps: manage "
                             "the sweep result store")
    parser.add_argument("action", nargs="?", default=None,
                        choices=sorted(SWEEP_ACTIONS),
                        help="sweeps only: ls (list sweeps), prune "
                             "(drop failed/orphaned cells), clear "
                             "(delete the store database)")
    parser.add_argument("--cache-dir", default=default_cache_dir(),
                        help="cache location (default %(default)s)")
    parser.add_argument("--store", default=default_store_dir(),
                        metavar="DIR",
                        help="sweeps: store location "
                             "(default %(default)s)")
    parser.add_argument("--max-bytes", type=int, default=None,
                        metavar="N",
                        help="prune: evict oldest entries until the "
                             "cache is at most N bytes")
    parser.add_argument("--dry-run", action="store_true",
                        help="report what prune/clear would delete "
                             "without deleting")
    args = parser.parse_args(argv)
    if args.command == "sweeps":
        if args.action is None:
            parser.error("sweeps expects an action: %s"
                         % "|".join(sorted(SWEEP_ACTIONS)))
        if args.max_bytes is not None:
            parser.error("--max-bytes applies to prune only")
    else:
        if args.action is not None:
            parser.error("%s takes no action argument" % args.command)
        if args.max_bytes is not None and args.command != "prune":
            parser.error("--max-bytes applies to prune only")
        if args.max_bytes is not None and args.max_bytes < 0:
            parser.error("--max-bytes must be >= 0")
    return COMMANDS[args.command](args.cache_dir, args)


if __name__ == "__main__":
    sys.exit(main())
