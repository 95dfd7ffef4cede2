"""Persistent per-workload cache of *derived* analysis results.

The trace cache (:mod:`repro.pipeline.cache`) makes warm sessions skip
interpretation; this module makes them skip recomputing the expensive
deterministic *functions of a cached trace*: the full-effects
data-speculation statistics (which otherwise re-interpret the program
every run), default-configuration speculation simulations, and the
ablation CLS-capacity sweep.  Everything stored here is a pure
function of (compiled program, scale, instruction budget, analysis
parameters) -- exactly the coordinates of a trace-cache entry plus the
parameters baked into each entry key -- so the same content-keyed
invalidation story applies: edit a workload and the fingerprint
changes; change an algorithm and :data:`DERIVED_SCHEMA_VERSION` must
be bumped, orphaning stale files.

One JSON file per trace-cache entry, under ``<cache>/derived/``::

    <cache>/derived/swim-s1-m2000000-v3-1f8a0c93d2e47b56.json

holding a flat ``key -> value`` map of JSON-serializable results.
Values are written back atomically (temp file + ``os.replace``) after
each workload's analysis completes, and any unreadable or
wrong-version file is treated as empty -- corruption means
recomputation, never failure.  A write holds an exclusive ``flock`` on
the ``derived/`` directory while it re-reads the file and merges this
store's new entries over it, so concurrent runners flushing the same
entry never drop each other's keys (locking the directory, rather than
a lock file beside each entry, leaves ``derived/`` holding nothing but
the entries themselves).  Sessions constructed with
``cache_dir=None`` (and ``runner --no-cache``) have no derived store
at all; every consumer treats the missing store as a permanent miss.
"""

import fcntl
import json
import os


#: Bump when any cached computation changes meaning (engine rules,
#: CLS semantics, dataspec accounting, result field sets).
DERIVED_SCHEMA_VERSION = 1


def derived_key(*parts):
    """A stable string key from heterogeneous parts (ints, strings,
    tuples); ``None`` is rendered distinctly from any number."""
    return "/".join(repr(part) if not isinstance(part, str) else part
                    for part in parts)


class DerivedStore:
    """The ``key -> JSON value`` store of one trace-cache entry.

    Lazy: the backing file is read on first access and only written
    when :meth:`flush` is called with new or changed entries.
    """

    def __init__(self, path):
        self.path = path
        self._entries = None
        self._puts = {}     # entries recorded since the last flush

    def _read(self):
        """The entries on disk; an unreadable file reads as empty."""
        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
            if (not isinstance(payload, dict)
                    or payload.get("version") != DERIVED_SCHEMA_VERSION
                    or not isinstance(payload.get("entries"), dict)):
                raise ValueError("unusable derived-results file")
            return payload["entries"]
        except (OSError, ValueError):
            return {}

    def _load(self):
        entries = self._entries
        if entries is None:
            entries = self._entries = self._read()
        return entries

    def get(self, key):
        """The cached value under *key*, or ``None``."""
        return self._load().get(key)

    def put(self, key, value):
        """Record *value* under *key* (persisted at :meth:`flush`)."""
        entries = self._load()
        if entries.get(key) != value:
            entries[key] = value
            self._puts[key] = value

    def put_cells(self, cells):
        """Record a batch of ``(key, value)`` pairs in one pass.

        The grid-aware write path: a fused ``simulate_grid`` call lands
        all its per-config results at once, but each lands under its
        own individual cell key -- the same key :meth:`put` would use
        -- so sweeps, direct runs, and grid runs keep sharing rows in
        both directions.
        """
        entries = self._load()
        puts = self._puts
        for key, value in cells:
            if entries.get(key) != value:
                entries[key] = value
                puts[key] = value

    def flush(self):
        """Atomically persist the entries recorded since the last flush,
        merged over whatever the file holds now; best-effort (a
        read-only cache directory silently disables persistence)."""
        if not self._puts:
            return
        puts, self._puts = self._puts, {}
        directory = os.path.dirname(self.path)
        tmp = self.path + ".tmp.%d" % os.getpid()
        lock = None
        try:
            os.makedirs(directory, exist_ok=True)
            lock = os.open(directory, os.O_RDONLY)
            fcntl.flock(lock, fcntl.LOCK_EX)
            # Under the lock: another runner may have flushed keys since
            # this store loaded, so merge over the file as it is now
            # rather than over the entries loaded earlier.
            entries = self._read()
            entries.update(puts)
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump({"version": DERIVED_SCHEMA_VERSION,
                           "entries": entries}, fh)
            os.replace(tmp, self.path)
            self._entries = entries
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        finally:
            if lock is not None:
                os.close(lock)      # releases the flock


class DerivedCache:
    """The ``derived/`` sub-tree of a trace-cache directory: one
    :class:`DerivedStore` per trace-cache key."""

    def __init__(self, cache_root):
        self.root = os.path.join(cache_root, "derived")

    def store(self, trace_key):
        """The store backing *trace_key* (a
        :meth:`repro.pipeline.cache.TraceCache.key` string)."""
        return DerivedStore(os.path.join(self.root, trace_key + ".json"))
