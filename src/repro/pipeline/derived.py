"""Persistent per-workload cache of *derived* analysis results.

The trace cache (:mod:`repro.pipeline.cache`) makes warm sessions skip
interpretation; this module makes them skip recomputing the expensive
deterministic *functions of a cached trace*: the
data-speculation statistics (which otherwise re-interpret the program
every run), default-configuration speculation simulations, and the
ablation CLS-capacity sweep.  Everything stored here is a pure
function of (compiled program, scale, instruction budget, analysis
parameters) -- exactly the coordinates of a trace-cache entry plus the
parameters baked into each entry key -- so the same content-keyed
invalidation story applies: edit a workload and the fingerprint
changes; change an algorithm and :data:`DERIVED_SCHEMA_VERSION` must
be bumped, discarding every stored result.

One sqlite database, ``<cache>/derived/results.sqlite``, holds one
``(trace_key, key, value)`` row per entry, the value as JSON text.  A
store reads its trace key's rows in one query, and :meth:`DerivedStore.
flush` writes only its own new entries in one ``INSERT OR REPLACE``
transaction, so concurrent runners never drop each other's keys.  A
corrupt or other-version database reads as empty, counts one
``derived.corrupt`` and is replaced; a busy or unwritable one skips
persistence.  Sessions constructed with ``cache_dir=None`` have no
derived store: every consumer treats it as a permanent miss.
:func:`open_database` also connects the sweep store
(:mod:`repro.sweep.store`), whose failure policy is to raise.
"""

import json
import os
import sqlite3

from repro.obs import collector as obs


#: Bump when any cached computation changes meaning (engine rules,
#: CLS semantics, dataspec accounting, result field sets); stored as
#: the database's ``user_version``.
DERIVED_SCHEMA_VERSION = 1

#: Seconds a connection waits for another process's lock.
BUSY_TIMEOUT = 5.0

#: Database filename inside ``<cache>/derived/``.
DB_NAME = "results.sqlite"

_SCHEMA = ("CREATE TABLE IF NOT EXISTS derived (trace_key TEXT NOT NULL, "
           "key TEXT NOT NULL, value TEXT NOT NULL, "
           "PRIMARY KEY (trace_key, key)) WITHOUT ROWID")

#: One trace key's entries as the members of one JSON object, so a
#: load parses once (NULL when there are none).
_READ = ("SELECT group_concat(json_quote(key) || ':' || value) "
         "FROM derived WHERE trace_key = ?")

#: Words of the sqlite messages of each failure kind but ``corrupt``.
_KINDS = (("busy", ("locked", "busy")),
          ("unwritable", ("readonly", "unable to open", "disk I/O",
                          "disk is full")),
          ("version", ("schema version",)))


def failure_kind(exc):
    """What a :class:`sqlite3.Error` (or an :class:`OSError` making the
    store's directory) means: ``"busy"``, ``"unwritable"``,
    ``"version"`` or ``"corrupt"``."""
    if isinstance(exc, OSError):
        return "unwritable"
    text = str(exc)
    for kind, words in _KINDS:
        if any(word in text for word in words):
            return kind
    return "corrupt"


def open_database(path, version, schema):
    """A connection to the sqlite database at *path* holding *schema*
    (``;``-separated ``CREATE ... IF NOT EXISTS`` statements) stamped
    with *version* as its ``user_version``.

    A new file gets the schema and the stamp under one write lock, so
    a process opening the database while another creates it never sees
    tables without their stamp.  Raises :class:`sqlite3.Error`, a
    ``"schema version"`` one for tables under another version.
    """
    conn = sqlite3.connect(path, timeout=BUSY_TIMEOUT)
    try:
        if conn.execute("PRAGMA user_version").fetchone()[0] != version:
            conn.execute("BEGIN IMMEDIATE")
            found = conn.execute("PRAGMA user_version").fetchone()[0]
            if found != version:
                if conn.execute("SELECT 1 FROM sqlite_master").fetchone():
                    raise sqlite3.DatabaseError(
                        "schema version %d, this build expects %d"
                        % (found, version))
                for statement in schema.split(";"):
                    conn.execute(statement)
                conn.execute("PRAGMA user_version = %d" % version)
            conn.commit()
    except sqlite3.Error:
        conn.close()
        raise
    return conn


def derived_key(*parts):
    """A stable string key from heterogeneous parts (ints, strings,
    tuples); ``None`` is rendered distinctly from any number."""
    return "/".join(repr(part) if not isinstance(part, str) else part
                    for part in parts)


class DerivedStore:
    """The ``key -> JSON value`` store of one trace-cache entry.

    Lazy: the entries are read on first access and only written when
    :meth:`flush` is called with new or changed entries.
    """

    def __init__(self, cache, trace_key):
        self.cache = cache
        self.trace_key = trace_key
        self._entries = None
        self._puts = {}     # entries recorded since the last flush

    def _load(self):
        entries = self._entries
        if entries is None:
            entries = self._entries = self.cache.read(self.trace_key)
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
        """Persist the entries recorded since the last flush
        (best-effort)."""
        if self._puts:
            puts, self._puts = self._puts, {}
            self.cache.write(self.trace_key, puts)


def _commit(conn, sql, rows):
    with conn:
        conn.executemany(sql, rows)


class DerivedCache:
    """The ``derived/`` database of a trace-cache directory: one
    :class:`DerivedStore` per trace-cache key.

    The connection opens on first use, so none crosses a fork into a
    pool worker, and lives only as long as this object, so a
    ``derived/`` deleted after a session is not read through it.
    """

    def __init__(self, cache_root):
        self.root = os.path.join(cache_root, "derived")
        self.path = os.path.join(self.root, DB_NAME)
        self._conn = None
        self._disabled = False

    def store(self, trace_key):
        """The store backing *trace_key* (a
        :meth:`repro.pipeline.cache.TraceCache.key` string)."""
        return DerivedStore(self, trace_key)

    def close(self):
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def _run(self, work):
        """``work(connection)``, or ``None`` when the database fails: a
        corrupt or other-version one counts one ``derived.corrupt`` and
        is deleted (the next call creates it afresh); a busy or
        unwritable one disables persistence."""
        try:
            if self._conn is None:
                if self._disabled:
                    return None
                os.makedirs(self.root, exist_ok=True)
                conn = open_database(self.path, DERIVED_SCHEMA_VERSION,
                                     _SCHEMA)
                # Recomputable: only a machine crash can lose a flush.
                conn.execute("PRAGMA synchronous = OFF")
                self._conn = conn
            return work(self._conn)
        except (OSError, sqlite3.Error) as exc:
            kind = failure_kind(exc)
        self.close()
        self._disabled = kind not in ("corrupt", "version")
        if not self._disabled:
            obs.add("derived.corrupt")
            try:
                os.unlink(self.path)
            except OSError:
                self._disabled = True
        return None

    def read(self, trace_key):
        """*trace_key*'s entries (empty when none are usable)."""
        text = self._run(lambda conn: conn.execute(
            _READ, (trace_key,)).fetchone()[0])
        try:
            return json.loads("{%s}" % text) if text else {}
        except ValueError:          # a row that is not JSON
            obs.add("derived.corrupt")
            self.drop(trace_key)
            return {}

    def write(self, trace_key, entries):
        """Insert or replace *entries* under *trace_key*."""
        rows = [(trace_key, key, json.dumps(value))
                for key, value in entries.items()]
        self._run(lambda conn: _commit(
            conn, "INSERT OR REPLACE INTO derived VALUES (?, ?, ?)", rows))

    def drop(self, trace_key):
        """Delete every entry stored under *trace_key*."""
        self._run(lambda conn: _commit(
            conn, "DELETE FROM derived WHERE trace_key = ?",
            [(trace_key,)]))
