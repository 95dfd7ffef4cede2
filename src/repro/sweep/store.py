"""Resumable on-disk sweep result store (sqlite).

One database holds every sweep's results: a ``cells`` table with one
row per content-keyed cell (metrics as real columns for SQL-level
filtering and aggregation, the full result state as a JSON detail
blob for exact reconstruction), a ``sweeps`` table recording each
submitted grid's canonical spec, and a ``sweep_cells`` membership map.
Cells are global -- two sweeps whose grids overlap share the
overlapping rows, so repeat cells are free across sweeps, not just
within one.

Failure policy.  Both persistent result stores connect through
:func:`repro.pipeline.derived.open_database`, which stamps the schema
version as sqlite's ``user_version`` and waits up to
:data:`~repro.pipeline.derived.BUSY_TIMEOUT` seconds for another
process's lock; they differ in what a failure means.  The derived
store holds recomputable results, so a corrupt or other-version
database reads as empty and is replaced, and a busy or unwritable one
skips persistence.  This store holds results the user asked to keep,
so every failure raises :class:`SweepStoreError` with a clean message
instead of discarding data or spewing a sqlite traceback: a corrupt
file or a version mismatch points at ``tools/trace_cache.py sweeps
clear``; a busy store (another process holds its lock) or an
unwritable one says so and suggests nothing destructive.

Default location: ``~/.cache/repro-sweeps`` (override with the
``REPRO_SWEEP_STORE`` environment variable or ``--store``).
"""

import contextlib
import json
import os
import sqlite3
import time

from repro.pipeline.derived import failure_kind, open_database

#: Bump when the schema or the meaning of any stored column changes.
SWEEP_SCHEMA_VERSION = 1

#: Environment variable overriding the default store location.
STORE_ENV_VAR = "REPRO_SWEEP_STORE"

#: Database filename inside the store directory.
DB_NAME = "store.sqlite"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS sweeps (
    sweep_id    TEXT PRIMARY KEY,
    experiment  TEXT NOT NULL,
    spec        TEXT NOT NULL,
    created_at  REAL NOT NULL,
    updated_at  REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS cells (
    cell_key         TEXT PRIMARY KEY,
    trace_key        TEXT NOT NULL,
    workload         TEXT NOT NULL,
    scale            INTEGER NOT NULL,
    max_instructions INTEGER NOT NULL,
    cls_capacity     INTEGER NOT NULL,
    kind             TEXT NOT NULL,
    timing           TEXT,
    policy           TEXT,
    tus              INTEGER,
    status           TEXT NOT NULL,
    tpc              REAL,
    hit_ratio        REAL,
    speedup          REAL,
    overhead_cycles  INTEGER,
    detail           TEXT,
    error            TEXT,
    updated_at       REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS cells_by_workload
    ON cells (workload, kind, policy, tus);
CREATE TABLE IF NOT EXISTS sweep_cells (
    sweep_id TEXT NOT NULL,
    cell_key TEXT NOT NULL,
    PRIMARY KEY (sweep_id, cell_key)
);
"""

#: Column order of :data:`CellRow` / ``put_cells`` payload dicts.
CELL_FIELDS = ("cell_key", "trace_key", "workload", "scale",
               "max_instructions", "cls_capacity", "kind", "timing",
               "policy", "tus", "status", "tpc", "hit_ratio", "speedup",
               "overhead_cycles", "detail", "error")


class SweepStoreError(ValueError):
    """The store is unusable (busy, unwritable, corrupt or from another
    schema version)."""


#: How the store describes each kind of failure.
_FAILURES = {"busy": "is busy", "unwritable": "is not writable",
             "version": "is from another build", "corrupt": "is corrupt"}


class CellRow:
    """One stored cell, column access by name."""

    __slots__ = CELL_FIELDS + ("updated_at",)

    def __init__(self, values):
        for name, value in zip(self.__slots__, values):
            setattr(self, name, value)

    @property
    def detail_json(self):
        """The decoded detail blob (``{}`` when absent/unreadable)."""
        if not self.detail:
            return {}
        try:
            payload = json.loads(self.detail)
        except json.JSONDecodeError:
            return {}
        return payload if isinstance(payload, dict) else {}


def default_store_dir():
    """The sweep store used when no ``--store`` is given."""
    override = os.environ.get(STORE_ENV_VAR)
    if override:
        return override
    return os.path.join(os.path.expanduser("~"), ".cache",
                        "repro-sweeps")


class SweepStore:
    """The sweep database under *root* (a directory).

    Opens lazily, and only a write creates the database: reading a
    store that does not exist returns nothing and leaves no file or
    directory behind.  Every sqlite-level failure surfaces as
    :class:`SweepStoreError` with the path in the message.  Use as a
    context manager or call :meth:`close` explicitly.
    """

    def __init__(self, root):
        self.root = root
        self.path = os.path.join(root, DB_NAME)
        self._conn = None

    # -- lifecycle ---------------------------------------------------------

    def _connect(self, create=True):
        """The open connection; ``None`` when *create* is false and the
        database does not exist (a file where the store directory
        should be still fails, as unwritable)."""
        if self._conn is None:
            if not create and not os.path.exists(self.path) \
                    and not os.path.isfile(self.root):
                return None
            with self._guard():
                os.makedirs(self.root, exist_ok=True)
                self._conn = open_database(self.path,
                                           SWEEP_SCHEMA_VERSION, _SCHEMA)
        return self._conn

    @contextlib.contextmanager
    def _guard(self):
        """Turn sqlite (and directory) failures inside the block into
        :class:`SweepStoreError` (see :data:`_FAILURES`)."""
        try:
            yield
        except (OSError, sqlite3.Error) as exc:
            kind = failure_kind(exc)
            if kind in ("version", "corrupt"):
                advice = ("run 'python tools/trace_cache.py sweeps clear "
                          "--store %s' to reset it (or point --store at "
                          "a fresh directory)" % self.root)
            else:
                advice = ("nothing was changed; retry once no other run "
                          "holds it and its directory is writable")
            raise SweepStoreError("sweep store %s %s (%s); %s" % (
                self.path, _FAILURES[kind], exc, advice)) from None

    def close(self):
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def _query(self, sql, params=()):
        """The rows of the read-only *sql*; none when the database does
        not exist."""
        with self._guard():
            conn = self._connect(create=False)
            return [] if conn is None \
                else conn.execute(sql, params).fetchall()

    # -- sweeps ------------------------------------------------------------

    @contextlib.contextmanager
    def _transaction(self):
        """The connection, inside one transaction that commits when the
        block ends and rolls back if it raises."""
        with self._guard():
            conn = self._connect()
            try:
                yield conn
            except BaseException:
                conn.rollback()
                raise
            conn.commit()

    def _register(self, conn, spec, cell_keys):
        """Upsert *spec*'s ``sweeps`` row and add *cell_keys* to its
        membership, uncommitted."""
        now = time.time()
        conn.execute(
            "INSERT INTO sweeps (sweep_id, experiment, spec, "
            "created_at, updated_at) VALUES (?, ?, ?, ?, ?) "
            "ON CONFLICT(sweep_id) DO UPDATE SET updated_at = ?",
            (spec.sweep_id, spec.experiment, spec.to_json(), now, now,
             now))
        conn.executemany(
            "INSERT OR IGNORE INTO sweep_cells (sweep_id, cell_key) "
            "VALUES (?, ?)", [(spec.sweep_id, key) for key in cell_keys])

    def record_sweep(self, spec, cell_keys):
        """Register *spec* (idempotent) and its cell membership;
        returns the sweep id."""
        with self._transaction() as conn:
            self._register(conn, spec, cell_keys)
        return spec.sweep_id

    def sweeps(self):
        """``(sweep_id, experiment, spec_json, created_at, updated_at)``
        rows, most recently updated last."""
        return self._query(
            "SELECT sweep_id, experiment, spec, created_at, updated_at "
            "FROM sweeps ORDER BY updated_at, sweep_id")

    def spec_for(self, sweep_id):
        """The stored :class:`~repro.sweep.spec.SweepSpec` of
        *sweep_id* (unique-prefix match); raises
        :class:`SweepStoreError` when absent or ambiguous."""
        from repro.sweep.spec import SweepSpec

        rows = self._query(
            "SELECT sweep_id, spec FROM sweeps WHERE sweep_id LIKE ? "
            "ORDER BY sweep_id", (sweep_id + "%",))
        if not rows:
            raise SweepStoreError("no sweep %r in %s"
                                  % (sweep_id, self.path))
        if len(rows) > 1:
            raise SweepStoreError(
                "sweep id %r is ambiguous in %s (matches %s)"
                % (sweep_id, self.path,
                   ", ".join(row[0] for row in rows)))
        try:
            payload = json.loads(rows[0][1])
        except json.JSONDecodeError:
            payload = None
        if isinstance(payload, dict) \
                and payload.get("experiment") == "search":
            raise SweepStoreError(
                "%s is a search run, not a sweep; resume it by "
                "resubmitting the same 'runner search' command"
                % rows[0][0])
        return SweepSpec.from_json(rows[0][1])

    def latest_sweep_id(self):
        """The most recently updated sweep's id, or ``None``."""
        rows = self.sweeps()
        return rows[-1][0] if rows else None

    # -- cells -------------------------------------------------------------

    def done_keys(self, cell_keys):
        """The subset of *cell_keys* already stored with status
        ``done`` (failed rows are retried, so they do not count)."""
        rows = self._query(
            "SELECT cell_key FROM cells WHERE status = 'done' AND cell_key "
            "IN (SELECT value FROM json_each(?))",
            (json.dumps(list(cell_keys)),))
        return {row[0] for row in rows}

    def put_cells(self, rows, sweep=None):
        """Insert-or-replace *rows* (dicts keyed by
        :data:`CELL_FIELDS`) and commit -- this is the checkpoint the
        orchestrator's resume guarantee rests on.  *sweep*, a
        ``(spec, cell_keys)`` pair, is registered as by
        :meth:`record_sweep` in the same transaction, so the cells
        never land without their membership (even when *rows* is
        empty)."""
        if not rows and sweep is None:
            return
        now = time.time()
        payload = [tuple(row.get(f) for f in CELL_FIELDS) + (now,)
                   for row in rows]
        marks = ",".join("?" * (len(CELL_FIELDS) + 1))
        with self._transaction() as conn:
            conn.executemany(
                "INSERT OR REPLACE INTO cells (%s, updated_at) "
                "VALUES (%s)" % (",".join(CELL_FIELDS), marks), payload)
            if sweep is not None:
                self._register(conn, *sweep)

    def get_cells(self, cell_keys=None, sweep_id=None, workloads=None,
                  kinds=None, policies=None, tus=None, timings=None,
                  status=None):
        """:class:`CellRow` list under the given filters, in
        deterministic (workload, kind, timing, policy, tus) order."""
        where, params = [], []
        sql = ("SELECT %s, updated_at FROM cells"
               % ",".join(CELL_FIELDS))
        if sweep_id is not None:
            sql += (" JOIN sweep_cells USING (cell_key)")
            where.append("sweep_cells.sweep_id = ?")
            params.append(sweep_id)

        for column, values in (("cell_key", cell_keys),
                               ("workload", workloads), ("kind", kinds),
                               ("policy", policies), ("tus", tus),
                               ("timing", timings)):
            if values is not None:
                where.append("%s IN (SELECT value FROM json_each(?))"
                             % column)
                params.append(json.dumps(list(values)))
        if status is not None:
            where.append("status = ?")
            params.append(status)
        if where:
            sql += " WHERE " + " AND ".join(where)
        sql += (" ORDER BY workload, kind, timing, policy, tus,"
                " cell_key")
        return [CellRow(row) for row in self._query(sql, params)]

    def counts(self, sweep_id=None):
        """``(total, done, failed)`` cell counts, optionally scoped to
        one sweep's membership (then ``total`` counts every cell its
        grid names, stored or not)."""
        if sweep_id is None:
            rows = self._query(
                "SELECT COUNT(*), "
                "SUM(CASE WHEN status = 'done' THEN 1 ELSE 0 END), "
                "SUM(CASE WHEN status = 'failed' THEN 1 ELSE 0 END) "
                "FROM cells")
        else:
            rows = self._query(
                "SELECT COUNT(s.cell_key), "
                "SUM(CASE WHEN c.status = 'done' THEN 1 ELSE 0 END), "
                "SUM(CASE WHEN c.status = 'failed' THEN 1 ELSE 0 END) "
                "FROM sweep_cells s LEFT JOIN cells c "
                "ON s.cell_key = c.cell_key WHERE s.sweep_id = ?",
                (sweep_id,))
        total, done, failed = rows[0] if rows else (0, 0, 0)
        return (total or 0, done or 0, failed or 0)

    # -- maintenance -------------------------------------------------------

    def prune(self, dry_run=False):
        """Drop failed cells and cells no sweep references; returns
        ``(failed_removed, orphaned_removed)``; *dry_run* counts
        them in a transaction it rolls back.  A store that does not
        exist has nothing to prune and is not created."""
        with self._guard():
            conn = self._connect(create=False)
            if conn is None:
                return 0, 0
            failed = conn.execute(
                "DELETE FROM cells WHERE status = 'failed'").rowcount
            orphaned = conn.execute(
                "DELETE FROM cells WHERE cell_key NOT IN "
                "(SELECT cell_key FROM sweep_cells)").rowcount
            if dry_run:
                conn.rollback()
            else:
                conn.commit()
        return failed, orphaned

    def clear(self):
        """Delete the database file entirely (works even when the file
        is corrupt or from another schema version)."""
        self.close()
        try:
            os.unlink(self.path)
            return True
        except FileNotFoundError:
            return False
