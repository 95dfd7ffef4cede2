"""Test-only reference implementations.

Each module here is a slow, obviously correct model of one production
layer, kept only so tests can pin the production path against it.
Nothing under ``src/`` imports this package.  :func:`cut` places the
batch seams that the batch-equivalence tests feed through.
"""

from repro.trace.batch import RecordBatch


def cut(records, size):
    """*records* (CFRecords) as one batch cut by
    :meth:`RecordBatch.slice` into batches of at most *size* rows."""
    batch = RecordBatch.from_records(records)
    return [batch.slice(i, i + size) for i in range(0, len(batch), size)]
