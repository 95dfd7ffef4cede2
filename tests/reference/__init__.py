"""Test-only reference implementations.

Each module here is a slow, obviously correct model of one production
layer, kept only so tests can pin the production path against it.
Nothing under ``src/`` imports this package.  :func:`cut` places the
batch seams that the batch-equivalence tests feed through.
"""

from records import batch_of, slice_batch


def cut(records, size):
    """*records* (CFRecords) as one batch cut into zero-copy batches
    of at most *size* rows."""
    batch = batch_of(records)
    return [slice_batch(batch, i, i + size)
            for i in range(0, len(batch), size)]
