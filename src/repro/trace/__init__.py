"""Dynamic trace infrastructure (records, batches, IO)."""

from repro.trace.record import FullRecord
from repro.trace.batch import NO_TARGET, RecordBatch, StudyBatch
from repro.trace.stream import CFTrace, FullTrace
from repro.trace.io import (
    BatchTraceWriter,
    TRACE_FORMAT_VERSION,
    TraceHeader,
    dump_cf_batches,
    dump_cf_trace,
    load_cf_trace,
    open_cf_batches,
    read_cf_header,
)

__all__ = [
    "FullRecord",
    "NO_TARGET",
    "RecordBatch",
    "StudyBatch",
    "CFTrace",
    "FullTrace",
    "BatchTraceWriter",
    "TRACE_FORMAT_VERSION",
    "TraceHeader",
    "dump_cf_batches",
    "dump_cf_trace",
    "load_cf_trace",
    "open_cf_batches",
    "read_cf_header",
]
