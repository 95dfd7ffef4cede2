"""Dynamic trace infrastructure (records, batches, IO)."""

from repro.trace.record import CFRecord, FullRecord
from repro.trace.batch import NO_TARGET, RecordBatch, StudyBatch
from repro.trace.stream import CFTrace, FullTrace, clip
from repro.trace.io import (
    BatchTraceWriter,
    TRACE_FORMAT_VERSION,
    TraceHeader,
    dump_cf_batches,
    dump_cf_trace,
    dumps_cf_trace,
    load_cf_trace,
    loads_cf_trace,
    open_cf_batches,
    read_cf_header,
)

__all__ = [
    "CFRecord",
    "FullRecord",
    "NO_TARGET",
    "RecordBatch",
    "StudyBatch",
    "CFTrace",
    "FullTrace",
    "clip",
    "BatchTraceWriter",
    "TRACE_FORMAT_VERSION",
    "TraceHeader",
    "dump_cf_batches",
    "dump_cf_trace",
    "dumps_cf_trace",
    "load_cf_trace",
    "loads_cf_trace",
    "open_cf_batches",
    "read_cf_header",
]
