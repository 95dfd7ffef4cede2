"""Dynamic trace infrastructure (records, batches, statistics, IO)."""

from repro.trace.record import CFRecord, FullRecord
from repro.trace.batch import NO_TARGET, FullBatch, RecordBatch
from repro.trace.stream import CFTrace, FullTrace, clip
from repro.trace.stats import CFStats, basic_block_profile, collect_cf_stats
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
    "FullBatch",
    "RecordBatch",
    "CFTrace",
    "FullTrace",
    "clip",
    "CFStats",
    "basic_block_profile",
    "collect_cf_stats",
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
