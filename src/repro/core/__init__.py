"""The paper's contribution: dynamic loop detection and thread-control
speculation (Tubella & Gonzalez, HPCA 1998)."""

from repro.core.cls import CLSEntry, CurrentLoopStack, DEFAULT_CAPACITY
from repro.core.detector import LoopDetector, LoopIndex
from repro.core.events import EndReason, EventColumns
from repro.core.loopstats import LoopStatistics, \
    compute_loop_statistics, loop_coverage
from repro.core.tables import (
    LoopHistoryTable,
    POLICY_LRU,
    POLICY_NESTING_AWARE,
    TableEntry,
    TableHitRatioSimulator,
)

__all__ = [
    "CLSEntry",
    "CurrentLoopStack",
    "DEFAULT_CAPACITY",
    "LoopDetector",
    "LoopIndex",
    "EndReason",
    "EventColumns",
    "LoopStatistics",
    "compute_loop_statistics",
    "loop_coverage",
    "LoopHistoryTable",
    "POLICY_LRU",
    "POLICY_NESTING_AWARE",
    "TableEntry",
    "TableHitRatioSimulator",
]
