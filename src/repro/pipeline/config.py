"""Frozen configuration for a simulation session.

A :class:`PipelineConfig` pins everything that determines a session's
results — workload subset, scale, CLS capacity, instruction budget —
plus the execution knobs (process count, cache location) that must not
change them.  It is hashable and picklable so it can cross process
boundaries and key memoization tables.
"""

import os
from dataclasses import dataclass, field
from typing import Optional, Tuple

#: Environment variable overriding the default cache location.
CACHE_ENV_VAR = "REPRO_TRACE_CACHE"


def default_cache_dir():
    """The on-disk trace cache used when no ``--cache-dir`` is given."""
    override = os.environ.get(CACHE_ENV_VAR)
    if override:
        return override
    return os.path.join(os.path.expanduser("~"), ".cache", "repro-traces")


@dataclass(frozen=True)
class PipelineConfig:
    """Immutable description of one simulation session.

    ``workloads`` is a tuple of workload *names* (``None`` means the
    full 18-workload suite in table order); ``max_instructions=None``
    uses each workload's own default budget.  ``cache_dir=None``
    disables the on-disk trace cache.  ``jobs`` is the number of tracer
    processes; 1 traces inline in the calling process.  ``timing`` is a
    :mod:`repro.timing` spec string (``"overhead:spawn=8"``) selecting
    the default timing model speculation passes simulate under;
    ``None`` is the paper's ideal machine.  Timing never affects
    traces, so it does not key the trace cache.
    """

    scale: int = 1
    cls_capacity: int = 16
    max_instructions: Optional[int] = None
    workloads: Optional[Tuple[str, ...]] = None
    jobs: int = 1
    cache_dir: Optional[str] = field(default=None)
    timing: Optional[str] = None

    def __post_init__(self):
        if self.timing is not None:
            if not isinstance(self.timing, str):
                raise ValueError("timing must be a spec string (use "
                                 "--timing syntax, e.g. "
                                 "'overhead:spawn=8') or None")
            from repro.timing import make_timing
            make_timing(self.timing)    # validate eagerly
        if self.scale < 1:
            raise ValueError("scale must be >= 1")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.cls_capacity < 1:
            raise ValueError("cls_capacity must be >= 1")
        if self.max_instructions is not None and self.max_instructions < 1:
            raise ValueError("max_instructions must be >= 1")

    def limit_for(self, workload):
        """Effective instruction budget for *workload* (a Workload
        object); this value keys the cache entry."""
        return self.max_instructions or workload.default_max_instructions
