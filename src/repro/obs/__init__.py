"""Zero-dependency runtime observability for the whole stack.

Instrumented code talks to this package through three module
functions -- :func:`span`, :func:`add`, :func:`point` -- which are
near-free no-ops unless a :class:`Collector` has been activated
(``runner --metrics/--timeline/--profile-run`` does that through
:class:`~repro.obs.runtime.RunObserver`).  See
``docs/OBSERVABILITY.md`` for the span/counter naming conventions,
the manifest schema, and how to instrument a new pass.

Typical instrumentation::

    from repro import obs

    with obs.span("replay", workload=name, source="cache"):
        ...
    obs.add("replay.records", n)

Typical consumption::

    runner all --metrics run.json --timeline
    python tools/obs_report.py run.json
    python tools/obs_report.py run.json --diff other.json
"""

from repro.obs.collector import (
    Collector,
    activate,
    active,
    add,
    deactivate,
    point,
    span,
)
from repro.obs.manifest import (
    LAST_RUN_MANIFEST,
    MANIFEST_SCHEMA_VERSION,
    ManifestError,
    build_manifest,
    events_path,
    load_manifest,
    validate_manifest,
    write_manifest,
)
from repro.obs.progress import ProgressLine
from repro.obs.runtime import RunObserver
from repro.obs.timeline import render_timeline, span_coverage, \
    stage_rollup

__all__ = [
    "Collector",
    "LAST_RUN_MANIFEST",
    "MANIFEST_SCHEMA_VERSION",
    "ManifestError",
    "ProgressLine",
    "RunObserver",
    "activate",
    "active",
    "add",
    "build_manifest",
    "deactivate",
    "events_path",
    "load_manifest",
    "point",
    "render_timeline",
    "span",
    "span_coverage",
    "stage_rollup",
    "validate_manifest",
    "write_manifest",
]
