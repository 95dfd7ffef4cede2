"""Run manifests: the on-disk form of one instrumented run.

``runner ... --metrics run.json`` writes two artifacts:

* ``run.json`` -- the **manifest**: schema version, run metadata
  (argv, kernel backend, python version), wall seconds, the full
  counter/gauge maps, every finished span, every point, and a
  precomputed per-stage rollup (:func:`repro.obs.timeline.
  stage_rollup`) so downstream tools never re-derive it;
* ``run.jsonl`` -- the **event stream**: one JSON object per line
  (``{"type": "span", ...}`` in completion order, then points, then
  final counter/gauge lines), for tailing and line-oriented tooling.

:func:`load_manifest` validates on read and raises
:class:`ManifestError` on anything structurally unusable -- schema
mismatches must fail loudly (``tools/obs_report.py`` exits 2 on
them), while *performance* judgments are left to the caller.

A copy of the manifest is also dropped into the trace-cache (and
sweep-store) directory as :data:`LAST_RUN_MANIFEST`, which is where
``tools/trace_cache.py ls`` / ``sweeps ls`` source their "last run"
summary line.
"""

import json
import os
import sys
import time

#: Bump when the manifest structure changes incompatibly.
MANIFEST_SCHEMA_VERSION = 1

#: The manifest kind tag (sanity check against unrelated JSON files).
MANIFEST_KIND = "repro-run-manifest"

#: Basename of the manifest copy dropped next to the artifacts a run
#: touched (trace cache, sweep store) for the maintenance CLIs.
LAST_RUN_MANIFEST = "last-run-manifest.json"


class ManifestError(ValueError):
    """A manifest file is missing, malformed, or schema-incompatible."""


def events_path(path):
    """The JSONL event-stream path of manifest *path* (sibling file,
    ``.jsonl`` suffix)."""
    stem, _ = os.path.splitext(path)
    return stem + ".jsonl"


def build_manifest(collector, argv=None, command=None, extra=None):
    """The manifest dict of *collector*'s events.

    *argv* is recorded verbatim; *command* names the front end
    (``run``/``sweep``/``search``); *extra* is merged into the
    manifest's ``meta`` map.
    """
    from repro.obs.timeline import span_coverage, stage_rollup
    from repro.trace.kernels import backend

    meta = {
        "command": command or "run",
        "argv": list(argv) if argv is not None else None,
        "python": "%d.%d.%d" % sys.version_info[:3],
        "kernel_backend": backend(),
    }
    if extra:
        meta.update(extra)
    wall = collector.wall_seconds()
    manifest = {
        "schema": MANIFEST_SCHEMA_VERSION,
        "kind": MANIFEST_KIND,
        "created": time.time(),
        "meta": meta,
        "wall_seconds": round(wall, 6),
        "counters": dict(collector.counters),
        "gauges": dict(collector.gauges),
        "spans": list(collector.spans),
        "points": list(collector.points),
    }
    manifest["stages"] = stage_rollup(manifest)
    manifest["span_coverage"] = span_coverage(manifest)
    return manifest


def write_manifest(manifest, path, events=True):
    """Write *manifest* to *path* (and its JSONL stream when *events*);
    returns the list of paths written.

    Each file is written to a temp file and renamed over its path, so
    a run killed mid-write, or two runs writing at once, leave one
    whole manifest, never a truncated or interleaved one.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    _replace(path, [json.dumps(manifest, indent=2, sort_keys=True), ""])
    written = [path]
    if events:
        stream = events_path(path)
        lines = [json.dumps(dict(span, type="span"), sort_keys=True)
                 for span in manifest["spans"]]
        lines += [json.dumps(dict(sample, type="point"), sort_keys=True)
                  for sample in manifest["points"]]
        for kind in ("counter", "gauge"):
            values = manifest[kind + "s"]
            lines += [json.dumps({"type": kind, "name": name,
                                  "value": values[name]}, sort_keys=True)
                      for name in sorted(values)]
        _replace(stream, lines + [""] if lines else [])
        written.append(stream)
    return written


def _replace(path, lines):
    """Atomically replace *path* with *lines* joined by newlines."""
    from repro.trace.io import atomic_writer

    with atomic_writer(path) as fh:
        fh.write("\n".join(lines).encode("utf-8"))


def validate_manifest(data, source="manifest"):
    """Raise :class:`ManifestError` unless *data* is a structurally
    valid manifest dict; returns it."""
    if not isinstance(data, dict):
        raise ManifestError("%s: not a JSON object" % source)
    if data.get("kind") != MANIFEST_KIND:
        raise ManifestError("%s: not a %s (kind=%r)"
                            % (source, MANIFEST_KIND, data.get("kind")))
    if data.get("schema") != MANIFEST_SCHEMA_VERSION:
        raise ManifestError(
            "%s: schema %r, this tool understands %d"
            % (source, data.get("schema"), MANIFEST_SCHEMA_VERSION))
    if not isinstance(data.get("wall_seconds"), (int, float)):
        raise ManifestError("%s: missing numeric wall_seconds" % source)
    for key, kind in (("counters", dict), ("gauges", dict),
                      ("spans", list), ("points", list),
                      ("meta", dict)):
        if not isinstance(data.get(key), kind):
            raise ManifestError("%s: missing %s %r"
                                % (source, kind.__name__, key))
    for span in data["spans"]:
        if not isinstance(span, dict) or "name" not in span \
                or not isinstance(span.get("seconds"), (int, float)):
            raise ManifestError("%s: malformed span entry %r"
                                % (source, span))
    return data


def load_manifest(path):
    """Read and validate the manifest at *path*."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ManifestError("cannot read %s: %s" % (path, exc)) from exc
    except ValueError as exc:
        raise ManifestError("%s: invalid JSON (%s)" % (path, exc)) from exc
    return validate_manifest(data, source=path)
