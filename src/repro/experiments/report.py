"""Shared result container and rendering for experiments."""

from repro.util.fmt import format_table


class ExperimentResult:
    """A named table of results with optional notes.

    ``rows`` is a list of tuples matching ``headers``; ``extra`` carries
    experiment-specific structured data (e.g. per-series dictionaries)
    for programmatic consumers and tests.  ``meta`` is a small flat
    mapping of run-level facts that belong in *serialized* output too
    (e.g. the non-default timing model a speculation experiment ran
    under -- see the schema note in docs/ANALYSIS.md); it renders as a
    trailing line in text, ``#``-comment lines in CSV, and a ``"meta"``
    object in JSON, and is omitted everywhere when empty, keeping
    default-model output byte-identical to the meta-free format.
    """

    def __init__(self, name, headers, rows, notes=None, extra=None,
                 meta=None):
        self.name = name
        self.headers = tuple(headers)
        self.rows = [tuple(r) for r in rows]
        self.notes = notes or []
        self.extra = extra or {}
        self.meta = dict(meta) if meta else {}

    def render(self):
        text = format_table(self.headers, self.rows, title=self.name)
        if self.notes:
            text += "\n" + "\n".join("note: %s" % n for n in self.notes)
        if self.meta:
            text += "\nmeta: " + " ".join(
                "%s=%s" % (k, v) for k, v in self.meta.items())
        return text

    def to_csv(self):
        """Render as CSV (for spreadsheets / plotting scripts)."""
        def cell(value):
            text = str(value)
            if "," in text or '"' in text:
                text = '"%s"' % text.replace('"', '""')
            return text

        lines = [",".join(cell(h) for h in self.headers)]
        for row in self.rows:
            lines.append(",".join(cell(v) for v in row))
        for key, value in self.meta.items():
            lines.append("# %s=%s" % (key, value))
        return "\n".join(lines) + "\n"

    def to_json(self, indent=2):
        """Render name/headers/rows/notes (and ``meta``, when present)
        as a JSON object.

        ``extra`` is deliberately excluded: it carries arbitrary
        analysis objects for programmatic consumers, not serializable
        table data.
        """
        import json

        payload = {"name": self.name, "headers": list(self.headers),
                   "rows": [list(row) for row in self.rows],
                   "notes": list(self.notes)}
        if self.meta:
            payload["meta"] = dict(self.meta)
        return json.dumps(payload, indent=indent)


class TimingMeta:
    """Folds speculation runs into :class:`ExperimentResult` ``meta``.

    Speculation-consuming experiments :meth:`fold` every
    :class:`~repro.core.speculation.metrics.SpeculationResult` they
    render (in ``finish``, like any cross-workload accumulator) and
    attach :meth:`as_meta` to their result tables.  Under the default
    ideal model this yields ``{}`` — output stays byte-identical to the
    pre-timing format; under any other model the table carries
    ``timing_name`` and the total ``overhead_cycles`` of the runs
    behind it.
    """

    __slots__ = ("timing_name", "overhead_cycles")

    def __init__(self):
        self.timing_name = None
        self.overhead_cycles = 0

    def fold(self, result):
        self.timing_name = result.timing_name
        self.overhead_cycles += result.overhead_cycles
        return result

    def as_meta(self):
        if self.timing_name is None or self.timing_name == "ideal":
            return {}
        return {"timing_name": self.timing_name,
                "overhead_cycles": self.overhead_cycles}
