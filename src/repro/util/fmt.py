"""Plain-text table rendering for experiment reports."""


def _render_cell(value):
    if isinstance(value, float):
        return "%.2f" % value
    return str(value)


def format_table(headers, rows, title=None, align=None):
    """Render an ASCII table.

    *align* is an optional string of ``'l'``/``'r'`` per column; numeric
    columns default to right alignment.
    """
    headers = [str(h) for h in headers]
    text_rows = [[_render_cell(cell) for cell in row] for row in rows]
    ncols = len(headers)
    for row in text_rows:
        if len(row) != ncols:
            raise ValueError("row %r does not match %d columns"
                             % (row, ncols))
    if align is None:
        align = ""
        for col in range(ncols):
            numeric = all(
                _is_numeric(row[col]) for row in text_rows) if text_rows \
                else False
            align += "r" if numeric else "l"
    widths = [len(headers[c]) for c in range(ncols)]
    for row in text_rows:
        for c, cell in enumerate(row):
            widths[c] = max(widths[c], len(cell))

    def render_row(cells):
        parts = []
        for c, cell in enumerate(cells):
            if align[c] == "r":
                parts.append(cell.rjust(widths[c]))
            else:
                parts.append(cell.ljust(widths[c]))
        return "  ".join(parts).rstrip()

    lines = []
    if title:
        lines.append(title)
    lines.append(render_row(headers))
    lines.append("  ".join("-" * w for w in widths))
    for row in text_rows:
        lines.append(render_row(row))
    return "\n".join(lines)


def _is_numeric(text):
    text = text.strip().rstrip("%")
    if not text:
        return False
    try:
        float(text)
        return True
    except ValueError:
        return False
