"""Rendering: operation tables (text/CSV) and Hasse diagrams (DOT)."""

import csv
import io

from .order import Poset
from .residuation import ResiduatedStructure

ODOT = "⊙"   # circled dot
ARROW = "→"  # rightwards arrow


def _one_table(symbol, elements, cell):
    header = [symbol] + list(elements)
    rows = [[x] + [cell(x, y) for y in elements] for x in elements]
    widths = [
        max(len(header[j]), *(len(r[j]) for r in rows)) for j in range(len(header))
    ]
    def fmt_row(r):
        body = " ".join(c.ljust(w) for c, w in zip(r[1:], widths[1:]))
        return f"{r[0].ljust(widths[0])} | {body}".rstrip()

    lines = [fmt_row(header)]
    lines.append("-" * widths[0] + "-+-" + "-" * (sum(widths[1:]) + len(widths) - 2))
    lines.extend(fmt_row(r) for r in rows)
    return "\n".join(lines)


def render_tables(s: ResiduatedStructure, fmt="text") -> str:
    """Both operation tables, monoid operation first, rows in element order."""
    els = s.elements
    if fmt == "text":
        first = _one_table(ODOT, els, s.odot_of)
        second = _one_table(ARROW, els, s.arrow_of)
        return first + "\n\n" + second + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        for symbol, cell in ((ODOT, s.odot_of), (ARROW, s.arrow_of)):
            writer.writerow([symbol] + list(els))
            for x in els:
                writer.writerow([x] + [cell(x, y) for y in els])
            if symbol == ODOT:
                writer.writerow([])
        return buf.getvalue()
    raise ValueError(f"unknown table format {fmt!r}")


def _dot_id(label):
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(p: Poset, involution=None) -> str:
    """DOT digraph of the cover relation, drawn upward; involution dashed."""
    lines = ["digraph poset {", "  rankdir=BT;", "  node [shape=plaintext];"]
    image = range(len(p)) if involution is None else involution.image
    for i, x in enumerate(p.elements):
        attrs = ' [xlabel="self-inverse"]' if involution is not None and image[i] == i else ""
        lines.append(f"  {_dot_id(x)}{attrs};")
    for x, y in p.covers():
        lines.append(f"  {_dot_id(x)} -> {_dot_id(y)};")
    for i, j in enumerate(image):
        if i < j:  # each swapped pair once, at its first element
            lines.append(
                f"  {_dot_id(p.elements[i])} -> {_dot_id(p.elements[j])} "
                "[dir=none, style=dashed, constraint=false];"
            )
    lines.append("}")
    return "\n".join(lines) + "\n"
