"""Rendering: operation tables (text/CSV) and Hasse diagrams (DOT)."""

import csv
import io

import numpy as np

from .order import Poset
from .residuation import ResiduatedStructure, _label_rows

ODOT = "⊙"   # circled dot
ARROW = "→"  # rightwards arrow


def _one_table(symbol, elements, table):
    n = len(elements)
    lengths = np.array([len(x) for x in elements])
    first = max(len(symbol), int(lengths.max()))
    # a column is as wide as its header or its widest cell
    widths = np.maximum(lengths, lengths[table].max(axis=0)).tolist()
    # every label padded once to each width in use, a block of n per width;
    # column j reads its cells from the block of its width, at base[j]
    offset = {w: i * n for i, w in enumerate(set(widths))}
    padded = np.array([x.ljust(w) for w in offset for x in elements], dtype=object)
    base = np.array([offset[w] for w in widths])

    def fmt_row(label, cells):
        return f"{label.ljust(first)} | {' '.join(cells)}".rstrip()

    lines = [fmt_row(symbol, map(str.ljust, elements, widths))]
    lines.append("-" * first + "-+-" + "-" * (sum(widths) + len(widths) - 1))
    lines.extend(map(fmt_row, elements, padded[base + table].tolist()))
    return "\n".join(lines)


def render_tables(s: ResiduatedStructure, fmt="text") -> str:
    """Both operation tables, monoid operation first, rows in element order."""
    els = s.elements
    if fmt == "text":
        return _one_table(ODOT, els, s.odot) + "\n\n" + _one_table(ARROW, els, s.arrow) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        for symbol, table in ((ODOT, s.odot), (ARROW, s.arrow)):
            writer.writerow([symbol, *els])
            writer.writerows([x, *cells] for x, cells in zip(els, _label_rows(els, table)))
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
