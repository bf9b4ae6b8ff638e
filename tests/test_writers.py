"""The JSON writer and the table renderer against the cell-at-a-time code they replace.

Labels hold what an encoder must escape or a renderer must measure:
quotes, backslashes, control characters, non-ASCII text, JSON-pointer
characters and the generated "#c<i>" forms.
"""

import csv
import io
import json

import numpy as np
from hypothesis import given, strategies as st

from resposet.files import Bundle, dump, to_doc
from resposet.involution import involuted
from resposet.order import chain_poset, poset_from_covers
from resposet.render import ARROW, ODOT, render_tables
from resposet.residuation import ResiduatedStructure

ODD = st.sampled_from(['"', "\\", "\x00", "\x1f", "\n", "\t", "é", "☃", "𝔹", "/", "~", " ", "a"])
LABEL = st.text(ODD, max_size=4) | st.builds("#c{}".format, st.integers(0, 99))
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(ODD, max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.text(ODD, max_size=3) | st.integers() | st.none(), inner, max_size=3),
    max_leaves=10,
)


@st.composite
def structures(draw):
    """A chain or an antichain (no covers) on odd labels, with arbitrary tables."""
    labels = draw(st.lists(LABEL, min_size=1, max_size=6, unique=True))
    n = len(labels)
    if draw(st.booleans()):
        p, image = chain_poset(labels), dict(zip(labels, labels[::-1]))  # antitone on a chain
    else:
        p, image = poset_from_covers(labels, []), {x: x for x in labels}
        # any involution is antitone on an antichain: swap some disjoint pairs
        order = draw(st.permutations(labels))
        for a, b in zip(order[: draw(st.integers(0, n // 2)) * 2 : 2], order[1::2]):
            image[a], image[b] = b, a
    index = st.integers(0, n - 1)
    table = st.lists(st.lists(index, min_size=n, max_size=n), min_size=n, max_size=n)
    s = ResiduatedStructure(
        p, draw(st.sampled_from(labels)), np.array(draw(table)), np.array(draw(table))
    )
    ip = involuted(p, image) if draw(st.booleans()) else None
    return Bundle(p, ip, s, draw(st.none() | st.dictionaries(st.text(ODD, max_size=3), JSON)))


@given(structures())
def test_dump_writes_what_json_dump_writes(bundle):
    doc = to_doc(bundle)
    expected = io.StringIO()
    json.dump(doc, expected, indent=2, ensure_ascii=False)
    expected.write("\n")
    got = io.StringIO()
    dump(doc, got)
    assert got.getvalue() == expected.getvalue()


def reference_tables(s, fmt):
    """Both tables one cell at a time, as render_tables wrote them before it worked on rows."""
    els = s.elements
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

    def one_table(symbol, cell):
        header = [symbol] + list(els)
        rows = [[x] + [cell(x, y) for y in els] for x in els]
        widths = [max(len(header[j]), *(len(r[j]) for r in rows)) for j in range(len(header))]

        def fmt_row(r):
            body = " ".join(c.ljust(w) for c, w in zip(r[1:], widths[1:]))
            return f"{r[0].ljust(widths[0])} | {body}".rstrip()

        lines = [fmt_row(header)]
        lines.append("-" * widths[0] + "-+-" + "-" * (sum(widths[1:]) + len(widths) - 2))
        lines.extend(fmt_row(r) for r in rows)
        return "\n".join(lines)

    return one_table(ODOT, s.odot_of) + "\n\n" + one_table(ARROW, s.arrow_of) + "\n"


@given(structures())
def test_render_tables_matches_the_cell_by_cell_reference(bundle):
    for fmt in ("text", "csv"):
        assert render_tables(bundle.structure, fmt) == reference_tables(bundle.structure, fmt)
