"""The JSON writer and the table renderer against the cell-at-a-time code they replace.

Labels hold what an encoder must escape or a renderer must measure:
quotes, backslashes, control characters, non-ASCII text, JSON-pointer
characters and the generated "#c<i>" forms.
"""

import csv
import io
import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from resposet.constructions import chain_residuation
from resposet.files import Bundle, dump, structure_to_doc, to_doc
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


def json_dump_text(doc):
    buf = io.StringIO()
    json.dump(doc, buf, indent=2, ensure_ascii=False)
    return buf.getvalue() + "\n"


def dump_text(doc):
    buf = io.StringIO()
    dump(doc, buf)
    return buf.getvalue()


@given(structures())
def test_dump_writes_what_json_dump_writes(bundle):
    doc = to_doc(bundle)
    assert dump_text(doc) == json_dump_text(doc)


# Fields other than the tables go through json.dumps, which must keep
# numbers, booleans and None apart (1 == 1.0 == True) and write str() of
# a non-string key; table rows share a frame or an encoded string only
# where json writes the same text.
@pytest.mark.parametrize(
    "doc",
    [
        {"row": {"a": "x", "b": 1}},
        {"row": {"a": "x", "b": None}},
        {"row": {"a": "x", "b": True}},
        {"row": {"a": "x", "b": 1.5}},
        {"row": {"a": "x", "b": ["y", 2]}},
        {"row": {"a": "x", "b": []}},
        {"row": {1: "x", "b": "y"}},
        {"row": {"a": "x", None: "y"}},
        {"s": {"1": "true"}, "t": {1: True}},
        {"t": {1: True}, "s": {"1": "true"}},
        {"a": {"1": "1"}, "b": {1: 1.0}, "c": {True: 1}, "d": {"1": "1"}},
        {"a": "b", "x": {"a": "b", "y": {"a": "b"}}},
        {"x": {"k": "v", "j": "w"}, "y": [{"k": "v", "j": "w"}, {"k": "w", "j": "v"}]},
        {},
        {"a": {}},
        {"a": {}, "b": {"c": "d"}, "e": [{}]},
        {"a": [[str(i), i] for i in range(100)], "b": {"c": [{"d": str(i)} for i in range(100)]}},
        # rows listing their keys in different orders, and a row that
        # recurs in a later table
        {
            "odot": {"a": {"a": "a", "b": "b"}, "b": {"b": "a", "a": "b"}, "c": {"a": "b", "b": "a"}},
            "arrow": {"é": {"b": "a", "a": "b"}, "\n": {"a": "\"", "b": "é"}},
        },
        {"odot": {"a": {}, "b": {"a": "b"}, "c": {}}, "arrow": {"a": {"b": "a"}}},
        {"elements": [], "covers": [], "unit": "1", "odot": {}, "arrow": {}},
        # label fields that hold no labels in the schema's shape go to json.dumps
        {"elements": [1, None, True, 1.5]},
        {"elements": ["a", ["b", "c"]], "covers": [["a", "b"]]},
        {"covers": [("a", "b")]},
        {"covers": [["a", "b"], ["a", "b", "c"]]},
        {"covers": [["a"]]},
        {"covers": ["ab"]},
        {"covers": [["a", 1]]},
        {"involution": {1: "a", "a": "b"}},
        {"involution": {None: "a"}},
        {"involution": {"a": ["b"], "b": "a"}},
        {"elements": ["a"], "unit": 1},
        {"elements": ["a"], "unit": ["a"]},
        {"elements": [], "covers": [], "involution": {}, "unit": ""},
        {"elements": [[]], "covers": [[]], "involution": {"a": {}}, "unit": {}},
        {
            "elements": ["0", "1"],
            "provenance": {
                "n": 3, "x": -1.5, "big": 10**30, "inf": float("inf"), "none": None,
                "flags": [True, False], 1: "one", 2.5: "half", None: "null", False: 0,
                "nested": [[1, [2.0, []]], {}, [{"k": ["é", None]}]],
            },
        },
    ],
)
def test_dump_matches_json_dump_field_by_field(doc):
    assert dump_text(doc) == json_dump_text(doc)


@pytest.mark.parametrize("with_provenance", [False, True])
def test_only_provenance_goes_through_json_dumps(monkeypatch, with_provenance):
    # json.dumps with an indent runs json's pure-Python encoder: the label
    # fields and the tables are joined from the encoded labels instead
    res = chain_residuation(5, verify=False)
    doc = to_doc(res) if with_provenance else structure_to_doc(res.structure, res.involution)
    assert ("provenance" in doc) is with_provenance
    real, calls = json.dumps, []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr("resposet.files.json.dumps", counted)
    text = dump_text(doc)
    assert calls == ([(doc["provenance"],)] if with_provenance else [])
    monkeypatch.undo()
    assert text == json_dump_text(doc)


@given(structures())
def test_table_as_labels_matches_the_cell_lookups(bundle):
    s = bundle.structure
    for which, cell in (("odot", s.odot_of), ("arrow", s.arrow_of)):
        table = s.table_as_labels(which)
        assert list(table) == list(s.elements)
        for x in s.elements:
            assert list(table[x].items()) == [(y, cell(x, y)) for y in s.elements]


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


def test_writers_at_real_size():
    """140 labels of 1 to 14 characters with every kind of character to escape.

    Hundreds of rows reuse one frame and most labels recur in every row;
    the odot table is the chain meet, so column j is as wide as label j and
    the text tables hold columns of many widths.
    """
    odd = ['"', "\\", "\x00", "\x1f", "\n", "\t", "é", "☃", "𝔹", "/", "~", " ", "a", "b"]
    rng = np.random.default_rng(7)
    labels = []
    while len(labels) < 140:
        x = "".join(rng.choice(odd, 1 + len(labels) // 10))
        if x not in labels:
            labels.append(x)
    n = len(labels)
    p = chain_poset(labels)
    meet = np.minimum.outer(np.arange(n), np.arange(n))
    s = ResiduatedStructure(p, labels[-1], meet, rng.integers(0, n, (n, n)))
    widths = {max(len(labels[k]) for k in column) for column in s.odot.T}
    assert len(widths) >= 2
    bundle = Bundle(p, involuted(p, dict(zip(labels, labels[::-1]))), s, {"n": n, "k": ["é", 0]})
    doc = to_doc(bundle)
    assert dump_text(doc) == json_dump_text(doc)
    for fmt in ("text", "csv"):
        assert render_tables(s, fmt) == reference_tables(s, fmt)
