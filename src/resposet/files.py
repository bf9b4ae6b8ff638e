"""The shared JSON structure-file schema.

One schema serves all structure kinds by progressive enrichment:

    {
      "elements":   ["0", "a", ...],
      "covers":     [["0", "a"], ...],
      "involution": {"0": "1", ...},           optional
      "unit":       "1",                        optional, with odot/arrow
      "odot":       {"0": {"0": "0", ...}, ...} optional
      "arrow":      {...},                      optional
      "provenance": {...}                       optional, free-form
    }

The order is the reflexive-transitive closure of "covers", so the field
may list the Hasse relation, the whole order or anything in between.
Unknown fields are rejected.  Labels starting with "#" are reserved for
construction-generated chain elements and only the canonical "#c<i>"
forms are accepted back on input (so construction output round-trips).
"""

import json
import re
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import MalformedDocument, ReservedLabel, SchemaViolation
from .involution import Involution, InvolutedPoset, involuted
from .order import Poset, poset_from_relation
from .residuation import ResiduatedStructure

_KNOWN_FIELDS = {"elements", "covers", "involution", "unit", "odot", "arrow", "provenance"}
# a label that does not start with "#", or a generated "#c<i>"
_UNRESERVED = re.compile(r"(?!#)|#c[0-9]+\Z")


@dataclass(frozen=True)
class Bundle:
    """Everything a structure file can carry; the optional parts are None when absent."""

    poset: Poset
    involuted: InvolutedPoset | None = None  # the involution, checked once on the poset
    structure: ResiduatedStructure | None = None
    provenance: dict | None = None

    @property
    def involution(self) -> Involution | None:
        return None if self.involuted is None else self.involuted.involution


def _pointer(*segments):
    """JSON pointer from raw keys, each escaped as RFC 6901 asks: '~' -> '~0', '/' -> '~1'."""
    return "".join("/" + str(x).replace("~", "~0").replace("/", "~1") for x in segments)


def _expect(doc, key, kind):
    if key not in doc:
        raise SchemaViolation(f"required field {key!r} is missing")
    value = doc[key]
    if not isinstance(value, kind):
        raise SchemaViolation(f"field {key!r} has the wrong type", f"/{key}")
    return value


def _string(x, *segments):
    """x, once it is a string; the pointer to it is built from its segments only to raise."""
    if not isinstance(x, str):
        raise SchemaViolation("labels must be strings", _pointer(*segments))
    return x


def _utf8(text, *segments):
    """Raise unless text encodes as UTF-8: json reads a lone surrogate, which no UTF-8 output holds."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        raise SchemaViolation("a lone surrogate cannot be written as UTF-8", _pointer(*segments)) from None


def _check_label(x, *segments):
    _utf8(_string(x, *segments), *segments)
    if not _UNRESERVED.match(x):
        raise ReservedLabel(
            f"label {x!r}: the '#' prefix is reserved for generated chain elements"
        )


def parse_structure(doc) -> Bundle:
    """Validate a decoded JSON document and build its Bundle."""
    if not isinstance(doc, dict):
        raise SchemaViolation("document must be a JSON object")
    unknown = sorted(set(doc) - _KNOWN_FIELDS)
    if unknown:
        raise SchemaViolation(f"unknown field {unknown[0]!r}", _pointer(unknown[0]))

    # each loop passes the common item inline and calls the checks that
    # build a message and a pointer only for the others
    elements = _expect(doc, "elements", list)
    for i, x in enumerate(elements):
        # an ASCII label encodes as UTF-8, and one not starting with "#" is unreserved
        if not (isinstance(x, str) and x.isascii() and (x[:1] != "#" or _UNRESERVED.match(x))):
            _check_label(x, "elements", i)
    covers = _expect(doc, "covers", list)
    for i, pair in enumerate(covers):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise SchemaViolation("covers entries must be 2-arrays", f"/covers/{i}")
        x, y = pair
        if not (isinstance(x, str) and isinstance(y, str)):
            _string(x, "covers", i, 0)
            _string(y, "covers", i, 1)
    poset = poset_from_relation(elements, covers)

    ip = None
    if "involution" in doc:
        mapping = _expect(doc, "involution", dict)
        index = poset._index
        for x, y in mapping.items():
            if x not in index:
                raise SchemaViolation(f"involution key {x!r} is not an element", "/involution")
            if not isinstance(y, str):
                _string(y, "involution", x)
        ip = involuted(poset, mapping)

    structure = None
    table_fields = [f for f in ("unit", "odot", "arrow") if f in doc]
    if table_fields:
        if len(table_fields) != 3:
            missing = sorted({"unit", "odot", "arrow"} - set(table_fields))
            raise SchemaViolation(
                f"residuated structures need unit/odot/arrow together; missing {missing[0]!r}"
            )
        unit = _expect(doc, "unit", str)
        if unit not in poset:
            raise SchemaViolation(f"unit {unit!r} is not an element", "/unit")
        odot = _read_table(doc, "odot", poset)
        arrow = _read_table(doc, "arrow", poset)
        structure = ResiduatedStructure(poset, unit, odot, arrow)

    provenance = doc.get("provenance")
    if provenance is not None and not isinstance(provenance, dict):
        raise SchemaViolation("provenance must be an object", "/provenance")
    _utf8(json.dumps(provenance, ensure_ascii=False), "provenance")
    return Bundle(poset, ip, structure, provenance)


def _read_table(doc, key, poset):
    """The table as an int64 index matrix, its cells mapped in one pass.

    The cells go into the matrix in each row's key order.  A row whose
    keys are not in element order, which dump never writes, is then
    moved into place through a column index, one per key sequence.  A
    flaw anywhere sends the table to _bad_table, which raises what a
    row-by-row check meets first.
    """
    table = _expect(doc, key, dict)
    els, index = poset.elements, poset._index
    n = len(els)
    # each key sequence's column index, None in element order; json.load
    # gives equal keys one object, so a row in the same order as an
    # earlier one compares by identity
    columns = {}
    try:
        rows = list(map(table.__getitem__, els))
        # labels are strings, so a value or key that is not one misses index
        # too; too few cells, in all or in one row, is a ValueError
        cells = map(index.__getitem__, chain.from_iterable(map(dict.values, rows)))
        matrix = np.fromiter(cells, np.int64, n * n).reshape(n, n)
        for i, keys in enumerate(map(tuple, rows)):
            if keys not in columns:
                columns[keys] = (
                    None if keys == els
                    else np.fromiter(map(index.__getitem__, keys), np.int64, len(keys))
                )
            if columns[keys] is not None:
                matrix[i, columns[keys]] = matrix[i].copy()
    except (KeyError, TypeError, ValueError):
        matrix = None
    if matrix is None or len(table) != n:
        _bad_table(key, table, index)
    return matrix


def _bad_table(key, table, index):
    """Raise for the first flaw of the table: rows in element order, cells in column order."""
    for x in index:
        if x not in table:
            raise SchemaViolation(f"row {x!r} is missing", f"/{key}")
        row = table[x]
        if not isinstance(row, dict):
            raise SchemaViolation(f"row {x!r} must be an object", _pointer(key, x))
        for y in index:
            if y not in row:
                raise SchemaViolation(f"entry {y!r} is missing", _pointer(key, x))
            value = row[y]
            if not isinstance(value, str) or value not in index:
                raise SchemaViolation(f"value {value!r} is not an element", _pointer(key, x, y))
        if len(row) != len(index):
            extra = sorted(set(row) - set(index))
            raise SchemaViolation(f"unknown column {extra[0]!r}", _pointer(key, x))
    extra = sorted(set(table) - set(index))
    raise SchemaViolation(f"unknown row {extra[0]!r}", f"/{key}")


def load_structure(stream) -> Bundle:
    try:
        doc = json.load(stream)
    except json.JSONDecodeError as exc:
        raise MalformedDocument(f"not valid JSON: {exc}") from exc
    except (RecursionError, ValueError) as exc:
        # nesting past the recursion limit, a huge integer, or bytes that are not UTF-8
        raise MalformedDocument(f"cannot decode the document: {exc}") from exc
    return parse_structure(doc)


def to_doc(bundle) -> dict:
    """The document for a Bundle or ExtensionResult: the schema's fields in order."""
    p = bundle.poset
    doc = {"elements": list(p.elements), "covers": [[x, y] for x, y in p.covers()]}
    inv = bundle.involution
    if inv is not None:
        doc["involution"] = inv.mapping
    s = bundle.structure
    if s is not None:
        doc.update(unit=s.unit, odot=s.table_as_labels("odot"), arrow=s.table_as_labels("arrow"))
    if bundle.provenance is not None:
        doc["provenance"] = bundle.provenance
    return doc


def structure_to_doc(s: ResiduatedStructure, involution=None, provenance=None) -> dict:
    """The document for s; ``involution`` (an Involution or a mapping) is checked on s.poset."""
    ip = None if involution is None else involuted(s.poset, involution)
    return to_doc(Bundle(s.poset, ip, s, provenance))


def dump(doc: dict, stream):
    """Write a to_doc document as json.dump(doc, stream, indent=2, ensure_ascii=False) does, and a newline.

    Every label is encoded once per call, through one memo.  The odot and
    arrow tables repeat their n labels in n^2 cells, so they go to the
    stream one row per write, each row joined from a frame of its encoded
    keys, cached per key sequence.  The label fields (elements, covers,
    involution and unit) are joined from the memo too; provenance, and a
    label field whose value is not labels in the schema's shape, is
    json.dumps's text, indented one level.  The labels of the odot and
    arrow tables must be strings, as the schema asks: a table with any
    other label raises TypeError, where json.dump would write it.
    """
    encoded, frames = _Encoded(), {}
    start = "{\n  "
    for key, value in doc.items():
        stream.write(start + encoded[key] + ": ")
        start = ",\n  "
        if key not in ("odot", "arrow") or not value:
            try:
                text = _label_field(key, value, encoded)
            except TypeError:
                text = json.dumps(value, indent=2, ensure_ascii=False).replace("\n", "\n  ")
            stream.write(text)
            continue
        sep = "{\n    "
        for x, row in value.items():
            keys = tuple(row)
            frame = frames.get(keys)
            if frame is None:
                # the row's text, a None slot after each key for its cell
                frame = frames[keys] = []
                for i, k in enumerate(keys):
                    frame += ("," if i else "{") + "\n      " + encoded[k] + ": ", None
                frame.append("\n    }" if keys else "{}")
            frame[1::2] = map(encoded.__getitem__, row.values())
            stream.write(sep + encoded[x] + ": " + "".join(frame))
            sep = ",\n    "
        stream.write("\n  }")
    stream.write("\n}\n" if doc else "{}\n")


def _label_field(key, value, encoded):
    """The text of a label field, indented one level; TypeError unless value is labels in the field's shape."""
    if key == "unit":
        return encoded[value]
    kind = type(value)
    if key == "elements" and kind is list:
        items = list(map(encoded.__getitem__, value))
    elif key == "covers" and kind is list:
        items = []
        for pair in value:
            if type(pair) is not list or len(pair) != 2:
                raise TypeError("a cover is a 2-item list")
            x, y = pair
            items.append(f"[\n      {encoded[x]},\n      {encoded[y]}\n    ]")
    elif key == "involution" and kind is dict:
        items = [f"{encoded[x]}: {encoded[y]}" for x, y in value.items()]
    else:
        raise TypeError(f"field {key!r} does not hold labels in the schema's shape")
    opening, closing = "{}" if kind is dict else "[]"
    return opening + "\n    " + ",\n    ".join(items) + "\n  " + closing if items else opening + closing


class _Encoded(dict):
    """Each string as json writes it, encoded on first lookup; TypeError for anything else."""

    def __missing__(self, s):
        text = self[s] = json.encoder.encode_basestring(s)
        return text
