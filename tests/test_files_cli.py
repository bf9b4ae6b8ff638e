import io
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from resposet import (
    ExtensionMode,
    Poset,
    chain_residuation,
    extend_theorem1,
)
from resposet import constructions, involution
from resposet.cli import main
from resposet.constructions import MAX_CARRIER
from resposet.errors import (
    InvalidInvolution,
    InvariantViolation,
    MalformedDocument,
    ReservedLabel,
    SchemaViolation,
    StructureError,
)
from resposet.files import (
    Bundle,
    dump,
    load_structure,
    parse_structure,
    structure_to_doc,
    to_doc,
)
from resposet.fixtures import BUILTINS, n5, n5_involuted
from resposet.report import VerificationReport, failed
from resposet.residuation import ResiduatedStructure

N5_DOC = {
    "elements": ["0", "a", "b", "c", "1"],
    "covers": [["0", "a"], ["0", "c"], ["a", "b"], ["b", "1"], ["c", "1"]],
}
AB_DOC = {"elements": ["a", "b"], "covers": []}


def roundtrip(doc, **kw):
    buf = io.StringIO()
    dump(doc, buf)
    buf.seek(0)
    return load_structure(buf, **kw)


def identity_image(carrier):
    """carrier with the identity as its map, which is not antitone on a chain of two or more."""
    def identity_carrier(*args):
        q, _ = carrier(*args)
        return q, np.arange(len(q))
    return identity_carrier


class TestSchema:
    def test_poset_round_trip(self):
        bundle = roundtrip(N5_DOC)
        assert bundle.poset == n5()
        assert bundle.involution is None
        assert to_doc(bundle)["elements"] == N5_DOC["elements"]

    def test_involuted_round_trip(self):
        ip = n5_involuted()
        bundle = roundtrip(to_doc(Bundle(ip.poset, ip)))
        assert bundle.poset == ip.poset and bundle.structure is None
        assert bundle.involution("a") == "b"

    def test_structure_round_trip(self):
        res = extend_theorem1(n5_involuted(), ExtensionMode.REUSE_BOUNDS)
        doc = structure_to_doc(res.structure, res.involution, res.provenance)
        bundle = roundtrip(doc)
        assert isinstance(bundle.structure, ResiduatedStructure)
        assert bundle.structure == res.structure
        assert bundle.provenance == res.provenance

    def test_full_order_round_trip(self):
        p = n5()
        doc = {
            "elements": list(p.elements),
            "covers": [
                [x, y] for x in p.elements for y in p.elements if p.leq(x, y)
            ],
        }
        bundle = roundtrip(doc)
        assert bundle.poset == p

    def test_generated_labels_round_trip(self):
        doc = structure_to_doc(chain_residuation(4).structure)
        bundle = roundtrip(doc)
        assert bundle.structure.elements == ("#c1", "#c2", "#c3", "#c4")

    def test_largest_chain_round_trip(self, tmp_path):
        # the output of `extend cor1 --n 998`, near MAX_CARRIER; through a file,
        # as a StringIO read back holds the 46 MB text at four bytes a character
        res = chain_residuation(998, verify=False)
        path = tmp_path / "cor1.json"
        with open(path, "w", encoding="utf-8") as fh:
            dump(structure_to_doc(res.structure, res.involution, res.provenance), fh)
        with open(path, encoding="utf-8") as fh:
            bundle = load_structure(fh)
        assert bundle.structure == res.structure
        assert bundle.involution == res.involution

    def test_reserved_label_rejected(self, tmp_path, capsys):
        with pytest.raises(ReservedLabel):
            parse_structure({"elements": ["#mine"], "covers": []})
        # a generated label with a trailing line break is not a generated label
        doc = {"elements": ["#c1\n"], "covers": []}
        with pytest.raises(ReservedLabel):
            parse_structure(doc)
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert main(["show", "-i", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    def test_unknown_field_rejected(self):
        with pytest.raises(SchemaViolation) as exc:
            parse_structure(dict(N5_DOC, extra=1))
        assert exc.value.path == "/extra"

    def test_missing_elements(self):
        with pytest.raises(SchemaViolation):
            parse_structure({"covers": []})

    def test_bad_cover_shape(self):
        with pytest.raises(SchemaViolation) as exc:
            parse_structure({"elements": ["x"], "covers": [["x"]]})
        assert exc.value.path == "/covers/0"

    def test_partial_tables_rejected(self):
        doc = dict(N5_DOC, unit="1")
        with pytest.raises(SchemaViolation):
            parse_structure(doc)

    def test_table_missing_entry(self):
        s = chain_residuation(3).structure
        doc = structure_to_doc(s)
        del doc["odot"]["#c1"]["#c2"]
        with pytest.raises(SchemaViolation) as exc:
            parse_structure(doc)
        assert exc.value.path == "/odot/#c1"

    @pytest.mark.parametrize(
        "change, pointer",
        [
            ({"a/b": 1}, "/a~1b"),
            ({"involution": {"a/b": ["a/b"], "x~y": "x~y"}}, "/involution/a~1b"),
            ({"odot": {"a/b": {"a/b": "a/b", "x~y": "z"}, "x~y": {}}}, "/odot/a~1b/x~0y"),
            ({"odot": {"a/b": {"a/b": "a/b", "x~y": "a/b"}, "x~y": 1}}, "/odot/x~0y"),
            ({"odot": {"a/b": {"a/b": "a/b"}, "x~y": {}}}, "/odot/a~1b"),
            ({"covers": {}}, "/covers"),
            ({"odot": {"a/b": {"a/b": ["a/b"], "x~y": "z"}, "x~y": {}}}, "/odot/a~1b/a~1b"),
            ({"odot": {"a/b": {"a/b": "a/b", "x~y": "a/b", "z": "a/b"}}}, "/odot/a~1b"),
            ({"odot": {"a/b": {"a/b": "a/b", "x~y": "a/b"},
                       "x~y": {"a/b": "x~y", "x~y": "x~y"}, "z": {}}}, "/odot"),
            ({"involution": {"z": "a/b"}}, "/involution"),
            # rows whose keys are out of element order
            ({"odot": {"a/b": {"z": "a/b", "a/b": "a/b"},
                       "x~y": {"x~y": "x~y", "a/b": "x~y"}}}, "/odot/a~1b"),
            ({"odot": {"a/b": {"x~y": "a/b", "a/b": "a/b"},
                       "x~y": {"x~y": "x~y", "a/b": "x~y", "z": "z"}}}, "/odot/x~0y"),
            ({"unit": "z"}, "/unit"),
            ({"provenance": []}, "/provenance"),
            ({"odot": {"x~y": {"a/b": "x~y", "x~y": "x~y"}}}, "/odot"),  # no row a/b
        ],
    )
    def test_pointer_escapes_labels(self, change, pointer):
        # RFC 6901: '~' becomes '~0' and '/' becomes '~1' inside a segment
        table = {x: {y: x for y in ("a/b", "x~y")} for x in ("a/b", "x~y")}
        doc = {"elements": ["a/b", "x~y"], "covers": [], "unit": "a/b",
               "odot": table, "arrow": table}
        with pytest.raises(SchemaViolation) as exc:
            parse_structure(dict(doc, **change))
        assert exc.value.path == pointer

    @pytest.mark.parametrize(
        "doc, error, message",
        [
            ({"elements": ["#x", 1], "covers": []}, ReservedLabel,
             "label '#x': the '#' prefix is reserved for generated chain elements"),
            ({"elements": [1, "#x"], "covers": []}, SchemaViolation, "/elements/0: labels must be strings"),
            ({"elements": ["b\ud800", "#x"], "covers": []}, SchemaViolation,
             "/elements/0: a lone surrogate cannot be written as UTF-8"),
            ({"elements": ["#x", "b\ud800"], "covers": []}, ReservedLabel,
             "label '#x': the '#' prefix is reserved for generated chain elements"),
            ({"elements": ["#x\ud800"], "covers": []}, SchemaViolation,
             "/elements/0: a lone surrogate cannot be written as UTF-8"),
            ({"elements": ["#c1", "#c", 2], "covers": []}, ReservedLabel,
             "label '#c': the '#' prefix is reserved for generated chain elements"),
            ({"elements": ["a", "a", 1], "covers": []}, SchemaViolation, "/elements/2: labels must be strings"),
            ({"elements": ["é", "#c1", "#x"], "covers": []}, ReservedLabel,
             "label '#x': the '#' prefix is reserved for generated chain elements"),
            ({"elements": ["é", "ü\ud800", 1], "covers": []}, SchemaViolation,
             "/elements/1: a lone surrogate cannot be written as UTF-8"),
            ({"elements": ["a\ud800", "b"], "covers": [["a"]]}, SchemaViolation,
             "/elements/0: a lone surrogate cannot be written as UTF-8"),
            ({"elements": ["a", "a"], "covers": [["a"]]}, SchemaViolation,
             "/covers/0: covers entries must be 2-arrays"),
            ({"elements": ["a", "b"], "covers": [["a", 1], ["b"]]}, SchemaViolation,
             "/covers/0/1: labels must be strings"),
            ({"elements": ["a", "b"], "covers": [["a", "b", "a"], ["a", 1]]}, SchemaViolation,
             "/covers/0: covers entries must be 2-arrays"),
            ({"elements": ["a", "b"], "covers": ["ab", ["a", 1]]}, SchemaViolation,
             "/covers/0: covers entries must be 2-arrays"),
            ({"elements": ["a", "b"], "covers": [["a", "z"], ["a", 1]]}, SchemaViolation,
             "/covers/1/1: labels must be strings"),
            (dict(AB_DOC, involution={"z": "a", "a": 1}), SchemaViolation,
             "/involution: involution key 'z' is not an element"),
            (dict(AB_DOC, involution={"a": 1, "z": "a"}), SchemaViolation,
             "/involution/a: labels must be strings"),
            (dict(AB_DOC, involution={"a": "z", "b": 1}), SchemaViolation,
             "/involution/b: labels must be strings"),
            (dict(AB_DOC, involution={"a": "b\ud800", "z": "a"}), SchemaViolation,
             "/involution: involution key 'z' is not an element"),
            (dict(AB_DOC, involution={"a": 1}, unit="a", odot={}, arrow={}), SchemaViolation,
             "/involution/a: labels must be strings"),
            (dict(AB_DOC, unit="a", odot={"a": {"a": "a", "b": "a"}}, arrow={}, provenance={"k": "\udc80"}),
             SchemaViolation, "/odot: row 'b' is missing"),
        ],
        ids=[
            "reserved-before-non-string",
            "non-string-before-reserved",
            "surrogate-before-reserved",
            "reserved-before-surrogate",
            "reserved-with-surrogate",
            "bad-generated-before-non-string",
            "duplicate-before-non-string",
            "non-ascii-and-generated-before-reserved",
            "non-ascii-before-surrogate",
            "surrogate-before-bad-cover",
            "duplicate-before-bad-cover",
            "non-string-cover-before-bad-cover",
            "bad-cover-before-non-string-cover",
            "string-cover-before-non-string-cover",
            "unknown-cover-before-non-string-cover",
            "unknown-key-before-bad-value",
            "bad-value-before-unknown-key",
            "unknown-value-before-bad-value",
            "surrogate-value-before-unknown-key",
            "bad-involution-before-bad-table",
            "bad-table-before-bad-provenance",
        ],
    )
    def test_the_first_of_two_flaws_is_reported(self, doc, error, message):
        with pytest.raises(StructureError) as exc:
            parse_structure(doc)
        assert type(exc.value) is error
        assert str(exc.value) == message  # a SchemaViolation's message starts with its pointer

    def test_writing_cor1_200_stays_within_its_memory(self, tmp_path):
        res = chain_residuation(200, verify=False)  # so to_doc computes the covers
        with open(tmp_path / "cor1.json", "w", encoding="utf-8") as fh:
            tracemalloc.start()
            try:
                dump(to_doc(res), fh)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # 2.87 MiB measured; the 1.7 MiB text held whole would break it
        assert peak < 3.2 * 2**20

    def test_reading_cor1_200_stays_within_its_memory(self, tmp_path):
        res = chain_residuation(200, verify=False)
        path = tmp_path / "cor1.json"
        with open(path, "w", encoding="utf-8") as fh:
            dump(to_doc(res), fh)
        with open(path, encoding="utf-8") as fh:
            tracemalloc.start()
            try:
                load_structure(fh)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 9.2 * 2**20  # 8.38 MiB measured

    def test_rows_in_any_key_order_read_the_same_tables(self):
        s = extend_theorem1(n5_involuted(), ExtensionMode.ADD_FOUR).structure
        doc = structure_to_doc(s)
        for key in ("odot", "arrow"):
            table = {}
            for i, (x, row) in enumerate(doc[key].items()):
                cells = list(row.items())
                table[x] = dict(cells[i % 3:] + cells[:i % 3])  # element order and two rotations
            doc[key] = dict(reversed(table.items()))  # the rows in reverse too
        back = roundtrip(doc).structure
        assert np.array_equal(back.odot, s.odot) and np.array_equal(back.arrow, s.arrow)

    def test_bad_involution_is_invalid_involution(self):
        doc = dict(N5_DOC, involution={x: x for x in N5_DOC["elements"]})
        with pytest.raises(InvalidInvolution):
            parse_structure(doc)

    def test_malformed_json(self):
        with pytest.raises(MalformedDocument):
            load_structure(io.StringIO("{not json"))

    def test_non_object_document(self):
        with pytest.raises(SchemaViolation):
            parse_structure([1, 2, 3])

    @pytest.mark.parametrize(
        "doc, message",
        [
            ([1, 2, 3], "document must be a JSON object"),
            ({"covers": []}, "required field 'elements' is missing"),
            (
                dict(N5_DOC, unit="1", odot={}),
                "residuated structures need unit/odot/arrow together; missing 'arrow'",
            ),
        ],
    )
    def test_whole_document_errors_point_at_the_root(self, tmp_path, capsys, doc, message):
        # RFC 6901: "" is the whole document, "/" the member with the empty key
        with pytest.raises(SchemaViolation) as exc:
            parse_structure(doc)
        assert exc.value.path == ""
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert main(["show", "-i", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


@pytest.fixture
def n5_file(tmp_path):
    path = tmp_path / "n5.json"
    ip = n5_involuted()
    doc = to_doc(Bundle(ip.poset, ip))
    path.write_text(json.dumps(doc))
    return str(path)


class TestCli:
    def test_extend_thm1_json(self, n5_file, tmp_path, capsys):
        out = tmp_path / "out.json"
        code = main(
            ["extend", "thm1", "-i", n5_file, "--mode", "reusebounds", "-o", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert len(doc["elements"]) == 7
        assert doc["provenance"]["parameters"]["mode"] == "reusebounds"

    def test_verify_good_structure(self, n5_file, tmp_path, capsys):
        out = tmp_path / "s.json"
        main(["extend", "thm1", "-i", n5_file, "-o", str(out)])
        code = main(["verify", "-i", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        assert "overall: PASS" in captured.out

    def test_verify_reads_stdin(self, monkeypatch, capsys):
        doc = structure_to_doc(chain_residuation(4).structure)
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        assert main(["verify", "-i", "-"]) == 0
        assert "overall: PASS" in capsys.readouterr().out

    def test_verify_bad_structure(self, tmp_path, capsys):
        doc = structure_to_doc(chain_residuation(4).structure)
        doc["odot"]["#c2"]["#c3"] = "#c4"  # break integrality and more
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code = main(["verify", "-i", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert "overall: FAIL" in captured.out

    def test_involutions_builtin(self, capsys):
        code = main(["involutions", "-i", "builtin:n5"])
        captured = capsys.readouterr()
        assert code == 0
        assert "count: 1" in captured.out

    def test_classify_builtin_n5(self, capsys):
        code = main(["classify", "-i", "builtin:n5", "--json"])
        captured = capsys.readouterr()
        assert code == 1  # not distributive
        verdicts = json.loads(captured.out)
        assert verdicts["lattice"] is True
        assert verdicts["distributive"] is False
        assert verdicts["pseudo_kleene"] is False

    def test_classify_kleene6(self, capsys):
        code = main(["classify", "-i", "builtin:kleene6", "--json"])
        captured = capsys.readouterr()
        verdicts = json.loads(captured.out)
        assert verdicts["kleene"] is True

    def test_mine_unsat_exit_one(self, capsys):
        code = main(["mine", "-i", "builtin:n5", "--stats-json"])
        captured = capsys.readouterr()
        assert code == 1
        assert "unsatisfiable" in captured.out

    def test_mine_cube16_any_negation(self, capsys):
        # without the join rule this search ran for minutes
        code = main(["mine", "-i", "builtin:cube16", "--no-require-negation", "--limit", "3", "--stats-json"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("satisfiable: 1 structure(s) found")
        stats = json.loads(out[out.index('{\n  "nodes"'):])
        assert stats["prunes"]["joins"] > 0

    def test_mine_reversed_file_and_its_limit(self, tmp_path, capsys):
        # an element order that is no linear extension is searched
        # relabelled to one, here the builtin's own order: the same tree
        ip = BUILTINS["kleene6"]()
        doc = to_doc(Bundle(ip.poset, ip))
        doc["elements"].reverse()
        path = tmp_path / "kleene6-reversed.json"
        path.write_text(json.dumps(doc))
        stats = []
        for source in ("builtin:kleene6", str(path)):
            assert main(["mine", "-i", source, "--stats-json"]) == 0
            out = capsys.readouterr().out
            assert out.splitlines()[:2] == ["satisfiable: 4 structure(s) found", "--- structure 1 ---"]
            stats.append(json.loads(out[out.index('{\n  "nodes"'):]))
        assert stats[0] == stats[1]
        assert (stats[1]["nodes"], stats[1]["truncated"]) == (45, False)
        # the first line stays as it was; the next says where the search stopped
        assert main(["mine", "-i", str(path), "--limit", "2", "--stats-json"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[:3] == [
            "satisfiable: 2 structure(s) found",
            "search stopped at --limit 2",
            "--- structure 1 ---",
        ]
        assert json.loads(out[out.index('{\n  "nodes"'):])["truncated"] is True

    @pytest.mark.parametrize("limit, stopped", [(19, True), (20, False)])
    def test_mine_stopped_at_the_last_structure(self, capsys, limit, stopped):
        # kleene6 has 19 structures under any negation: a search that stops
        # at its 19th leaf cannot tell whether more exist, so it says only
        # where it stopped
        argv = ["mine", "-i", "builtin:kleene6", "--no-require-negation", "--limit", str(limit)]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "satisfiable: 19 structure(s) found"
        assert (lines[1] == f"search stopped at --limit {limit}") is stopped
        assert lines[1 + stopped] == "--- structure 1 ---"

    def test_unknown_builtin_lists_the_builtins(self, capsys):
        assert main(["mine", "-i", "builtin:nope"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown builtin 'nope'; available: ")
        assert err.count("\n") == 1
        assert all(name in err for name in BUILTINS)

    def test_mine_naive_guard(self, capsys):
        code = main(["mine", "-i", "builtin:n5", "--naive"])
        assert code == 2

    def test_extend_cor1_text(self, capsys):
        code = main(["extend", "cor1", "--n", "5", "--format", "text"])
        captured = capsys.readouterr()
        assert code == 0
        assert "#c5" in captured.out

    def test_extend_cor1_needs_n(self, capsys):
        assert main(["extend", "cor1"]) == 2
        assert capsys.readouterr().err == "error: cor1 needs --n\n"
        assert main(["extend", "cor1", "--n", "2"]) == 2
        assert capsys.readouterr().err == "error: chain construction needs n >= 3, got 2\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["extend", "thm2", "-i", "builtin:n5"],
            ["extend", "thm1"],
            ["extend", "thm2", "-i", "builtin:n5", "--n", "1"],
            ["extend", "thm3", "-i", "builtin:n5", "--n", "2", "--k", "-1"],
            ["extend", "thm5", "-i", "builtin:cube8", "--n", "0"],
            ["mine", "-i", "builtin:n5", "--limit", "0"],
            ["mine", "-i", "builtin:cube2", "--naive", "--limit", "0"],
            ["extend", "cor1", "--n", str(MAX_CARRIER + 1)],
        ],
    )
    def test_missing_or_out_of_range_parameter_exits_two(self, capsys, argv):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_extend_thm3_json(self, tmp_path, capsys):
        doc = {"elements": ["u", "v"], "covers": []}
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        code = main(
            ["extend", "thm3", "-i", str(path), "--n", "2", "--k", "1"]
        )
        captured = capsys.readouterr()
        assert code == 0
        out = json.loads(captured.out)
        assert len(out["elements"]) == 9
        assert "(u,1)" in out["elements"] and "(u,2)" in out["elements"]

    def test_extend_thm5_on_cube(self, capsys):
        code = main(["extend", "thm5", "-i", "builtin:cube8", "--n", "2"])
        captured = capsys.readouterr()
        assert code == 0
        out = json.loads(captured.out)
        assert len(out["elements"]) == 12

    def test_extend_thm5_rejects_non_boolean(self, capsys):
        assert main(["extend", "thm5", "-i", "builtin:n5", "--n", "1"]) == 2

    def test_extend_rejects_input_holding_a_generated_label(self, tmp_path, capsys):
        doc = {"elements": ["#c2", "a"], "covers": [], "involution": {"#c2": "#c2", "a": "a"}}
        path = tmp_path / "clash.json"
        path.write_text(json.dumps(doc))
        assert main(["extend", "thm1", "-i", str(path)]) == 2
        err = capsys.readouterr().err
        assert "theorem1: input label '#c2' is reserved" in err

    def test_show_text_and_dot(self, n5_file, tmp_path, capsys):
        out = tmp_path / "s.json"
        main(["extend", "thm1", "-i", n5_file, "-o", str(out)])
        assert main(["show", "-i", str(out), "--format", "text"]) == 0
        text = capsys.readouterr().out
        assert "⊙" in text and "→" in text
        assert main(["show", "-i", str(out), "--format", "dot"]) == 0
        dot = capsys.readouterr().out
        assert dot.startswith("digraph") and "dashed" in dot

    @pytest.mark.parametrize("fmt", ["json", "text", "csv", "dot"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["cor1", "--n", "5"],
            ["thm1", "-i", "builtin:n5", "--mode", "reusebounds"],
            ["thm5", "-i", "builtin:cube8", "--n", "2"],
        ],
    )
    def test_show_prints_what_extend_prints(self, tmp_path, capsys, argv, fmt):
        saved = tmp_path / "s.json"
        assert main(["extend", *argv, "-o", str(saved)]) == 0
        assert main(["extend", *argv, "--format", fmt]) == 0
        extended = capsys.readouterr().out
        assert main(["show", "-i", str(saved), "--format", fmt]) == 0
        assert capsys.readouterr().out == extended

    @pytest.mark.parametrize(
        "argv",
        [
            ["cor1", "--n", "5"],
            ["thm1", "-i", "builtin:n5"],
            ["thm1", "-i", "builtin:kleene6", "--mode", "reusefour"],
            ["thm2", "-i", "builtin:pseudokleene9", "--n", "2"],
            ["thm3", "-i", "builtin:n5", "--n", "2", "--k", "1"],
            ["lemma2", "-i", "builtin:cube8"],
            ["thm5", "-i", "builtin:cube16", "--n", "2"],
        ],
    )
    def test_extend_json_is_what_json_dumps_writes(self, capsys, argv):
        assert main(["extend", *argv, "--format", "json"]) == 0
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2, ensure_ascii=False) + "\n"

    def test_show_json_is_what_json_dumps_writes(self, tmp_path, capsys):
        assert main(["extend", "thm1", "-i", "builtin:n5", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        doc["provenance"] = {
            "construction": "Łukasiewicz ⊙ → ☃",
            "parameters": {"n": 3, "x": -1.5, "big": 10**20, "none": None, "ok": True},
            "nested": [[1, [2.5, []]], {}, [{"é": ["𝔹", 0]}]],
        }
        path = tmp_path / "provenance.json"
        path.write_text(json.dumps(doc))
        assert main(["show", "-i", str(path), "--format", "json"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out) == doc
        assert out == json.dumps(doc, indent=2, ensure_ascii=False) + "\n"

    def test_show_csv(self, n5_file, capsys):
        assert main(["show", "-i", n5_file, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["involution"]["a"] == "b"

    def test_diff_equal_and_different(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        c = tmp_path / "c.json"
        a.write_text(json.dumps(structure_to_doc(chain_residuation(4).structure)))
        doc = structure_to_doc(chain_residuation(4).structure)
        doc["elements"] = ["w", "x", "y", "z"]
        rename = dict(zip(["#c1", "#c2", "#c3", "#c4"], doc["elements"]))
        doc["covers"] = [[rename[u], rename[v]] for u, v in doc["covers"]]
        doc["unit"] = rename[doc["unit"]]
        for key in ("odot", "arrow"):
            doc[key] = {
                rename[x]: {rename[y]: rename[v] for y, v in row.items()}
                for x, row in doc[key].items()
            }
        b.write_text(json.dumps(doc))
        c.write_text(json.dumps(structure_to_doc(chain_residuation(5).structure)))
        assert main(["diff", str(a), str(b)]) == 0
        assert "structurally equal" in capsys.readouterr().out
        assert main(["diff", str(a), str(c)]) == 1

    def test_missing_file_exit_two(self, capsys):
        assert main(["verify", "-i", "/nonexistent/x.json"]) == 2

    def test_schema_error_exit_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"elements": ["x"], "wat": 1, "covers": []}')
        assert main(["verify", "-i", str(path)]) == 2

    @pytest.mark.parametrize(
        "doc, pointer",
        [
            ({"elements": ["a"], "covers": [], "involution": {"a": ["a"]}}, "/involution/a"),
            ({"elements": ["a", "b"], "covers": [[["a"], "b"]]}, "/covers/0/0"),
            (
                {
                    "elements": ["a"],
                    "covers": [],
                    "unit": "a",
                    "odot": {"a": {"a": ["a"]}},
                    "arrow": {"a": {"a": "a"}},
                },
                "/odot/a/a",
            ),
            ({"elements": ["a", "b"], "covers": [["a", "b"], ["a", ["b"]]]}, "/covers/1/1"),
            ({"elements": ["a", ["b"]], "covers": []}, "/elements/1"),
        ],
    )
    def test_unhashable_label_is_schema_error(self, tmp_path, capsys, doc, pointer):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["show", "-i", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {pointer}: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "text",
        [
            b"[" * 100_000 + b"]" * 100_000,  # nesting past the recursion limit
            b'{"elements": [' + b"9" * 5000 + b'], "covers": []}',  # past the int digit limit
            b'{"elements": ["\xff"], "covers": []}',  # not UTF-8
        ],
        ids=["deep", "huge-int", "not-utf8"],
    )
    def test_undecodable_document_exits_two(self, tmp_path, capsys, text):
        path = tmp_path / "bad.json"
        path.write_bytes(text)
        assert main(["show", "-i", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot decode the document: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "doc, pointer",
        [
            ({"elements": ["a\ud800", "b"], "covers": [["a\ud800", "b"]]}, "/elements/0"),
            ({"elements": ["a", "b"], "covers": [["a", "b"]], "provenance": {"k": "x\udc80"}}, "/provenance"),
        ],
        ids=["high-surrogate-label", "low-surrogate-provenance"],
    )
    @pytest.mark.parametrize(
        "argv",
        [["show", "--format", "json"], ["involutions"], ["extend", "thm3", "--n", "2", "-o", "out.json"]],
        ids=["show", "involutions", "extend-output"],
    )
    def test_lone_surrogate_is_schema_error(self, tmp_path, monkeypatch, capsys, doc, pointer, argv):
        # json reads the escape of a lone surrogate, which no UTF-8 output can hold
        monkeypatch.chdir(tmp_path)
        (tmp_path / "doc.json").write_text(json.dumps(doc))
        assert main([*argv, "-i", "doc.json"]) == 2
        assert capsys.readouterr().err == f"error: {pointer}: a lone surrogate cannot be written as UTF-8\n"
        assert not (tmp_path / "out.json").exists()

    def test_error_with_a_line_break_stays_one_line(self, tmp_path, capsys):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"elements": [], "covers": [], "a\nb": 1}))
        assert main(["show", "-i", str(path)]) == 2
        assert capsys.readouterr().err == "error: /a\\nb: unknown field 'a\\nb'\n"

    def test_bad_involution_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dict(N5_DOC, involution={x: x for x in N5_DOC["elements"]})))
        assert main(["classify", "-i", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: not an antitone involution: antitone: FAIL witness=('0', 'a')\n"
        )

    def test_unexpected_exception_exits_three(self, monkeypatch, capsys):
        def broken(p):
            raise RuntimeError("boom")

        monkeypatch.setattr("resposet.cli.enumerate_antitone_involutions", broken)
        assert main(["involutions", "-i", "builtin:n5"]) == 3
        assert capsys.readouterr().err == "error: internal error (RuntimeError): boom\n"

    @pytest.mark.parametrize(
        "name, fault, message",
        [
            (
                "verify_residuated",
                lambda real: lambda s: VerificationReport((failed("associativity", ("#c2",) * 3),)),
                "verification failed:\\nassociativity: FAIL witness=('#c2', '#c2', '#c2')\\noverall: FAIL",
            ),
            (
                "_negation",
                lambda real: lambda s: np.zeros_like(real(s)),
                "derived negation differs from the involution",
            ),
            (
                "_carrier",
                identity_image,
                "the carrier map is not an antitone involution: antitone: FAIL witness=('#c1', '#c2')",
            ),
        ],
        ids=["verification", "negation", "carrier"],
    )
    def test_construction_fault_exits_three(self, monkeypatch, capsys, name, fault, message):
        # the paper's constructions always verify, so a failed self-check
        # is a package fault, reported as an internal error and never as bad input
        real = getattr(constructions, name)
        monkeypatch.setattr(constructions, name, fault(real))
        assert main(["extend", "cor1", "--n", "5"]) == 3
        assert capsys.readouterr().err == f"error: internal error (InvariantViolation): {message}\n"

    def test_invariant_violation_is_not_an_input_error(self):
        assert not issubclass(InvariantViolation, StructureError)

    def test_classify_scans_distributivity_once(self, monkeypatch, capsys):
        # is_distributive is asked four times: by the builtin factory's
        # recognize_boolean, by cmd_classify, check_pseudo_kleene and recognize_boolean
        prop = Poset.__dict__["_distributivity"]
        scans = []
        scan = prop.func
        monkeypatch.setattr(prop, "func", lambda p: scans.append(p) or scan(p))
        assert main(["classify", "-i", "builtin:cube16"]) == 0
        assert len(scans) == 1

    def test_extend_reduces_the_order_once(self, monkeypatch, tmp_path):
        # past one slab verify_residuated's Galois test reads the covers,
        # and the JSON writer reads the same cached reduction
        prop = Poset.__dict__["_reduction"]
        reductions = []
        reduce = prop.func
        monkeypatch.setattr(prop, "func", lambda p: reductions.append(p) or reduce(p))
        assert main(["extend", "cor1", "--n", "130", "-o", str(tmp_path / "c.json")]) == 0
        assert len(reductions) == 1

    @pytest.mark.parametrize(
        "argv, checks",
        [
            (["mine", "-i", "builtin:kleene6"], 1),  # the builtin's
            (["extend", "thm2", "-i", "builtin:kleene6", "--n", "2"], 2),  # and the carrier's
            (["show", "-i", "builtin:cube16", "--format", "json"], 1),  # the algebra's
            # the algebra's: check_pseudo_kleene's argument is the same map on
            # the same poset, and the builtin already is a BooleanAlgebra
            (["classify", "-i", "builtin:cube16"], 1),
            # the algebra's and the carrier's: the builtin already is a BooleanAlgebra
            (["extend", "thm5", "-i", "builtin:cube8", "--n", "2"], 2),
            # the algebra's: lemma2's carrier is the algebra's own poset
            (["extend", "lemma2", "-i", "builtin:cube8"], 1),
        ],
    )
    def test_each_involution_is_checked_once(self, monkeypatch, capsys, argv, checks):
        # check_antitone_involution evaluates the antitone axiom through
        # involution._antitone, wherever the check is called from
        calls = []
        antitone = involution._antitone
        counted = lambda leq, f: calls.append(f) or antitone(leq, f)  # noqa: E731
        monkeypatch.setattr(involution, "_antitone", counted)
        assert main(argv) == 0
        assert len(calls) == checks

    def test_timings_go_to_stderr_only(self, capsys):
        assert main(["extend", "cor1", "--n", "5"]) == 0
        plain = capsys.readouterr()
        assert main(["extend", "cor1", "--n", "5", "--timings"]) == 0
        timed = capsys.readouterr()
        assert timed.out == plain.out and plain.err == ""
        seconds = json.loads(timed.err)
        assert list(seconds) == ["load", "run", "render", "write"]
        assert all(isinstance(t, float) and t >= 0 for t in seconds.values())
        assert seconds["render"] > 0  # the JSON text is written in the render phase

    def test_full_order_flag(self, tmp_path, capsys):
        p = n5()
        doc = {
            "elements": list(p.elements),
            "covers": [
                [x, y] for x in p.elements for y in p.elements if p.leq(x, y)
            ],
        }
        path = tmp_path / "full.json"
        path.write_text(json.dumps(doc))
        code = main(["involutions", "-i", str(path)])
        assert code == 0
        assert "count: 1" in capsys.readouterr().out


# Documents for the fuzz test: any JSON value, and documents close to the
# schema (labels from a small pool, fields that may be missing, mistyped or
# inconsistent).
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
LABELS = st.sampled_from(["0", "a", "b", "c", "1"])
ODD_LABELS = st.sampled_from(["#c1", "#x", ""])  # a generated label, a reserved one, the empty one


@st.composite
def near_schema(draw):
    def often():  # three times in four: keep this part of the document well formed
        return draw(st.integers(0, 3)) > 0

    labels = LABELS if often() else LABELS | ODD_LABELS
    elements = draw(st.lists(labels, min_size=often(), max_size=5, unique=often()))
    pool = st.sampled_from(elements) if elements else LABELS
    label = pool if often() else pool | ODD_LABELS | JSON_VALUES
    chain = [[x, y] for x, y in zip(elements, elements[1:])]
    if draw(st.booleans()):  # the whole order of the chain, reflexive pairs included
        chain = [[x, y] for i, x in enumerate(elements) for y in elements[i:]]
    covers = st.lists(st.lists(label, min_size=2, max_size=2), max_size=5)
    doc = {"elements": elements, "covers": chain if often() else draw(covers)}
    if draw(st.booleans()):
        reverse = dict(zip(elements, reversed(elements)))  # antitone on a chain
        doc["involution"] = reverse if often() else draw(st.dictionaries(pool, label, max_size=5))
    if draw(st.booleans()):
        row = st.fixed_dictionaries({x: label for x in elements})
        tables = st.fixed_dictionaries({x: row for x in elements})
        if not often():
            tables = st.dictionaries(pool, row | st.dictionaries(pool, label))
        doc.update(unit=draw(label), odot=draw(tables), arrow=draw(tables))
    if not often():
        doc[draw(st.sampled_from(["provenance", "unit", "covers", "extra"]))] = draw(JSON_VALUES)
    return doc


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(st.one_of(JSON_VALUES, near_schema()), st.booleans())
def test_any_document_exits_zero_one_or_two(tmp_path, capsys, doc, timings):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    for argv in (
        ["show", "-i"],
        ["verify", "-i"],
        ["involutions", "-i"],
        ["classify", "-i"],
        ["mine", "-i"],
        ["extend", "thm1", "-i"],
        ["diff", str(path)],
    ):
        code = main([*argv, str(path)] + ["--timings"] * timings)
        err = capsys.readouterr().err
        assert code in (0, 1, 2), (argv, err)
        assert err.count("\n") == (code == 2) + timings  # the error line, the timings line
