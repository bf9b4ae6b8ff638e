import random
from itertools import permutations

import numpy as np
import pytest

from resposet import (
    Involution,
    InvolutedPoset,
    check_antitone_involution,
    enumerate_antitone_involutions,
    involuted,
    involution_from_mapping,
)
from resposet import involution
from resposet.catalog import involuted_posets_up_to_size, posets_up_to_size
from resposet.constructions import ExtensionMode, extend_theorem1
from resposet.errors import InvalidInvolution, UnknownLabel
from resposet.fixtures import chain, n5, n5_involuted
from resposet.order import Poset, poset_from_covers


def naive_involutions(p):
    """Oracle: filter all |P|! bijections for self-inverse + antitone."""
    els = p.elements
    found = []
    for perm in permutations(els):
        f = dict(zip(els, perm))
        if any(f[f[x]] != x for x in els):
            continue
        if any(
            p.leq(x, y) and not p.leq(f[y], f[x]) for x in els for y in els
        ):
            continue
        found.append(tuple(f[x] for x in els))
    return sorted(set(found))


class TestCheck:
    def test_n5_unique_involution_passes(self):
        report = check_antitone_involution(
            n5(), {"0": "1", "a": "b", "b": "a", "c": "c", "1": "0"}
        )
        assert report.overall

    def test_identity_on_n5_fails_antitone(self):
        report = check_antitone_involution(
            n5(), {x: x for x in n5().elements}
        )
        assert report.check("involutive").passed
        antitone = report.check("antitone")
        assert not antitone.passed
        # the witness replays: x <= y but y' = y is not below x' = x
        x, y = antitone.witness
        p = n5()
        assert p.leq(x, y) and not p.leq(y, x)

    def test_two_chain_swap_passes(self):
        p = chain(2)
        assert check_antitone_involution(p, {"e1": "e2", "e2": "e1"}).overall

    def test_map_outside_carrier(self):
        with pytest.raises(UnknownLabel):
            check_antitone_involution(chain(2), {"e1": "zz", "e2": "e1"})

    def test_partial_map_rejected(self):
        with pytest.raises(UnknownLabel):
            check_antitone_involution(chain(2), {"e1": "e2"})

    @pytest.mark.parametrize(
        "mapping, message",
        [
            ({"zz": "e2", "e1": "yy", "e2": "e1"}, "involution key 'zz' is not an element"),
            ({"e1": "yy", "zz": "e2", "e2": "e1"}, "involution value 'yy' is not an element"),
            ({"e1": "zz", "e2": "e1"}, "involution value 'zz' is not an element"),
            ({"e1": ["e2"], "e2": "e1"}, "involution value ['e2'] is not an element"),
            ({"e4": "e1", "e2": "e3"}, "involution is not total; missing 'e1'"),
        ],
        ids=["unknown-key-first", "unknown-value-first", "unknown-value", "unhashable-value", "partial"],
    )
    def test_mapping_reports_its_first_flaw(self, mapping, message):
        # each map leaves elements of the 4-chain out, so totality is checked last
        with pytest.raises(UnknownLabel) as info:
            involution_from_mapping(chain(4), mapping)
        assert str(info.value) == message

    @pytest.mark.parametrize("check", [check_antitone_involution, involuted])
    def test_unhashable_value_is_an_unknown_label(self, check):
        with pytest.raises(UnknownLabel, match=r"^involution value \['e2'\] is not an element$"):
            check(chain(2), {"e1": ["e2"], "e2": "e1"})

    @pytest.mark.parametrize(
        "elements, image",
        [(("f1", "f2"), (1, 0)), (("e1", "e2"), (2, 0)), (("e1", "e2"), (-1, 0)), (("e1", "e2"), (1,))],
        ids=["other-carrier", "past-the-end", "negative", "short"],
    )
    def test_image_off_the_carrier_rejected(self, elements, image):
        with pytest.raises(UnknownLabel):
            check_antitone_involution(chain(2), Involution(elements, image))

    def test_empty_carrier_has_the_empty_involution(self):
        p = Poset((), np.zeros((0, 0), dtype=bool))
        assert check_antitone_involution(p, Involution((), ())).overall
        with pytest.raises(UnknownLabel):
            check_antitone_involution(p, Involution((), (0,)))

    def test_mapping_is_a_fresh_copy(self):
        inv = n5_involuted().involution
        pairs = inv.pairs
        mapping = inv.mapping
        assert mapping == dict(pairs)
        mapping["a"] = "changed"
        mapping["extra"] = "a"
        assert inv.pairs == pairs and inv.mapping == dict(pairs)
        assert inv("a") == "b"

    def test_involuted_poset_rejects_bad_map(self):
        with pytest.raises(InvalidInvolution):
            involuted(n5(), {x: x for x in n5().elements})


class TestEnumeration:
    def test_n5_exactly_one(self):
        found = enumerate_antitone_involutions(n5())
        assert len(found) == 1
        assert found[0].mapping == {"0": "1", "a": "b", "b": "a", "c": "c", "1": "0"}

    def test_diamond_exactly_two(self):
        p = poset_from_covers(
            ["0", "a", "b", "1"], [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")]
        )
        found = enumerate_antitone_involutions(p)
        assert len(found) == 2
        maps = [inv.mapping for inv in found]
        assert {"0": "1", "a": "a", "b": "b", "1": "0"} in maps
        assert {"0": "1", "a": "b", "b": "a", "1": "0"} in maps

    def test_three_chain_forced(self):
        found = enumerate_antitone_involutions(chain(3))
        assert len(found) == 1
        assert found[0].mapping == {"e1": "e3", "e2": "e2", "e3": "e1"}

    @pytest.mark.parametrize("n", range(1, 13))
    def test_chains_have_exactly_one(self, n):
        p = chain(n)
        found = enumerate_antitone_involutions(p)
        assert len(found) == 1
        inv = found[0]
        if n % 2 == 1:
            mid = p.elements[n // 2]
            assert inv(mid) == mid

    def test_matches_naive_oracle(self, small_posets):
        for p in small_posets:
            if len(p) > 6:
                continue
            got = [
                tuple(inv(x) for x in p.elements)
                for inv in enumerate_antitone_involutions(p)
            ]
            assert got == naive_involutions(p)
            assert got == sorted(got)  # lexicographic output order

    def test_enumerated_maps_swap_bounds(self, small_posets):
        for p in small_posets:
            bottom, top = p.bounds()
            for inv in enumerate_antitone_involutions(p):
                assert check_antitone_involution(p, inv).overall
                if bottom is not None and top is not None:
                    assert inv(bottom) == top and inv(top) == bottom

    @pytest.mark.parametrize("seed", [0, 1])
    def test_same_maps_on_a_shuffled_order(self, seed):
        # the involutions found are label maps, whatever order the elements
        # are listed in
        count = 0
        for p in posets_up_to_size(5):
            q = p.relisted(random.Random(seed).sample(range(len(p)), len(p)))
            want = [inv.mapping for inv in enumerate_antitone_involutions(p)]
            got = [inv.mapping for inv in enumerate_antitone_involutions(q)]
            assert len(got) == len(want) and all(m in want for m in got)
            count += len(want)
        assert count == 82


class TestInvolutedPoset:
    def test_valid_construction(self):
        ip = involuted(n5(), {"0": "1", "a": "b", "b": "a", "c": "c", "1": "0"})
        assert isinstance(ip, InvolutedPoset)
        assert ip.involution("c") == "c"

    def test_mapping_helpers(self):
        p = chain(2)
        inv = involution_from_mapping(p, {"e1": "e2", "e2": "e1"})
        assert inv.mapping == {"e1": "e2", "e2": "e1"}
        assert inv("e1") == "e2"

    def test_stored_as_index_image(self):
        inv = n5_involuted().involution
        assert (inv.elements, inv.image) == (n5().elements, (4, 2, 1, 3, 0))
        assert inv.pairs == (("0", "1"), ("a", "b"), ("b", "a"), ("c", "c"), ("1", "0"))
        assert str(inv) == "{0->1, a->b, b->a, c->c, 1->0}"
        assert inv == enumerate_antitone_involutions(n5())[0]
        with pytest.raises(UnknownLabel):
            inv("zz")


N5_MAP = {"0": "1", "a": "b", "b": "a", "c": "c", "1": "0"}


class TestCheckedOncePerPoset:
    """check_antitone_involution keeps each report on the poset object, keyed by image."""

    @pytest.fixture
    def evaluations(self, monkeypatch):
        # every evaluation of the axioms goes through involution._antitone
        calls = []
        antitone = involution._antitone
        monkeypatch.setattr(
            involution, "_antitone", lambda leq, f: calls.append(f.tolist()) or antitone(leq, f)
        )
        return calls

    def test_repeat_check_returns_the_same_report(self, evaluations):
        p = n5()
        inv = involution_from_mapping(p, N5_MAP)
        report = check_antitone_involution(p, inv)
        assert check_antitone_involution(p, inv) is report
        assert InvolutedPoset(p, inv).involution is inv
        assert evaluations == [list(inv.image)]

    def test_second_image_is_evaluated(self, evaluations):
        p = poset_from_covers(
            ["0", "a", "b", "1"], [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")]
        )
        first, second = enumerate_antitone_involutions(p)
        assert evaluations == [list(first.image), list(second.image)]
        assert check_antitone_involution(p, first) is not check_antitone_involution(p, second)
        assert len(evaluations) == 2

    def test_equal_but_distinct_poset_is_evaluated(self, evaluations):
        p, q = n5(), n5()
        inv = involution_from_mapping(p, N5_MAP)
        assert p == q and p is not q
        assert check_antitone_involution(p, inv) == check_antitone_involution(q, inv)
        assert len(evaluations) == 2

    def test_failing_map_raises_the_same_message_every_time(self, evaluations):
        p = n5()
        identity = {x: x for x in p.elements}
        messages = []
        for _ in range(3):
            with pytest.raises(InvalidInvolution) as info:
                involuted(p, identity)
            messages.append(str(info.value))
        assert messages == ["not an antitone involution: antitone: FAIL witness=('0', 'a')"] * 3
        assert len(evaluations) == 1

    def test_mapping_reuses_the_entry_an_involution_left(self, evaluations):
        p = n5()
        inv = involution_from_mapping(p, N5_MAP)
        report = check_antitone_involution(p, inv)
        assert check_antitone_involution(p, inv.mapping) is report
        assert involuted(p, inv.mapping).involution == inv
        assert len(evaluations) == 1

    def test_off_carrier_image_is_rejected_after_a_check(self, evaluations):
        p = chain(2)
        assert check_antitone_involution(p, Involution(p.elements, (1, 0))).overall
        with pytest.raises(UnknownLabel):
            check_antitone_involution(p, Involution(("f1", "f2"), (1, 0)))
        assert len(evaluations) == 1

    def test_census_flow_evaluates_each_pair_once(self, evaluations):
        # a census request on one catalog pair: the pair as an InvolutedPoset,
        # its Theorem-1 extension (which checks its own fresh carrier) and the
        # extension as an InvolutedPoset
        pairs = involuted_posets_up_to_size(5)
        assert len(pairs) == 82 and len(evaluations) == 82  # the enumeration's own checks
        for p, inv in pairs:
            result = extend_theorem1(InvolutedPoset(p, inv), ExtensionMode.ADD_FOUR)
            InvolutedPoset(result.poset, result.involution)
        assert len(evaluations) == 2 * 82
