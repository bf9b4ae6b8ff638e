from itertools import permutations

import pytest

from resposet import (
    Involution,
    InvolutedPoset,
    check_antitone_involution,
    enumerate_antitone_involutions,
    involuted,
    involution_from_mapping,
)
from resposet.errors import InvalidInvolution, UnknownLabel
from resposet.fixtures import chain, n5, n5_involuted
from resposet.order import poset_from_covers


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
        "elements, image",
        [(("f1", "f2"), (1, 0)), (("e1", "e2"), (2, 0)), (("e1", "e2"), (-1, 0)), (("e1", "e2"), (1,))],
        ids=["other-carrier", "past-the-end", "negative", "short"],
    )
    def test_image_off_the_carrier_rejected(self, elements, image):
        with pytest.raises(UnknownLabel):
            check_antitone_involution(chain(2), Involution(elements, image))

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
