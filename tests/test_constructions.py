import inspect
import random
import sys
import tracemalloc
from itertools import permutations

import numpy as np
import pytest

from resposet import (
    ExtensionMode,
    InvolutedPoset,
    boolean_residuation,
    chain_residuation,
    check_integrality,
    check_lemma1,
    derived_negation,
    extend_boolean_theorem5,
    extend_theorem1,
    extend_theorem2,
    extend_theorem3,
    find_residuations,
    involuted,
    structural_equal,
    verify_residuated,
)
from resposet.catalog import involuted_posets_up_to_size, posets_up_to_size
from resposet.constructions import MAX_CARRIER
from resposet.errors import CarrierTooLarge, ModeUnsatisfiable, NTooSmall
from resposet.fixtures import (
    BUILTINS,
    antichain,
    chain_involuted,
    cube_boolean,
    letter_cube_boolean,
    n5,
    kleene_six_involuted,
    n5_involuted,
    pseudo_kleene_nine_involuted,
)
from resposet.order import Poset, poset_from_covers
from resposet.residuation import ResiduatedStructure


def parse_table(text, relabel):
    rows = [line.split() for line in text.strip().splitlines()]
    return [[relabel.get(cell, cell) for cell in row] for row in rows]


# The 7x7 tables of the worked pentagon example; element order
# 0, c2, a, b, c, c3, 1 maps onto #c1, 0, a, b, c, 1, #c4 here
# (the input's own bounds play the inner chain pair).
PENTAGON_RELABEL = {"z": "#c1", "c2": "0", "c3": "1", "t": "#c4"}
PENTAGON_ODOT = """
z z z z z z z
z z z z z z c2
z z z z c2 c2 a
z z z c2 c2 c2 b
z z c2 c2 z c2 c
z z c2 c2 c2 c2 c3
z c2 a b c c3 t
"""
PENTAGON_ARROW = """
t t t t t t t
c3 t t t t t t
b c3 t t c3 t t
a c3 c3 t c3 t t
c c3 c3 c3 t t t
c2 c3 c3 c3 c3 t t
z c2 a b c c3 t
"""

# The 5x5 residuated chain tables; order 0, c2, c3, c4, 1 -> #c1..#c5.
CHAIN5_RELABEL = {"z": "#c1", "c2": "#c2", "c3": "#c3", "c4": "#c4", "t": "#c5"}
CHAIN5_ODOT = """
z z z z z
z z z z c2
z z z c2 c3
z z c2 c2 c4
z c2 c3 c4 t
"""
CHAIN5_ARROW = """
t t t t t
c4 t t t t
c3 c4 t t t
c2 c4 c4 t t
z c2 c3 c4 t
"""

# The 12x12 tables of the Boolean-extension example (8-element algebra,
# two fresh elements below and above); order 0, c2, p, a, b, c, a', b',
# c', q, c3, 1 -> #c1, #c2, p, a, b, c, a', b', c', q, #c3, #c4.
CUBE12_RELABEL = {"z": "#c1", "c2": "#c2", "c3": "#c3", "t": "#c4"}
CUBE12_ODOT = """
z z z z z z z z z z z z
z z z z z z z z z z z c2
z z z z z z z z z z p p
z z z a z z z a a a a a
z z z z b z b z b b b b
z z z z z c c c z c c c
z z z z b c a' c b a' a' a'
z z z a z c c b' a b' b' b'
z z z a b z b a c' c' c' c'
z z z a b c a' b' c' q q q
z z p a b c a' b' c' q c3 c3
z c2 p a b c a' b' c' q c3 t
"""
CUBE12_ARROW = """
t t t t t t t t t t t t
c3 t t t t t t t t t t t
q q t t t t t t t t t t
a' a' a' t a' a' a' t t t t t
b' b' b' b' t b' t b' t t t t
c' c' c' c' c' t t t c' t t t
a a a a c' b' t b' c' t t t
b b b c' b a' a' t c' t t t
c c c b' a' c a' b' t t t t
p p p a b c a' b' c' t t t
c2 c2 p a b c a' b' c' q t t
z c2 p a b c a' b' c' q c3 t
"""


def assert_tables_match(structure, odot_text, arrow_text, relabel):
    for which, text in (("odot", odot_text), ("arrow", arrow_text)):
        expected = parse_table(text, relabel)
        els = structure.elements
        assert len(expected) == len(els)
        getter = structure.odot_of if which == "odot" else structure.arrow_of
        for i, x in enumerate(els):
            for j, y in enumerate(els):
                assert getter(x, y) == expected[i][j], (which, x, y)


def full_checks(result):
    s = result.structure
    assert verify_residuated(s).overall
    assert check_lemma1(s).overall
    assert check_integrality(s).overall
    assert derived_negation(s) == result.involution.mapping


class TestTheorem1:
    def test_pentagon_reuse_bounds_matches_reference_tables(self):
        res = extend_theorem1(n5_involuted(), ExtensionMode.REUSE_BOUNDS)
        assert res.structure.elements == ("#c1", "0", "a", "b", "c", "1", "#c4")
        assert_tables_match(res.structure, PENTAGON_ODOT, PENTAGON_ARROW, PENTAGON_RELABEL)
        full_checks(res)

    def test_add_four_on_pentagon(self):
        res = extend_theorem1(n5_involuted())
        assert len(res.structure.poset) == 9
        full_checks(res)

    def test_empty_poset_gives_four_chain(self):
        from resposet.order import poset_from_covers

        empty = involuted(poset_from_covers([], []), {})
        res = extend_theorem1(empty)
        assert res.structure.poset.is_chain()
        assert len(res.structure.poset) == 4
        assert structural_equal(res.structure, chain_residuation(4).structure)

    def test_reuse_four(self):
        # the pentagon extension itself carries the a < b <= x <= c < d frame
        seven = extend_theorem1(n5_involuted(), ExtensionMode.REUSE_BOUNDS)
        ip = involuted(seven.structure.poset, seven.involution)
        res = extend_theorem1(ip, ExtensionMode.REUSE_FOUR)
        assert res.structure.poset == seven.structure.poset  # nothing adjoined
        assert res.structure == seven.structure
        full_checks(res)

    def test_reuse_bounds_needs_bounds(self):
        ip = involuted(antichain(2), {"u1": "u2", "u2": "u1"})
        with pytest.raises(ModeUnsatisfiable):
            extend_theorem1(ip, ExtensionMode.REUSE_BOUNDS)

    def test_reuse_four_needs_frame(self):
        with pytest.raises(ModeUnsatisfiable, match="interior has no least/greatest element"):
            extend_theorem1(n5_involuted(), ExtensionMode.REUSE_FOUR)

    @pytest.mark.parametrize(
        "n, message", [(2, "needs interior elements b and c"), (1, "needs distinct bounds")]
    )
    def test_reuse_four_needs_a_four_chain_frame(self, n, message):
        with pytest.raises(ModeUnsatisfiable, match=message):
            extend_theorem1(chain_involuted(n), ExtensionMode.REUSE_FOUR)

    def test_interior_zero_iff_below_complement(self, involuted_corpus):
        for ip in involuted_corpus[:30]:
            res = extend_theorem1(ip)
            s = res.structure
            inv = res.involution
            zero, one = s.poset.bounds()
            for a in s.elements:
                for b in s.elements:
                    assert (s.odot_of(a, b) == zero) == s.poset.leq(a, inv(b))
                    assert (s.arrow_of(a, b) == one) == s.poset.leq(a, b)

    def test_embedding_is_order_embedding(self, involuted_corpus):
        for ip in involuted_corpus[:30]:
            res = extend_theorem1(ip)
            e = res.embedding
            p, q = ip.poset, res.structure.poset
            for x in p.elements:
                for y in p.elements:
                    assert p.leq(x, y) == q.leq(e[x], e[y])

    def test_involution_restricts_to_original(self, involuted_corpus):
        for ip in involuted_corpus[:30]:
            res = extend_theorem1(ip)
            for x in ip.poset.elements:
                assert res.involution(res.embedding[x]) == res.embedding[ip.involution(x)]

    def test_lattice_preserved(self):
        for ip in (n5_involuted(), chain_involuted(4)):
            assert ip.poset.is_lattice()
            assert extend_theorem1(ip).structure.poset.is_lattice()


class TestChainResiduation:
    def test_five_chain_matches_reference_tables(self):
        res = chain_residuation(5)
        assert_tables_match(res.structure, CHAIN5_ODOT, CHAIN5_ARROW, CHAIN5_RELABEL)
        full_checks(res)

    def test_three_chain(self):
        res = chain_residuation(3)
        s = res.structure
        assert s.odot_of("#c2", "#c2") == "#c1"
        assert s.arrow_of("#c2", "#c1") == "#c2"
        full_checks(res)

    def test_four_chain_equals_theorem1_on_empty(self):
        empty = involuted(poset_from_covers([], []), {})
        a = chain_residuation(4).structure
        b = extend_theorem1(empty).structure
        assert a == b

    def test_n_too_small(self):
        with pytest.raises(NTooSmall):
            chain_residuation(2)


class TestTheorem2:
    def test_n2_equals_theorem1_add_four(self, involuted_corpus):
        for ip in involuted_corpus[:30] + [n5_involuted()]:
            a = extend_theorem2(ip, 2).structure
            b = extend_theorem1(ip).structure
            assert a == b

    def test_singleton_n3_is_seven_chain(self):
        single = involuted(poset_from_covers(["e"], []), {"e": "e"})
        res = extend_theorem2(single, 3)
        assert len(res.structure.poset) == 7
        assert res.structure.poset.is_chain()
        full_checks(res)

    def test_original_products_stay_low(self):
        res = extend_theorem2(n5_involuted(), 3)
        s = res.structure
        for x in n5().elements:
            for y in n5().elements:
                assert s.odot_of(x, y) in ("#c1", "#c2")

    def test_n_too_small(self):
        with pytest.raises(NTooSmall):
            extend_theorem2(n5_involuted(), 1)


class TestTheorem3:
    def test_two_antichain(self):
        res = extend_theorem3(antichain(2), 2, 1)
        s = res.structure
        assert len(s.poset) == 9
        assert s.odot_of("(u1,1)", "(u2,1)") == "#c1"
        assert s.odot_of("(u1,2)", "(u2,2)") == "#c2"
        full_checks(res)

    def test_singleton_k0(self):
        single = poset_from_covers(["x"], [])
        res = extend_theorem3(single, 2, 0)
        assert len(res.structure.poset) == 6
        assert res.involution("(x,1)") == "(x,2)"
        full_checks(res)

    def test_two_chain_arrow_between_copies(self):
        p = poset_from_covers(["u", "v"], [("u", "v")])
        res = extend_theorem3(p, 2, 2)
        s = res.structure
        for x in ("u", "v"):
            for y in ("u", "v"):
                assert s.arrow_of(f"({x},1)", f"({y},2)") == "#c6"  # the top
        full_checks(res)

    def test_dual_copy_order(self):
        p = poset_from_covers(["u", "v"], [("u", "v")])
        res = extend_theorem3(p, 2, 1)
        q = res.structure.poset
        assert q.leq("(u,1)", "(v,1)")
        assert q.leq("(v,2)", "(u,2)")
        assert q.leq("(v,1)", "(v,2)")

    def test_small_corpus(self, small_posets):
        for p in small_posets[:10]:
            for n in (2, 3):
                for k in (0, 1, 2):
                    full_checks(extend_theorem3(p, n, k))

    def test_n_too_small(self):
        with pytest.raises(NTooSmall):
            extend_theorem3(antichain(2), 1, 0)
        with pytest.raises(NTooSmall):
            extend_theorem3(antichain(2), 2, -1)


class TestBooleanResiduation:
    def test_cube_arrow_values(self):
        B = letter_cube_boolean()
        s = boolean_residuation(B)
        # a -> b = a' v b = a' because b <= a'
        assert B.lattice.leq("b", "a'")
        assert s.arrow_of("a", "b") == "a'"
        for x in B.elements:
            assert s.arrow_of(x, x) == B.top
        assert verify_residuated(s).overall

    def test_two_element(self):
        B = cube_boolean(1)
        s = boolean_residuation(B)
        for x in B.elements:
            for y in B.elements:
                assert s.odot_of(x, y) == B.lattice.meet(x, y)
        assert verify_residuated(s).overall

    def test_lemma1_on_all_cubes(self):
        for k in (1, 2, 3, 4):
            s = boolean_residuation(cube_boolean(k))
            assert verify_residuated(s).overall
            assert check_lemma1(s).overall
            assert derived_negation(s) == cube_boolean(k).complement.mapping


class TestTheorem5:
    def test_twelve_element_tables(self):
        res = extend_boolean_theorem5(letter_cube_boolean(), 2)
        assert res.structure.elements == (
            "#c1", "#c2", "p", "a", "b", "c", "a'", "b'", "c'", "q", "#c3", "#c4"
        )
        assert_tables_match(res.structure, CUBE12_ODOT, CUBE12_ARROW, CUBE12_RELABEL)
        full_checks(res)
        assert res.structure.poset.is_lattice()

    def test_restriction_law(self):
        for k in (1, 2, 3, 4):
            B = cube_boolean(k)
            for n in (1, 2, 3):
                res = extend_boolean_theorem5(B, n)
                s = res.structure
                L = B.lattice
                comp = B.complement
                for x in B.elements:
                    for y in B.elements:
                        meet = L.meet(x, y)
                        expect = "#c1" if meet == B.bottom else meet
                        assert s.odot_of(x, y) == expect
                        join = L.join(comp(x), y)
                        expect = f"#c{2 * n}" if join == B.top else join
                        assert s.arrow_of(x, y) == expect

    def test_arrow_to_zero_is_involution(self):
        res = extend_boolean_theorem5(letter_cube_boolean(), 2)
        s = res.structure
        for x in s.elements:
            assert s.arrow_of(x, "#c1") == res.involution(x)

    def test_n_too_small(self):
        with pytest.raises(NTooSmall):
            extend_boolean_theorem5(letter_cube_boolean(), 0)


class TestCarrierLimit:
    # each request asks for the smallest carrier above the limit: MAX_CARRIER + 1,
    # or + 2 where the carrier size has the other parity
    @pytest.mark.parametrize(
        "build",
        [
            lambda: chain_residuation(MAX_CARRIER + 1),
            lambda: extend_theorem2(n5_involuted(), (MAX_CARRIER - 4) // 2),  # 2n + 5
            lambda: extend_theorem3(antichain(2), 2, MAX_CARRIER - 7),  # 2n + k + 4
            lambda: extend_boolean_theorem5(letter_cube_boolean(), MAX_CARRIER // 2 - 3),  # 2n + 8
        ],
        ids=["cor1", "thm2", "thm3", "thm5"],
    )
    def test_rejected_before_any_array(self, build):
        tracemalloc.start()
        try:
            with pytest.raises(CarrierTooLarge, match=f"exceed the limit {MAX_CARRIER}"):
                build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000  # the carrier's leq matrix alone would take 1 MB

    def test_limit_itself_is_built(self):
        assert len(chain_residuation(MAX_CARRIER, verify=False).poset) == MAX_CARRIER


def _ordinal_sum_leq(labels, p, gaps):
    """leq of gaps[0] < copy < gaps[1] [< dual copy < gaps[2]], read off the labels.

    #ci lies in the gap that lists i and #ci <= #cj there iff i <= j; (x, t)
    lies in copy t, ordered by p for t = 1 and by its dual for t = 2; any
    other label is p's own, in the single copy.
    """
    tagged = {f"({x},{t})": (x, t) for x in p.elements for t in (1, 2)} if len(gaps) == 3 else {}

    def place(label):
        """(block, within-block key), blocks numbered bottom-up."""
        if label.startswith("#c"):
            i = int(label[2:])
            return next(2 * g for g, gap in enumerate(gaps) if i in gap), i
        x, t = tagged.get(label, (label, 1))
        return 2 * t - 1, (x, t)

    def within(a, b):
        if isinstance(a, int):
            return a <= b
        (x, t), (y, _) = a, b
        return p.leq(x, y) if t == 1 else p.leq(y, x)

    places = [place(label) for label in labels]
    return np.array(
        [[bx < by or (bx == by and within(kx, ky)) for by, ky in places] for bx, kx in places]
    )


def _carrier_cases():
    """(construction id, built carrier, input poset, gaps) for every _carrier caller."""
    involuted_inputs = [InvolutedPoset(p, inv) for p, inv in involuted_posets_up_to_size(4)]
    involuted_inputs += [n5_involuted(), kleene_six_involuted(), pseudo_kleene_nine_involuted()]

    def thm2_gaps(n):
        return range(1, n + 1), range(n + 1, 2 * n + 1)

    for index, ip in enumerate(involuted_inputs):
        p = ip.poset
        yield f"thm1-addfour-{index}", extend_theorem1(ip, verify=False), p, thm2_gaps(2)
        if None not in p.bounds():
            reuse = extend_theorem1(ip, ExtensionMode.REUSE_BOUNDS, verify=False)
            yield f"thm1-reusebounds-{index}", reuse, p, ((1,), (4,))
        for n in (2, 3):
            yield f"thm2-n{n}-{index}", extend_theorem2(ip, n, verify=False), p, thm2_gaps(n)
    for index, p in enumerate(posets_up_to_size(4)):
        for n, k in ((2, 0), (2, 1)):
            gaps = range(1, n + 1), range(n + 1, n + k + 1), range(n + k + 1, 2 * n + k + 1)
            yield f"thm3-n{n}-k{k}-{index}", extend_theorem3(p, n, k, verify=False), p, gaps
    empty = Poset((), np.zeros((0, 0), dtype=bool))
    for n in range(3, 7):
        yield f"cor1-n{n}", chain_residuation(n, verify=False), empty, (range(1, n + 1), ())
    for name in ("cube4", "cube8"):
        B = BUILTINS[name]()
        for n in (1, 2):
            result = extend_boolean_theorem5(B, n, verify=False)
            yield f"thm5-{name}-n{n}", result, B.lattice, thm2_gaps(n)


class TestCarrierIsOrdinalSum:
    def test_every_carrier_is_the_ordinal_sum(self):
        cases = list(_carrier_cases())
        assert len(cases) > 100
        for case, result, p, gaps in cases:
            q = result.poset
            expected = len(p) * (len(gaps) - 1) + sum(map(len, gaps))
            assert len(set(q.elements)) == len(q) == expected, case
            assert np.array_equal(q.leq_matrix, _ordinal_sum_leq(q.elements, p, gaps)), case


class TestStructuralEquality:
    def test_relabeled_chains_equal(self):
        a = chain_residuation(5).structure
        res = chain_residuation(5)
        # rebuild with different labels via serialization-free relabeling
        from resposet.order import chain_poset
        from resposet import structure_from_tables

        labels = ["v1", "v2", "v3", "v4", "v5"]
        rename = dict(zip(a.elements, labels))
        p2 = chain_poset(labels)
        odot = {
            rename[x]: {rename[y]: rename[a.odot_of(x, y)] for y in a.elements}
            for x in a.elements
        }
        arrow = {
            rename[x]: {rename[y]: rename[a.arrow_of(x, y)] for y in a.elements}
            for x in a.elements
        }
        b = structure_from_tables(p2, rename[a.unit], odot, arrow)
        assert structural_equal(a, b)
        assert structural_equal(a, b, fixed={"#c1": "v1"})
        assert not structural_equal(a, chain_residuation(4).structure)

    def test_different_structures_differ(self):
        a = extend_theorem1(n5_involuted(), ExtensionMode.REUSE_BOUNDS).structure
        b = chain_residuation(7).structure
        assert not structural_equal(a, b)

    def test_carrier_deeper_than_the_recursion_limit(self):
        # the isomorphism search descends one level per element
        s = chain_residuation(300, verify=False).structure
        depth = len(inspect.stack())
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 100)
        try:
            assert structural_equal(s, s)
        finally:
            sys.setrecursionlimit(limit)


def _relabel(s, seed):
    """s with every label x renamed to "r" + x and the element order shuffled."""
    order = np.random.default_rng(seed).permutation(len(s.elements))
    new_index = np.argsort(order)
    grid = np.ix_(order, order)
    p = Poset(tuple("r" + s.elements[i] for i in order), s.poset.leq_matrix[grid].copy())
    return ResiduatedStructure(p, "r" + s.unit, new_index[s.odot[grid]], new_index[s.arrow[grid]])


def _brute_equal(s1, s2, fixed):
    """Oracle: some permutation of all n! maps order, unit, pins and both tables."""
    perms = np.array(list(permutations(range(len(s1.elements)))))
    grid = (perms[:, :, None], perms[:, None, :])
    ok = (s1.poset.leq_matrix == s2.poset.leq_matrix[grid]).all(axis=(1, 2))
    for a, b in {s1.unit: s2.unit, **fixed}.items():
        ok &= perms[:, s1.poset.index(a)] == s2.poset.index(b)
    for t1, t2 in ((s1.odot, s2.odot), (s1.arrow, s2.arrow)):
        ok &= (perms[:, t1] == t2[grid]).all(axis=(1, 2))
    return bool(ok.any()), int(ok.sum())


class TestStructuralEqualAgainstPermutations:
    def test_kleene6_any_negation_structures(self):
        structures = find_residuations(
            kleene_six_involuted(), require_negation=False, limit=100
        ).structures
        assert len(structures) == 19
        rng = random.Random(5)
        verdicts, automorphic = set(), 0
        for i, a in enumerate(structures):
            for j, b in enumerate(structures):
                b = _relabel(b, 100 * i + j)
                x, y = rng.choice(a.elements), rng.choice(a.elements)
                for fixed in ({}, {a.unit: b.unit}, {x: "r" + x}, {x: "r" + y}):
                    expected, count = _brute_equal(a, b, fixed)
                    assert structural_equal(a, b, fixed=fixed) == expected, (i, j, fixed)
                    verdicts.add(expected)
                    automorphic += count > 1
                z = next(e for e in a.elements if e != x)
                assert not structural_equal(a, b, fixed={x: "r" + y, z: "r" + y})
        assert verdicts == {True, False}
        assert automorphic > 0  # some pairs match under several relabelings
