import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from resposet import (
    ExtensionMode,
    chain_residuation,
    check_integrality,
    check_lemma1,
    derived_negation,
    extend_boolean_theorem5,
    extend_theorem1,
    extend_theorem2,
    extend_theorem3,
    replay_check,
    residual_of,
    structure_from_tables,
    verify_residuated,
)
from resposet.errors import NoBottom, UnknownLabel
from resposet.fixtures import (
    antichain,
    chain,
    chain_involuted,
    cube_boolean,
    kleene_six,
    kleene_six_involuted,
    n5,
    n5_involuted,
    pseudo_kleene_nine,
    pseudo_kleene_nine_involuted,
)
from resposet.order import poset_from_covers
from resposet.report import VerificationReport, failed, passed, verdict
from resposet.residuation import (
    GALOIS_FROM,
    SLAB_CELLS,
    ResiduatedStructure,
    _galois,
    _residuals,
    is_monotone,
)


def two_element_boolean():
    p = poset_from_covers(["0", "1"], [("0", "1")])
    odot = {"0": {"0": "0", "1": "0"}, "1": {"0": "0", "1": "1"}}
    arrow = {"0": {"0": "1", "1": "1"}, "1": {"0": "0", "1": "1"}}
    return structure_from_tables(p, "1", odot, arrow)


def en5():
    """The 7-element extension of N5 (bounds reused as the inner chain pair)."""
    return extend_theorem1(n5_involuted(), ExtensionMode.REUSE_BOUNDS)


def corrupt(s, which, x, y, value):
    table = np.array(getattr(s, which))
    i, j = s.poset.index(x), s.poset.index(y)
    table[i, j] = s.poset.index(value)
    odot = table if which == "odot" else np.array(s.odot)
    arrow = table if which == "arrow" else np.array(s.arrow)
    return ResiduatedStructure(s.poset, s.unit, odot, arrow)


def verify_residuated_cubes(s: ResiduatedStructure) -> VerificationReport:
    """Reference oracle: verify_residuated as it was with both triple checks as cubes."""
    p = s.poset
    leq = p.leq_matrix
    O, A = s.odot, s.arrow
    els = p.elements
    n = len(p)
    u = p.index(s.unit)
    # the associativity cube is gathered from O's values; in the smallest
    # dtype that holds an index (one byte up to 256 elements) it moves a
    # fraction of the int64 bytes
    small = O.astype(np.min_scalar_type(n - 1))
    # the triple checks take xs, a slice of x rows, and give [x, y, z] cubes
    return VerificationReport(
        (
            verdict("unit-greatest", ~leq[:, u], els),
            verdict("commutativity", O != O.T, els),
            # (x . y) . z  vs  x . (y . z)
            _slabbed_cubes("associativity", lambda xs: small[O[xs], :] != small[xs][:, O], els),
            verdict("unit-law", O[u, :] != np.arange(n), els),
            # x . y <= z  vs  x <= y -> z
            _slabbed_cubes("adjointness", lambda xs: leq[O[xs], :] != leq[xs][:, A], els),
        )
    )


def _slabbed_cubes(name, bad_rows, els):
    """verdict over an [x, y, z] cube built SLAB_CELLS cells at a time, in x order.

    Stops at the first slab with a violation; its first cell, shifted by
    the slab start, is the first violation of the whole cube.
    """
    n = len(els)
    rows = max(1, SLAB_CELLS // (n * n))
    for start in range(0, n, rows):
        bad = bad_rows(slice(start, start + rows))
        if bad.any():
            x, y, z = np.argwhere(bad)[0]
            return failed(name, (els[start + x], els[y], els[z]))
    return passed(name)


def mutate(s, rng, kind, low=0):
    """s with one random cell (i, j), i, j >= low, changed.

    kind says which: an odot cell and its mirror, an odot cell alone, or
    an arrow cell.
    """
    n = len(s.elements)
    O, A = np.array(s.odot), np.array(s.arrow)
    i, j = rng.randrange(low, n), rng.randrange(low, n)
    table = A if kind == "arrow" else O
    value = rng.choice([v for v in range(n) if v != table[i, j]])
    table[i, j] = value
    if kind == "odot-symmetric":
        O[j, i] = value
    return ResiduatedStructure(s.poset, s.unit, O, A)


def adjointness_cube(s):
    """[x, y, z]: x . y <= z differs from x <= y -> z."""
    leq = s.poset.leq_matrix
    return leq[s.odot, :] != leq[:, s.arrow]


def naive_adjointness(s):
    """Oracle: adjointness over all triples by direct evaluation."""
    p = s.poset
    for a in p.elements:
        for b in p.elements:
            for c in p.elements:
                if p.leq(s.odot_of(a, b), c) != p.leq(a, s.arrow_of(b, c)):
                    return False
    return True


class TestVerify:
    def test_two_element_boolean_passes(self):
        s = two_element_boolean()
        report = verify_residuated(s)
        assert report.overall
        assert naive_adjointness(s)

    def test_en5_passes(self):
        report = verify_residuated(en5().structure)
        assert report.overall

    def test_corrupted_arrow_breaks_adjointness(self):
        s = en5().structure
        bad = corrupt(s, "arrow", "a", "b", "c")  # a -> b is 1 in the clean table
        report = verify_residuated(bad)
        adj = report.check("adjointness")
        assert not adj.passed
        assert adj.witness[1:] == ("a", "b") or "a" in adj.witness
        assert not replay_check(bad, "adjointness", adj.witness)

    def test_unknown_label_in_tables(self):
        p = poset_from_covers(["0", "1"], [("0", "1")])
        with pytest.raises(UnknownLabel):
            structure_from_tables(
                p, "1", {"0": {"0": "0"}}, {"0": {"0": "1"}}
            )

    def test_commutativity_witness(self):
        s = two_element_boolean()
        bad = corrupt(s, "odot", "0", "1", "1")
        report = verify_residuated(bad)
        assert not report.check("commutativity").passed

    def test_triple_checks_stay_within_slabs(self):
        s = chain_residuation(200, verify=False).structure
        tracemalloc.start()
        try:
            assert verify_residuated(s).overall
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20  # one n^3 int64 cube alone is 61 MB

    @pytest.mark.parametrize(
        "carrier",
        [
            lambda: chain_residuation(130, verify=False).structure,
            lambda: extend_theorem3(n5(), 38, 40, verify=False).structure,
        ],
        ids=["cor1-130", "thm3-38-40"],
    )
    def test_mutations_past_one_slab_match_the_cubes(self, carrier):
        # past one slab, adjointness is the Galois test and a commutative
        # table's associativity the row cube; a failure's witness comes from
        # the x-slabbed cube, and the whole report, witnesses included, is the cubes'
        s = carrier()
        n = len(s.elements)
        assert n**3 > SLAB_CELLS
        rng = random.Random(n)
        past = 0  # associativity witnesses past the first slab
        for kind in ("odot-symmetric", "odot", "arrow") * 8:
            # cells in the second half give witnesses past the first slab too
            bad = mutate(s, rng, kind, low=n // 2)
            report = verify_residuated(bad)
            assert str(report) == str(verify_residuated_cubes(bad))
            witness = report.check("associativity").witness
            past += witness is not None and s.poset.index(witness[0]) >= SLAB_CELLS // n**2
        assert past > 0

    @pytest.mark.parametrize(
        "carrier",
        [
            lambda n: chain_residuation(n, verify=False).structure,
            # Theorem 2 adds 2m chain elements: to pk9's 9, or kleene6's 6
            lambda n: extend_theorem2(
                *((pseudo_kleene_nine_involuted(), (n - 9) // 2) if n % 2
                  else (kleene_six_involuted(), (n - 6) // 2)),
                verify=False,
            ).structure,
        ],
        ids=["cor1", "thm2"],
    )
    @pytest.mark.parametrize("n", [GALOIS_FROM - 1, GALOIS_FROM, GALOIS_FROM + 1])
    def test_reports_around_the_galois_crossover_match_the_cubes(self, carrier, n):
        # below GALOIS_FROM adjointness is a cube, from there the Galois test
        s = carrier(n)
        assert len(s.elements) == n
        assert str(verify_residuated(s)) == str(verify_residuated_cubes(s))
        rng = random.Random(n)
        for kind in ("odot-symmetric", "odot", "arrow") * 2:
            # each of x . y and y -> z determines the other, so every
            # mutation breaks adjointness
            bad = mutate(s, rng, kind)
            report = verify_residuated(bad)
            assert not report.check("adjointness").passed
            assert str(report) == str(verify_residuated_cubes(bad))

    def test_noncommutative_odot_takes_the_whole_cube(self):
        # with x . y != y . x the first failure can have z below its slab
        s = chain_residuation(150).structure
        O = np.array(s.odot)
        O[100, 10] = 90
        bad = ResiduatedStructure(s.poset, s.unit, O, np.array(s.arrow))
        report = verify_residuated(bad)
        assert str(report) == str(verify_residuated_cubes(bad))
        x, _, z = map(s.poset.index, report.check("associativity").witness)
        rows = SLAB_CELLS // len(s.elements) ** 2
        assert z < x // rows * rows

    def test_fault_injection_matches_the_cubes(self):
        # the faults of acceptance criterion 9, drawn in the same order
        rng = random.Random(20250825)
        pool = [
            extend_theorem1(chain_involuted(3)).structure,
            chain_residuation(6).structure,
            extend_boolean_theorem5(cube_boolean(2), 1).structure,
        ]
        for _ in range(120):
            s = rng.choice(pool)
            which = rng.choice(["odot", "arrow"])
            els = s.elements
            x, y = rng.choice(els), rng.choice(els)
            old = getattr(s, which)[s.poset.index(x), s.poset.index(y)]
            bad = corrupt(s, which, x, y, els[rng.choice([v for v in range(len(els)) if v != old])])
            assert str(verify_residuated(bad)) == str(verify_residuated_cubes(bad))

    def test_galois_test_matches_the_cube_on_the_corpus(self, involuted_corpus):
        # the corpus carriers are below GALOIS_FROM, so verify_residuated
        # never reaches the Galois test on them: call it directly.  Each of
        # x . y and y -> z determines the other, so every mutation breaks
        # adjointness.
        rng = random.Random(13)
        kinds = ("odot-symmetric", "odot", "arrow")
        adjoint = 0
        for k, ip in enumerate(involuted_corpus):
            s = extend_theorem1(ip, verify=False).structure
            for t in (s, mutate(s, rng, kinds[k % 3])):
                holds = not adjointness_cube(t).any()
                assert _galois(t) == holds
                adjoint += holds
        assert adjoint == len(involuted_corpus)

    def test_slab_witness_is_first_in_element_order(self):
        s = chain_residuation(150).structure
        n = len(s.elements)
        O = np.array(s.odot)
        O[100, 120] = O[120, 100] = 50  # still commutative; breaks both triple checks
        bad = ResiduatedStructure(s.poset, s.unit, O, np.array(s.arrow))
        leq, A = s.poset.leq_matrix, s.arrow
        cubes = {
            "associativity": O[O, :] != O[:, O],
            "adjointness": leq[O, :] != leq[:, A],
        }
        report = verify_residuated(bad)
        for name, cube in cubes.items():
            first = np.argwhere(cube)[0]
            assert first[0] >= SLAB_CELLS // n**2  # past the first slab
            assert report.check(name).witness == tuple(s.elements[i] for i in first)


@st.composite
def commutative_structures(draw):
    """A chain or an antichain on 2-7 elements, a random commutative odot table and a random arrow table."""
    n = draw(st.integers(2, 7))
    p = draw(st.sampled_from([chain, antichain]))(n)
    index = st.integers(0, n - 1)
    O = np.zeros((n, n), dtype=np.int64)
    upper = np.triu_indices(n)
    O[upper] = O.T[upper] = draw(st.lists(index, min_size=len(upper[0]), max_size=len(upper[0])))
    A = np.array(draw(st.lists(st.lists(index, min_size=n, max_size=n), min_size=n, max_size=n)))
    return ResiduatedStructure(p, draw(st.sampled_from(p.elements)), O, A)


class TestCommutativeAssociativity:
    """A commutative odot's associativity is checked in y-slabs of (y . x) . z rows."""

    def test_least_witness_lies_in_a_later_y_slab(self):
        # seed 1 breaks associativity in the first y-slab, while the least
        # failing (x, y, z) has its y in the fourth slab
        s = chain_residuation(150, verify=False).structure
        n = len(s.elements)
        rows = SLAB_CELLS // n**2
        assert n > 3 * rows  # four y-slabs
        bad = mutate(s, random.Random(1), "odot-symmetric")
        O = bad.odot
        assert (O == O.T).all()
        cube = O[O, :] != O[:, O]  # [x, y, z]
        assert cube[:, :rows].any()
        report = verify_residuated(bad)
        assert str(report) == str(verify_residuated_cubes(bad))
        witness = tuple(map(s.poset.index, report.check("associativity").witness))
        assert witness == (34, 145, 133)
        assert witness[1] // rows == 3

    @given(commutative_structures())
    def test_small_commutative_tables_match_the_cubes(self, s):
        assert str(verify_residuated(s)) == str(verify_residuated_cubes(s))


class TestStructureIdentity:
    @pytest.mark.parametrize("dtype", [np.int32, np.uint8])
    def test_a_copy_in_another_dtype_hashes_equal(self, dtype):
        s = chain_residuation(5).structure
        copy = ResiduatedStructure(s.poset, s.unit, s.odot.astype(dtype), s.arrow.astype(dtype))
        assert copy == s
        assert hash(copy) == hash(s)
        assert len({s, copy}) == 1


class TestDerivedNegation:
    def test_en5_negation_is_extended_involution(self):
        res = en5()
        neg = derived_negation(res.structure)
        assert neg == res.involution.mapping
        # inner elements: N5's own bounds swap, a <-> b, c fixed
        assert neg["a"] == "b" and neg["c"] == "c" and neg["0"] == "1"

    def test_chain_negation_reverses_indices(self):
        res = chain_residuation(5)
        neg = derived_negation(res.structure)
        for i in range(1, 6):
            assert neg[f"#c{i}"] == f"#c{6 - i}"

    def test_two_element_boolean(self):
        neg = derived_negation(two_element_boolean())
        assert neg == {"0": "1", "1": "0"}

    def test_no_bottom_raises(self):
        p = antichain(2)
        odot = {x: {y: x for y in p.elements} for x in p.elements}
        s = ResiduatedStructure(
            p,
            "u1",
            np.zeros((2, 2), dtype=np.int64),
            np.zeros((2, 2), dtype=np.int64),
        )
        with pytest.raises(NoBottom):
            derived_negation(s)


class TestLemma1:
    def test_passes_on_verified_structures(self):
        for s in (two_element_boolean(), en5().structure, chain_residuation(5).structure):
            assert verify_residuated(s).overall
            report = check_lemma1(s)
            assert report.overall

    def test_en5_double_negation_is_identity(self):
        s = en5().structure
        neg = derived_negation(s)
        for x in s.elements:
            assert neg[neg[x]] == x

    def test_tampered_negation_fails(self):
        s = en5().structure
        bad = corrupt(s, "arrow", "a", "#c1", "#c1")  # a -> 0 was b
        report = check_lemma1(bad)
        assert not report.overall
        failing = report.failed()[0]
        assert not replay_check(bad, failing.name, failing.witness)
        # the first failing pair in element order, for each property
        assert report.lines() == [
            "double-negation-expansive: FAIL witness=('b',)",
            "negation-antitone: FAIL witness=('a', 'b')",
        ]


    def test_random_arrows_match_a_loop(self):
        # reference: the first failing x, and (x, y), in element order
        rng = np.random.default_rng(5)
        s = en5().structure
        p, els = s.poset, s.elements
        for _ in range(100):
            arrow = np.array(s.arrow)
            arrow[:, p.index("#c1")] = rng.integers(len(els), size=len(els))
            bad = ResiduatedStructure(p, s.unit, np.array(s.odot), arrow)
            neg = derived_negation(bad)
            expansive = [(x,) for x in els if not p.leq(x, neg[neg[x]])]
            antitone = [
                (x, y) for x in els for y in els if p.leq(x, y) and not p.leq(neg[y], neg[x])
            ]
            report = check_lemma1(bad)
            assert report.check("double-negation-expansive").witness == (
                expansive[0] if expansive else None
            )
            assert report.check("negation-antitone").witness == (
                antitone[0] if antitone else None
            )


class TestIntegrality:
    def test_verified_structures_are_integral(self):
        for s in (two_element_boolean(), en5().structure):
            assert check_integrality(s).overall

    def test_injected_violation(self):
        res = chain_residuation(5)
        bad = corrupt(res.structure, "odot", "#c2", "#c2", "#c3")
        report = check_integrality(bad)
        failing = report.failed()
        assert failing
        assert failing[0].witness == ("#c2", "#c2")
        assert not replay_check(bad, failing[0].name, failing[0].witness)


class TestResidual:
    def test_en5_residual_matches_arrow(self):
        s = en5().structure
        # b -> 0 = a in the extension
        assert residual_of(s.poset, s.odot, "b", "#c1") == "a"
        for b in s.elements:
            for c in s.elements:
                assert residual_of(s.poset, s.odot, b, c) == s.arrow_of(b, c)

    def test_meet_on_n5_has_no_residual(self):
        p = n5()
        odot = np.zeros((5, 5), dtype=np.int64)
        for x in p.elements:
            for y in p.elements:
                odot[p.index(x), p.index(y)] = p.index(p.meet(x, y))
        # {x : x meet b <= 0} = {0, c} has greatest element c ...
        lower = [x for x in p.elements if p.leq(p.meet(x, "b"), "0")]
        assert set(lower) == {"0", "c"}
        assert residual_of(p, odot, "b", "0") == "c"
        # ... but {x : x meet b <= a} = {0, a, c} has none
        lower = [x for x in p.elements if p.leq(p.meet(x, "b"), "a")]
        assert set(lower) == {"0", "a", "c"}
        assert residual_of(p, odot, "b", "a") is None

    @pytest.mark.parametrize("poset", [n5(), kleene_six(), pseudo_kleene_nine()])
    def test_random_tables_match_a_loop(self, poset):
        # reference: the members of {a : a . b <= c}, then the one with every member below it
        rng = np.random.default_rng(11)
        els = poset.elements
        leq, top = poset.leq_matrix, poset.bounds()[1]
        tables = [rng.integers(len(els), size=(len(els), len(els))) for _ in range(40)]
        if poset.is_lattice():
            # each random table here leaves some cell without a residual; the
            # meet of a distributive lattice (kleene6) leaves none
            tables.append(np.array([[poset.index(poset.meet(x, y)) for y in els] for x in els]))
        for odot in tables:
            arrow = _residuals(leq, odot)
            for b in els:
                for c in els:
                    members = [a for a in els if poset.leq(els[odot[poset.index(a), poset.index(b)]], c)]
                    greatest = [g for g in members if all(poset.leq(a, g) for a in members)]
                    assert residual_of(poset, odot, b, c) == (greatest[0] if greatest else None)
                    # _residuals keeps the greatest member only where the members form a down-set
                    down_set = all(x in members for m in members for x in els if poset.leq(x, m))
                    expected = poset.index(greatest[0]) if greatest and down_set else -1
                    assert arrow[poset.index(b), poset.index(c)] == expected
            if (arrow >= 0).all():
                s = ResiduatedStructure(poset, top, odot, arrow)
                assert verify_residuated(s).check("adjointness").passed


class TestAdjointnessMetatheorem:
    def test_adjoint_iff_residual_and_monotone(self):
        # holds on a verified structure
        s = en5().structure
        assert verify_residuated(s).check("adjointness").passed
        assert is_monotone(s.poset, s.odot)
        # breaking one arrow entry keeps monotone odot but kills adjointness
        bad = corrupt(s, "arrow", "b", "#c1", "c")
        assert is_monotone(bad.poset, bad.odot)
        assert not verify_residuated(bad).check("adjointness").passed
        assert residual_of(bad.poset, bad.odot, "b", "#c1") != bad.arrow_of("b", "#c1")

    def test_metatheorem_over_constructions(self, involuted_corpus):
        for ip in involuted_corpus[:40]:
            s = extend_theorem1(ip).structure
            assert is_monotone(s.poset, s.odot)
            for b in s.elements:
                for c in s.elements:
                    assert residual_of(s.poset, s.odot, b, c) == s.arrow_of(b, c)
        # every pair: the residuals by definition are the construction's arrow
        for ip in involuted_corpus:
            for res in (extend_theorem1(ip, verify=False), extend_theorem2(ip, 2, verify=False)):
                s = res.structure
                assert np.array_equal(_residuals(s.poset.leq_matrix, s.odot), s.arrow)


class TestWitnessReplay:
    def test_random_corruptions_replay(self):
        import random

        rng = random.Random(20240817)
        pool = [en5().structure, chain_residuation(5).structure]
        for _ in range(60):
            s = rng.choice(pool)
            which = rng.choice(["odot", "arrow"])
            els = s.elements
            x, y = rng.choice(els), rng.choice(els)
            old = getattr(s, which)[s.poset.index(x), s.poset.index(y)]
            candidates = [e for e in els if s.poset.index(e) != old]
            bad = corrupt(s, which, x, y, rng.choice(candidates))
            report = verify_residuated(bad)
            assert not report.overall
            for c in report.failed():
                assert not replay_check(bad, c.name, c.witness)
