import tracemalloc

import pytest

from resposet import (
    chain_residuation,
    find_residuations,
    find_residuations_naive,
    involuted,
    structural_equal,
    verify_residuated,
)
from resposet.errors import CarrierTooLarge, LimitZero, Unbounded
from resposet.fixtures import (
    antichain,
    chain,
    chain_involuted,
    kleene_six_involuted,
    n5_involuted,
    pseudo_kleene_nine_involuted,
)
from resposet.miner import MAX_CARRIER
from resposet.order import poset_from_covers


def chain_inv(n):
    p = chain(n)
    els = p.elements
    return involuted(p, {els[i]: els[n - 1 - i] for i in range(n)})


class TestPentagonImpossibility:
    def test_no_residuation_on_n5(self):
        outcome = find_residuations(n5_involuted())
        assert not outcome.satisfiable
        assert outcome.structures == []
        assert not outcome.truncated

    def test_search_space_was_pruned(self):
        # the unconstrained space has 5^10 commutative tables; the
        # pruned search should touch only a tiny fraction of it
        pruned = find_residuations(n5_involuted())
        assert pruned.stats.nodes < 10_000
        assert sum(pruned.stats.prunes.values()) > 0


class TestSmallCarriers:
    def test_singleton_is_trivially_satisfiable(self):
        single = involuted(poset_from_covers(["e"], []), {"e": "e"})
        outcome = find_residuations(single)
        assert outcome.satisfiable
        assert len(outcome.structures) == 1

    def test_two_chain_exactly_one(self):
        outcome = find_residuations(chain_inv(2))
        assert len(outcome.structures) == 1
        s = outcome.structures[0]
        assert s.odot_of("e1", "e1") == "e1"
        assert s.arrow_of("e2", "e1") == "e1"

    def test_three_chain_contains_the_standard_structure(self):
        outcome = find_residuations(chain_inv(3))
        assert outcome.satisfiable
        standard = chain_residuation(3).structure
        assert any(structural_equal(s, standard) for s in outcome.structures)

    def test_all_results_verify(self):
        for n in (2, 3, 4):
            for s in find_residuations(chain_inv(n)).structures:
                assert verify_residuated(s).overall


class TestOracleAgreement:
    @pytest.mark.parametrize("require_negation", [True, False])
    def test_pruned_matches_naive_up_to_four(self, involuted_corpus, require_negation):
        for ip in involuted_corpus:
            if len(ip.poset) > 4:
                continue
            _, top = ip.poset.bounds()
            bottom, _ = ip.poset.bounds()
            if top is None or (require_negation and bottom is None):
                continue
            fast = find_residuations(ip, require_negation=require_negation, limit=10**6)
            slow = find_residuations_naive(ip, require_negation=require_negation)
            assert fast.satisfiable == slow.satisfiable
            assert len(fast.structures) == len(slow.structures)
            for a, b in zip(fast.structures, slow.structures):
                assert a == b  # both searches emit lexicographic table order


class TestDeterminism:
    def test_repeated_runs_identical(self):
        a = find_residuations(chain_inv(4))
        b = find_residuations(chain_inv(4))
        assert len(a.structures) == len(b.structures)
        for s, t in zip(a.structures, b.structures):
            assert s == t
        assert a.stats.as_dict() == b.stats.as_dict()


ALL = 10**6

# (structures, truncated, stats) of the pruned search; any change to the
# search tree (candidate order, pruning rules, check placement) moves them
SEARCH_TREES = [
    ("chain6", lambda: chain_inv(6), True, ALL,
     (7, False, {"nodes": 61, "prunes": {"associativity": 14, "monotonicity": 15}})),
    ("chain7", lambda: chain_inv(7), True, ALL,
     (12, False, {"nodes": 173, "prunes": {"associativity": 53, "monotonicity": 54}})),
    ("chain8", lambda: chain_inv(8), True, ALL,
     (31, False, {"nodes": 756, "prunes": {"associativity": 227, "monotonicity": 321}})),
    ("chain9", lambda: chain_inv(9), True, ALL,
     (59, False, {"nodes": 2151, "prunes": {"associativity": 729, "monotonicity": 938}})),
    ("n5", n5_involuted, True, ALL,
     (0, False, {"nodes": 6, "prunes": {"empty-cell": 1}})),
    ("kleene6", kleene_six_involuted, True, ALL,
     (4, False, {"nodes": 45, "prunes": {"associativity": 8, "monotonicity": 10}})),
    ("kleene6-any-negation", kleene_six_involuted, False, ALL,
     (19, False, {"nodes": 612, "prunes": {
         "associativity": 89, "monotonicity": 269, "residual-missing": 62}})),
    ("pk9", pseudo_kleene_nine_involuted, True, ALL,
     (0, False, {"nodes": 99, "prunes": {"associativity": 14, "monotonicity": 41}})),
    ("chain8-limit3", lambda: chain_inv(8), True, 3,
     (3, True, {"nodes": 37, "prunes": {"associativity": 5, "monotonicity": 1}})),
]


class TestSearchTree:
    @pytest.mark.parametrize(
        "make, require_negation, limit, expected",
        [case[1:] for case in SEARCH_TREES],
        ids=[case[0] for case in SEARCH_TREES],
    )
    def test_stats_are_pinned(self, make, require_negation, limit, expected):
        outcome = find_residuations(make(), require_negation=require_negation, limit=limit)
        assert (len(outcome.structures), outcome.truncated, outcome.stats.as_dict()) == expected


class TestConstructionOutputsAccepted:
    def test_miner_finds_chain_residuation(self):
        for n in (3, 4):
            standard = chain_residuation(n).structure
            outcome = find_residuations(chain_inv(n), limit=10**6)
            assert any(structural_equal(s, standard) for s in outcome.structures)


class TestLimitsAndErrors:
    def test_limit_truncates(self):
        full = find_residuations(chain_inv(4), limit=10**6)
        if len(full.structures) > 1:
            cut = find_residuations(chain_inv(4), limit=1)
            assert cut.truncated
            assert len(cut.structures) == 1
            assert cut.structures[0] == full.structures[0]

    def test_limit_zero(self):
        with pytest.raises(LimitZero):
            find_residuations(chain_inv(2), limit=0)

    def test_carrier_limit_checked_before_any_array(self):
        # 0 < ui < 1 for MAX_CARRIER - 1 atoms, each fixed: without the limit,
        # the search allocates its set-up and ends at the first empty cell
        atoms = [f"u{i}" for i in range(1, MAX_CARRIER)]
        covers = [("0", u) for u in atoms] + [(u, "1") for u in atoms]
        p = poset_from_covers(["0", *atoms, "1"], covers)
        ip = involuted(p, {"0": "1", "1": "0", **{u: u for u in atoms}})
        tracemalloc.start()
        try:
            with pytest.raises(CarrierTooLarge, match=f"exceed the limit {MAX_CARRIER}"):
                find_residuations(ip, limit=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000  # the candidate flags alone would take 1 MB

    def test_naive_limit_is_the_miners(self):
        # checked before any table is enumerated, as the CLI's --naive is
        with pytest.raises(CarrierTooLarge, match=r"naive mode is limited to \|P\| <= 4 elements"):
            find_residuations_naive(chain_involuted(5), limit=1)

    def test_unbounded(self):
        ip = involuted(antichain(2), {"u1": "u2", "u2": "u1"})
        with pytest.raises(Unbounded):
            find_residuations(ip)

    def test_missing_bottom_with_negation(self):
        # a "V" shape: top exists, no bottom
        p = poset_from_covers(["x", "y", "t"], [("x", "t"), ("y", "t")])
        found = __import__("resposet").enumerate_antitone_involutions(p)
        assert found == []  # no antitone involution exists anyway
