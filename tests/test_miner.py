import io
import random
import tracemalloc
from collections import Counter
from itertools import product

import numpy as np
import pytest

from resposet import (
    chain_residuation,
    enumerate_antitone_involutions,
    extend_boolean_theorem5,
    extend_theorem1,
    extend_theorem2,
    extend_theorem3,
    find_residuations,
    find_residuations_naive,
    involuted,
    structural_equal,
    verify_residuated,
)
from resposet.catalog import involuted_posets_up_to_size, posets_of_size
from resposet.cli import main
from resposet.constructions import ExtensionMode
from resposet.errors import CarrierTooLarge, LimitZero, ModeUnsatisfiable, Unbounded
from resposet.files import dump, load_structure, structure_to_doc
from resposet.fixtures import (
    BUILTINS,
    antichain,
    chain,
    chain_involuted,
    cube_boolean,
    kleene_six_involuted,
    n5_involuted,
    pseudo_kleene_nine_involuted,
)
from resposet.miner import MAX_CARRIER, MinerOutcome, MinerStats, _free_cells, _leaf_check
from resposet.order import poset_from_covers, poset_from_relation
from resposet.residuation import SLAB_CELLS, ResiduatedStructure, _negation, _residuals


def chain_inv(n):
    p = chain(n)
    els = p.elements
    return involuted(p, {els[i]: els[n - 1 - i] for i in range(n)})


def reversed_order(ip):
    """The same involuted poset with its elements listed in reverse.

    On a carrier with a comparable pair the element order is then not a
    linear extension, and the miner bounds each cell by the whole box of
    comparable assigned cells.
    """
    p = ip.poset
    return involuted(poset_from_covers(reversed(p.elements), p.covers()), ip.involution.mapping)


def shuffled_order(ip, seed=0):
    """The same involuted poset with its elements listed in a seeded random order."""
    p = ip.poset
    elements = random.Random(seed).sample(p.elements, len(p))
    return involuted(poset_from_covers(elements, p.covers()), ip.involution.mapping)


def stacked_antichains():
    """0 < e1 < {e2, e3} < {e4, e5} < e6 < 1, in that element order.

    The involution swaps 0 and 1, e1 and e6, e2 and e4, e3 and e5.  Not a
    lattice: e2 and e3 have two minimal upper bounds.  So the join
    rule leaves some tables without a residual, and without negation the
    leaf check rejects them (residual-missing).
    """
    q = poset_from_covers(
        ["e1", "e2", "e3", "e4", "e5", "e6"],
        [("e1", "e2"), ("e1", "e3"), ("e2", "e4"), ("e2", "e5"),
         ("e3", "e4"), ("e3", "e5"), ("e4", "e6"), ("e5", "e6")],
    )
    inv = involuted(q, {"e1": "e6", "e2": "e4", "e3": "e5", "e4": "e2", "e5": "e3", "e6": "e1"})
    return bounded_sum(q, inv.involution)


def order_kind(ip):
    """Whether the element order is a linear extension, the dual of one, or neither (None)."""
    leq = ip.poset.leq_matrix
    pairs = [(a, b) for a, b in zip(*np.nonzero(leq)) if a != b]
    if all(a < b for a, b in pairs):
        return "extension"
    if all(a > b for a, b in pairs):
        return "dual"
    return None


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


def leaf_reference(ip, unit, table, require_negation):
    """Reference oracle: the structure one complete table defines, or the prune rule that rejects it.

    The arrow by _residuals, then verify_residuated, then the negation.
    residual-missing: no arrow is adjoint to the table.
    """
    arrow = _residuals(ip.poset.leq_matrix, table)
    if (arrow < 0).any():
        return "residual-missing"
    s = ResiduatedStructure(ip.poset, unit, table, arrow)
    if not verify_residuated(s).overall:
        return "verification"
    if require_negation and not np.array_equal(_negation(s), ip.involution.image):
        return "negation-mismatch"
    return s


def find_residuations_rescan(ip, require_negation=True, limit=16, joins=True):
    """Reference oracle: the pruned search with a full numpy rescan at every node.

    The same cells, candidates and prune rules as find_residuations, with
    each leaf checked on its own by leaf_reference; but monotonicity
    compares the new cell with every assigned cell, associativity
    rebuilds the whole n^3 cube of (a . b) . c and a . (b . c), and the
    join rule, unless joins is off, compares x . (y v z) with
    (x . y) v (x . z) for every x and every existing y v z.
    """
    top, cells = _free_cells(ip, limit)
    cells = np.array(cells, dtype=np.int64).reshape(-1, 2)
    p = ip.poset
    n = len(p)
    leq = p.leq_matrix
    u = p.index(top)
    stats = MinerStats()
    allowed = leq[:, :, None] & leq[:, None, :]
    if require_negation:
        inv = np.array(ip.involution.image, dtype=np.int64)
        is_bottom = np.arange(n) == p.index(p.bounds()[0])
        allowed &= is_bottom[:, None, None] == leq[None, :, inv]
    candidates = [np.flatnonzero(c).tolist() for c in allowed[:, cells[:, 0], cells[:, 1]].T]
    # the last row and column stay -1, so an unassigned cell looks up -1
    table = np.full((n + 1, n + 1), -1, dtype=np.int64)
    table[u, :n] = table[:n, u] = np.arange(n)
    t = table[:n, :n]
    # joins padded the same way: -1 where a join is missing or looked up by -1
    join = np.full((n + 1, n + 1), -1, dtype=np.int64)
    join[:n, :n] = p._join_table

    def monotone_ok(i, j, v):
        below = leq[:, i, None] & leq[None, :, j]
        above = leq[i, :, None] & leq[None, j, :]
        bad = (below & ~leq[t, v]) | (above & ~leq[v, t])
        return not (bad & (t >= 0)).any()

    def assoc_ok():
        left, right = table[t, :n], table[:n, t]  # [a, b, c]: (a . b) . c, a . (b . c)
        return not ((left != right) & (left >= 0) & (right >= 0)).any()

    def joins_ok():
        # [x, y, z]: x . y, x . z and x . (y v z); the join of the first two
        # must be the third wherever all three are assigned
        x_y, x_z, x_w = t[:, :, None], t[:, None, :], table[:n, join[:n, :n]]
        return not ((join[x_y, x_z] != x_w) & (x_y >= 0) & (x_z >= 0) & (x_w >= 0)).any()

    results = []

    def search(pos):
        if pos == len(cells):
            leaf = leaf_reference(ip, top, t.copy(), require_negation)
            if isinstance(leaf, str):
                stats.prune(leaf)
            else:
                results.append(leaf)
            return
        i, j = cells[pos]
        if not candidates[pos]:
            stats.prune("empty-cell")
            return
        for v in candidates[pos]:
            stats.nodes += 1
            table[i, j] = table[j, i] = v
            if not monotone_ok(i, j, v):
                stats.prune("monotonicity")
            elif not assoc_ok():
                stats.prune("associativity")
            elif joins and not joins_ok():
                stats.prune("joins")
            else:
                search(pos + 1)
            table[i, j] = table[j, i] = -1
            if len(results) >= limit:
                break

    search(0)
    # truncated: stopped at its limit-th result, a root leaf's included
    return MinerOutcome(bool(results), results, stats, len(results) >= limit)


def bounded_pairs_and_extensions(max_size):
    """Every bounded catalog pair up to max_size points, and every pair's Theorem-1 extension."""
    for p, inv in involuted_posets_up_to_size(max_size):
        ip = involuted(p, inv)
        if None not in p.bounds():
            yield ip
        ext = extend_theorem1(ip, ExtensionMode.ADD_FOUR, verify=False)
        yield involuted(ext.poset, ext.involution)


class TestRescanOracle:
    @staticmethod
    def searches_agreeing(carriers, any_negation_to=6):
        """The number of searches on the carriers, once each is checked equal to the full rescan's.

        Carriers of up to any_negation_to elements are searched without
        negation too.
        """
        searches = 0
        for ip in carriers:
            for require_negation in (True, False) if len(ip.poset) <= any_negation_to else (True,):
                for limit in (1, 10**6):
                    fast = find_residuations(ip, require_negation=require_negation, limit=limit)
                    slow = find_residuations_rescan(ip, require_negation=require_negation, limit=limit)
                    assert fast.structures == slow.structures
                    assert fast.stats.as_dict() == slow.stats.as_dict()
                    assert (fast.satisfiable, fast.truncated) == (slow.satisfiable, slow.truncated)
                    searches += 1
        return searches

    def test_same_search_as_the_full_rescan(self):
        assert self.searches_agreeing(bounded_pairs_and_extensions(5)) == 220

    def test_same_search_on_reversed_orders(self):
        # past one point every reversed order is the dual of a linear
        # extension and not one itself, so the miner bounds each cell by the
        # whole box of comparable assigned cells
        carriers = list(map(reversed_order, bounded_pairs_and_extensions(4)))
        assert Counter(map(order_kind, carriers)) == {"dual": 36, "extension": 1}
        assert self.searches_agreeing(carriers) == 94

    def test_same_search_on_shuffled_orders(self):
        # each carrier in its own seeded order; all but the carriers of one
        # and two points get one that is neither a linear extension nor its
        # dual, so the miner checks whole boxes
        carriers = [shuffled_order(ip, seed) for seed, ip in enumerate(bounded_pairs_and_extensions(4))]
        assert Counter(map(order_kind, carriers)) == {None: 35, "extension": 2}
        assert self.searches_agreeing(carriers) == 94

    def test_same_search_with_rejected_leaves(self):
        assert self.searches_agreeing([stacked_antichains()], any_negation_to=8) == 4

    def test_same_structures_as_the_rescan_without_joins(self):
        # the join rule is sound: it cuts only tables that no structure
        # completes.  Without negation the rescan visits tens of thousands
        # of nodes on each 8- and 9-point extension, so those run with
        # negation only
        searches = 0
        for ip in bounded_pairs_and_extensions(5):
            for require_negation in (True, False) if len(ip.poset) <= 7 else (True,):
                fast = find_residuations(ip, require_negation=require_negation, limit=ALL)
                slow = find_residuations_rescan(ip, require_negation=require_negation, limit=ALL, joins=False)
                assert fast.structures == slow.structures
                assert (fast.satisfiable, fast.truncated) == (slow.satisfiable, slow.truncated)
                searches += 1
        assert searches == 116


def naive_tables(ip):
    """Every commutative table with the top as unit, in the naive oracle's order, as a stack."""
    top, cells = _free_cells(ip, 1)
    n = len(ip.poset)
    u = ip.poset.index(top)
    rows, cols = np.array(cells, dtype=np.int64).reshape(-1, 2).T
    tables = []
    for values in product(range(n), repeat=len(cells)):
        table = np.zeros((n, n), dtype=np.int64)
        table[u, :] = table[:, u] = np.arange(n)
        table[rows, cols] = table[cols, rows] = values
        tables.append(table)
    return top, np.array(tables)


def sugihara3():
    """The 3-chain -1 < 0 < 1 with the odd Sugihara monoid: unit 0, the middle, not the top.

    x . y is whichever of x, y has the larger absolute value, the smaller
    one when they tie; it is commutative, associative and residuated.
    """
    ip = chain_inv(3)
    value = [-1, 0, 1]
    table = np.array([
        [value.index(x if abs(x) > abs(y) else y if abs(y) > abs(x) else min(x, y)) for y in value]
        for x in value
    ])
    return ip, ip.poset.elements[1], table


class TestBatchedLeafCheck:
    # verdicts of the reference on every naive table, by carrier and mode
    NAIVE_VERDICTS = {
        ("chain4", True): {"negation-mismatch": 4, "residual-missing": 4089, "structure": 2, "verification": 1},
        ("chain4", False): {"residual-missing": 4089, "structure": 6, "verification": 1},
        ("square", True): {"residual-missing": 4095, "structure": 1},
        ("square", False): {"residual-missing": 4095, "structure": 1},
    }

    @staticmethod
    def agreed_verdicts(ip, unit, tables, require_negation):
        """The reference's verdicts, once they are checked equal to the batched ones, in order."""
        verdicts = _leaf_check(ip, unit, require_negation)
        expected = [leaf_reference(ip, unit, table, require_negation) for table in tables]
        assert verdicts(tables) == expected
        assert [leaf for table in tables for leaf in verdicts(table[None])] == expected
        return [leaf if isinstance(leaf, str) else "structure" for leaf in expected]

    @pytest.mark.parametrize("require_negation", [True, False])
    @pytest.mark.parametrize("name", ["chain4", "square"])
    def test_every_naive_table(self, name, require_negation):
        ip = chain_inv(4) if name == "chain4" else cube_boolean(2)
        top, tables = naive_tables(ip)
        found = self.agreed_verdicts(ip, top, tables, require_negation)
        assert dict(sorted(Counter(found).items())) == self.NAIVE_VERDICTS[name, require_negation]

    @pytest.mark.parametrize("require_negation", [True, False])
    @pytest.mark.parametrize("name", ["chain4", "square"])
    def test_naive_oracle_counts_its_prunes(self, name, require_negation):
        # every naive table is a node, and each one rejected counts under its rule
        ip = chain_inv(4) if name == "chain4" else cube_boolean(2)
        prunes = dict(self.NAIVE_VERDICTS[name, require_negation])
        del prunes["structure"]
        stats = find_residuations_naive(ip, require_negation=require_negation).stats
        assert stats.as_dict() == {"nodes": 4096, "prunes": prunes}

    @pytest.mark.parametrize(
        "make", [lambda: chain_involuted(5), kleene_six_involuted, n5_involuted], ids=["chain5", "kleene6", "n5"]
    )
    def test_left_projection(self, make):
        # x . y = x: every residual exists (j -> k = k), but commutativity and the unit law fail
        ip = make()
        n = len(ip.poset)
        table = np.repeat(np.arange(n)[:, None], n, axis=1)
        top = ip.poset.bounds()[1]
        arrow = _residuals(ip.poset.leq_matrix, table)
        assert (arrow >= 0).all()
        failed = [c.name for c in verify_residuated(ResiduatedStructure(ip.poset, top, table, arrow)).failed()]
        assert failed == ["commutativity", "unit-law"]
        for require_negation in (True, False):
            assert self.agreed_verdicts(ip, top, table[None], require_negation) == ["verification"]

    def test_unit_not_greatest(self):
        ip, unit, table = sugihara3()
        s = ResiduatedStructure(ip.poset, unit, table, _residuals(ip.poset.leq_matrix, table))
        assert [c.name for c in verify_residuated(s).failed()] == ["unit-greatest"]
        for require_negation in (True, False):
            assert self.agreed_verdicts(ip, unit, table[None], require_negation) == ["verification"]


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
     (19, False, {"nodes": 268, "prunes": {"associativity": 42, "joins": 29, "monotonicity": 92}})),
    ("pk9", pseudo_kleene_nine_involuted, True, ALL,
     (0, False, {"nodes": 46, "prunes": {"associativity": 2, "joins": 5, "monotonicity": 8}})),
    ("pk9-any-negation", pseudo_kleene_nine_involuted, False, ALL,
     (0, False, {"nodes": 3225, "prunes": {"associativity": 177, "joins": 644, "monotonicity": 1607}})),
    # without the join rule this search ran for minutes
    ("cube16-any-negation-limit3", lambda: cube_boolean(4), False, 3,
     (1, False, {"nodes": 302, "prunes": {"joins": 12, "monotonicity": 148}})),
    ("chain8-limit3", lambda: chain_inv(8), True, 3,
     (3, True, {"nodes": 37, "prunes": {"associativity": 5, "monotonicity": 1}})),
    # the leaves are checked in batches: a search stops at its limit-th
    # structure, truncated even when it is the last one, and leaves that
    # fail interleave with the structures up to that point
    ("chain8-limit1", lambda: chain_inv(8), True, 1, (1, True, {"nodes": 28, "prunes": {}})),
    ("chain8-limit30", lambda: chain_inv(8), True, 30,
     (30, True, {"nodes": 731, "prunes": {"associativity": 225, "monotonicity": 304}})),
    ("chain8-limit31", lambda: chain_inv(8), True, 31,
     (31, True, {"nodes": 756, "prunes": {"associativity": 227, "monotonicity": 321}})),
    ("chain8-limit32", lambda: chain_inv(8), True, 32,
     (31, False, {"nodes": 756, "prunes": {"associativity": 227, "monotonicity": 321}})),
    ("kleene6-any-negation-limit1", kleene_six_involuted, False, 1, (1, True, {"nodes": 15, "prunes": {}})),
    ("kleene6-any-negation-limit18", kleene_six_involuted, False, 18,
     (18, True, {"nodes": 256, "prunes": {"associativity": 42, "joins": 27, "monotonicity": 85}})),
    ("kleene6-any-negation-limit19", kleene_six_involuted, False, 19,
     (19, True, {"nodes": 268, "prunes": {"associativity": 42, "joins": 29, "monotonicity": 92}})),
    ("kleene6-any-negation-limit20", kleene_six_involuted, False, 20,
     (19, False, {"nodes": 268, "prunes": {"associativity": 42, "joins": 29, "monotonicity": 92}})),
    # no free cell: the one leaf is the root, and its result is the limit-th
    ("one-point-limit1", lambda: chain_inv(1), True, 1, (1, True, {"nodes": 0, "prunes": {}})),
    ("chain2-limit1", lambda: chain_inv(2), True, 1, (1, True, {"nodes": 1, "prunes": {}})),
    ("chain10", lambda: chain_inv(10), True, ALL,
     (161, False, {"nodes": 9184, "prunes": {"associativity": 2889, "monotonicity": 4575}})),
    ("chain11", lambda: chain_inv(11), True, ALL,
     (329, False, {"nodes": 26532, "prunes": {"associativity": 9374, "monotonicity": 12821}})),
    # element orders that are duals of linear extensions: the miner bounds
    # each cell by the whole box of comparable cells there, and the order
    # changes the search's size
    ("kleene6-reversed", lambda: reversed_order(kleene_six_involuted()), True, ALL,
     (4, False, {"nodes": 80, "prunes": {"associativity": 4, "joins": 5, "monotonicity": 9}})),
    ("kleene6-reversed-any-negation", lambda: reversed_order(kleene_six_involuted()), False, ALL,
     (19, False, {"nodes": 408, "prunes": {"associativity": 40, "joins": 35, "monotonicity": 92}})),
    ("chain8-reversed", lambda: reversed_order(chain_inv(8)), True, ALL,
     (31, False, {"nodes": 3588, "prunes": {"associativity": 781, "monotonicity": 1052}})),
    # an element order that is neither a linear extension nor its dual:
    # the miner bounds each cell by the whole box of comparable cells
    ("kleene6-shuffled", lambda: shuffled_order(kleene_six_involuted()), True, ALL,
     (4, False, {"nodes": 54, "prunes": {"associativity": 7, "joins": 1, "monotonicity": 10}})),
    ("kleene6-shuffled-any-negation", lambda: shuffled_order(kleene_six_involuted()), False, ALL,
     (19, False, {"nodes": 298, "prunes": {"associativity": 40, "joins": 31, "monotonicity": 91}})),
    ("chain8-shuffled", lambda: shuffled_order(chain_inv(8)), True, ALL,
     (31, False, {"nodes": 2029, "prunes": {"associativity": 277, "monotonicity": 508}})),
    # not a lattice: leaves without a residual reach the leaf check
    ("stacked-antichains-any-negation", stacked_antichains, False, ALL,
     (113, False, {"nodes": 10363, "prunes": {"associativity": 2178, "joins": 326, "monotonicity": 5250,
                                              "residual-missing": 174}})),
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

    def test_shuffled_pins_are_neither_order(self):
        for make in (kleene_six_involuted, lambda: chain_inv(8)):
            assert order_kind(shuffled_order(make())) is None


def bounded_sum(p, inv):
    """The carrier 0 < Q < 1 of (Q, ') with 0' = 1."""
    leq = p.leq_matrix
    order = [(a, b) for a in p.elements for b in p.elements if leq[p.index(a), p.index(b)]]
    order += [("0", x) for x in p.elements] + [(x, "1") for x in p.elements] + [("0", "1")]
    q = poset_from_relation(["0", *p.elements, "1"], order)
    return involuted(q, {**inv.mapping, "0": "1", "1": "0"})


# |Q| -> (pairs, no residuation, lattices with none, lattices); not yet
# compared with the literature
CENSUS = {
    1: (1, 0, 0, 1),
    2: (3, 1, 1, 3),
    3: (6, 5, 5, 6),
    4: (21, 17, 15, 19),
    5: (51, 45, 42, 48),
    6: (190, 165, 136, 159),
}


class TestCensus:
    @pytest.mark.parametrize("m", sorted(CENSUS))
    def test_bounded_sum_counts(self, m):
        pairs = none = lattices = lattices_none = 0
        for p in posets_of_size(m):
            for inv in enumerate_antitone_involutions(p):
                ip = bounded_sum(p, inv)
                outcome = find_residuations(ip, limit=1)
                lattice = ip.poset.is_lattice()
                pairs += 1
                lattices += lattice
                if outcome.satisfiable:
                    assert verify_residuated(outcome.structures[0]).overall
                else:
                    none += 1
                    lattices_none += lattice
        assert (pairs, none, lattices_none, lattices) == CENSUS[m]


def labelled(outcome):
    """The outcome's structures as sets of label cells, free of the element order."""
    return {
        (s.unit, frozenset((x, y, s.odot_of(x, y), s.arrow_of(x, y)) for x in s.elements for y in s.elements))
        for s in outcome.structures
    }


class TestRelabelling:
    def test_catalog_sums_give_the_same_structures_on_shuffled_orders(self):
        # a fault that the pruned search and the rescan oracle share, or a
        # wrong map back to the caller's labels, passes the order tests that
        # compare the two on one element order; the labelled structures
        # themselves may not depend on it
        comparisons = structures = 0
        kinds = Counter()
        for p, inv in involuted_posets_up_to_size(5):
            ip = bounded_sum(p, inv)
            shuffles = [shuffled_order(ip, seed) for seed in (0, 1)]
            kinds.update(map(order_kind, shuffles))
            for require_negation in (True, False):
                base = find_residuations(ip, require_negation=require_negation, limit=ALL)
                want = labelled(base)
                assert not base.truncated and len(want) == len(base.structures)
                structures += len(want)
                for q in shuffles:
                    assert labelled(find_residuations(q, require_negation=require_negation, limit=ALL)) == want
                    comparisons += 1
        # every shuffle is neither a linear extension nor its dual, so each
        # search bounds its cells by whole boxes
        assert kinds == {None: 164}
        assert (comparisons, structures) == (328, 759)


def lattice_carriers():
    """The census carriers 0 < Q < 1 with |Q| <= 5 that are lattices, then the lattice builtins."""
    for m in range(1, 6):
        for p in posets_of_size(m):
            for inv in enumerate_antitone_involutions(p):
                ip = bounded_sum(p, inv)
                if ip.poset.is_lattice():
                    yield ip
    for make in BUILTINS.values():
        ip = make()
        if ip.poset.is_lattice():
            yield ip


class TestJoinPreservation:
    @pytest.mark.parametrize("require_negation", [True, False])
    def test_no_lattice_leaf_lacks_a_residual(self, require_negation):
        # on a finite lattice a monotone x . y that preserves binary joins,
        # with x . 0 = 0 (integrality), is residuated, so every leaf the
        # search reaches has its residuals
        searches = 0
        for ip in lattice_carriers():
            stats = find_residuations(ip, require_negation=require_negation, limit=ALL).stats
            assert "residual-missing" not in stats.prunes
            searches += 1
        assert searches == 84

    def test_cube16_any_negation_is_the_meet(self):
        # on a Boolean algebra with unit top, joins and integrality give
        # x ^ y = (x ^ y) . (x v x') = ((x ^ y) . x) v ((x ^ y) . x')
        # = (x ^ y) . x <= y . x, and integrality gives the converse
        ip = cube_boolean(4)
        outcome = find_residuations(ip, require_negation=False, limit=ALL)
        assert [s.odot.tolist() for s in outcome.structures] == [ip.poset._meet_table.tolist()]


class TestDeepSearch:
    # one level per free cell: 1,225 at 50 elements, past the recursion limit
    def test_fifty_chain_first_structure(self):
        outcome = find_residuations(chain_inv(50), limit=1)
        assert outcome.satisfiable
        assert outcome.truncated
        assert verify_residuated(outcome.structures[0]).overall

    def test_carrier_cap_chain_first_structure(self):
        # the largest leaf stack the miner builds: one table of 10^6 cube
        # cells, just under one slab
        assert MAX_CARRIER**3 <= SLAB_CELLS < 2 * MAX_CARRIER**3
        tracemalloc.start()
        try:
            outcome = find_residuations(chain_inv(MAX_CARRIER), limit=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (len(outcome.structures), outcome.truncated) == (1, True)
        assert verify_residuated(outcome.structures[0]).overall
        assert peak < 7_000_000  # the MAX_CARRIER comment gives about 6.6 MB

    def test_cli_mines_fifty_chain(self, tmp_path, capsys):
        path = tmp_path / "c50.json"
        assert main(["extend", "cor1", "--n", "50", "--format", "json", "-o", str(path)]) == 0
        assert main(["mine", "-i", str(path), "--limit", "1"]) == 0
        assert capsys.readouterr().out.startswith("satisfiable: 1 structure(s) found")


def construction_outputs():
    """(id, construction) pairs whose carriers the miner enumerates in well under 0.1 s.

    Corollary 1 on chains of 5 to 7, Theorem 3 with n = 2 and k = 0 or 1
    on every poset of up to 3 points (carriers of 6 to 11 elements), and
    Theorem 5 on the 2- and 4-element Boolean algebras.
    """
    for n in range(5, 8):
        yield f"cor1-{n}", lambda n=n: chain_residuation(n)
    for size in (1, 2, 3):
        for j, p in enumerate(posets_of_size(size)):
            for k in (0, 1):
                yield f"thm3-2-{k}-p{size}.{j}", lambda p=p, k=k: extend_theorem3(p, 2, k)
    for dim, n in ((1, 1), (2, 1), (2, 2)):
        yield f"thm5-cube{2**dim}-{n}", lambda dim=dim, n=n: extend_boolean_theorem5(cube_boolean(dim), n)


CONSTRUCTION_OUTPUTS = list(construction_outputs())


class TestConstructionOutputsAccepted:
    def test_miner_finds_chain_residuation(self):
        for n in (3, 4):
            standard = chain_residuation(n).structure
            outcome = find_residuations(chain_inv(n), limit=10**6)
            assert any(structural_equal(s, standard) for s in outcome.structures)

    @pytest.mark.parametrize(
        "make",
        [make for _, make in CONSTRUCTION_OUTPUTS],
        ids=[key for key, _ in CONSTRUCTION_OUTPUTS],
    )
    def test_full_enumeration_holds_the_construction(self, make):
        # the structure a construction builds, and not merely an isomorphic
        # one, is among the miner's structures on its involuted carrier
        result = make()
        outcome = find_residuations(involuted(result.poset, result.involution), limit=10**6)
        assert not outcome.truncated
        assert result.structure in outcome.structures

    def test_theorems_1_and_2_on_the_catalog_pairs(self):
        # every pair of up to 5 points, in every Theorem-1 mode it admits and
        # by Theorem 2 with n = 2: carriers of up to 9 elements
        searches = 0
        for p, inv in involuted_posets_up_to_size(5):
            ip = involuted(p, inv)
            results = [extend_theorem2(ip, 2)]
            for mode in ExtensionMode:
                try:
                    results.append(extend_theorem1(ip, mode))
                except ModeUnsatisfiable:
                    continue
            for result in results:
                outcome = find_residuations(involuted(result.poset, result.involution), limit=ALL)
                assert not outcome.truncated
                assert result.structure in outcome.structures
                searches += 1
        assert searches == 179


class TestMinedStructures:
    def test_tables_are_read_only_int64_and_survive_a_round_trip(self):
        # the leaves are stacked as bytes; the structures must not show it
        for _, make, require_negation, limit, _ in SEARCH_TREES:
            for s in find_residuations(make(), require_negation=require_negation, limit=limit).structures:
                for table in (s.odot, s.arrow):
                    assert table.dtype == np.int64
                    assert not table.flags.writeable
                buf = io.StringIO()
                dump(structure_to_doc(s), buf)
                buf.seek(0)
                back = load_structure(buf).structure
                assert back == s
                assert hash(back) == hash(s)


class TestLimitsAndErrors:
    def test_limit_truncates(self):
        full = find_residuations(chain_inv(4), limit=10**6)
        if len(full.structures) > 1:
            cut = find_residuations(chain_inv(4), limit=1)
            assert cut.truncated
            assert len(cut.structures) == 1
            assert cut.structures[0] == full.structures[0]

    @pytest.mark.parametrize("n", [1, 2])
    def test_limit_one_truncates_as_the_naive_oracle_does(self, n):
        # on the one-point carrier the leaf is the root
        pruned = find_residuations(chain_inv(n), limit=1)
        naive = find_residuations_naive(chain_inv(n), limit=1)
        assert (pruned.structures, pruned.truncated) == (naive.structures, naive.truncated)
        assert pruned.truncated

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

    def test_top_without_bottom_has_no_involution(self):
        # an antitone involution maps a top to a bottom, so a carrier the
        # miner accepts has one, and require_negation can always index it;
        # here a "V": t above x and y, no bottom
        p = poset_from_covers(["x", "y", "t"], [("x", "t"), ("y", "t")])
        assert enumerate_antitone_involutions(p) == []
