import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from resposet import (
    Poset,
    chain_poset,
    poset_from_covers,
    poset_from_relation,
)
from resposet import order
from resposet.errors import CycleDetected, DuplicateLabel, SelfCover, UnknownLabel
from resposet.constructions import extend_boolean_theorem5
from resposet.fixtures import antichain, cube_boolean, letter_cube_boolean, n5

N5_ELEMENTS = ["0", "a", "b", "c", "1"]
N5_COVERS = [("0", "a"), ("0", "c"), ("a", "b"), ("b", "1"), ("c", "1")]


def naive_closure(elements, covers):
    """Oracle: reflexive-transitive closure by fixpoint over label pairs."""
    rel = {(x, x) for x in elements} | set(covers)
    while True:
        extra = {
            (x, w)
            for (x, y) in rel
            for (z, w) in rel
            if y == z and (x, w) not in rel
        }
        if not extra:
            return rel
        rel |= extra


def naive_bound(p, x, y, lower=True):
    """Oracle: meet/join by enumerating the common bound set."""
    if lower:
        common = [z for z in p.elements if p.leq(z, x) and p.leq(z, y)]
        best = [z for z in common if all(p.leq(w, z) for w in common)]
    else:
        common = [z for z in p.elements if p.leq(x, z) and p.leq(y, z)]
        best = [z for z in common if all(p.leq(z, w) for w in common)]
    return best[0] if best else None


def greatest_lower_bounds_counted(leq: np.ndarray) -> np.ndarray:
    """Oracle: the meet table by counting common lower bounds (an earlier algorithm)."""
    # g is the meet of i and j iff g <= i, g <= j and g has as many
    # elements below it as i and j have common lower bounds.
    common = leq.T.astype(np.int64) @ leq.astype(np.int64)
    below = leq.sum(axis=0)
    table = np.full(leq.shape, -1, dtype=np.int64)
    for g in range(len(leq)):
        table[np.outer(leq[g], leq[g]) & (common == below[g])] = g
    return table


class TestFromCovers:
    def test_n5_closure_matches_oracle(self):
        p = poset_from_covers(N5_ELEMENTS, N5_COVERS)
        oracle = naive_closure(N5_ELEMENTS, N5_COVERS)
        got = {
            (x, y) for x in p.elements for y in p.elements if p.leq(x, y)
        }
        assert got == oracle
        assert len(got) == 13  # 5 reflexive + 8 strict

    def test_n5_order_facts(self):
        p = n5()
        assert p.leq("a", "b")
        assert not p.leq("c", "a") and not p.leq("a", "c")
        for x in p.elements:
            assert p.leq(x, x)

    def test_singleton(self):
        p = poset_from_covers(["x"], [])
        assert p.leq("x", "x")
        assert len(p) == 1

    def test_cycle_detected(self):
        with pytest.raises(CycleDetected):
            poset_from_covers(["x", "y"], [("x", "y"), ("y", "x")])

    def test_self_cover(self):
        with pytest.raises(SelfCover):
            poset_from_covers(["x"], [("x", "x")])

    def test_duplicate_label(self):
        with pytest.raises(DuplicateLabel):
            poset_from_covers(["x", "x"], [])

    def test_unknown_endpoint(self):
        with pytest.raises(UnknownLabel):
            poset_from_covers(["x"], [("x", "y")])

    def test_unknown_query(self):
        with pytest.raises(UnknownLabel):
            n5().leq("0", "zz")

    def test_full_order_input(self):
        pairs = [(x, y) for (x, y) in naive_closure(N5_ELEMENTS, N5_COVERS)]
        assert poset_from_relation(N5_ELEMENTS, pairs) == n5()


class TestMeetJoin:
    def test_n5_meet_join_match_oracle(self):
        p = n5()
        for x in p.elements:
            for y in p.elements:
                assert p.meet(x, y) == naive_bound(p, x, y, lower=True)
                assert p.join(x, y) == naive_bound(p, x, y, lower=False)
        assert p.meet("a", "c") == "0"
        assert p.join("a", "c") == "1"

    def test_antichain_has_no_meet(self):
        p = antichain(2)
        assert p.meet("u1", "u2") is None

    def test_meet_idempotent(self):
        p = n5()
        for x in p.elements:
            assert p.meet(x, x) == x

    def test_tables_match_counting_oracle(self, small_posets):
        empty = Poset((), np.zeros((0, 0), dtype=bool))
        thm5 = extend_boolean_theorem5(cube_boolean(4), 100, verify=False).poset
        assert len(thm5) == 216
        for p in [*small_posets, empty, chain_poset(["x"]), thm5]:
            for q in (p, p.dual()):
                leq = q.leq_matrix
                assert np.array_equal(q._meet_table, greatest_lower_bounds_counted(leq))
                assert np.array_equal(q._join_table, greatest_lower_bounds_counted(leq.T))


class TestPredicates:
    def test_is_lattice(self):
        assert n5().is_lattice()
        assert not antichain(2).is_lattice()
        assert letter_cube_boolean().lattice.is_lattice()

    def test_is_chain(self):
        assert chain_poset(["c1", "c2", "c3", "c4", "c5"]).is_chain()
        assert not n5().is_chain()
        assert poset_from_covers(["x"], []).is_chain()

    def test_bounds(self):
        assert n5().bounds() == ("0", "1")
        assert antichain(2).bounds() == (None, None)
        assert chain_poset(["c1", "c2", "c3", "c4"]).bounds() == ("c1", "c4")

    def test_lattice_laws_exhaustive(self):
        # commutative, associative, absorptive meet/join on a known lattice
        for p in (n5(), letter_cube_boolean().lattice):
            els = p.elements
            for x in els:
                for y in els:
                    assert p.meet(x, y) == p.meet(y, x)
                    assert p.join(x, y) == p.join(y, x)
                    assert p.meet(x, p.join(x, y)) == x
                    assert p.join(x, p.meet(x, y)) == x
                    for z in els:
                        assert p.meet(p.meet(x, y), z) == p.meet(x, p.meet(y, z))
                        assert p.join(p.join(x, y), z) == p.join(x, p.join(y, z))


class TestDual:
    def test_dual_of_chain(self):
        p = chain_poset(["0", "m", "1"])
        d = p.dual()
        assert d.leq("1", "m") and d.leq("m", "0") and not d.leq("0", "m")

    def test_dual_n5_reverses_strict_pairs(self):
        p = n5()
        d = p.dual()
        assert d.leq("b", "a") and not d.leq("a", "b")
        assert not d.leq("c", "a") and not d.leq("a", "c")
        for x in p.elements:
            for y in p.elements:
                assert p.leq(x, y) == d.leq(y, x)

    def test_dual_involutive(self, small_posets):
        for p in small_posets:
            assert p.dual().dual() == p


class TestRoundTrip:
    def test_covers_round_trip(self, small_posets):
        for p in list(small_posets) + [n5(), letter_cube_boolean().lattice]:
            rebuilt = poset_from_covers(p.elements, p.covers())
            assert rebuilt == p

    def test_one_product_and_quarter_products_give_the_same_covers(self, small_posets, monkeypatch):
        n = 513  # past one product: two slabs of rows at the default _PRODUCT_CELLS
        assert -(-n // (order._PRODUCT_CELLS // n)) == 2
        long_chain = Poset(tuple(f"v{i}" for i in range(n)), np.triu(np.ones((n, n), bool)))
        posets = [Poset((), np.zeros((0, 0), bool)), *small_posets, letter_cube_boolean().lattice, long_chain]
        whole = [p.covers() for p in posets]
        assert whole[0] == []
        assert whole[-1] == [(f"v{i}", f"v{i + 1}") for i in range(n - 1)]
        monkeypatch.setattr(order, "_PRODUCT_CELLS", 0)  # one row per product
        assert [Poset(p.elements, p.leq_matrix).covers() for p in posets] == whole

    def test_reduction_of_998_elements_stays_in_quarter_products(self):
        n = 998
        p = Poset(tuple(f"v{i}" for i in range(n)), np.triu(np.ones((n, n), bool)))
        tracemalloc.start()
        try:
            lower, upper = p._reduction
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert lower.tolist() == list(range(n - 1)) and upper.tolist() == list(range(1, n))
        # 5.0 MiB measured: the float32 copy of leq is 3.8 MiB, and one whole
        # product would add as much again
        assert peak < 5.5 * 2**20

    def test_axioms_hold(self, small_posets):
        for p in small_posets:
            m = p.leq_matrix
            assert m.diagonal().all()
            assert not (m & m.T & ~np.eye(len(p), dtype=bool)).any()
            closed = m | (m @ m)
            assert np.array_equal(closed, m)


@st.composite
def acyclic_covers(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    labels = [f"v{i}" for i in range(n)]
    pairs = draw(
        st.sets(
            st.tuples(
                st.integers(0, n - 1), st.integers(0, n - 1)
            ).filter(lambda t: t[0] < t[1]),
            max_size=10,
        )
    )
    return labels, [(labels[i], labels[j]) for i, j in pairs]


@given(acyclic_covers())
def test_random_posets_round_trip(data):
    labels, covers = data
    p = poset_from_covers(labels, covers)
    oracle = naive_closure(labels, covers)
    got = {(x, y) for x in labels for y in labels if p.leq(x, y)}
    assert got == oracle
    assert poset_from_covers(labels, p.covers()) == p
    assert p.dual().dual() == p


def squaring_closure(rel):
    """Reference: the closure by repeated boolean squaring, as computed before Warshall."""
    closure = rel.copy()
    while True:
        step = closure | (closure @ closure)
        if np.array_equal(step, closure):
            return closure
        closure = step


@st.composite
def relations(draw):
    """Random relations on up to 40 labels, so a row spans several bytes; half may cycle."""
    n = draw(st.integers(min_value=0, max_value=40))
    labels = [f"v{i}" for i in range(n)]
    if not n:
        return labels, []
    index = st.integers(min_value=0, max_value=n - 1)
    pairs = draw(st.lists(st.tuples(index, index), max_size=2 * n))
    if draw(st.booleans()):  # every pair upward in label order: no cycle
        pairs = [sorted(pair) for pair in pairs]
    return labels, [(labels[i], labels[j]) for i, j in pairs]


@given(relations())
def test_closure_matches_squaring(data):
    check_closure(*data)


def chain_listed(n, top_down, whole=False):
    """The n-chain v0 < v1 < ... as its covers, or every strict pair when whole, listed bottom-up or top-down."""
    labels = [f"v{i}" for i in range(n)]
    pairs = list(combinations(labels, 2) if whole else zip(labels, labels[1:]))
    return (labels[::-1] if top_down else labels), pairs


@pytest.mark.parametrize(
    "labels, pairs",
    [
        chain_listed(300, top_down=False),
        chain_listed(300, top_down=True),
        # dense rows: each successor's closed row holds every later one
        chain_listed(200, top_down=False, whole=True),
        chain_listed(200, top_down=True, whole=True),
        # a 3-cycle a -> b -> c -> a below d
        (["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")]),
        # the 3-cycle d -> c -> b -> d, with a below it, listed against it
        (["a", "b", "c", "d"], [("d", "c"), ("c", "b"), ("b", "d"), ("a", "b")]),
        # a -> b -> c -> a, then a -> d -> e: the search leaves c and b before
        # it reaches e, so one sweep misses e in their rows
        (["a", "b", "c", "d", "e"], [("a", "b"), ("b", "c"), ("c", "a"), ("a", "d"), ("d", "e")]),
    ],
    ids=[
        "chain300-bottom-up", "chain300-top-down", "chain200-whole-bottom-up",
        "chain200-whole-top-down", "cycle-abc", "cycle-dcb", "cycle-then-tail",
    ],
)
def test_long_chains_and_cycles_match_squaring(labels, pairs):
    # a sweep in one fixed index order would close one of the two listings
    # a row per pass
    check_closure(labels, pairs)


def check_closure(labels, pairs):
    """_transitive_closure and poset_from_relation against squaring_closure."""
    n = len(labels)
    index = {x: i for i, x in enumerate(labels)}
    rel = np.eye(n, dtype=bool)
    for x, y in pairs:
        rel[index[x], index[y]] = True
    expected = squaring_closure(rel)
    rows = [sum(1 << j for j in np.flatnonzero(row).tolist()) for row in rel]
    assert np.array_equal(order._bool_matrix(order._transitive_closure(rows)), expected)

    sym = expected & expected.T & ~np.eye(n, dtype=bool)
    if sym.any():
        i, j = np.argwhere(sym)[0]
        with pytest.raises(CycleDetected) as info:
            poset_from_relation(labels, pairs)
        assert str(info.value) == f"{labels[i]!r} and {labels[j]!r} are mutually comparable"
    else:
        p = poset_from_relation(labels, pairs)
        assert np.array_equal(p.leq_matrix, expected)
        strict = expected & ~np.eye(n, dtype=bool)
        reduction = strict & ~(strict @ strict)
        assert p.covers() == [(labels[i], labels[j]) for i, j in np.argwhere(reduction)]
