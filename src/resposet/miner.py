"""Exhaustive search for residuated structures on an involuted poset.

The monoid table is searched cell by cell (commutativity halves the
space, the unit row is forced); the residual table is never searched but
derived from the monoid operation.  Pruning rules are consequences of
the axioms:

  integrality:   x . y must be a common lower bound of x and y
                 (the unit is the greatest element)
  monotonicity:  a <= b implies a . c <= b . c; on entering cell (i, j)
                 the search bounds its values, as one int mask, by
                 a . j and i . b for the lower covers a of i and b of j,
                 and each candidate outside the mask is pruned.  The
                 search runs on a linear extension: a carrier listed in
                 another order is relisted to one in the same call, and
                 each structure is mapped back once to the input's labels
  negation-zero: when the derived negation must equal the involution,
                 x . y = 0 exactly when x <= y'
  associativity: (a . b) . c = a . (b . c) on every triple whose four
                 lookups are assigned; each node checks only the
                 triples that look up its new cell, which is exact
                 because the parent passed and the unit row alone is
                 associative
  joins:         y -> x . y is residuated, so it preserves every join
                 that exists in P (Blyth & Janowitz 1972):
                 x . (y v z) = (x . y) v (x . z), the right-hand join
                 existing, for incomparable y, z whose three cells are
                 assigned; each node checks only the triples that look
                 up its new cell.  On a lattice this with x . 0 = 0 is
                 residuation, so no lattice leaf lacks a residual

A complete table is a leaf.  Leaves never steer the search: they wait on
a stack that is checked a slab (SLAB_CELLS cells of n^3 cubes) at a
time, by one vectorised pass per stack.  Every leaf gets its arrow,
and with it adjointness, from the down-set test of _residuals, then the
other four axioms of verify_residuated and, when required, the negation
check.  The stack is also checked as soon as it holds as many tables as
results are still wanted, so the search stops at the leaf of its
limit-th result.

A naive oracle (no pruning beyond commutativity and the forced unit
row) is provided for small carriers to certify the pruned search.  It
checks all its tables as one stack with the same leaf check, and counts
each table it rejects under its prune rule.
"""

from collections import defaultdict
from dataclasses import dataclass, field
from itertools import chain, compress, product, repeat

import numpy as np

from .errors import CarrierTooLarge, LimitZero, Unbounded
from .involution import InvolutedPoset
from .residuation import SLAB_CELLS, ResiduatedStructure, _associative, _residuals

# The most carrier elements the miner searches.  Its set-up holds up to
# n^3 candidates in per-cell lists: about 3.2 MB at 100 elements, gigabytes
# at the 1000 a construction may build.  Its leaves are checked in stacks
# whose n^3 cubes never exceed one SLAB_CELLS slab (one table at 100
# elements, 606 at 12), each table stacked as n^2 bytes.  By tracemalloc,
# the first structure of the 100-chain peaks at about 6.6 MB (the tests hold
# it under 7 MB) and the full enumeration of the 12-chain at about 4.1 MB.
MAX_CARRIER = 100
# The most carrier elements the naive oracle searches, as one stack of all
# n^(n(n-1)/2) tables: 4,096 at 4 elements, a quarter slab, 9,765,625 at 5.
NAIVE_MAX = 4


@dataclass
class MinerStats:
    nodes: int = 0
    prunes: dict = field(default_factory=dict)

    def prune(self, rule):
        self.prunes[rule] = self.prunes.get(rule, 0) + 1

    def as_dict(self):
        return {"nodes": self.nodes, "prunes": dict(sorted(self.prunes.items()))}


def _leaf_check(ip: InvolutedPoset, unit, require_negation):
    """verdicts(tables): the check of a [t, n, n] stack of complete tables, t n^3 <= SLAB_CELLS.

    verdicts gives, in stack order, each table's structure or the prune
    rule that rejects it.  The rules, in the order they are tried:
    residual-missing, some {a : a . j <= k} is no element's down-set, so
    no arrow is adjoint to the table; verification, unit-greatest,
    commutativity, the unit law or associativity fails; negation-mismatch,
    with require_negation, x -> 0 is not the involution.  The arrows come
    from _residuals' down-set test, a <= j -> k iff a . j <= k, which is
    adjointness itself.  Associativity is verify_residuated's verdict,
    _associative, over the rows of the whole stack; it decides a table
    once that table is commutative, and the stack fits one of its slabs.
    """
    p = ip.poset
    leq = p.leq_matrix
    n = len(p)
    u = p.index(unit)
    unit_greatest = bool(leq[:, u].all())
    identity = np.arange(n)
    small = np.min_scalar_type(n - 1)
    bottom = p.index(p.bounds()[0]) if require_negation else None
    image = np.array(ip.involution.image)

    def verdicts(tables):
        t = len(tables)
        arrows = _residuals(leq, tables)
        ok = unit_greatest & (tables == tables.transpose(0, 2, 1)).all(axis=(1, 2))  # commutativity
        ok &= (tables[:, u] == identity).all(axis=1)  # unit law
        # table i's row y . x is row i n + y . x of all t tables' rows, in the
        # smallest index dtype; the row numbers stay int64, as bytes overflow
        ok &= _associative(tables.astype(small).reshape(t * n, n), tables + (n * np.arange(t))[:, None, None])
        missing = (arrows < 0).any(axis=(1, 2))
        mismatch = (arrows[:, :, bottom] != image).any(axis=1) if require_negation else np.zeros(t, bool)
        # the accepted tables and their arrows, each gathered once, the tables
        # as int64; every structure holds its rows of these, not of the stack
        accepted = ~missing & ok & ~mismatch
        structures = map(ResiduatedStructure, repeat(p), repeat(unit),
                         tables[accepted].astype(np.int64), arrows[accepted])
        return [
            "residual-missing" if lost
            else "verification" if not sound
            else "negation-mismatch" if wrong
            else next(structures)
            for lost, sound, wrong in zip(missing.tolist(), ok.tolist(), mismatch.tolist())
        ]

    return verdicts


@dataclass
class MinerOutcome:
    satisfiable: bool
    structures: list
    stats: MinerStats
    truncated: bool = False  # stopped at its limit-th structure, even when that was the last one


def _free_cells(ip: InvolutedPoset, limit):
    """Check the limit and the top; return the top and the (i, j), i <= j, cells off the unit row.

    The cells come as a list of pairs in row-major order.
    """
    if limit < 1:
        raise LimitZero("result limit must be positive")
    p = ip.poset
    n = len(p)
    top = p.bounds()[1]
    if top is None:
        raise Unbounded("the miner needs a greatest element to serve as unit")
    u = p.index(top)
    return top, [(i, j) for i in range(n) if i != u for j in range(i, n) if j != u]


def _orientations(i, j):
    """The cell (i, j) and its mirror (j, i), once when they coincide."""
    return ((i, j), (j, i)) if i != j else ((i, j),)


def find_residuations(ip: InvolutedPoset, require_negation=True, limit=16) -> MinerOutcome:
    """Enumerate residuated structures on the given involuted poset.

    The unit is the top element.  When require_negation is set, only
    structures whose derived negation equals the involution are
    accepted.  Results appear in lexicographic order of the monoid table.
    An input not listed in a linear extension is relisted to one in the same
    call, so a truncated search keeps the relisted search's first structures.
    """
    given, order = ip.poset, None
    n = len(given)
    if n > MAX_CARRIER:  # before any array is built
        raise CarrierTooLarge(f"miner: {n} carrier elements exceed the limit {MAX_CARRIER}")
    # a linear extension lists no element of x's down-set after x: row x of
    # the order, x's up-set, has its first True on the diagonal.  The stable
    # sort by down-set size is one, as a < b gives down(a) within down(b)
    rows = given.leq_matrix.tolist()
    if any(row.index(True) < x for x, row in enumerate(rows)):
        order = np.argsort(given.leq_matrix.sum(axis=0), kind="stable")
        ip = ip.relisted(order)
        rows = ip.poset.leq_matrix.tolist()
    top, cells = _free_cells(ip, limit)
    p = ip.poset
    u = p.index(top)

    down = [list(compress(range(n), column)) for column in p.leq_matrix.T.tolist()]
    inv = ip.involution.image
    zero = p.index(p.bounds()[0]) if require_negation else -1
    # x . y is a common lower bound of x and y (integrality) and, when the
    # negation must match, 0 exactly when x <= y' (negation-zero)
    candidates = [
        [zero] if require_negation and rows[i][inv[j]] else [v for v in down[i] if rows[v][j] and v != zero]
        for i, j in cells
    ]
    sides = [_orientations(i, j) for i, j in cells]

    # w = a v b exactly when the up-sets, as int masks, meet in w's.
    # partners[y] lists (z, y v z) for each z incomparable to y whose join
    # with y exists; splits[w] lists the incomparable pairs (a, b) with
    # a v b = w.  In a linear extension y v z, above y, has the larger
    # index, so when x . y is the new cell (i, j) or its mirror, the cell
    # of x . (y v z) comes later in row-major order and is unassigned,
    # unless y v z is the unit; partners keeps only the unit's
    bits = [1 << a for a in range(n)]
    ups = [sum(compress(bits, row)) for row in rows]
    join_of = {mask: x for x, mask in enumerate(ups)}
    partners = [[] for _ in range(n)]
    splits = [[] for _ in range(n)]
    for b in range(n):
        for a in range(b):
            if not (rows[a][b] or rows[b][a]) and (w := join_of.get(ups[a] & ups[b])) is not None:
                splits[w].append((a, b))
                if w == u:
                    partners[a].append((b, w))
                    partners[b].append((a, w))
    touched = [bool(partners[y] or splits[y]) for y in range(n)]
    joined = [touched[i] or touched[j] for i, j in cells]
    # the lower covers of each x, for the cross: in a linear extension
    # whatever lies above a has a larger index, so, from the top of x's
    # strict down-set down, a is a lower cover when no lower cover found so
    # far is above it
    full = (1 << n) - 1
    lower = [[] for _ in range(n)]
    for x in range(n):
        found = 0
        for a in reversed(down[x][:-1]):
            if not ups[a] & found:
                found |= 1 << a
                lower[x].append(a)

    # the table as int rows, -1 where unassigned; preimage[x] lists the
    # assigned cells (a, b) off the unit row, both orientations, with
    # a . b = x: where a or b is the unit, (a . b) . y = a . (b . y) holds
    # whatever the table
    t = [[-1] * n for _ in range(n)]
    preimage = [[] for _ in range(n)]
    for x in range(n):
        t[u][x] = t[x][u] = x

    def bound(i, j):
        """The values v, as an int mask, that keep the table monotone with v at the unassigned cell (i, j).

        An assigned (a, b) with a <= i, b <= j needs a . b <= v, and with
        i <= a, j <= b needs v <= a . b; t is symmetric, so these also
        cover (b, a).  Every cell before (i, j) in row-major order is
        assigned, and none after it but on the unit row.  As the order is
        a linear extension (a < b in the order gives index a < index b),
        and i <= j:
        - every (a, b) != (i, j) with a <= i, b <= j is assigned: a < i
          gives min(a, b) < i, and a = i gives b < j;
        - no (a, b) != (i, j) with i <= a, j <= b is, but on the unit row:
          min(a, b) >= i, equal only at a = i, b > j.  There t[a][b] is a
          or b, above i or j and so above v (integrality).
        The assigned cells form a monotone partial table, since every
        ancestor passed, so a < i gives a . b <= a . j, both assigned.  So
        a . j <= v for the a < i and i . b <= v for the b < j bound v
        exactly, and as an a < i lies below a lower cover c of i, where
        a . j <= c . j, the lower covers of i and j suffice.
        """
        allowed = full
        row_i = t[i]
        for a in lower[i]:
            allowed &= ups[t[a][j]]
        for b in lower[j]:
            allowed &= ups[row_i[b]]
        return allowed

    def assoc_ok(pos, v):
        # (a . b) . c = a . (b . c) on the complete triples that look up the
        # new cell; every other complete triple was complete at the parent,
        # which passed.  By commutativity (c, b, a) makes the same four
        # lookups as (a, b, c), so the kinds "a . b is the cell" and
        # "a . b is x, c is y", over both orientations (x, y) of the cell,
        # also cover "b . c is the cell" and "a is x, b . c is y"
        row_v = t[v]
        for x, y in sides[pos]:
            row_x, row_y = t[x], t[y]
            # (x . y) . c = x . (y . c); in row-major order the assigned
            # cells of row y are those with c <= x and the unit's, where
            # both sides are x . y
            for c in range(x + 1):
                w, left = row_y[c], row_v[c]
                if w >= 0 and left >= 0 and 0 <= row_x[w] != left:
                    return False
            for a, b in preimage[x]:  # (a . b) . y = a . (b . y) with a . b = x
                w = t[b][y]
                if w >= 0 and 0 <= t[a][w] != v:
                    return False
        return True

    def joins_ok(pos, v):
        # for each orientation (x, y) of the new cell: as x . y, next to an
        # assigned x . z with x . (y v z) assigned; as x . (a v b), with
        # x . a and x . b assigned.  Comparable pairs are monotonicity's
        up_v = ups[v]
        for x, y in sides[pos]:
            row_x = t[x]
            for z, w in partners[y]:
                c, d = row_x[z], row_x[w]
                if c >= 0 and d >= 0 and up_v & ups[c] != ups[d]:
                    return False
            for a, b in splits[y]:
                c, d = row_x[a], row_x[b]
                if c >= 0 and d >= 0 and ups[c] & ups[d] != up_v:
                    return False
        return True

    nodes = 0
    pruned = defaultdict(int)  # every prune by rule; a Counter's += takes about three times as long
    # each cell's (untried candidates, bound), None until the search enters
    # the cell and again once it leaves it back up; the cells before it stay
    # fixed while the search is there
    entries = [None] * len(cells)

    def advance(pos):
        """Give cell pos its next candidate that passes every check; False, the cell cleared, when none is left."""
        nonlocal nodes
        i, j = cells[pos]
        row_i, row_j, side = t[i], t[j], sides[pos]
        if entries[pos] is not None:  # back from the child: take the cell's value out
            del preimage[row_i[j]][-len(side):]
        elif candidates[pos]:
            entries[pos] = iter(candidates[pos]), bound(i, j)
        else:
            pruned["empty-cell"] += 1
            return False
        untried, allowed = entries[pos]
        for v in untried:
            nodes += 1
            if not allowed >> v & 1:
                pruned["monotonicity"] += 1
                continue
            row_i[j] = row_j[i] = v
            preimage[v] += side
            if not assoc_ok(pos, v):
                pruned["associativity"] += 1
            elif joined[pos] and not joins_ok(pos, v):
                pruned["joins"] += 1
            else:
                return True
            del preimage[v][-len(side):]
        row_i[j] = row_j[i] = -1
        entries[pos] = None
        return False

    # leaves wait on a stack, checked when it fills a slab, when it holds as
    # many tables as results are still wanted, and when the search ends; the
    # limit-th result is then the last table of its stack, so the search
    # stops at its leaf.  Each leaf is its table's n^2 values as bytes: they
    # fit one, as n <= MAX_CARRIER < 256
    verdicts = _leaf_check(ip, top, require_negation)
    batch = max(1, SLAB_CELLS // n**3)
    leaves = []
    results = []

    def check_leaves():
        for leaf in verdicts(np.frombuffer(b"".join(leaves), np.uint8).reshape(-1, n, n)):
            if isinstance(leaf, str):
                pruned[leaf] += 1
            else:
                results.append(leaf)
        leaves.clear()

    # depth-first over an explicit stack, so a carrier whose free cells
    # outnumber the recursion limit is searched too; pos is the depth, one
    # cell per level, and each pass steps one level down or up.  The search
    # stops at the leaf of its limit-th result, a one-point carrier's root too
    pos = 0
    while pos >= 0 and len(results) < limit:
        if pos == len(cells):
            leaves.append(bytes(chain.from_iterable(t)))
            if len(leaves) >= min(batch, limit - len(results)):
                check_leaves()
            pos -= 1
        else:
            pos += 1 if advance(pos) else -1
    if leaves:  # fewer than the results still wanted
        check_leaves()
    if order is not None:  # back to the input's poset, lexicographic in its table
        back = np.ix_(*[np.argsort(order)] * 2)
        results = sorted((ResiduatedStructure(given, top, order[s.odot][back], order[s.arrow][back])
                          for s in results), key=lambda s: s.odot.tolist())
    return MinerOutcome(bool(results), results, MinerStats(nodes, dict(pruned)), len(results) >= limit)


def find_residuations_naive(ip: InvolutedPoset, require_negation=True, limit=10**9) -> MinerOutcome:
    """Oracle enumeration: all commutative unit-respecting tables, no pruning."""
    if len(ip.poset) > NAIVE_MAX:
        raise CarrierTooLarge(f"naive mode is limited to |P| <= {NAIVE_MAX} elements")
    top, cells = _free_cells(ip, limit)
    n = len(ip.poset)
    u = ip.poset.index(top)
    rows, cols = np.array(cells, dtype=np.int64).reshape(-1, 2).T
    verdicts = _leaf_check(ip, top, require_negation)
    values = np.array(list(product(range(n), repeat=len(cells))), dtype=np.int64)
    tables = np.empty((len(values), n, n), dtype=np.int64)
    tables[:, u, :] = tables[:, :, u] = np.arange(n)
    tables[:, rows, cols] = tables[:, cols, rows] = values
    stats = MinerStats()
    results = []
    for nodes, s in enumerate(verdicts(tables), 1):
        stats.nodes = nodes
        if isinstance(s, str):
            stats.prune(s)
            continue
        results.append(s)
        if len(results) >= limit:
            return MinerOutcome(True, results, stats, truncated=True)
    return MinerOutcome(bool(results), results, stats)
