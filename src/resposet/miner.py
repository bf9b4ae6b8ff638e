"""Exhaustive search for residuated structures on an involuted poset.

The monoid table is searched cell by cell (commutativity halves the
space, the unit row is forced); the residual table is never searched but
derived from the monoid operation.  Pruning rules are consequences of
the axioms:

  integrality:   x . y must be a common lower bound of x and y
                 (the unit is the greatest element)
  monotonicity:  a <= b implies a . c <= b . c
  negation-zero: when the derived negation must equal the involution,
                 x . y = 0 exactly when x <= y'
  associativity: (a . b) . c = a . (b . c) on every triple whose four
                 lookups are assigned

A naive oracle (no pruning beyond commutativity and the forced unit
row) is provided for small carriers to certify the pruned search.
"""

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .errors import CarrierTooLarge, LimitZero, Unbounded
from .involution import InvolutedPoset
from .residuation import (
    ResiduatedStructure,
    _negation,
    _residuals,
    verify_residuated,
)

# The most carrier elements the miner searches.  Its set-up holds n^3
# candidate flags and lists: a peak of about 2.9 MB at 100 elements,
# growing to gigabytes at the 1000 a construction may build.
MAX_CARRIER = 100
# The most carrier elements the naive oracle searches: it tries all
# n^(n(n-1)/2) tables, 4,096 at 4 elements and 9,765,625 at 5.
NAIVE_MAX = 4


@dataclass
class MinerStats:
    nodes: int = 0
    prunes: dict = field(default_factory=dict)

    def prune(self, rule):
        self.prunes[rule] = self.prunes.get(rule, 0) + 1

    def as_dict(self):
        return {"nodes": self.nodes, "prunes": dict(sorted(self.prunes.items()))}


def _leaf(ip: InvolutedPoset, top, table: np.ndarray, require_negation):
    """The structure a complete monoid table defines, or the prune rule that rejects it."""
    arrow = _residuals(ip.poset.leq_matrix, table)
    if (arrow < 0).any():
        return "residual-missing"
    s = ResiduatedStructure(ip.poset, top, table, arrow)
    if not verify_residuated(s).overall:
        return "verification"
    if require_negation and not np.array_equal(_negation(s), ip.involution.image):
        return "negation-mismatch"
    return s


@dataclass
class MinerOutcome:
    satisfiable: bool
    structures: list
    stats: MinerStats
    truncated: bool = False  # hit the result limit before exhausting the space


def _free_cells(ip: InvolutedPoset, limit):
    """Check the search arguments; return the top and the (i, j), i <= j, cells off the unit row.

    The cells come as a (k, 2) index array in row-major order.
    """
    if limit < 1:
        raise LimitZero("result limit must be positive")
    p = ip.poset
    if len(p) > MAX_CARRIER:
        raise CarrierTooLarge(f"miner: {len(p)} carrier elements exceed the limit {MAX_CARRIER}")
    top = p.bounds()[1]
    if top is None:
        raise Unbounded("the miner needs a greatest element to serve as unit")
    u = p.index(top)
    free = np.triu(np.ones((len(p), len(p)), dtype=bool))
    free[u, :] = free[:, u] = False
    return top, np.argwhere(free)


def find_residuations(ip: InvolutedPoset, require_negation=True, limit=16) -> MinerOutcome:
    """Enumerate residuated structures on the given involuted poset.

    The unit is the top element.  When require_negation is set, only
    structures whose derived negation equals the involution are
    accepted.  Results appear in lexicographic order of the monoid table.
    """
    top, cells = _free_cells(ip, limit)
    p = ip.poset
    n = len(p)
    leq = p.leq_matrix
    u = p.index(top)
    stats = MinerStats()

    # [v, i, j]: v is a common lower bound of i and j (integrality) ...
    allowed = leq[:, :, None] & leq[:, None, :]
    if require_negation:
        # ... and v is the bottom exactly when i <= j' (negation-zero)
        inv = np.array(ip.involution.image, dtype=np.int64)
        is_bottom = np.arange(n) == p.index(p.bounds()[0])
        allowed &= is_bottom[:, None, None] == leq[None, :, inv]
    candidates = [np.flatnonzero(c).tolist() for c in allowed[:, cells[:, 0], cells[:, 1]].T]

    # the last row and column stay -1, so an unassigned cell looks up -1
    table = np.full((n + 1, n + 1), -1, dtype=np.int64)
    table[u, :n] = table[:n, u] = np.arange(n)
    t = table[:n, :n]

    def monotone_ok(i, j, v):
        # an assigned (a, b) with a <= i, b <= j needs a . b <= v, and with
        # i <= a, j <= b needs v <= a . b; t is symmetric, so these also
        # cover (b, a)
        below = leq[:, i, None] & leq[None, :, j]
        above = leq[i, :, None] & leq[None, j, :]
        bad = (below & ~leq[t, v]) | (above & ~leq[v, t])
        return not (bad & (t >= 0)).any()

    def assoc_ok():
        left, right = table[t, :n], table[:n, t]  # [a, b, c]: (a . b) . c, a . (b . c)
        return not ((left != right) & (left >= 0) & (right >= 0)).any()

    results = []
    truncated = False

    def search(pos):
        nonlocal truncated
        if pos == len(cells):
            leaf = _leaf(ip, top, t.copy(), require_negation)
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
            else:
                search(pos + 1)
            table[i, j] = table[j, i] = -1
            if len(results) >= limit:
                truncated = True
                break

    search(0)
    return MinerOutcome(bool(results), results, stats, truncated)


def find_residuations_naive(ip: InvolutedPoset, require_negation=True, limit=10**9) -> MinerOutcome:
    """Oracle enumeration: all commutative unit-respecting tables, no pruning."""
    if len(ip.poset) > NAIVE_MAX:
        raise CarrierTooLarge(f"naive mode is limited to |P| <= {NAIVE_MAX} elements")
    top, cells = _free_cells(ip, limit)
    n = len(ip.poset)
    u = ip.poset.index(top)
    rows, cols = cells.T
    stats = MinerStats()
    results = []
    for values in product(range(n), repeat=len(cells)):
        stats.nodes += 1
        table = np.zeros((n, n), dtype=np.int64)
        table[u, :] = table[:, u] = np.arange(n)
        table[rows, cols] = table[cols, rows] = values
        s = _leaf(ip, top, table, require_negation)
        if isinstance(s, str):
            continue
        results.append(s)
        if len(results) >= limit:
            return MinerOutcome(True, results, stats, truncated=True)
    return MinerOutcome(bool(results), results, stats)
