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
  associativity: checked on sub-tables as soon as every referenced
                 cell is assigned

A naive oracle (no pruning beyond commutativity and the forced unit
row) is provided for small carriers to certify the pruned search.
"""

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .errors import LimitZero, Unbounded
from .involution import InvolutedPoset
from .residuation import (
    ResiduatedStructure,
    _residuals,
    derived_negation,
    verify_residuated,
)


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
    if require_negation and derived_negation(s) != ip.involution.mapping:
        return "negation-mismatch"
    return s


@dataclass
class MinerOutcome:
    satisfiable: bool
    structures: list
    stats: MinerStats
    truncated: bool = False  # hit the result limit before exhausting the space


def find_residuations(ip: InvolutedPoset, require_negation=True, limit=16) -> MinerOutcome:
    """Enumerate residuated structures on the given involuted poset.

    The unit is the top element.  When require_negation is set, only
    structures whose derived negation equals the involution are
    accepted (and the poset must have a bottom).  Results appear in
    lexicographic order of the monoid table.
    """
    if limit < 1:
        raise LimitZero("result limit must be positive")
    p = ip.poset
    inv = ip.involution
    n = len(p)
    bottom, top = p.bounds()
    if top is None:
        raise Unbounded("the miner needs a greatest element to serve as unit")
    if require_negation and bottom is None:
        raise Unbounded("matching the involution as negation needs a least element")

    leq = p.leq_matrix
    u = p.index(top)
    b0 = p.index(bottom) if bottom is not None else -1
    inv_idx = [p.index(inv(x)) for x in p.elements]
    stats = MinerStats()

    cells = [
        (i, j)
        for i in range(n)
        for j in range(i, n)
        if i != u and j != u
    ]

    # candidate values per cell under the integrality and negation rules
    def candidates(i, j):
        lower = np.nonzero(leq[:, i] & leq[:, j])[0]
        if require_negation:
            if leq[i, inv_idx[j]]:
                return [v for v in lower if v == b0]
            return [v for v in lower if v != b0]
        return list(lower)

    table = np.full((n, n), -1, dtype=np.int64)
    table[u, :] = np.arange(n)
    table[:, u] = np.arange(n)

    def monotone_ok(i, j, v):
        for a, b in cells:
            w = table[a, b]
            if w < 0 or (a, b) == (i, j):
                continue
            for (x1, y1), (x2, y2) in (((a, b), (i, j)), ((i, j), (a, b))):
                v1 = v if (x1, y1) == (i, j) else w
                v2 = v if (x2, y2) == (i, j) else w
                # cells are unordered pairs; compare both orientations
                if (leq[x1, x2] and leq[y1, y2]) or (leq[x1, y2] and leq[y1, x2]):
                    if not leq[v1, v2]:
                        return False
        # against the forced unit row: i <= u always, so v <= table[u, j] = j
        # is already implied by integrality
        return True

    def assoc_ok():
        for a in range(n):
            for b in range(n):
                ab = table[a, b]
                for c in range(n):
                    bc = table[b, c]
                    if ab < 0 or bc < 0:
                        continue
                    left, right = table[ab, c], table[a, bc]
                    if left >= 0 and right >= 0 and left != right:
                        return False
        return True

    results = []
    truncated = False

    def search(pos):
        nonlocal truncated
        if len(results) >= limit:
            truncated = True
            return
        if pos == len(cells):
            leaf = _leaf(ip, top, table.copy(), require_negation)
            if isinstance(leaf, str):
                stats.prune(leaf)
            else:
                results.append(leaf)
            return
        i, j = cells[pos]
        values = candidates(i, j)
        if not values:
            stats.prune("empty-cell")
            return
        for v in values:
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
    if limit < 1:
        raise LimitZero("result limit must be positive")
    p = ip.poset
    n = len(p)
    bottom, top = p.bounds()
    if top is None:
        raise Unbounded("the miner needs a greatest element to serve as unit")
    if require_negation and bottom is None:
        raise Unbounded("matching the involution as negation needs a least element")
    u = p.index(top)
    cells = [(i, j) for i in range(n) for j in range(i, n) if i != u and j != u]
    stats = MinerStats()
    results = []
    for values in product(range(n), repeat=len(cells)):
        stats.nodes += 1
        table = np.zeros((n, n), dtype=np.int64)
        table[u, :] = np.arange(n)
        table[:, u] = np.arange(n)
        for (i, j), v in zip(cells, values):
            table[i, j] = table[j, i] = v
        s = _leaf(ip, top, table, require_negation)
        if isinstance(s, str):
            continue
        results.append(s)
        if len(results) >= limit:
            return MinerOutcome(True, results, stats, truncated=True)
    return MinerOutcome(bool(results), results, stats)
