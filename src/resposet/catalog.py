"""Enumeration of small posets, used for the soundness corpus.

Posets are generated by inserting elements in linear-extension order
(each new element is maximal at insertion time and picks a down-closed
lower set), which reaches every isomorphism class.  Duplicates are then
removed in generation order: each poset is bucketed by its sorted
multiset of (down-set size, up-set size) profiles and kept only when no
earlier representative in its bucket is isomorphic to it, by the order
isomorphism search in order._isomorphisms.  The counts for n = 1..7 are
1, 2, 5, 16, 63, 318, 2045 (OEIS A000112).
"""

import numpy as np

from .involution import enumerate_antitone_involutions
from .order import Poset, _isomorphisms


def posets_of_size(n: int):
    """All posets on n labeled elements e1..en, one per isomorphism class."""
    if n == 0:
        return [Poset((), np.zeros((0, 0), dtype=bool))]
    partial = [np.ones((1, 1), dtype=bool)]
    for m in range(2, n + 1):
        grown = []
        for leq in partial:
            k = m - 1
            # choose a down-closed subset of existing elements as the new
            # element's strict lower set
            for mask in range(1 << k):
                lower = np.array([(mask >> i) & 1 for i in range(k)], dtype=bool)
                # down-closed: u <= v and v in lower implies u in lower
                ok = True
                for v in range(k):
                    if lower[v]:
                        if not lower[leq[:, v]].all():
                            ok = False
                            break
                if not ok:
                    continue
                new = np.zeros((m, m), dtype=bool)
                new[:k, :k] = leq
                new[k, k] = True
                new[:k, k] = lower
                grown.append(new)
        partial = grown
    labels = tuple(f"e{i}" for i in range(1, n + 1))
    buckets = {}
    kept = []
    for leq in partial:
        profiles = sorted(zip(leq.sum(axis=0).tolist(), leq.sum(axis=1).tolist()))
        bucket = buckets.setdefault(tuple(profiles), [])
        if not any(next(_isomorphisms(rep, leq), None) is not None for rep in bucket):
            bucket.append(leq)
            kept.append(Poset(labels, leq))
    return kept


def posets_up_to_size(n: int):
    out = []
    for m in range(1, n + 1):
        out.extend(posets_of_size(m))
    return out


def involuted_posets_up_to_size(n: int):
    """(poset, involution) pairs for every small poset admitting one."""
    pairs = []
    for p in posets_up_to_size(n):
        for inv in enumerate_antitone_involutions(p):
            pairs.append((p, inv))
    return pairs
