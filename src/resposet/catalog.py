"""Enumeration of small posets, used for the soundness corpus.

Posets are generated by inserting elements in linear-extension order
(each new element is maximal at insertion time and picks a down-closed
lower set), which reaches every isomorphism class.  While it grows, a
poset is a list of int rows, bit j of row i set iff element j <= element
i, so a lower set L is down-closed when row v | L == L for each v in L.
Duplicates are then removed in generation order: each poset is bucketed
by its sorted multiset of (down-set size, up-set size) profiles and kept
only when no earlier representative in its bucket is isomorphic to it,
by the order isomorphism search in order._isomorphisms.  The counts for
n = 1..7 are 1, 2, 5, 16, 63, 318, 2045 (OEIS A000112).
"""

import numpy as np

from .involution import enumerate_antitone_involutions
from .order import Poset, _bool_matrix, _isomorphisms


def posets_of_size(n: int):
    """All posets on n labeled elements e1..en, one per isomorphism class."""
    if n == 0:
        return [Poset((), np.zeros((0, 0), dtype=bool))]
    partial = [[1]]  # int rows: bit j of row i is set iff element j <= element i
    for k in range(1, n):
        # the new maximal element k takes a down-closed strict lower set
        partial = [
            downs + [lower | 1 << k]
            for downs in partial
            for lower in range(1 << k)
            if all(downs[v] | lower == lower for v in range(k) if lower >> v & 1)
        ]
    labels = tuple(f"e{i}" for i in range(1, n + 1))
    buckets = {}
    kept = []
    for downs in partial:
        leq = _bool_matrix(downs).T
        profiles = sorted(zip(leq.sum(axis=0).tolist(), leq.sum(axis=1).tolist()))
        bucket = buckets.setdefault(tuple(profiles), [])
        if not any(next(_isomorphisms(rep, leq), None) is not None for rep in bucket):
            bucket.append(leq)
            kept.append(Poset(labels, leq.copy()))  # C order, as poset_from_relation gives
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
