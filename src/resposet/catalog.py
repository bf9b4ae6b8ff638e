"""Enumeration of small posets, used for the soundness corpus.

Posets are generated by inserting elements in linear-extension order
(each new element is maximal at insertion time and picks a down-closed
lower set), which reaches every isomorphism class.  While it grows, a
poset is a list of int rows, bit j of row i set iff element j <= element
i, so a lower set L is down-closed when row v | L == L for each v in L.
Each level keeps a poset only when no earlier one with the same sorted
(down-set size, up-set size) profiles is isomorphic to it (by
order._isomorphisms).  Only kept posets grow the next level, which loses
no class's first member: that member always grows from a kept poset.
Counts for n = 1..9: 1, 2, 5, 16, 63, 318, 2045, 16999, 183231 (OEIS A000112).
"""

from itertools import count, islice

from .involution import enumerate_antitone_involutions
from .order import Poset, _bool_matrix, _isomorphisms


def _levels():
    """Yield the posets on k labeled elements, one per class, for k = 0, 1, 2, ..."""
    partial = [[]]  # int rows: bit j of row i is set iff element j <= element i
    for k in count():
        labels = tuple(f"e{i}" for i in range(1, k + 1))
        buckets = {}
        kept = []
        level = []
        for downs in partial:
            leq = _bool_matrix(downs).T
            profiles = sorted(zip(leq.sum(axis=0).tolist(), leq.sum(axis=1).tolist()))
            bucket = buckets.setdefault(tuple(profiles), [])
            if not any(next(_isomorphisms(rep, leq), None) is not None for rep in bucket):
                bucket.append(leq)
                kept.append(downs)
                level.append(Poset(labels, leq.copy()))  # C order, as poset_from_relation gives
        yield level
        # the new maximal element k takes a down-closed strict lower set
        partial = [
            downs + [lower | 1 << k]
            for downs in kept
            for lower in range(1 << k)
            if all(downs[v] | lower == lower for v in range(k) if lower >> v & 1)
        ]


def posets_of_size(n: int):
    """All posets on n labeled elements e1..en, one per isomorphism class."""
    return next(islice(_levels(), n, None))


def posets_up_to_size(n: int):
    return [p for level in islice(_levels(), 1, n + 1) for p in level]


def involuted_posets_up_to_size(n: int):
    """(poset, involution) pairs for every small poset admitting one."""
    pairs = []
    for p in posets_up_to_size(n):
        for inv in enumerate_antitone_involutions(p):
            pairs.append((p, inv))
    return pairs
