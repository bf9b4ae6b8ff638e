import numpy as np
import pytest

from resposet import catalog
from resposet.catalog import posets_of_size, posets_up_to_size
from resposet.order import Poset, _isomorphisms


@pytest.mark.parametrize(
    "n, count",
    [(1, 1), (2, 2), (3, 5), (4, 16), (5, 63), (6, 318), (7, 2045), (8, 16999)],
)
def test_one_poset_per_isomorphism_class(n, count):
    # OEIS A000112: unlabeled posets on n points
    assert len(posets_of_size(n)) == count


def test_each_level_is_built_once(monkeypatch):
    # one pass over sizes 1..6 that grows only kept posets; rebuilding the
    # lower sizes for each size, and growing their duplicates, takes 5,019
    calls = []

    def counting(a, b):
        calls.append((a, b))
        return _isomorphisms(a, b)

    monkeypatch.setattr(catalog, "_isomorphisms", counting)
    assert len(posets_up_to_size(6)) == 405
    assert len(calls) == 553


def mask_generator(n):
    """Reference: the generator that grew each poset as a boolean matrix, a mask array per bit."""
    if n == 0:
        return [Poset((), np.zeros((0, 0), dtype=bool))]
    partial = [np.ones((1, 1), dtype=bool)]
    for m in range(2, n + 1):
        grown = []
        for leq in partial:
            k = m - 1
            for mask in range(1 << k):
                lower = np.array([(mask >> i) & 1 for i in range(k)], dtype=bool)
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


@pytest.mark.parametrize("n", range(7))
def test_int_rows_give_the_mask_generators_list(n):
    # the same representatives in the same order, so every corpus stays put
    assert posets_of_size(n) == mask_generator(n)
