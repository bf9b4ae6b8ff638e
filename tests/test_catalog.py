import pytest

from resposet.catalog import posets_of_size


@pytest.mark.parametrize("n, count", [(1, 1), (2, 2), (3, 5), (4, 16), (5, 63), (6, 318)])
def test_one_poset_per_isomorphism_class(n, count):
    # OEIS A000112: unlabeled posets on n points
    assert len(posets_of_size(n)) == count
