import pytest

from resposet import InvolutedPoset
from resposet.catalog import involuted_posets_up_to_size, posets_up_to_size
from resposet.fixtures import (
    kleene_six_involuted,
    n5_involuted,
    pseudo_kleene_nine_involuted,
)


@pytest.fixture(scope="session")
def small_posets():
    """One representative per isomorphism class, sizes 1..7."""
    return posets_up_to_size(7)


@pytest.fixture(scope="session")
def involuted_corpus():
    """Every small poset with every antitone involution, plus the named fixtures."""
    pairs = [InvolutedPoset(p, inv) for p, inv in involuted_posets_up_to_size(7)]
    pairs += [n5_involuted(), kleene_six_involuted(), pseudo_kleene_nine_involuted()]
    return pairs
