"""Antitone involutions on finite posets: validation and enumeration."""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidInvolution, InvariantViolation, UnknownLabel
from .order import Poset, _isomorphisms
from .report import VerificationReport, verdict


@dataclass(frozen=True)
class Involution:
    """A self-inverse map on a carrier, stored as the index of each image.

    elements[i] maps to elements[image[i]].  Two involutions on the same
    carrier compare by value.
    """

    elements: tuple
    image: tuple  # (index of the image of elements[0], ...)

    def __call__(self, x):
        try:
            return self._images[x]
        except KeyError:
            raise UnknownLabel(f"label {x!r} is outside the involution's carrier") from None

    @cached_property
    def _images(self) -> dict:
        return dict(self.pairs)

    @property
    def pairs(self) -> tuple:
        return tuple((x, self.elements[j]) for x, j in zip(self.elements, self.image))

    @property
    def mapping(self) -> dict:
        """A fresh label dict, a copy of the cached _images: changing it leaves the involution as it was."""
        return self._images.copy()

    def __str__(self):
        return "{" + ", ".join(f"{a}->{b}" for a, b in self.pairs) + "}"


def involution_from_mapping(p: Poset, mapping: dict) -> Involution:
    """Wrap a label->label dict as an Involution on p's elements.

    Only totality/label sanity is checked here; use
    check_antitone_involution for the axioms.
    """
    index = p._index
    for x, y in mapping.items():
        if x not in index:
            raise UnknownLabel(f"involution key {x!r} is not an element")
        try:
            index[y]
        except (KeyError, TypeError):  # TypeError: an unhashable value
            raise UnknownLabel(f"involution value {y!r} is not an element") from None
    # every key is an element, so a map as long as p is total
    if len(mapping) != len(p):
        missing = next(x for x in p.elements if x not in mapping)
        raise UnknownLabel(f"involution is not total; missing {missing!r}")
    return Involution(p.elements, tuple(map(index.__getitem__, map(mapping.__getitem__, p.elements))))


def _antitone(leq: np.ndarray, f: np.ndarray) -> np.ndarray:
    """[x, y]: x <= y but not f(y) <= f(x), for an index map f over leq's elements."""
    return leq & ~leq[f][:, f].T


def check_antitone_involution(p: Poset, f) -> VerificationReport:
    """Check the two axioms: f(f(x)) = x, and x <= y implies f(y) <= f(x).

    ``f`` may be an Involution on p's elements or a plain mapping.  Each axiom
    becomes one named check; the first violating tuple in element order is the witness.
    The report is kept on the poset object, keyed by the image, so checking the
    same map on the same object again returns the same report without evaluating
    the axioms; an equal but distinct Poset is checked anew.
    """
    if not isinstance(f, Involution):
        f = involution_from_mapping(p, f)
    reports = p._involution_reports
    if f.elements == p.elements and f.image in reports:
        return reports[f.image]
    # the range test runs on the tuple, before any array is built
    n = len(p)
    if f.elements != p.elements or len(f.image) != n or (n and not 0 <= min(f.image) <= max(f.image) < n):
        raise UnknownLabel("the involution is not a map on this poset's elements")
    image = np.array(f.image, dtype=np.int64)
    report = reports[f.image] = VerificationReport(
        (
            verdict("involutive", image[image] != np.arange(n), p.elements),
            verdict("antitone", _antitone(p.leq_matrix, image), p.elements),
        )
    )
    return report


@dataclass(frozen=True)
class InvolutedPoset:
    """A poset bundled with a validated antitone involution.

    The check runs through check_antitone_involution, so bundling a map the
    same poset object has already checked costs a dict lookup.
    """

    poset: Poset
    involution: Involution

    def __post_init__(self):
        report = check_antitone_involution(self.poset, self.involution)
        if not report.overall:
            raise InvalidInvolution(f"not an antitone involution: {report.failed()[0]}")

    @property
    def elements(self):
        return self.poset.elements

    def relisted(self, order) -> "InvolutedPoset":
        """The involuted poset on poset.relisted(order), its image permuted by index, with no axiom evaluated:
        a relisted antitone involution is still one, and its passing report, naming no label, is carried over."""
        q = self.poset.relisted(order)
        rank = {x: k for k, x in enumerate(order)}  # the new index of each old one
        image = tuple(rank[self.involution.image[x]] for x in order)
        q._involution_reports[image] = check_antitone_involution(self.poset, self.involution)
        return InvolutedPoset(q, Involution(q.elements, image))


def involuted(p: Poset, mapping) -> InvolutedPoset:
    """Bundle p with an Involution or a label mapping, checked once per poset object and image."""
    if not isinstance(mapping, Involution):
        mapping = involution_from_mapping(p, mapping)
    return InvolutedPoset(p, mapping)


def enumerate_antitone_involutions(p: Poset):
    """All antitone involutions on p, lexicographic in p's element order.

    An antitone involution is a self-inverse order isomorphism from p to
    its dual, so this is order._isomorphisms(leq, leq.T, involutive=True),
    the search that also serves the poset catalog and structural_equal.
    The search assigns the smallest unassigned index first and tries its
    images in ascending order, so it yields them lexicographically.
    """
    found = _isomorphisms(p.leq_matrix, p.leq_matrix.T, involutive=True)
    results = [Involution(p.elements, tuple(f.tolist())) for f in found]
    for inv in results:
        # every emitted involution re-validates against the axioms
        if not check_antitone_involution(p, inv).overall:
            raise InvariantViolation(f"enumerated map {inv} is not an antitone involution")
    return results
