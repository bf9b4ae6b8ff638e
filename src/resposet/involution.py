"""Antitone involutions on finite posets: validation and enumeration."""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidInvolution, InvariantViolation, UnknownLabel
from .order import Poset, _isomorphisms
from .report import VerificationReport, verdict


@dataclass(frozen=True)
class Involution:
    """A self-inverse map on a poset carrier, stored as label pairs.

    The pairs follow the element order of the poset the involution was
    built on, so two involutions on the same carrier compare by value.
    """

    pairs: tuple  # ((label, image), ...) in carrier element order

    def __call__(self, x):
        try:
            return self._images[x]
        except KeyError:
            raise UnknownLabel(f"label {x!r} is outside the involution's carrier") from None

    @cached_property
    def _images(self) -> dict:
        return dict(self.pairs)

    @property
    def mapping(self) -> dict:
        return dict(self.pairs)

    def __str__(self):
        return "{" + ", ".join(f"{a}->{b}" for a, b in self.pairs) + "}"


def involution_from_mapping(p: Poset, mapping: dict) -> Involution:
    """Wrap a label->label dict as an Involution in p's element order.

    Only totality/label sanity is checked here; use
    check_antitone_involution for the axioms.
    """
    for x, y in mapping.items():
        if x not in p:
            raise UnknownLabel(f"involution key {x!r} is not an element")
        if y not in p:
            raise UnknownLabel(f"involution value {y!r} is not an element")
    missing = [x for x in p.elements if x not in mapping]
    if missing:
        raise UnknownLabel(f"involution is not total; missing {missing[0]!r}")
    return Involution(tuple((x, mapping[x]) for x in p.elements))


def _image_indices(p: Poset, f) -> np.ndarray:
    """f as an index array over p's elements: f(elements[i]) = elements[out[i]]."""
    return np.array([p.index(f(x)) for x in p.elements], dtype=np.int64)


def check_antitone_involution(p: Poset, f) -> VerificationReport:
    """Check the two axioms: f(f(x)) = x, and x <= y implies f(y) <= f(x).

    ``f`` may be an Involution or a plain mapping.  Each axiom becomes one
    named check; the first violating tuple in element order is the witness.
    """
    mapping = f.mapping if isinstance(f, Involution) else dict(f)
    image = _image_indices(p, involution_from_mapping(p, mapping))
    leq = p.leq_matrix
    involutive = image[image] != np.arange(len(p))
    antitone = leq & ~leq[np.ix_(image, image)].T  # [x, y]: x <= y but not y' <= x'
    return VerificationReport(
        (
            verdict("involutive", involutive, p.elements),
            verdict("antitone", antitone, p.elements),
        )
    )


@dataclass(frozen=True)
class InvolutedPoset:
    """A poset bundled with a validated antitone involution."""

    poset: Poset
    involution: Involution

    def __post_init__(self):
        report = check_antitone_involution(self.poset, self.involution)
        if not report.overall:
            bad = report.failed()[0]
            raise InvalidInvolution(
                f"not an antitone involution: {bad}", report=report
            )

    @property
    def elements(self):
        return self.poset.elements


def involuted(p: Poset, mapping) -> InvolutedPoset:
    if not isinstance(mapping, Involution):
        mapping = involution_from_mapping(p, mapping)
    return InvolutedPoset(p, mapping)


def enumerate_antitone_involutions(p: Poset):
    """All antitone involutions on p, lexicographic in p's element order.

    An antitone involution is a self-inverse order isomorphism from p to
    its dual, so this is order._isomorphisms(leq, leq.T, involutive=True),
    the search that also serves the poset catalog and structural_equal.
    """
    els = p.elements
    results = [
        Involution(tuple(zip(els, (els[j] for j in image))))
        for image in _isomorphisms(p.leq_matrix, p.leq_matrix.T, involutive=True)
    ]
    results.sort(key=lambda inv: tuple(p.index(b) for _, b in inv.pairs))
    for inv in results:
        # every emitted involution re-validates against the axioms
        if not check_antitone_involution(p, inv).overall:
            raise InvariantViolation(f"enumerated map {inv} is not an antitone involution")
    return results
