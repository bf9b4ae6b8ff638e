"""Classification predicates: distributivity, (pseudo-)Kleene identities,
Boolean-algebra recognition."""

from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation, NotALattice
from .involution import Involution, InvolutedPoset, involuted
from .order import Poset
from .report import VerificationReport, verdict


@dataclass(frozen=True)
class BooleanAlgebra(InvolutedPoset):
    """A bounded distributive lattice with its complement as the involution."""

    bottom: str
    top: str

    @property
    def lattice(self) -> Poset:
        return self.poset

    @property
    def complement(self) -> Involution:
        return self.involution


@dataclass(frozen=True)
class KleeneVerdict:
    report: VerificationReport
    distributive: bool
    pseudo_kleene: bool
    kleene: bool


def is_distributive(L: Poset):
    """(verdict, witness): meet distributes over join on all triples.

    The witness is the first violating (x, y, z) in element order.
    """
    if not L.is_lattice():
        raise NotALattice("distributivity is only defined for lattices")
    return L._distributivity


def check_pseudo_kleene(L: Poset, inv) -> KleeneVerdict:
    """Check the two pseudo-Kleene identities over all pairs.

    kleene-bound:      x ^ x'  <=  y v y'
    kleene-absorption: x ^ (x' v y)  =  (x ^ x') v (x ^ y)
    """
    if not L.is_lattice():
        raise NotALattice("pseudo-Kleene classification needs a lattice")
    meet, join = L._meet_table, L._join_table
    neg = np.array(involuted(L, inv).involution.image, dtype=np.int64)
    xs = np.arange(len(L))
    low, high = meet[xs, neg], join[xs, neg]  # x ^ x', x v x'
    # [x, y]-indexed violations of each identity
    bound = ~L.leq_matrix[low[:, None], high[None, :]]
    absorption = meet[xs[:, None], join[neg, :]] != join[low[:, None], meet]
    report = VerificationReport(
        (
            verdict("kleene-bound", bound, L.elements),
            verdict("kleene-absorption", absorption, L.elements),
        )
    )
    distributive = is_distributive(L)[0]
    pseudo = report.overall
    return KleeneVerdict(report, distributive, pseudo, pseudo and distributive)


def recognize_boolean(L: Poset):
    """BooleanAlgebra view of L, or None when L is not one.

    L qualifies when it is a bounded distributive lattice in which every
    element has a complement; distributivity makes the complement unique.
    """
    if not L.is_lattice():
        return None
    bottom, top = L.bounds()
    if bottom is None or top is None:
        return None
    if not is_distributive(L)[0]:
        return None
    complements = (L._meet_table == L.index(bottom)) & (L._join_table == L.index(top))
    count = complements.sum(axis=1)
    if (count == 0).any():
        return None
    if (count > 1).any():
        x = L.elements[int(np.argmax(count > 1))]
        raise InvariantViolation(f"{x!r} has several complements in a distributive lattice")
    complement = Involution(L.elements, tuple(complements.argmax(axis=1).tolist()))
    return BooleanAlgebra(L, complement, bottom, top)
