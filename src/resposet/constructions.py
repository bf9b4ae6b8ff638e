"""Extensions of involuted posets to residuated structures.

Every carrier is an ordinal sum of generated chain elements #c1 < #c2 <
... (the "#" prefix is reserved for them) around one copy of the input,
or around a copy "(x,1)" and its dual "(x,2)".  Its involution maps #ci
<-> #c(m+1-i), with #cm the top, and acts on one copy as the input's
involution, on two copies as (x,1) <-> (x,2).

Both tables then follow from one of two rules, as index arrays:

- chain frame (Theorems 1-3, Corollary 1), on 0 < low <= P <= low' < 1:
  x . y = 0 if x <= y' else low;  x -> y = 1 if x <= y else low';
  0 and 1 act as zero and unit, and x -> 0 = x'.
- lattice (Lemma 2, Theorem 5):
  x . y = 0 if x <= y' else x ^ y;  x -> y = 1 if x <= y else x' v y.

Each result is verified exhaustively before it is returned.
"""

import enum
from dataclasses import dataclass, field

import numpy as np

from .classify import BooleanAlgebra
from .errors import CarrierTooLarge, ConstructionFailed, ModeUnsatisfiable, NTooSmall, ReservedLabel
from .involution import Involution, InvolutedPoset, involuted
from .order import Poset, _isomorphisms
from .residuation import ResiduatedStructure, _negation, verify_residuated

# The most carrier elements a construction builds: 8 MB per int64 table,
# five times the largest carrier of the tests and the benchmark.
MAX_CARRIER = 1000


class ExtensionMode(enum.Enum):
    """How Theorem-1-style extension treats the four chain elements."""

    ADD_FOUR = "addfour"        # adjoin all of #c1..#c4
    REUSE_BOUNDS = "reusebounds"  # input bounds play #c2/#c3; adjoin only #c1/#c4
    REUSE_FOUR = "reusefour"    # input already contains a < b <= x <= c < d


@dataclass(frozen=True)
class ExtensionResult:
    structure: ResiduatedStructure
    involution: Involution
    embedding: dict  # original label -> extended label
    provenance: dict = field(default_factory=dict)

    @property
    def poset(self):
        return self.structure.poset


def _carrier(construction, p: Poset, involution, gaps):
    """The ordinal sum, and its involution as an index array.

    ``gaps`` lists the numbers i of the chain elements #ci in each gap,
    bottom-up: gaps[0] < p < gaps[1] when p keeps ``involution``, and
    gaps[0] < p x {1} < gaps[1] < dual(p) x {2} < gaps[2] when it is None.
    The first and last gaps are equally long, so reversing the carrier maps
    each #ci to #c(m+1-i); the copies of p are then mapped by ``involution``
    or onto each other.
    """
    n = len(p)
    size = sum(map(len, gaps)) + (len(gaps) - 1) * n
    if size > MAX_CARRIER:
        raise CarrierTooLarge(f"{construction}: {size} carrier elements exceed the limit {MAX_CARRIER}")
    if involution is None:
        tagged = ((1, p.leq_matrix), (2, p.leq_matrix.T))
        copies = [([f"({x},{t})" for x in p.elements], leq) for t, leq in tagged]
    else:
        reserved = {f"#c{i}" for gap in gaps for i in gap}
        clash = next((x for x in p.elements if x in reserved), None)
        if clash is not None:
            raise ReservedLabel(f"{construction}: input label {clash!r} is reserved for the chain")
        copies = [(p.elements, p.leq_matrix)]

    # every block lies below each later one and chain blocks are chains, so the
    # ordinal sum is the upper triangle with p written into its diagonal blocks
    leq = ~np.tri(size, k=-1, dtype=bool)
    elements = [f"#c{i}" for i in gaps[0]]
    for (labels, block), gap in zip(copies, gaps[1:]):
        start = len(elements)
        leq[start:start + n, start:start + n] = block
        elements += [*labels, *(f"#c{i}" for i in gap)]
    image = np.arange(size - 1, -1, -1)
    first = len(gaps[0]) + np.arange(n)  # the indices of the first copy
    if involution is None:
        second = first + n + len(gaps[1])
        image[first], image[second] = second, first
    else:
        image[first] = first[list(involution.image)]
    return Poset(tuple(elements), leq), image


def _theorem2_carrier(name, p: Poset, involution, n):
    """The Theorem-2 carrier #c1 < .. < #cn < p < #c{n+1} < .. < #c{2n}."""
    return _carrier(name, p, involution, (range(1, n + 1), range(n + 1, 2 * n + 1)))


def _frame_tables(q: Poset, inv, low):
    """The chain-frame rule on 0 < low <= P <= low' < 1."""
    leq = q.leq_matrix
    zero, one = map(q.index, q.bounds())
    ident = np.arange(len(q))
    odot = np.where(leq[:, inv], zero, low)
    arrow = np.where(leq, one, inv[low])
    odot[one, :] = odot[:, one] = ident
    odot[zero, :] = odot[:, zero] = zero
    arrow[one, :] = ident
    arrow[:, zero] = inv
    arrow[zero, :] = arrow[:, one] = one
    return odot, arrow


def _lattice_tables(q: Poset, inv):
    """The lattice rule: meet off the zero cells, x' v y off the unit cells."""
    leq = q.leq_matrix
    zero, one = map(q.index, q.bounds())
    odot = np.where(leq[:, inv], zero, q._meet_table)
    arrow = np.where(leq, one, q._join_table[inv, :])
    return odot, arrow


def _extension(construction, q, inv, tables, embedding, parameters, verify):
    involution = Involution(q.elements, tuple(inv.tolist()))
    involuted(q, involution)  # the carrier map must still be an antitone involution
    structure = ResiduatedStructure(q, q.bounds()[1], *tables)
    if verify:
        report = verify_residuated(structure)
        if not report.overall:
            raise ConstructionFailed(f"verification failed:\n{report}")
        if not np.array_equal(_negation(structure), inv):
            raise ConstructionFailed("derived negation differs from the involution")
    provenance = {"construction": construction, "parameters": parameters}
    return ExtensionResult(structure, involution, embedding, provenance)


def extend_theorem1(ip: InvolutedPoset, mode=ExtensionMode.ADD_FOUR, verify=True) -> ExtensionResult:
    """Extend an involuted poset by a bounding 4-chain (possibly reusing elements).

    ADD_FOUR adjoins #c1 < #c2 < x < #c3 < #c4 around the whole input.
    REUSE_BOUNDS lets the input's own bounds play #c2/#c3.  REUSE_FOUR
    requires elements a < b <= x <= c < d with a' = d and b' = c already
    present and adjoins nothing.
    """
    p = ip.poset
    if mode is ExtensionMode.ADD_FOUR:
        q, inv = _theorem2_carrier("theorem1", p, ip.involution, 2)
        low = 1
    elif mode is ExtensionMode.REUSE_BOUNDS:
        bottom, top = p.bounds()
        if bottom is None or top is None:
            raise ModeUnsatisfiable("reuse-bounds needs a bounded input poset")
        q, inv = _carrier("theorem1", p, ip.involution, ((1,), (4,)))
        low = 1 + p.index(bottom)
    elif mode is ExtensionMode.REUSE_FOUR:
        q, inv = p, np.array(ip.involution.image, dtype=np.int64)
        low = p.index(_reuse_four_frame(p))
    else:
        raise ModeUnsatisfiable(f"unknown mode {mode!r}")
    tables = _frame_tables(q, inv, low)
    identity = {x: x for x in p.elements}
    return _extension("theorem1", q, inv, tables, identity, {"mode": mode.value}, verify)


def _reuse_four_frame(p: Poset):
    """The b of a frame a < b <= x <= c < d with a' = d, b' = c, or raise.

    An antitone involution maps the bounds onto each other and the
    interior onto itself, reversing the order, so a' = d holds and c = b'
    is the greatest interior element whenever b is the least.
    """
    a, d = p.bounds()
    if a is None or d is None or a == d:
        raise ModeUnsatisfiable("reuse-four needs distinct bounds")
    inner = [x for x in p.elements if x not in (a, d)]
    if not inner:
        raise ModeUnsatisfiable("reuse-four needs interior elements b and c")
    b = next((x for x in inner if all(p.leq(x, y) for y in inner)), None)
    if b is None:
        raise ModeUnsatisfiable("interior has no least/greatest element")
    return b


def chain_residuation(n: int, verify=True) -> ExtensionResult:
    """The n-element residuated chain #c1 < ... < #cn (n >= 3)."""
    if n < 3:
        raise NTooSmall(f"chain construction needs n >= 3, got {n}")
    empty = Poset((), np.zeros((0, 0), dtype=bool))
    q, inv = _carrier("corollary1", empty, Involution((), ()), (range(1, n + 1), ()))
    return _extension("corollary1", q, inv, _frame_tables(q, inv, 1), {}, {"n": n}, verify)


def extend_theorem2(ip: InvolutedPoset, n: int, verify=True) -> ExtensionResult:
    """Extend by a 2n-chain: #c1 < .. < #cn < x < #c{n+1} < .. < #c{2n} (n > 1)."""
    if n <= 1:
        raise NTooSmall(f"theorem-2 extension needs n > 1, got {n}")
    q, inv = _theorem2_carrier("theorem2", ip.poset, ip.involution, n)
    identity = {x: x for x in ip.elements}
    return _extension("theorem2", q, inv, _frame_tables(q, inv, 1), identity, {"n": n}, verify)


def extend_theorem3(p: Poset, n: int, k: int = 0, verify=True) -> ExtensionResult:
    """Extend a poset together with its dual copy by chains (n > 1, k >= 0).

    Carrier: #c1 < .. < #cn < (x,1) < #c{n+1} < .. < #c{n+k} < (y,2) <
    #c{n+k+1} < .. < #c{2n+k}, with P x {1} carrying p's order and
    P x {2} the dual.  For k = 0 every (x,1) is placed strictly below
    every (y,2).
    """
    if n <= 1:
        raise NTooSmall(f"theorem-3 extension needs n > 1, got {n}")
    if k < 0:
        raise NTooSmall(f"theorem-3 extension needs k >= 0, got {k}")
    gaps = (range(1, n + 1), range(n + 1, n + k + 1), range(n + k + 1, 2 * n + k + 1))
    q, inv = _carrier("theorem3", p, None, gaps)
    embedding = {x: f"({x},1)" for x in p.elements}
    parameters = {"n": n, "k": k}
    return _extension("theorem3", q, inv, _frame_tables(q, inv, 1), embedding, parameters, verify)


def boolean_residuation(B: BooleanAlgebra, verify=True) -> ResiduatedStructure:
    """The classical residuation on a Boolean algebra: x . y = meet, x -> y = x' v y."""
    return _lemma2(B, verify).structure


def _lemma2(B: BooleanAlgebra, verify=True) -> ExtensionResult:
    """boolean_residuation with its involution, identity embedding and provenance."""
    p, inv = B.lattice, np.array(B.complement.image, dtype=np.int64)
    identity = {x: x for x in p.elements}
    return _extension("lemma2", p, inv, _lattice_tables(p, inv), identity, {}, verify)


def extend_boolean_theorem5(B: BooleanAlgebra, n: int, verify=True) -> ExtensionResult:
    """Extend a Boolean algebra by n fresh chain elements below and above (lattice rule)."""
    if n < 1:
        raise NTooSmall(f"boolean extension needs n >= 1, got {n}")
    q, inv = _theorem2_carrier("theorem5", B.lattice, B.complement, n)
    identity = {x: x for x in B.elements}
    return _extension("theorem5", q, inv, _lattice_tables(q, inv), identity, {"n": n}, verify)


def structural_equal(s1: ResiduatedStructure, s2: ResiduatedStructure, fixed=None) -> bool:
    """Relabeling-aware equality of residuated structures.

    True when some order isomorphism from order._isomorphisms (the search
    shared with the catalog and involution enumeration) maps unit to unit,
    each ``fixed`` label of s1 to its label in s2 (e.g. embedding images),
    and carries both tables of s1 onto those of s2.
    """
    p1, p2 = s1.poset, s2.poset
    pinned = [(p1.index(s1.unit), p2.index(s2.unit))]
    pinned += [(p1.index(a), p2.index(b)) for a, b in (fixed or {}).items()]
    return any(
        (f[s1.odot] == s2.odot[np.ix_(f, f)]).all() and (f[s1.arrow] == s2.arrow[np.ix_(f, f)]).all()
        for f in _isomorphisms(p1.leq_matrix, p2.leq_matrix, pinned)
    )
