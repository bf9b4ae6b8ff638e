"""Residuated structures: data model, axiom verification, derived negation.

A ResiduatedStructure stores both operation tables as dense integer
matrices over the poset's element indices; verification is exhaustive
over all pairs/triples, vectorized with numpy so even the soundness
corpus stays fast.  A triple check is decided by a fast verdict where
one applies.  Adjointness has one on every carrier: below GALOIS_FROM
elements, where its [x, y, z] cube fits one slab, one comparison of the
whole cube, and from there the Galois test on covers (_galois),
O(n |covers| + n^2).  Once commutativity holds, associativity is
_associative, the [y, x, z] cube of (y . x) . z gathered as whole rows
and compared with its own transpose, with no slab loop when it fits one
slab.  Otherwise, and to find the first witness of a failure, the check
is the [x, y, z] cube of _slabbed, built SLAB_CELLS cells at a time in
x order.  So on a small carrier the passing checks cost their arrays and
little else, each one the shared passing Check of its name.
_residuals derives the arrow of a table by the down-set test, which is
adjointness itself; the miner's leaves take both it and _associative.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import NoBottom, UnknownLabel
from .involution import _antitone
from .order import Poset
from .report import VerificationReport, failed, passed, verdict

# cells per slab of a triple check; carriers up to ~100 elements take one
# slab.
SLAB_CELLS = 1 << 20
# the carrier size from which verify_residuated checks adjointness by the
# Galois test and not by the cube.  Per call, one BLAS thread, cube against
# Galois with the covers already computed (a construction computes them for
# its JSON document anyway): 232-244 against 146-155 us at 50 elements (a
# Corollary 1 chain), 3.4-3.8 against 0.38-0.47 ms at 100; at 9 and 13
# elements the cube wins, 15-20 against 46-55 us.
GALOIS_FROM = 50


@dataclass(frozen=True)
class ResiduatedStructure:
    """Poset with unit and total tables for the monoid operation and the residual."""

    poset: Poset
    unit: str
    odot: np.ndarray   # int matrix, odot[i, j] = index of elements[i] (.) elements[j]
    arrow: np.ndarray  # int matrix, arrow[i, j] = index of elements[i] -> elements[j]

    def __post_init__(self):
        self.odot.setflags(write=False)
        self.arrow.setflags(write=False)

    def __eq__(self, other):
        if not isinstance(other, ResiduatedStructure):
            return NotImplemented
        return (
            self.poset == other.poset
            and self.unit == other.unit
            and np.array_equal(self.odot, other.odot)
            and np.array_equal(self.arrow, other.arrow)
        )

    def __hash__(self):
        # by value, as __eq__ compares: the same table in another dtype
        # hashes the same
        odot, arrow = (table.astype(np.int64, copy=False).tobytes() for table in (self.odot, self.arrow))
        return hash((self.poset, self.unit, odot, arrow))

    @property
    def elements(self):
        return self.poset.elements

    def odot_of(self, x, y):
        return self.elements[self.odot[self.poset.index(x), self.poset.index(y)]]

    def arrow_of(self, x, y):
        return self.elements[self.arrow[self.poset.index(x), self.poset.index(y)]]

    def table_as_labels(self, which: str) -> dict:
        """Nested dict {row: {col: value}} in element order; which is 'odot' or 'arrow'."""
        els = self.elements
        rows = _label_rows(els, self.odot if which == "odot" else self.arrow)
        return dict(zip(els, map(dict, map(zip, itertools.repeat(els), rows))))


def _label_rows(elements, table):
    """The rows of an index table as lists of labels, by one object-array lookup."""
    return np.array(elements, dtype=object)[table].tolist()


def structure_from_tables(p: Poset, unit: str, odot_map: dict, arrow_map: dict) -> ResiduatedStructure:
    """Build a structure from nested label dicts {row: {col: value}}.

    The tests build their structures with it, so it stays public.
    """
    n = len(p)
    p.index(unit)
    odot = np.zeros((n, n), dtype=np.int64)
    arrow = np.zeros((n, n), dtype=np.int64)
    for matrix, table in ((odot, odot_map), (arrow, arrow_map)):
        for x in p.elements:
            if x not in table:
                raise UnknownLabel(f"table row for {x!r} is missing")
            row = table[x]
            for y in p.elements:
                if y not in row:
                    raise UnknownLabel(f"table entry ({x!r}, {y!r}) is missing")
                matrix[p.index(x), p.index(y)] = p.index(row[y])
    return ResiduatedStructure(p, unit, odot, arrow)


def verify_residuated(s: ResiduatedStructure) -> VerificationReport:
    """Exhaustively check the residuated-poset axioms.

    Checks, in order: unit-greatest, commutativity, associativity,
    unit-law, adjointness.  A failed check carries the first violating
    tuple in element order.

    Each triple check passes on its fast verdict.  For adjointness that
    is one comparison of the whole [x, y, z] cube below GALOIS_FROM
    elements, where the cube fits one slab, and the Galois test on covers
    (_galois) from there.  For associativity it is _associative once
    commutativity holds, one gather and one comparison when the cube fits
    one slab.  Where there is none, or it fails, _slabbed decides and
    finds the first witness; it is the only witness search.
    """
    p = s.poset
    leq = p.leq_matrix
    O, A = s.odot, s.arrow
    els = p.elements
    n = len(p)
    u = p.index(s.unit)
    # x . y <= z  vs  x <= y -> z; np.take gathers whole rows faster than
    # fancy indexing, at 9 elements as at 998.  Below GALOIS_FROM the
    # [x, y, z] cube fits one slab, and the fast verdict compares it whole
    if n >= GALOIS_FROM:
        adjoint = _galois(s)
    else:
        adjoint = (np.take(leq, O, axis=0) == np.take(leq, A, axis=1)).all()
    # the triple checks take xs, a slice of x rows, and give [x, y, z] cubes
    if adjoint:
        adjointness = passed("adjointness")
    else:
        adjointness = _slabbed(
            "adjointness", lambda xs: np.take(leq, O[xs], axis=0) != np.take(leq[xs], A, axis=1), els
        )
    commutativity = verdict("commutativity", O != O.T, els)
    # the associativity cubes gather O's values in the smallest dtype that
    # holds an index (one byte up to 256 elements), a fraction of the int64
    # bytes; they come after the adjointness check, never sharing its memory
    small = O.astype(np.min_scalar_type(n - 1))
    if commutativity.passed and _associative(small, small):
        associativity = passed("associativity")
    else:
        # (x . y) . z  vs  x . (y . z)
        associativity = _slabbed(
            "associativity", lambda xs: np.take(small, small[xs], axis=0) != np.take(small[xs], small, axis=1), els
        )
    return VerificationReport(
        (
            verdict("unit-greatest", ~leq[:, u], els),
            commutativity,
            associativity,
            verdict("unit-law", O[u, :] != np.arange(n), els),
            adjointness,
        )
    )


def _associative(rows, index):
    """Whether a commutative table is associative: one bool, or one per table of a stack.

    index[..., y, x] is the number of the row of rows that holds
    (y . x) . z at z.  The [..., y, x, z] cube gathers those whole rows,
    in y-slabs of SLAB_CELLS cells, and compares each with its own
    transpose: as the table is commutative, (y . z) . x is x . (y . z),
    so a cell fails exactly where (x . y) . z differs from x . (y . z).
    A cube that fits one slab is one gather and one comparison.
    """
    if index.shape[-2] * index.size <= SLAB_CELLS:
        cube = np.take(rows, index, axis=0)
        return (cube == cube.swapaxes(-1, -2)).all(axis=(-3, -2, -1))
    ok = np.True_  # one bool; a stack's first slab makes it one per table
    step = max(1, SLAB_CELLS // index.size)
    for start in range(0, index.shape[-2], step):
        # the last slab's cube is freed only once this one exists: freeing it
        # first took a 200-element table 4.0 -> 7.4 ms, an allocator effect
        cube = np.take(rows, index[..., start:start + step, :], axis=0)
        ok &= (cube == cube.swapaxes(-1, -2)).all(axis=(-3, -2, -1))
        if not ok.any():
            break
    return ok


def _slabbed(name, bad_rows, els):
    """verdict over an [x, y, z] cube built SLAB_CELLS cells at a time, in x order.

    Stops at the first slab with a violation; its first cell, shifted by
    the slab start, is the least failing (x, y, z) of the whole cube.
    """
    n = len(els)
    rows = max(1, SLAB_CELLS // (n * n))
    for start in range(0, n, rows):
        bad = bad_rows(slice(start, start + rows))
        if bad.any():
            x, y, z = np.argwhere(bad)[0]
            return failed(name, (els[start + x], els[y], els[z]))
    return passed(name)


def _galois(s: ResiduatedStructure) -> bool:
    """Adjointness as a Galois connection, in O(n |covers| + n^2) cells.

    For each y, f(x) = x . y and g(z) = y -> z satisfy f(x) <= z iff
    x <= g(z) exactly when f and g are monotone, f(g(z)) <= z and
    x <= g(f(x)) (Blyth & Janowitz, Residuation Theory, 1972); a map on
    a finite poset is monotone when it is monotone on covers.  The
    second half is the first on the dual order, with f and g swapped.
    """
    leq, lower, upper = s.poset.leq_matrix, *s.poset._reduction
    # f and g as [y, x] tables
    f, g = s.odot.T, s.arrow
    return _galois_half(leq, f, g, lower, upper) and _galois_half(leq.T, g, f, upper, lower)


def _galois_half(leq, f, g, lower, upper) -> bool:
    """Each f[y] is monotone on the covers (lower, upper) and f[y][g[y][z]] <= z.

    The y rows go SLAB_CELLS cells at a time, with f's values in the
    smallest index dtype.
    """
    n = len(leq)
    rows = max(1, SLAB_CELLS // max(n, len(lower)))
    zs = np.arange(n)
    for start in range(0, n, rows):
        ys = slice(start, start + rows)
        fy = f[ys].astype(np.min_scalar_type(n - 1))
        if not leq[fy[:, lower], fy[:, upper]].all():
            return False
        if not leq[fy[np.arange(len(fy))[:, None], g[ys]], zs].all():
            return False
    return True


def _negation(s: ResiduatedStructure) -> np.ndarray:
    """Index array of x -> bottom; requires a least element."""
    bottom, _ = s.poset.bounds()
    if bottom is None:
        raise NoBottom("structure has no least element")
    return s.arrow[:, s.poset.index(bottom)]


def derived_negation(s: ResiduatedStructure) -> dict:
    """The map x -> (x -> bottom); requires a least element."""
    els = s.elements
    return {x: els[k] for x, k in zip(els, _negation(s).tolist())}


def check_lemma1(s: ResiduatedStructure) -> VerificationReport:
    """Properties of the derived negation: x <= x'' and antitonicity."""
    neg = _negation(s)
    leq = s.poset.leq_matrix
    els = s.elements
    expansive = ~leq[np.arange(len(els)), neg[neg]]
    return VerificationReport(
        (
            verdict("double-negation-expansive", expansive, els),
            verdict("negation-antitone", _antitone(leq, neg), els),
        )
    )


def check_integrality(s: ResiduatedStructure) -> VerificationReport:
    """x . y <= x and x . y <= y for all pairs."""
    p = s.poset
    leq = p.leq_matrix
    O = s.odot
    n = len(p)
    rows = np.arange(n)
    checks = []
    bad = ~leq[O, rows[:, None]]  # [x, y]: O[x, y] <= x
    checks.append(verdict("integral-left", bad, p.elements))
    bad = ~leq[O, rows[None, :]]  # [x, y]: O[x, y] <= y
    checks.append(verdict("integral-right", bad, p.elements))
    return VerificationReport(tuple(checks))


def _residuals(leq: np.ndarray, odot: np.ndarray) -> np.ndarray:
    """arrow[..., j, k]: the element whose down-set is {a : a . j <= k}, -1 where there is none.

    odot is one [a, j] table or a [t, a, j] stack of them.  By adjointness
    that element is j -> k (Blyth & Janowitz, 1972).  Only the member with
    the largest down-set can have the member set as its down-set.
    """
    member = leq[odot.swapaxes(0, -2)]  # [a, ..., j, k]: a . j <= k
    size = leq.sum(axis=0, dtype=np.min_scalar_type(len(leq)))  # [g]: |down-set of g|
    g = (member * size.reshape(-1, *(1,) * odot.ndim)).argmax(axis=0)  # non-members score 0
    return np.where((leq[:, g] == member).all(axis=0), g, -1)


def residual_of(p: Poset, odot: np.ndarray, b, c):
    """Greatest a with a . b <= c, or None when the set has no greatest element.

    A reference oracle: the tests compare it with the arrow tables.
    """
    leq, j, k = p.leq_matrix, p.index(b), p.index(c)
    members = [a for a in range(len(p)) if leq[odot[a, j], k]]
    return next((p.elements[g] for g in members if leq[members, g].all()), None)


def is_monotone(p: Poset, odot: np.ndarray) -> bool:
    """a <= b implies a . c <= b . c, over all triples.

    A reference oracle for the tests; verify_residuated does not check it.
    """
    leq = p.leq_matrix
    # [a, b, c]: leq[a, b] -> leq[O[a, c], O[b, c]]
    ok = ~leq[:, :, None] | leq[odot[:, None, :], odot[None, :, :]]
    return bool(ok.all())


# Per-check replay predicates: evaluate one axiom instance on a witness
# tuple; a reported witness must make these return False.
REPLAY = {
    "unit-greatest": lambda s, w: s.poset.leq(w[0], s.unit),
    "commutativity": lambda s, w: s.odot_of(w[0], w[1]) == s.odot_of(w[1], w[0]),
    "associativity": lambda s, w: s.odot_of(s.odot_of(w[0], w[1]), w[2])
    == s.odot_of(w[0], s.odot_of(w[1], w[2])),
    "unit-law": lambda s, w: s.odot_of(s.unit, w[0]) == w[0],
    "adjointness": lambda s, w: s.poset.leq(s.odot_of(w[0], w[1]), w[2])
    == s.poset.leq(w[0], s.arrow_of(w[1], w[2])),
    "integral-left": lambda s, w: s.poset.leq(s.odot_of(w[0], w[1]), w[0]),
    "integral-right": lambda s, w: s.poset.leq(s.odot_of(w[0], w[1]), w[1]),
    "double-negation-expansive": lambda s, w: s.poset.leq(
        w[0], derived_negation(s)[derived_negation(s)[w[0]]]
    ),
    "negation-antitone": lambda s, w: (not s.poset.leq(w[0], w[1]))
    or s.poset.leq(derived_negation(s)[w[1]], derived_negation(s)[w[0]]),
}


def replay_check(s: ResiduatedStructure, name: str, witness) -> bool:
    """Re-evaluate the named axiom on a witness tuple; False reproduces the failure.

    A reference oracle: the tests replay every reported witness with it.
    """
    return REPLAY[name](s, tuple(witness))
