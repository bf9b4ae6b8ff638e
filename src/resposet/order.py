"""Finite posets over string labels.

A poset is stored as an ordered tuple of labels plus a dense boolean
``leq`` matrix (row i, column j set iff element i is below element j).
Carriers stay small (constructions build up to 1000 elements), so
dense matrices and vectorised pair/triple scans are the right tool.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    CycleDetected,
    DuplicateLabel,
    SelfCover,
    UnknownLabel,
)

Label = str


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Poset:
    """Immutable finite poset.

    elements: user-supplied iteration order; every output of this package
    (tables, witnesses, enumerations) follows it.
    leq: boolean |P| x |P| matrix, leq[i, j] iff elements[i] <= elements[j].
    """

    elements: tuple
    leq_matrix: np.ndarray
    _index: dict = field(repr=False, compare=False, default=None)

    def __post_init__(self):
        object.__setattr__(self, "_index", {x: i for i, x in enumerate(self.elements)})
        _frozen(self.leq_matrix)

    def __eq__(self, other):
        if not isinstance(other, Poset):
            return NotImplemented
        return self.elements == other.elements and np.array_equal(
            self.leq_matrix, other.leq_matrix
        )

    def __hash__(self):
        return hash((self.elements, self.leq_matrix.tobytes()))

    def __len__(self):
        return len(self.elements)

    def __contains__(self, x):
        return x in self._index

    def index(self, x: Label) -> int:
        try:
            return self._index[x]
        except KeyError:
            raise UnknownLabel(f"label {x!r} is not an element of this poset") from None

    def leq(self, x: Label, y: Label) -> bool:
        return bool(self.leq_matrix[self.index(x), self.index(y)])

    def covers(self) -> list:
        """Cover pairs (x, y) with y covering x, in element order: the transitive reduction."""
        lower, upper = self._reduction
        return [(self.elements[i], self.elements[j]) for i, j in zip(lower.tolist(), upper.tolist())]

    @cached_property
    def _reduction(self):
        """(lower, upper) index arrays of the cover pairs, in element order."""
        n = len(self)
        f = self.leq_matrix.astype(np.float32)
        # (f @ f)[i, j] counts the k with i <= k <= j, so it is 2 exactly when
        # j covers i.  In float32 the product runs in BLAS and counts exactly;
        # a quarter of the rows at a time keeps each product at a quarter of
        # f's bytes, so the reduction stays within verify_residuated's peak.
        step = max(1, -(-n // 4))
        dtype = np.min_scalar_type(n - 1)
        lower, upper = [np.zeros(0, dtype)], [np.zeros(0, dtype)]
        for start in range(0, n, step):
            i, j = np.nonzero(f[start:start + step] @ f == 2)
            lower.append((i + start).astype(dtype))
            upper.append(j.astype(dtype))
        return _frozen(np.concatenate(lower)), _frozen(np.concatenate(upper))

    @cached_property
    def _involution_reports(self) -> dict:
        """involution.check_antitone_involution's report for each image checked on this poset."""
        return {}

    @cached_property
    def _meet_table(self) -> np.ndarray:
        """meet[i, j]: index of the greatest lower bound, -1 where there is none."""
        return _frozen(_greatest_lower_bounds(self.leq_matrix))

    @cached_property
    def _join_table(self) -> np.ndarray:
        """join[i, j]: index of the least upper bound, -1 where there is none."""
        return _frozen(_greatest_lower_bounds(self.leq_matrix.T))

    @cached_property
    def _distributivity(self):
        """(verdict, witness) of classify.is_distributive, computed once per lattice.

        A finite lattice is distributive iff each join-irreducible element
        is join-prime (Davey & Priestley, Introduction to Lattices and
        Order, 2002), so the per-x scan runs only to find the first witness
        of a "no".
        """
        return (True, None) if self._join_prime() else self._distributivity_scan()

    def _join_prime(self) -> bool:
        """Whether each join-irreducible j is join-prime: j is not below the join of the x with j </= x.

        In a finite lattice j is join-irreducible iff it has exactly one
        lower cover.
        """
        irreducible = np.flatnonzero(np.bincount(self._reduction[1], minlength=len(self)) == 1)
        if not irreducible.size:
            return True
        join, leq = self._join_table, self.leq_matrix
        above = ~leq[irreducible]  # [j, x]: j </= x
        # the joins fold from the bottom, which a nonempty finite lattice has
        acc = np.full(irreducible.size, self.index(self.bounds()[0]))
        for x in range(len(self)):
            acc = np.where(above[:, x], join[acc, x], acc)
        return not leq[irreducible, acc].any()

    def _distributivity_scan(self):
        """(verdict, witness) with the first violating (x, y, z) in element order."""
        meet, join = self._meet_table, self._join_table
        for x in range(len(self)):
            # [y, z]: x ^ (y v z)  vs  (x ^ y) v (x ^ z)
            bad = meet[x, join] != join[meet[x][:, None], meet[x][None, :]]
            if bad.any():
                y, z = np.argwhere(bad)[0]
                return False, (self.elements[x], self.elements[y], self.elements[z])
        return True, None

    def meet(self, x: Label, y: Label):
        """Greatest lower bound of x and y, or None when it does not exist."""
        k = self._meet_table[self.index(x), self.index(y)]
        return None if k < 0 else self.elements[k]

    def join(self, x: Label, y: Label):
        """Least upper bound of x and y, or None when it does not exist."""
        k = self._join_table[self.index(x), self.index(y)]
        return None if k < 0 else self.elements[k]

    def is_lattice(self) -> bool:
        return bool((self._meet_table >= 0).all() and (self._join_table >= 0).all())

    def is_chain(self) -> bool:
        return bool((self.leq_matrix | self.leq_matrix.T).all())

    def dual(self) -> "Poset":
        """Same elements, reversed order."""
        return Poset(self.elements, self.leq_matrix.T.copy())

    def bounds(self):
        """(bottom, top), each None when absent."""
        return self._bounds

    @cached_property
    def _bounds(self):
        bottom = top = None
        col_all = self.leq_matrix.all(axis=1)  # element below everything
        row_all = self.leq_matrix.all(axis=0)  # element above everything
        if col_all.any():
            bottom = self.elements[int(np.argmax(col_all))]
        if row_all.any():
            top = self.elements[int(np.argmax(row_all))]
        return bottom, top


def _greatest_lower_bounds(leq: np.ndarray) -> np.ndarray:
    # The meet of i and j is the element whose down-set is their common lower
    # bounds; down-sets (bit i of downs[j] iff i <= j) differ by antisymmetry.
    downs = [int.from_bytes(r, "little") for r in np.packbits(leq.T, axis=1, bitorder="little")]
    lookup = {d: g for g, d in enumerate(downs)}
    table = np.empty(leq.shape, dtype=np.int64)
    for i, a in enumerate(downs):
        table[i] = [lookup.get(a & b, -1) for b in downs]
    return table


def _isomorphisms(a: np.ndarray, b: np.ndarray, pinned=(), involutive=False):
    """Yield every order isomorphism a -> b as an int64 index array.

    a and b are boolean leq matrices; ``pinned`` lists (i, j) index pairs
    that must map to each other.  The search assigns the smallest
    unassigned index first and tries candidates in ascending order.  A
    candidate must have the same (down-set size, up-set size) profile and
    agree with every assigned pair in both directions.  A pin that breaks
    this, or two pins to one target, yields nothing.

    With involutive=True, b is a.T and assigning i -> j also assigns
    j -> i, so only self-inverse maps (antitone involutions) come out.
    """
    n = len(a)
    profile_a = list(zip(a.sum(axis=0).tolist(), a.sum(axis=1).tolist()))
    profile_b = list(zip(b.sum(axis=0).tolist(), b.sum(axis=1).tolist()))
    if sorted(profile_a) != sorted(profile_b):
        return
    rows_a, cols_a, rows_b, cols_b = a.tolist(), a.T.tolist(), b.tolist(), b.T.tolist()
    image = [-1] * n
    taken = [False] * n
    assigned = []  # (i, image[i]) in assignment order

    def fits(i, j):
        if image[i] >= 0 or taken[j] or profile_a[i] != profile_b[j]:
            return False
        row_i, col_i, row_j, col_j = rows_a[i], cols_a[i], rows_b[j], cols_b[j]
        return all(row_i[x] == row_j[y] and col_i[x] == col_j[y] for x, y in assigned)

    def place(i, j):
        # the reverse pair j -> i of an involution agrees whenever i -> j does
        pairs = [(i, j), (j, i)] if involutive and i != j else [(i, j)]
        for x, y in pairs:
            image[x], taken[y] = y, True
        assigned.extend(pairs)
        return pairs

    for i, j in pinned:
        if image[i] != j:
            if not fits(i, j):
                return
            place(i, j)
    # depth-first over an explicit stack, so a carrier deeper than the
    # recursion limit is searched too; a level is [index, next candidate,
    # the pairs placed for its current candidate]
    stack = [[0, 0, ()]]
    while stack:
        level = stack[-1]
        i, j, pairs = level
        for x, y in pairs:
            image[x], taken[y] = -1, False
        del assigned[len(assigned) - len(pairs):]
        while i < n and image[i] >= 0:
            i += 1
        if i == n:
            yield np.array(image, dtype=np.int64)
            j = n
        while j < n and not fits(i, j):
            j += 1
        if j < n:
            level[:] = i, j + 1, place(i, j)
            stack.append([i + 1, 0, ()])
        else:
            stack.pop()


def _check_labels(elements) -> tuple:
    elements = tuple(elements)
    seen = set()
    for x in elements:
        if x in seen:
            raise DuplicateLabel(f"label {x!r} appears more than once")
        seen.add(x)
    return elements


def poset_from_covers(elements, covers) -> Poset:
    """Build a poset from its Hasse (cover) relation.

    A cover relates two distinct labels, so a pair (x, x) raises
    SelfCover; otherwise this is poset_from_relation.
    """
    covers = list(covers)
    for x, y in covers:
        if x == y:
            raise SelfCover(f"cover ({x!r}, {y!r}) relates a label to itself")
    return poset_from_relation(elements, covers)


def poset_from_relation(elements, pairs) -> Poset:
    """Build the poset whose order is the reflexive-transitive closure of ``pairs``.

    ``pairs`` may be the cover relation, the whole order or anything in
    between, with or without reflexive pairs.  Raises CycleDetected when
    the closure would violate antisymmetry.
    """
    elements = _check_labels(elements)
    index = {x: i for i, x in enumerate(elements)}
    rows = [1 << i for i in range(len(elements))]
    for x, y in pairs:
        if x not in index:
            raise UnknownLabel(f"cover endpoint {x!r} is not listed in elements")
        if y not in index:
            raise UnknownLabel(f"cover endpoint {y!r} is not listed in elements")
        rows[index[x]] |= 1 << index[y]
    closure = _bool_matrix(_transitive_closure(rows))
    _check_antisymmetric(elements, closure)
    return Poset(elements, closure)


def _transitive_closure(rows: list) -> list:
    """The closure of a relation whose row i is an int, bit j set iff i R j.

    Each row takes the rows of its own successors, swept in the post-order
    of a depth-first search over the successors (Purdom, "A transitive
    closure algorithm", BIT 10, 1970).  Without a cycle every successor
    comes first, so one sweep closes every row, whatever order the labels
    are listed in, and a successor inside the row of one already taken is
    skipped.  A successor still on the search path closes a cycle; then
    every successor is taken and the sweep repeats until a pass changes
    nothing.
    """
    rows = list(rows)
    strict = [r & ~(1 << i) for i, r in enumerate(rows)]
    unseen = (1 << len(rows)) - 1
    path = 0  # the search path, as a mask
    post = []
    cyclic = False
    while unseen:
        low = unseen & -unseen  # the next root
        unseen ^= low
        path |= low
        stack = [low.bit_length() - 1]
        while stack:
            m = strict[stack[-1]] & unseen
            if m:  # enter the lowest unseen successor
                low = m & -m
                unseen ^= low
                path |= low
                stack.append(low.bit_length() - 1)
            else:  # leave the finished node
                i = stack.pop()
                path ^= 1 << i
                cyclic |= strict[i] & path != 0
                post.append(i)
    if not cyclic:
        # each successor's row is already closed and reflexive, so the
        # successors inside a row just taken add nothing more
        for i in post:
            r, m = rows[i], strict[i]
            while m:
                row = rows[(m & -m).bit_length() - 1]
                r |= row
                m -= m & row
            rows[i] = r
        return rows
    while True:
        changed = False
        for i in post:
            r = old = rows[i]
            m = strict[i]
            while m:
                low = m & -m
                r |= rows[low.bit_length() - 1]
                m ^= low
            if r != old:
                rows[i] = r
                changed = True
        if not changed:
            return rows


def _bool_matrix(rows: list) -> np.ndarray:
    """The n x n boolean matrix of n int rows, bit j of row i in column j."""
    n = len(rows)
    width = -(-n // 8)  # bytes per row
    packed = np.frombuffer(b"".join([r.to_bytes(width, "little") for r in rows]), dtype=np.uint8)
    return np.unpackbits(packed.reshape(n, width), axis=1, count=n, bitorder="little").view(bool)


def _check_antisymmetric(elements, closure: np.ndarray):
    sym = closure & closure.T & ~np.eye(len(elements), dtype=bool)
    if sym.any():
        i, j = np.argwhere(sym)[0]
        raise CycleDetected(
            f"{elements[i]!r} and {elements[j]!r} are mutually comparable"
        )


def chain_poset(labels) -> Poset:
    """Chain ordered by the given label sequence."""
    labels = tuple(labels)
    return poset_from_covers(labels, list(zip(labels, labels[1:])))
