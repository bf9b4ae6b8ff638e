"""Named built-in structures used throughout tests, demos and the CLI."""

from itertools import combinations

from .classify import recognize_boolean
from .errors import InvariantViolation
from .involution import involuted
from .order import Poset, chain_poset, poset_from_covers


def n5() -> Poset:
    """The pentagon: 0 < a < b < 1, 0 < c < 1, with c incomparable to a, b."""
    return poset_from_covers(
        ["0", "a", "b", "c", "1"],
        [("0", "a"), ("0", "c"), ("a", "b"), ("b", "1"), ("c", "1")],
    )


def n5_involuted():
    """N5 with its unique antitone involution 0<->1, a<->b, c fixed."""
    return involuted(n5(), {"0": "1", "a": "b", "b": "a", "c": "c", "1": "0"})


def kleene_six() -> Poset:
    """Six-element Kleene lattice: 0 < a < {b, b'} < a' < 1."""
    return poset_from_covers(
        ["0", "a", "b", "b'", "a'", "1"],
        [("0", "a"), ("a", "b"), ("a", "b'"), ("b", "a'"), ("b'", "a'"), ("a'", "1")],
    )


def kleene_six_involuted():
    return involuted(
        kleene_six(),
        {"0": "1", "a": "a'", "b": "b'", "b'": "b", "a'": "a", "1": "0"},
    )


def pseudo_kleene_nine() -> Poset:
    """Nine-element pseudo-Kleene (non-distributive) lattice with d self-inverse."""
    return poset_from_covers(
        ["0", "a", "c", "b", "d", "b'", "c'", "a'", "1"],
        [
            ("0", "a"),
            ("0", "c"),
            ("a", "b"),
            ("b", "d"),
            ("c", "d"),
            ("d", "b'"),
            ("d", "c'"),
            ("b'", "a'"),
            ("c'", "1"),
            ("a'", "1"),
        ],
    )


def pseudo_kleene_nine_involuted():
    return involuted(
        pseudo_kleene_nine(),
        {
            "0": "1",
            "a": "a'",
            "b": "b'",
            "c": "c'",
            "d": "d",
            "b'": "b",
            "c'": "c",
            "a'": "a",
            "1": "0",
        },
    )


def chain(n: int) -> Poset:
    """Chain e1 < e2 < ... < en."""
    return chain_poset([f"e{i}" for i in range(1, n + 1)])


def chain_involuted(n: int):
    labels = [f"e{i}" for i in range(1, n + 1)]
    mapping = {labels[i]: labels[n - 1 - i] for i in range(n)}
    return involuted(chain_poset(labels), mapping)


def antichain(n: int) -> Poset:
    """Antichain u1, u2, ..., un."""
    return poset_from_covers([f"u{i}" for i in range(1, n + 1)], [])


def powerset_lattice(num_atoms: int) -> Poset:
    """Boolean lattice of subsets of {atom labels}; 2**num_atoms elements.

    Element order: by subset size, then lexicographic; bottom is "p",
    top is "q", singletons keep their atom name, other subsets join
    their atoms with "+".
    """
    atoms = ["a", "b", "c", "d"][:num_atoms]

    def name(subset):
        if not subset:
            return "p"
        if len(subset) == num_atoms:
            return "q"
        return "+".join(subset)

    subsets = []
    for size in range(num_atoms + 1):
        subsets.extend(combinations(atoms, size))
    labels = [name(s) for s in subsets]
    sets = {name(s): frozenset(s) for s in subsets}
    covers = [
        (x, y)
        for x in labels
        for y in labels
        if sets[x] < sets[y] and len(sets[y]) == len(sets[x]) + 1
    ]
    return poset_from_covers(labels, covers)


def cube_boolean(num_atoms: int):
    """The 2**num_atoms-element Boolean algebra, recognized from the lattice."""
    B = recognize_boolean(powerset_lattice(num_atoms))
    if B is None:
        raise InvariantViolation(f"the {2 ** num_atoms}-element powerset lattice is not Boolean")
    return B


def letter_cube_boolean():
    """Eight-element Boolean algebra labelled as in the final worked example.

    Atoms a, b, c; coatoms a' = b v c, b' = a v c, c' = a v b; bounds p, q.
    Element order matches the example's table order.
    """
    p = poset_from_covers(
        ["p", "a", "b", "c", "a'", "b'", "c'", "q"],
        [
            ("p", "a"),
            ("p", "b"),
            ("p", "c"),
            ("a", "b'"),
            ("a", "c'"),
            ("b", "a'"),
            ("b", "c'"),
            ("c", "a'"),
            ("c", "b'"),
            ("a'", "q"),
            ("b'", "q"),
            ("c'", "q"),
        ],
    )
    B = recognize_boolean(p)
    if B is None:
        raise InvariantViolation("the letter cube is not a Boolean algebra")
    return B


# name -> factory of an InvolutedPoset; the CLI reads these as builtin:<name>
BUILTINS = {
    "n5": n5_involuted,
    "kleene6": kleene_six_involuted,
    "pseudokleene9": pseudo_kleene_nine_involuted,
    "cube2": lambda: cube_boolean(1),
    "cube4": lambda: cube_boolean(2),
    "cube8": letter_cube_boolean,
    "cube16": lambda: cube_boolean(4),
}
