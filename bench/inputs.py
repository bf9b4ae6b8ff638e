"""Seeded input generation: every input the program sees is built here.

Inputs are plain documents in the resposet JSON schema: ``elements``,
``covers`` and, for involuted posets, ``involution``.  The named fixtures
are written out as data so that the benchmark does not depend on the
package's own fixture module.
"""

from itertools import combinations

N5 = {
    "elements": ["0", "a", "b", "c", "1"],
    "covers": [["0", "a"], ["0", "c"], ["a", "b"], ["b", "1"], ["c", "1"]],
    "involution": {"0": "1", "a": "b", "b": "a", "c": "c", "1": "0"},
}

KLEENE6 = {
    "elements": ["0", "a", "b", "b'", "a'", "1"],
    "covers": [["0", "a"], ["a", "b"], ["a", "b'"], ["b", "a'"], ["b'", "a'"], ["a'", "1"]],
    "involution": {"0": "1", "a": "a'", "b": "b'", "b'": "b", "a'": "a", "1": "0"},
}

PSEUDO_KLEENE9 = {
    "elements": ["0", "a", "c", "b", "d", "b'", "c'", "a'", "1"],
    "covers": [
        ["0", "a"], ["0", "c"], ["a", "b"], ["b", "d"], ["c", "d"],
        ["d", "b'"], ["d", "c'"], ["b'", "a'"], ["c'", "1"], ["a'", "1"],
    ],
    "involution": {
        "0": "1", "a": "a'", "b": "b'", "c": "c'", "d": "d",
        "b'": "b", "c'": "c", "a'": "a", "1": "0",
    },
}

# The eight-element Boolean algebra in the element order of the worked
# example, so that its Theorem-5 tables match tests/goldens/cube12_tables.txt.
LETTER_CUBE8 = {
    "elements": ["p", "a", "b", "c", "a'", "b'", "c'", "q"],
    "covers": [
        ["p", "a"], ["p", "b"], ["p", "c"], ["a", "b'"], ["a", "c'"], ["b", "a'"],
        ["b", "c'"], ["c", "a'"], ["c", "b'"], ["a'", "q"], ["b'", "q"], ["c'", "q"],
    ],
}


def chain_doc(n):
    """The n-chain e1 < ... < en with its unique antitone involution."""
    labels = [f"e{i}" for i in range(1, n + 1)]
    return {
        "elements": labels,
        "covers": [[x, y] for x, y in zip(labels, labels[1:])],
        "involution": {labels[i]: labels[n - 1 - i] for i in range(n)},
    }


def antichain_doc(n):
    return {"elements": [f"u{i}" for i in range(1, n + 1)], "covers": []}


def telephone(n):
    """Involutions of an n-set (OEIS A000085): the antitone involutions of an n-antichain."""
    a, b = 1, 1
    for m in range(2, n + 1):
        a, b = b, b + (m - 1) * a
    return b if n else 1


def subset_lattice_doc(atoms):
    """Boolean lattice of all subsets of ``atoms``, ordered by size, then lexicographically."""
    subsets = [s for size in range(len(atoms) + 1) for s in combinations(atoms, size)]
    names = {s: "+".join(s) if s else "{}" for s in subsets}
    covers = [
        [names[s], names[t]]
        for s in subsets
        for t in subsets
        if len(t) == len(s) + 1 and set(s) < set(t)
    ]
    return {"elements": [names[s] for s in subsets], "covers": covers}


def poset_doc(p, inv=None):
    """Document for a Poset (and Involution) built by the program, e.g. a catalog entry."""
    doc = {"elements": list(p.elements), "covers": [[x, y] for x, y in p.covers()]}
    if inv is not None:
        doc["involution"] = inv.mapping
    return doc


def admitted_modes(doc):
    """Theorem-1 modes the involuted poset in ``doc`` admits, as mode values.

    addfour always applies; reusebounds needs both bounds; reusefour needs
    bounds a < d, interior elements with a least b and a greatest c, and
    a' = d, b' = c.
    """
    els = doc["elements"]
    inv = doc["involution"]
    below = {x: {x} for x in els}
    changed = True
    while changed:
        changed = False
        for x, y in doc["covers"]:
            grown = below[y] | below[x]
            if grown != below[y]:
                below[y] = grown
                changed = True

    def leq(x, y):
        return x in below[y]

    modes = ["addfour"]
    bottoms = [x for x in els if all(leq(x, y) for y in els)]
    tops = [x for x in els if all(leq(y, x) for y in els)]
    if not (bottoms and tops):
        return modes
    modes.append("reusebounds")
    a, d = bottoms[0], tops[0]
    inner = [x for x in els if x not in (a, d)]
    if a == d or not inner:
        return modes
    b = next((x for x in inner if all(leq(x, y) for y in inner)), None)
    c = next((x for x in inner if all(leq(y, x) for y in inner)), None)
    if b is not None and c is not None and inv[a] == d and inv[b] == c:
        modes.append("reusefour")
    return modes


def relabeled(doc, rng):
    """The same structure under a seeded renaming and reordering of its elements."""
    els = doc["elements"]
    fresh = [f"r{i}" for i in range(len(els))]
    rng.shuffle(fresh)
    name = dict(zip(els, fresh))
    order = list(els)
    rng.shuffle(order)
    out = {
        "elements": [name[x] for x in order],
        "covers": [[name[x], name[y]] for x, y in doc["covers"]],
    }
    if "involution" in doc:
        out["involution"] = {name[x]: name[y] for x, y in doc["involution"].items()}
    for key in ("odot", "arrow"):
        if key in doc:
            out[key] = {
                name[x]: {name[y]: name[v] for y, v in row.items()}
                for x, row in doc[key].items()
            }
    if "unit" in doc:
        out["unit"] = name[doc["unit"]]
    return out
