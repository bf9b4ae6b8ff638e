"""Every name the package binds is used somewhere other than its definition.

A name that only its own definition mentions is dead code, such as a
helper left behind when its last caller was folded away.  Uses of a
module-level name are counted as whole words in the Python files of the
package, the tests, the benchmark and the demos; a name bound inside a
function must be read in that function.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import resposet

PACKAGE = Path(resposet.__file__).parent
ROOT = PACKAGE.parent.parent
SOURCES = [PACKAGE, ROOT / "tests", ROOT / "bench", ROOT / "demos"]


def defined_names(tree):
    """The module-level names a module binds by def, class or assignment, once per binding."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id


def test_every_module_level_name_is_used():
    words = Counter(
        word for folder in SOURCES for path in folder.glob("*.py")
        for word in re.findall(r"\w+", path.read_text(encoding="utf-8"))
    )
    unused = [
        f"{path.name}:{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name, count in Counter(defined_names(ast.parse(path.read_text(encoding="utf-8")))).items()
        if not (name.startswith("__") and name.endswith("__")) and words[name] <= count
    ]
    assert unused == []


# the nodes that open a scope of their own
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def scope_nodes(function):
    """The nodes of a function's own body, without the bodies of the functions, lambdas and classes in it."""
    stack = list(function.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def unread_locals(function):
    """The names a function binds in its own body and never reads, in it or in a scope inside it.

    Bindings are assignments, loop and with targets, walrus targets,
    nested definitions, imports and exception names; parameters are not.
    Names declared nonlocal or global, and _, are left out.
    """
    bound, declared = set(), {"_"}
    for node in scope_nodes(function):
        if isinstance(node, (ast.Nonlocal, ast.Global)):
            declared.update(node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
        elif isinstance(node, ast.alias):
            bound.add((node.asname or node.name).split(".")[0])
    names = (node for node in ast.walk(function) if isinstance(node, ast.Name))
    read = {name.id for name in names if not isinstance(name.ctx, ast.Store)}
    return sorted(bound - read - declared)


def test_every_local_name_is_read():
    unread = [
        f"{path.name}:{function.name}:{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for function in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
        for name in unread_locals(function)
    ]
    assert unread == []


def test_unread_locals_finds_a_leftover():
    source = """
def search(n, rows):
    up = [row for row in rows]
    down, _ = rows, None
    total = 0
    total += n
    def inner():
        nonlocal count
        count = down
    import json as js
    try:
        pass
    except ValueError as exc:
        pass
    return inner
"""
    assert unread_locals(ast.parse(source).body[0]) == ["exc", "js", "total", "up"]
