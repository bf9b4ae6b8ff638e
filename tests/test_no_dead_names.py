"""Every module-level name the package defines is used somewhere other than its definition.

A name that only its own definition mentions is dead code, such as a
helper left behind when its last caller was folded away.  Uses are
counted as whole words in the Python files of the package, the tests,
the benchmark and the demos.
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
