"""The package's public surface."""

import ast
import types
from pathlib import Path

import resposet


def test_all_names_resolve_and_none_is_a_module():
    assert len(set(resposet.__all__)) == len(resposet.__all__)
    for name in resposet.__all__:
        assert not isinstance(getattr(resposet, name), types.ModuleType), name


ROOT = Path(__file__).resolve().parent.parent


def test_sources_parse_as_the_declared_minimum_python():
    # the interpreters that run the tests may be newer than the minimum
    # pyproject.toml declares, so syntax from a later version (an except*
    # clause is 3.11) would pass every other test
    assert 'requires-python = ">=3.10"' in (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    paths = [path for folder in ("src", "tests", "bench", "demos") for path in (ROOT / folder).rglob("*.py")]
    assert len(paths) > 30
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
