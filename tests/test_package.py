"""The package's public surface."""

import types

import resposet


def test_all_names_resolve_and_none_is_a_module():
    assert len(set(resposet.__all__)) == len(resposet.__all__)
    for name in resposet.__all__:
        assert not isinstance(getattr(resposet, name), types.ModuleType), name
