"""The package's public surface."""

import pimgasm


def test_all_names_resolve_once():
    names = pimgasm.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(pimgasm, n)] == []
