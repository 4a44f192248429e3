"""The package's public surface."""

import linquant


def test_exports_resolve_once():
    names = linquant.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(linquant, name)]
    assert missing == []
