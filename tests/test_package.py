"""The package's public names."""

import patchbias


def test_every_exported_name_resolves_and_is_listed_once():
    names = patchbias.__all__
    assert sorted(n for n in set(names) if names.count(n) > 1) == []
    assert [n for n in names if not hasattr(patchbias, n)] == []
