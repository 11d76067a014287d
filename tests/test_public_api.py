"""The package's exports: every name in `__all__` exists, once."""

import toricstab


def test_every_exported_name_resolves():
    missing = [name for name in toricstab.__all__ if not hasattr(toricstab, name)]
    assert missing == []


def test_exports_have_no_duplicates():
    assert len(set(toricstab.__all__)) == len(toricstab.__all__)


def test_star_import_succeeds():
    namespace = {}
    exec("from toricstab import *", namespace)
    assert set(toricstab.__all__) <= set(namespace)
