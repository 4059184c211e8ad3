"""The package's public names: a stale export fails here."""

import coxnorm


def test_every_exported_name_resolves():
    assert len(set(coxnorm.__all__)) == len(coxnorm.__all__)
    assert [name for name in coxnorm.__all__ if not hasattr(coxnorm, name)] == []


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from coxnorm import *", namespace)
    assert set(coxnorm.__all__) <= set(namespace)
