"""The package's export list."""

import ilscond


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from ilscond import *", namespace)  # raises on a listed name the package lacks
    assert len(set(ilscond.__all__)) == len(ilscond.__all__)
    for name in ilscond.__all__:
        assert namespace[name] is getattr(ilscond, name)
