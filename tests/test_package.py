import types

import o2hopf


def test_star_import_brings_in_no_modules():
    namespace = {}
    exec("from o2hopf import *", namespace)
    namespace.pop("__builtins__")
    assert namespace
    assert not [name for name, value in namespace.items()
                if isinstance(value, types.ModuleType)]
    assert set(namespace) == set(o2hopf.__all__)
