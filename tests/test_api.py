import types

import kummerlcp as K


def test_all_lists_resolvable_non_module_names():
    assert len(K.__all__) == len(set(K.__all__))
    for name in K.__all__:
        obj = getattr(K, name)
        assert not isinstance(obj, types.ModuleType), name


def test_star_import_exports_exactly_all():
    namespace: dict = {}
    exec("from kummerlcp import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(K.__all__)
    assert "field" not in namespace and "curve" not in namespace
