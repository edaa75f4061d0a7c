import sigfit


def test_every_export_resolves():
    missing = [name for name in sigfit.__all__ if not hasattr(sigfit, name)]
    assert missing == []
    namespace = {}
    exec("from sigfit import *", namespace)  # raises if a name in __all__ is gone
    assert set(sigfit.__all__) <= set(namespace)
