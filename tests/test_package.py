import ast
from pathlib import Path

import sigfit


def test_every_export_resolves():
    missing = [name for name in sigfit.__all__ if not hasattr(sigfit, name)]
    assert missing == []
    namespace = {}
    exec("from sigfit import *", namespace)  # raises if a name in __all__ is gone
    assert set(sigfit.__all__) <= set(namespace)


def test_no_module_imports_a_private_name_of_another():
    """``from .ingest import _x`` couples two modules through what one keeps to itself.

    Importing a private module as a module (``from . import _blas``) stays allowed.
    """
    package = Path(sigfit.__file__).parent
    modules = {path.stem for path in package.glob("*.py")}
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and (node.module or "").split(".")[0] != "sigfit":
                continue
            for alias in node.names:
                private = alias.name.startswith("_") and not alias.name.endswith("__")
                whole_module = node.module in (None, "sigfit") and alias.name in modules
                if private and not whole_module:
                    found.append(f"{path.name}:{node.lineno} imports {alias.name}")
    assert found == []
