"""The names and keywords the benchmark in ``perfbench/`` uses still exist.

The benchmark is run on the committed program, so a rename or a dropped
keyword in ``sigfit`` breaks it without failing any other test. These
tests read ``perfbench/`` and change nothing in it (no bytecode is written).
"""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SOURCES = sorted(PERFBENCH.glob("*.py"))


def _sigfit_references(path):
    """(line, module, attr, call) for each ``module.attr`` on a sigfit module.

    ``call`` is the ast.Call when the reference is called directly, else None.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = {}  # local name -> sigfit module name
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "sigfit":
            for alias in node.names:
                modules[alias.asname or alias.name] = f"sigfit.{alias.name}"
    calls = {
        id(node.func): node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
    }
    return [
        (node.lineno, modules[node.value.id], node.attr, calls.get(id(node)))
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    ]


def test_perfbench_is_where_the_contract_reads_it():
    assert {p.name for p in SOURCES} >= {"run.py", "tracing.py", "workloads.py"}


def test_every_wrapped_name_exists_and_is_callable(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.WRAPPED
    for module, attr, _name, _note in tracing.WRAPPED:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_sigfit_name_and_keyword_the_benchmark_uses_exists(path):
    for line, module_name, attr, call in _sigfit_references(path):
        where = f"{path.name}:{line} {module_name}.{attr}"
        module = importlib.import_module(module_name)
        assert hasattr(module, attr), where
        if call is None or any(isinstance(a, ast.Starred) for a in call.args):
            continue
        if any(k.arg is None for k in call.keywords):  # **kwargs
            continue
        signature = inspect.signature(getattr(module, attr))
        try:
            signature.bind(*[None] * len(call.args), **{k.arg: None for k in call.keywords})
        except TypeError as exc:
            pytest.fail(f"{where}: {exc}")


def test_the_scan_sees_the_workload_entry_points():
    called = {
        (module, attr)
        for _, module, attr, call in _sigfit_references(PERFBENCH / "workloads.py")
        if call is not None and call.keywords
    }
    assert called >= {
        ("sigfit.synth", "generate_samples"),
        ("sigfit.synth", "write_dataset"),
        ("sigfit.verify", "compare_preprocessors"),
    }
