"""The benchmark's tracer wraps ringgb names that exist, and puts every one back.

``perfbench/tracing.py`` patches functions and methods by name, so a
name it wraps that ringgb no longer defines breaks the traced benchmark
runs.  This installs and uninstalls a ``Tracer`` in-process; the module
is loaded from its file without writing bytecode next to it.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def ringgb_namespaces(layers):
    """Every ringgb module and every class defined in one, as (owner, a copy of its namespace)."""
    modules = [importlib.import_module(f"ringgb.{name}") for name in layers]
    modules.append(importlib.import_module("ringgb"))
    owners = list(modules)
    for module in modules:
        owners += [
            value
            for value in vars(module).values()
            if inspect.isclass(value) and value.__module__.startswith("ringgb")
        ]
    return [(owner, dict(vars(owner))) for owner in dict.fromkeys(owners)]


def test_tracer_installs_and_restores_every_patched_name():
    tracing = load_tracing()
    before = ringgb_namespaces(tracing.LAYERS)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        patches = list(tracer._patches)
        assert patches
        for owner, attr, original in patches:
            assert vars(owner)[attr] is not original
    finally:
        tracer.uninstall()
    assert tracer._patches == []
    for owner, attr, original in patches:
        assert vars(owner)[attr] is original
    for owner, namespace in before:
        now = vars(owner)
        assert now.keys() == namespace.keys()
        assert all(now[name] is value for name, value in namespace.items())
