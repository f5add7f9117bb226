"""The benchmark's tracing finds every function it wraps.

``perfbench/tracing.py`` wraps each (module, function) of its ``SPANS``,
``LEAVES`` and ``COUNTERS`` tables by name, with ``getattr``, so a name
renamed or deleted in the package breaks ``perfbench/run.py --trace 1``.
The tables are read from that file as it stands.
"""
import importlib
import runpy
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def traced_names():
    tracing = runpy.run_path(str(TRACING))
    return [(entry[0], entry[1]) for table in ("SPANS", "LEAVES", "COUNTERS") for entry in tracing[table]]


def test_every_traced_function_resolves():
    names = traced_names()
    assert ("snf", "smith_normal_form") in names and ("homology", "boundary_matrix") in names
    missing = [
        f"{module}.{function}"
        for module, function in names
        if not callable(getattr(importlib.import_module(f"multishelf.{module}"), function, None))
    ]
    assert missing == []
