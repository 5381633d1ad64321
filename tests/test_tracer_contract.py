"""The benchmark's per-layer tracer wraps jkscatter functions by name.

``perfbench/tracer.py`` looks every ``LAYERS`` entry up when ``--trace 1``
installs it, so a renamed or removed function fails that run with a
KeyError.  This test reads the tracer's tables without changing anything
under ``perfbench/``.
"""

import importlib
import runpy
from pathlib import Path

from jkscatter.series import TruncatedSeries

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_traced_name_resolves():
    tracer = runpy.run_path(str(TRACER))  # compiles in memory, writes no bytecode
    for module, funcs in tracer["LAYERS"].items():
        for name in funcs:
            if module == "series":
                owner, attr = vars(TruncatedSeries), tracer["SERIES_METHODS"][name]
            else:
                owner, attr = vars(importlib.import_module(f"jkscatter.{module}")), name
            assert callable(owner.get(attr)), f"{module}.{name}"
