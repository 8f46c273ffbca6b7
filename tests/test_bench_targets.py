"""Every function the benchmark tracer wraps exists in the package.

``bench/tracer.py`` names its targets as ``(module, function)`` strings and
only reports a missing one during a traced benchmark run. Resolving them here
makes a rename of a traced function fail the test suite instead.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_every_traced_function_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    missing = [
        f"{module}.{function}"
        for _, module, function, _ in tracer.TARGETS
        if not callable(getattr(importlib.import_module(module), function, None))
    ]
    assert missing == []
