"""Every function the benchmark's tracer wraps resolves under its name.

`bench/tracing.py` wraps each ``(module, function)`` of its `TRACED` table
by name, so a renamed or deleted function breaks every traced benchmark
run; this test catches it in the ordinary test run.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_every_traced_function_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    missing = [f"{span}: {module}.{attr}"
               for span, (module, attr, _) in tracing.TRACED.items()
               if not callable(getattr(importlib.import_module(module), attr,
                                       None))]
    assert not missing
