"""The benchmark's span tracer (`bench/tracing.py`) names library functions
by module and attribute path.  Each name must still resolve, so a rename or
deletion in the library fails this suite, not only the benchmark's own."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves_against_the_library():
    tracing = _load_tracing()
    missing = []
    for name, module, path in tracing.TARGETS:
        importlib.import_module(module)
        try:
            found = callable(tracing._resolve(module, path))
        except (AttributeError, KeyError):
            found = False
        if not found:
            missing.append(f"{name}: {module}.{path}")
    assert len(tracing.TARGETS) > 40
    assert missing == []
