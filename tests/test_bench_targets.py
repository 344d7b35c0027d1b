"""The benchmark's span tracer (`bench/tracing.py`) names library functions
by module and attribute path.  Each name must still resolve, so a rename or
deletion in the library fails this suite, not only the benchmark's own; and
a layer the CLI stops calling must not read 0 calls unnoticed."""

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


def test_the_traced_report_layer_is_called_when_a_report_is_written(tmp_path):
    """`cigrid verify terracini --out D` writes report.json through
    `WitnessReport.to_json`, the call behind the `report.to_json` span."""
    from cigrid.cli import main

    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert main(["verify", "terracini", "--seed", "7", "--out", str(tmp_path)]) == 0
    finally:
        tracer.uninstall()
    spans = [tracing.SPAN_NAMES[k] for k in tracer.names]
    assert spans.count("report.to_json") == 1
    assert spans.count("verify.terracini") == 1
    assert (tmp_path / "report.json").is_file()
