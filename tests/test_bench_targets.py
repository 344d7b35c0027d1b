"""What the benchmark (`bench/`) relies on in the library.

The span tracer (`bench/tracing.py`) names library functions by module and
attribute path.  Each name must still resolve, so a rename or deletion in the
library fails this suite, not only the benchmark's own; and a layer the CLI
stops calling must not read 0 calls unnoticed.  The `construct` workload's
outputs must keep the digests of `bench/reference.json`."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # a dataclass looks its module up there
    spec.loader.exec_module(module)
    return module


def _load_tracing():
    return _load_bench("tracing")


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


@pytest.mark.parametrize("seed", [7, 271828])
def test_the_construct_workload_writes_the_reference_bytes(seed, tmp_path, monkeypatch):
    """The four `construct` calls at the benchmark's own 4x6 size, each
    checked by the benchmark's own `check_call` against its reference."""
    from cigrid.cli import main

    workloads = _load_bench("workloads")
    reference = workloads.load_reference()
    monkeypatch.chdir(ROOT)  # the calls name their inputs relative to the checkout
    calls = workloads.WORKLOADS["construct"]
    assert len(calls) == 4 and {c.check for c in calls} == {"digest"}
    for i, call in enumerate(calls):
        out = tmp_path / str(i)
        code = main(workloads.call_argv(call, seed, out))
        assert workloads.check_call(call, code, workloads.read_outputs(out), reference) == ""
