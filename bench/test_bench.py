"""Tests of the benchmark's own machinery.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import cigrid.cli  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from cigrid import linalg, poly, verify  # noqa: E402


def _snapshot() -> dict[tuple[int, str], int]:
    return {(id(owner), key): id(value) for owner, namespace, _ in tracing._namespaces() for key, value in namespace.items()}


def test_install_rebinds_aliases_and_uninstall_restores_everything():
    before = _snapshot()
    rank, add = linalg.rank, poly.Polynomial.__add__
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert linalg.rank is not rank and linalg.rank.__wrapped__ is rank
        assert verify.rank is linalg.rank  # a `from .linalg import rank` alias
        assert poly.Polynomial.__radd__ is poly.Polynomial.__add__ is not add
        assert verify.VERIFICATIONS["example32"].__wrapped__ is verify.verify_rank_two_component.__wrapped__
        assert cigrid.cli.main.__wrapped__ is not None
    finally:
        tracer.uninstall()
    assert _snapshot() == before
    assert linalg.rank is rank and poly.Polynomial.__radd__ is add


def test_traced_call_is_transparent_and_self_times_add_up(tmp_path):
    argv = ["ideal", "--grid", "--k", "3", "--l", "4", "--s", "3", "--t", "3", "--d", "3"]
    assert cigrid.cli.main([*argv, "--out", str(tmp_path / "plain")]) == 0
    tracer = tracing.Tracer()
    tracer.round = 0
    tracer.install()
    try:
        assert cigrid.cli.main([*argv, "--out", str(tmp_path / "traced")]) == 0
    finally:
        tracer.uninstall()
    assert workloads.read_outputs(tmp_path / "plain") == workloads.read_outputs(tmp_path / "traced")

    root = tracer.names.tolist().index(tracer.name_ids["cli.main"])
    assert tracer.parents[root] == -1
    tracer.round_walls[0] = tracer.ends[root] - tracer.starts[root]
    metrics = tracer.metrics(overhead=1.0)
    assert metrics["cli.main.calls"] == 1
    assert metrics["hypergraph.hypergraph_ideal.calls"] == 1
    assert metrics["poly.to_text.calls"] == 16 * 2  # generators.txt and generators.json
    self_total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert abs(self_total - tracer.round_walls[0]) < 1e-6
    assert abs(sum(metrics[f"{m}.self_share"] for m in tracing.MODULES) - 1) < 1e-6
    assert metrics["cli.incl_share"] == 1.0


def test_benchmark_json_lists_exactly_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [name for name, _ in tracing.metric_names()]
    assert [m["unit"] for m in spec["per_layer"]] == [unit for _, unit in tracing.metric_names()]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_round_seeds_are_deterministic_and_distinct():
    seeds = [workloads.round_seed(7, i) for i in range(50)]
    assert seeds == [workloads.round_seed(7, i) for i in range(50)]
    assert len(set(seeds)) == 50


def test_segre_reference_circuits_are_the_cycles_of_k34():
    by_size = {}
    for c in workloads.SEGRE_CIRCUITS:
        by_size[len(c)] = by_size.get(len(c), 0) + 1
    # 4-cycles: C(3,2) C(4,2); 6-cycles: C(4,3) choices of columns times 6
    assert by_size == {4: 18, 6: 24}


def test_untraced_run_prints_every_end_to_end_metric():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "construct", "--seed", "0", "--seconds", "0.1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec["end_to_end"]}
