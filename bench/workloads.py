"""Benchmark workloads: the CLI calls that make up one round, and the checks
applied to what each call writes.

A round is a fixed list of `cigrid` invocations at one seed.  Every call
writes its artifacts under its own `--out` directory; the checks read them
back.  Input files live in `bench/inputs/` and are committed, so the program
receives nothing but argv and those files.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

INPUTS = "bench/inputs"
GRID_4x6 = ("--k", "4", "--l", "6", "--s", "4", "--t", "4", "--d", "4")


@dataclass(frozen=True)
class Call:
    """One CLI invocation; `check` names the output check applied to it."""

    argv: tuple[str, ...]
    check: str


WORKLOADS: dict[str, tuple[Call, ...]] = {
    # Groebner work (ideals, poly leading terms and arithmetic) dominates.
    "decompose": (
        Call(("verify", "example31", "--trials", "100"), "report"),
    ),
    # Exact witness evaluation dominates; no Groebner basis is computed.
    "witness": (
        Call(("verify", "example32", "--trials", "100"), "report"),
        Call(("verify", "intersection-axiom", "--trials", "100"), "report"),
    ),
    # Exact and mod-p elimination (linalg, matroid, secrig) dominates.
    "rank": (
        Call(("verify", "theorem32", "--k", "3", "--l", "4", "--s", "3", "--t", "3", "--d", "3"), "report"),
        Call(("verify", "rigidity"), "report"),
        Call(("verify", "terracini"), "report"),
        Call(("rigidity", "--n", "8", "--d", "3"), "report"),
        Call(("secant", "--m", "6", "--n", "6", "--k", "4"), "secant"),
        Call(("matroid", "--parametrization", f"{INPUTS}/segre3x4.map"), "segre"),
    ),
    # Polynomial construction and text output; nothing is evaluated.
    "construct": (
        Call(("ideal", "--grid", *GRID_4x6), "digest"),
        Call(("ideal", "--grid", *GRID_4x6, "--format", "cas"), "digest"),
        Call(("ideal", "--hypergraph", f"{INPUTS}/cyclic10.hg", "--d", "5"), "digest"),
        Call(("ideal", "--ci", f"{INPUTS}/grid4x6.ci"), "digest"),
    ),
}

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def round_seed(seed: int, index: int) -> int:
    """Seed of round `index` in a run started with `seed`."""
    digest = hashlib.sha256(f"bench/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def call_argv(call: Call, seed: int, out_dir: Path) -> list[str]:
    return [*call.argv, "--seed", str(seed), "--out", str(out_dir)]


def read_outputs(out_dir: Path) -> dict[str, bytes]:
    """Every artifact a call wrote, keyed by file name."""
    if not out_dir.is_dir():
        return {}
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir()) if p.is_file()}


def digest(outputs: dict[str, bytes]) -> str:
    h = hashlib.sha256()
    for name in sorted(outputs):
        h.update(name.encode() + b"\0" + outputs[name] + b"\0")
    return h.hexdigest()


def bipartite_cycles(m: int, n: int) -> list[list[int]]:
    """Cycles of the complete bipartite graph K_{m,n}, as sorted sets of
    entry labels (i-1)*n + j: the circuits of the algebraic matroid of
    rank-one m x n matrices, derived without any linear algebra."""
    edges = [(i, j) for i in range(m) for j in range(n)]
    out = []
    for size in range(4, 2 * min(m, n) + 1, 2):
        for subset in combinations(range(len(edges)), size):
            degree: dict[tuple[str, int], int] = {}
            adj: dict[tuple[str, int], list[tuple[str, int]]] = {}
            for e in subset:
                a, b = ("r", edges[e][0]), ("c", edges[e][1])
                for v in (a, b):
                    degree[v] = degree.get(v, 0) + 1
                adj.setdefault(a, []).append(b)
                adj.setdefault(b, []).append(a)
            if any(d != 2 for d in degree.values()):
                continue
            start = next(iter(adj))
            seen, stack = {start}, [start]
            while stack:
                for w in adj[stack.pop()]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            if len(seen) == len(adj):
                out.append(sorted(e + 1 for e in subset))
    return sorted(out, key=lambda c: (len(c), c))


SEGRE_CIRCUITS = bipartite_cycles(3, 4)


def check_call(call: Call, code: int, outputs: dict[str, bytes], reference: dict[str, str]) -> str:
    """Empty string when the call's outputs are correct, else the reason."""
    if code != 0:
        return f"exit code {code}"
    if call.check == "report":
        report = json.loads(outputs.get("report.json", b"{}"))
        return "" if report.get("status") == "pass" else f"report status {report.get('status')!r}"
    if call.check == "secant":
        payload = json.loads(outputs["secant.json"])
        m, n, k = (int(call.argv[i]) for i in (2, 4, 6))
        expected = min(m * n, k * (m + n - k))
        got = payload["cone_dimension"]
        return "" if got == expected else f"secant cone dimension {got}, expected {expected}"
    if call.check == "segre":
        payload = json.loads(outputs["matroid.json"])
        ok = payload["rank"] == 3 + 4 - 1 and payload["circuits"] == SEGRE_CIRCUITS
        return "" if ok else "Segre 3x4 matroid differs from the cycles of K_{3,4}"
    if call.check == "digest":
        key = " ".join(call.argv)
        got = digest(outputs)
        return "" if reference.get(key) == got else f"output digest {got[:12]} differs from the reference"
    raise ValueError(f"unknown check {call.check!r}")


def load_reference() -> dict[str, str]:
    return json.loads(REFERENCE_PATH.read_text())
