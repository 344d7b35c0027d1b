"""Rewrite `reference.json`: the digests of the `construct` workload's outputs.

    python3 bench/make_reference.py

Those outputs do not depend on the seed.  Regenerate only when a change to
cigrid is meant to change them, and check the new outputs independently
first (the benchmark's `grid-ideal` oracle covers the grid ideal).
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    os.chdir(ROOT)  # the calls name their input files relative to the checkout
    sys.path.insert(0, str(ROOT / "src"))
    from cigrid.cli import main as cli_main

    reference = {}
    with tempfile.TemporaryDirectory(dir=ROOT / "bench") as tmp:
        for j, call in enumerate(workloads.WORKLOADS["construct"]):
            out = Path(tmp) / str(j)
            if cli_main(workloads.call_argv(call, 0, out)) != 0:
                raise SystemExit(f"{' '.join(call.argv)} failed")
            reference[" ".join(call.argv)] = workloads.digest(workloads.read_outputs(out))
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
