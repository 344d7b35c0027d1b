import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_arrangement_types_script_tells_the_three_configurations_apart():
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "arrangement_types.py")],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "all signatures pairwise distinct: True" in proc.stdout
