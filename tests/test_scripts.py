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


SAMPLE = '''"""A module docstring
over two lines."""
# a comment

def f(x):
    """A function docstring."""
    return (x +  # a trailing comment
            1)
'''


def test_code_lines_script_counts_code_without_docstrings_or_comments(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(SAMPLE)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "code_lines.py"), str(sample), str(ROOT / "src" / "cigrid")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    rows = [line.split(None, 1) for line in proc.stdout.splitlines()]
    counts = {name: int(count) for count, name in rows}
    assert counts[str(sample)] == 3
    modules = sorted((ROOT / "src" / "cigrid").rglob("*.py"))
    assert [name for _, name in rows[1:-1]] == [str(path) for path in modules]
    assert all(0 < counts[str(path)] < len(path.read_text().splitlines()) for path in modules)
    assert rows[-1][1] == "total" and counts["total"] == sum(int(count) for count, _ in rows[:-1])
