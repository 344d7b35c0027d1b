import ast
import os
import subprocess
import sys
import tomllib
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


# Test-time oracles and bench tools only: never imported by the library.
TEST_ONLY = {"sympy", "numpy", "pytest", "hypothesis"}


def imported_test_tools(source: str) -> list[str]:
    """The modules of TEST_ONLY that a source imports, at any depth: `import`
    and `from ... import` statements, also inside a function, and calls of
    `__import__` or `importlib.import_module` on a string."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.append(node.module)
        elif isinstance(node, ast.Call) and node.args and isinstance(node.args[0], ast.Constant):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else ""
            if name in ("__import__", "import_module") and isinstance(node.args[0].value, str):
                found.append(node.args[0].value)
    return [name for name in found if name.split(".")[0] in TEST_ONLY]


def test_the_library_keeps_no_runtime_dependency():
    """The dependency rule: `dependencies = []` in pyproject.toml, and no
    module under src/cigrid imports sympy, numpy, pytest or hypothesis."""
    samples = {
        "import numpy as np": ["numpy"],
        "def f():\n    from sympy.core import Rational": ["sympy.core"],
        "import os, hypothesis.strategies": ["hypothesis.strategies"],
        "importlib.import_module('pytest')": ["pytest"],
        "from . import sympy\nimport numbers\nfrom fractions import Fraction": [],
    }
    for source, expected in samples.items():
        assert imported_test_tools(source) == expected, source
    modules = sorted((ROOT / "src" / "cigrid").rglob("*.py"))
    assert len(modules) > 10
    offending = {path.name: imported_test_tools(path.read_text()) for path in modules}
    assert {name: found for name, found in offending.items() if found} == {}
    assert tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["dependencies"] == []
