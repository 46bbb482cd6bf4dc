import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import anongames

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("package", ["scipy", "numpy", "multiprocessing"])
def test_import_does_not_load(package):
    # the child imports the same anongames as this process (src/ or site-packages);
    # numpy is imported by the functions that draw from it, and the process pool
    # (which loads multiprocessing) only by tv-experiment with jobs > 1
    env = dict(os.environ, PYTHONPATH=str(Path(anongames.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, anongames; "
         f"print(sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _third_party_imports() -> set:
    found = set()
    for path in (ROOT / "src" / "anongames").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found.update(name.split(".")[0] for name in names)
    return found - set(sys.stdlib_module_names)


def test_declared_dependencies_are_exactly_the_imported_ones():
    tomllib = pytest.importorskip("tomllib")
    declared = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["dependencies"]
    names = {re.match(r"[A-Za-z0-9_.-]+", dep).group(0).lower() for dep in declared}
    assert _third_party_imports() == names
