"""Each narrative script under demos/ runs to completion against the
package this process imported."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import anongames

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_clean(demo, tmp_path):
    package_root = str(Path(anongames.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": package_root}
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          env=env, cwd=tmp_path, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    assert b"Traceback" not in proc.stdout + proc.stderr
