"""The demos run to completion.

Each demo runs as its own process in a fresh directory, since some write
CSV files to the working directory. Demo 03 is left out: it takes the
longest, and its GBAA path is covered by ``test_gbaa``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ("01_refractory_gate.py", "02_noiseless_rates.py", "04_codebook_gallery.py",
         "05_spelling_accuracy.py")


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / name)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
