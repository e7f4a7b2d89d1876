"""What the package and its tests import, against what pyproject.toml declares."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

RUN_EVERY_SUBCOMMAND = """
import sys
from p300channel.cli import main

jobs = [
    ["rate", "--L", "1"],
    ["genbook", "--kind", "mbc", "--L", "3", "--N", "24", "--out", "mbc.csv"],
    ["simulate", "--book", "mbc.csv", "--L", "1", "--sigma2", "1", "--runs", "50"],
    ["optimize", "--L", "1", "--sigma2", "0.5", "--iters", "2", "--len", "2000",
     "--out", "opt"],
    ["sweep", "--L-grid", "1,2", "--sigma2", "1", "--runs", "20"],
    ["selftest"],
]
for argv in jobs:
    assert main(argv + ["--seed", "1"]) == 0, argv
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_the_runtime_never_imports_scipy(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run([sys.executable, "-c", RUN_EVERY_SUBCOMMAND], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def _third_party_imports(directory: Path) -> set[str]:
    """Top-level modules that the .py files under ``directory`` import from outside."""
    local = {"p300channel"} | {p.stem for p in directory.glob("*.py")}
    names = set()
    for path in directory.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - local - set(sys.stdlib_module_names)


def _names(requirements: list[str]) -> set[str]:
    return {re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_")
            for req in requirements}


def test_every_import_is_declared():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    runtime = _names(project["dependencies"])
    test_extra = _names(project["optional-dependencies"]["test"])
    assert _third_party_imports(ROOT / "src") <= runtime
    assert _third_party_imports(ROOT / "tests") <= runtime | test_extra
