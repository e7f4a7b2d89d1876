"""The benchmark's boundary tracer still fits the program.

``perfbench/tracing.py`` wraps named module attributes and reads named call
arguments; a refactor that drops or renames one of them breaks a traced
benchmark run. The tracer is loaded by file path, so this suite imports no
``perfbench`` package.
"""

import importlib.util
from pathlib import Path

from p300channel.cli import main

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

JOBS = [
    ["optimize", "--L", "1", "--sigma2", "0.5", "--iters", "2", "--len", "2000",
     "--out", "opt"],
    ["genbook", "--kind", "mbc", "--L", "2", "--N", "24", "--out", "mbc.csv"],
    ["simulate", "--book", "mbc.csv", "--L", "1", "--sigma2", "1", "--runs", "20"],
    ["sweep", "--L-grid", "1,2", "--sigma2", "1", "--runs", "10"],
]


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _owner(module_name, path):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    return owner, attr


def test_traced_jobs_run_and_count(tmp_path, monkeypatch):
    tracing = _load_tracing()
    originals = [(owner, attr, getattr(owner, attr))
                 for owner, attr in (_owner(m, p) for m, p, _, _ in tracing.BOUNDARIES)]
    monkeypatch.chdir(tmp_path)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        codes = [main(argv + ["--seed", "1"]) for argv in JOBS]
    finally:
        tracer.uninstall()
    assert codes == [0] * len(JOBS)
    for key in ("gbaa.jobs", "sources.sample.symbols", "simulate.run_experiment.runs"):
        assert tracer.counts[key] > 0, key
    for owner, attr, original in originals:
        assert getattr(owner, attr) is original, attr
