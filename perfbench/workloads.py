"""The benchmark's workloads: job lists, set-up, and per-job output checks.

A job is one ``p300channel.cli.main(argv)`` call. Set-up writes the inputs a
workload needs (codebook CSVs) and returns its fixed job list; every job seed
is derived from the benchmark seed, so the same seed gives the same inputs.
The checks read only what a job printed and the files it wrote, and accept
any legitimate random stream: they test invariants, not golden values.

Nothing here imports ``p300channel`` at module level: the package import is
part of the measured set-up time, and the modules are passed in by the caller.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

OUT = "@OUT@"           # placeholder for a job's private output directory

W, N = 36, 60           # codebook shape used by every spelling job

# optimize: gbaa_optimize re-scores the best-by-trace and the final iterate, so
# its work depends on whether the last trace entry is the maximum. Each channel
# is run at an iteration count where that outcome does not depend on the seed:
# at L=2 BSC 0.05 and L=3 AWGN 0.25 the first update beats the uniform start by
# 0.009-0.076 bit (30 of 30 seeds), so two iterations re-score and return the
# updated source. At L=1 the uniform start is within Monte Carlo noise of the
# first update, so that job runs one iteration and returns the uniform start.
OPT_LEN = 10_000
OPT_CHANNELS = (        # (L, noise argv, iters) -> trellis sizes S = 2, 4, 8
    (1, ("--sigma2", "0.5"), 1),
    (2, ("--eps", "0.05"), 2),
    (3, ("--sigma2", "0.25"), 2),
)

SPELL_KINDS = ("mbc", "rcp", "cbp", "mindist")
SPELL_LS = (1, 2)
SPELL_NOISE = (("--sigma2", "1"), ("--sigma2", "2"), ("--sigma2", "4"), ("--eps", "0.3"))
SPELL_RUNS = 3000

SWEEP_SIGMA2_GRID, SWEEP_KINDS, SWEEP_SIGMA2_RUNS = "0.5,1,2,4", "mbc,rcp,cbp,mindist", 400
SWEEP_L_GRID, SWEEP_L_SIGMA2, SWEEP_L_RUNS = "1,2,3", "1.5", 2000
SWEEP_REPLICAS = 2


ULP_SLACK = 1e-12       # rounding allowance for probabilities computed in float64


class CheckFailed(Exception):
    """A job's output broke an invariant the benchmark checks."""


@dataclass(frozen=True)
class Job:
    id: str
    argv: tuple[str, ...]
    kind: str    # "optimize" | "simulate" | "sweep"
    meta: dict   # L, noise, S, len/iters or runs, seed: recorded in the provenance


def job_seeds(workload: str, seed: int):
    """Endless stream of 31-bit job seeds determined by (workload, seed)."""
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield rng.randrange(1, 2 ** 31)


def _noise_meta(noise: tuple[str, ...]) -> dict:
    if not noise:
        return {"noise": "noiseless"}
    flag, value = noise
    return {"noise": "awgn" if flag == "--sigma2" else "bsc", flag[2:]: float(value)}


# ---------------------------------------------------------------------------
# Set-up: one function per workload, (cli module, work dir, seed) -> jobs
# ---------------------------------------------------------------------------

def setup_optimize(cli, work: Path, seed: int) -> list[Job]:
    seeds = job_seeds("optimize", seed)
    jobs = []
    for L, noise, iters in OPT_CHANNELS:
        s = next(seeds)
        argv = ("optimize", "--L", str(L), *noise, "--len", str(OPT_LEN),
                "--iters", str(iters), "--seed", str(s), "--out", OUT)
        meta = {"L": L, **_noise_meta(noise), "S": 1 << max(L, 1), "len": OPT_LEN,
                "iters": iters, "seed": s}
        jobs.append(Job(f"optimize-L{L}-{meta['noise']}", argv, "optimize", meta))
    return jobs


def _quiet(main, argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(list(argv))


def _decodable(matrix, L: int) -> bool:
    """Distinct gate responses from ground, computed here independently of the program."""
    rows = []
    for bits in matrix:
        last_one, z = -L - 1, []
        for n, b in enumerate(bits):
            z.append(1 if b and n - last_one > L else 0)
            if b:
                last_one = n
        rows.append(tuple(z))
    return len(set(rows)) == len(rows)


def setup_spell(cli, work: Path, seed: int) -> list[Job]:
    seeds = job_seeds("spell", seed)
    books = {}
    for kind in SPELL_KINDS:
        path = work / f"book_{kind}.csv"
        argv = ["genbook", "--kind", kind, "--L", "1", "--W", str(W), "--N", str(N),
                "--seed", str(next(seeds)), "--out", str(path)]
        if _quiet(cli.main, argv) != 0:
            raise RuntimeError(f"set-up failed: {' '.join(argv)}")
        matrix = [[int(v) for v in line.split(",")]
                  for line in path.read_text().splitlines() if not line.startswith("#")]
        if not all(_decodable(matrix, L) for L in SPELL_LS):
            # a book whose rows collide after the gate cannot reach accuracy 1.0
            raise RuntimeError(f"set-up made an undecodable {kind} book; try another seed")
        books[kind] = path

    jobs = []
    for kind, path in books.items():
        for L in SPELL_LS:
            for noise in SPELL_NOISE:
                s = next(seeds)
                meta = {"L": L, **_noise_meta(noise), "book": kind, "runs": SPELL_RUNS, "seed": s}
                argv = ("simulate", "--book", str(path), "--L", str(L), *noise,
                        "--runs", str(SPELL_RUNS), "--seed", str(s))
                jobs.append(Job(f"spell-{kind}-L{L}-{meta['noise']}{noise[1] if noise else ''}",
                                argv, "simulate", meta))
        # the noiseless ceiling: every decodable book spells perfectly
        s = next(seeds)
        meta = {"L": 1, "noise": "noiseless", "book": kind, "runs": SPELL_RUNS, "seed": s}
        argv = ("simulate", "--book", str(path), "--L", "1", "--runs", str(SPELL_RUNS),
                "--seed", str(s))
        jobs.append(Job(f"spell-{kind}-L1-noiseless", argv, "simulate", meta))
    return jobs


def setup_sweep(cli, work: Path, seed: int) -> list[Job]:
    seeds = job_seeds("sweep", seed)
    jobs = []
    for rep in range(SWEEP_REPLICAS):
        s = next(seeds)
        n_points = len(SWEEP_SIGMA2_GRID.split(",")) * len(SWEEP_KINDS.split(","))
        jobs.append(Job(f"sweep-sigma2-r{rep}",
                        ("sweep", "--L", "1", "--sigma2-grid", SWEEP_SIGMA2_GRID,
                         "--kinds", SWEEP_KINDS, "--runs", str(SWEEP_SIGMA2_RUNS),
                         "--seed", str(s)),
                        "sweep", {"L": 1, "noise": "awgn", "sigma2_grid": SWEEP_SIGMA2_GRID,
                                  "kinds": SWEEP_KINDS, "runs": SWEEP_SIGMA2_RUNS,
                                  "rows": n_points, "seed": s}))
        s = next(seeds)
        jobs.append(Job(f"sweep-L-r{rep}",
                        ("sweep", "--L-grid", SWEEP_L_GRID, "--sigma2", SWEEP_L_SIGMA2,
                         "--runs", str(SWEEP_L_RUNS), "--seed", str(s)),
                        "sweep", {"L_grid": SWEEP_L_GRID, "noise": "awgn",
                                  "sigma2": float(SWEEP_L_SIGMA2), "kinds": "mbc",
                                  "runs": SWEEP_L_RUNS, "rows": len(SWEEP_L_GRID.split(",")),
                                  "seed": s}))
    return jobs


SETUP = {"optimize": setup_optimize, "spell": setup_spell, "sweep": setup_sweep}


# ---------------------------------------------------------------------------
# Output checks: (job, stdout, artifacts, scratch dir, package) -> quality
# ---------------------------------------------------------------------------

def wolpaw_bits_per_flash(accuracy: float) -> float:
    """Information per flash of a W-way speller with this accuracy (Wolpaw et al. 1998)."""
    p = accuracy
    if p <= 1.0 / W:
        return 0.0
    bits = math.log2(W) + p * math.log2(p)
    if p < 1.0:
        bits += (1.0 - p) * math.log2((1.0 - p) / (W - 1))
    return bits / N


def noiseless_rate(L: int) -> float:
    """max_a H_b(a) / (1 + L a) by golden-section search, independent of the program."""
    def f(a):
        return -(a * math.log2(a) + (1 - a) * math.log2(1 - a)) / (1 + L * a)
    lo, hi = 1e-12, 0.5
    g = (math.sqrt(5) - 1) / 2
    for _ in range(200):
        a, b = hi - g * (hi - lo), lo + g * (hi - lo)
        lo, hi = (lo, b) if f(a) > f(b) else (a, hi)
    return f((lo + hi) / 2)


def _require(cond: bool, message: str):
    if not cond:
        raise CheckFailed(message)


def wilson(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """95% Wilson score interval, recomputed here as an independent route."""
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return center - half, center + half


def _check_interval(acc: float, lo: float, hi: float, runs: int, where: str):
    _require(all(math.isfinite(v) for v in (acc, lo, hi)), f"{where}: non-finite accuracy or CI")
    correct = round(acc * runs)
    _require(abs(acc - correct / runs) <= ULP_SLACK, f"{where}: accuracy {acc} is not k/{runs}")
    # accuracy and interval must describe the same count of correct runs
    _require(all(abs(a - b) <= 1e-9 for a, b in zip((lo, hi), wilson(correct, runs))),
             f"{where}: CI ({lo}, {hi}) is not the Wilson interval of {correct}/{runs}")
    _require(lo <= acc <= hi, f"{where}: ci_lo <= accuracy <= ci_hi fails ({lo}, {acc}, {hi})")
    # the Wilson bounds lie in [0, 1] up to rounding (ci_hi is 1 + 2e-16 at accuracy 1)
    _require(-ULP_SLACK <= lo and hi <= 1.0 + ULP_SLACK and 0.0 <= acc <= 1.0,
             f"{where}: accuracy or CI outside [0, 1] ({lo}, {acc}, {hi})")


def check_optimize(job: Job, stdout: str, artifacts: dict, scratch: Path, pkg) -> dict:
    out = json.loads(stdout)
    L, rate, se = job.meta["L"], out["rate"], out["std_err"]
    _require(out["L"] == L and out["sample_len"] == job.meta["len"], "echoed L/len differ")
    _require(math.isfinite(rate) and math.isfinite(se) and se >= 0.0, f"rate {rate} ± {se}")
    bound = noiseless_rate(L) + 4.0 * se
    _require(0.0 <= rate <= bound, f"rate {rate} outside [0, {bound}]")
    _require(1 <= out["iterations"] <= job.meta["iters"], f"iterations {out['iterations']}")
    trace_rows = artifacts["rate_trace.csv"].decode().splitlines()
    _require(trace_rows[0] == "iteration,rate" and len(trace_rows) - 1 == out["iterations"],
             f"rate_trace.csv has {len(trace_rows) - 1} rows, want {out['iterations']}")
    trace = [float(row.split(",")[1]) for row in trace_rows[1:]]
    src_bytes = artifacts["optimized_source.txt"]
    scratch.mkdir(parents=True, exist_ok=True)
    src_path, again = scratch / "source.txt", scratch / "source_again.txt"
    src_path.write_bytes(src_bytes)
    source = pkg.sources.load_source(src_path)
    pkg.sources.save_source(source, again)
    _require(again.read_bytes() == src_bytes, "optimized_source.txt does not round-trip")
    _require(source.order == max(L, 1), f"source order {source.order}")
    if len(trace) >= 2 and trace[-1] > max(trace[:-1]):
        # the final iterate is then the only candidate, and it is an updated source
        _require(any(p != 0.5 for p in source.p1),
                 "returned the uniform start although the final iterate led the trace")
    return {"rate_bits": rate}


def check_simulate(job: Job, stdout: str, artifacts: dict, scratch: Path, pkg) -> dict:
    out = json.loads(stdout)
    acc = out["accuracy"]
    _require(out["runs"] == job.meta["runs"], f"runs {out['runs']}")
    _require(out["config"]["L"] == job.meta["L"]
             and out["config"]["noise"]["kind"] == job.meta["noise"], "echoed channel differs")
    _check_interval(acc, out["ci_lo"], out["ci_hi"], out["runs"], job.id)
    if job.meta["noise"] == "noiseless":
        _require(acc == 1.0, f"noiseless accuracy {acc} != 1.0")
    return {"rate_bits": wolpaw_bits_per_flash(acc), "accuracy": acc}


def check_sweep(job: Job, stdout: str, artifacts: dict, scratch: Path, pkg) -> dict:
    lines = stdout.splitlines()
    columns = pkg.simulate.SWEEP_COLUMNS
    _require(tuple(lines[0].split(",")) == tuple(columns), f"header {lines[0]!r}")
    rows = [dict(zip(columns, line.split(","))) for line in lines[1:]]
    _require(len(rows) == job.meta["rows"], f"{len(rows)} rows, want {job.meta['rows']}")
    accs = []
    for row in rows:
        _require(len(row) == len(columns), f"short row {row}")
        acc, lo, hi = float(row["accuracy"]), float(row["ci_lo"]), float(row["ci_hi"])
        _require(int(row["runs"]) == job.meta["runs"], f"row runs {row['runs']}")
        _check_interval(acc, lo, hi, job.meta["runs"],
                        f"{job.id} row {row['codebook']}/{row['sigma2']}")
        accs.append(acc)
    return {"rate_bits": sum(map(wolpaw_bits_per_flash, accs)) / len(accs),
            "accuracy": sum(accs) / len(accs)}


CHECKS = {"optimize": check_optimize, "simulate": check_simulate, "sweep": check_sweep}
