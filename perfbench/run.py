"""Benchmark for p300channel: real CLI jobs, end-to-end metrics, an optional traced run.

Run one workload (from the repository root):

    python3 perfbench/run.py --workload optimize --seed 1 --seconds 35 --trace 0

Each job is one ``p300channel.cli.main(argv)`` call made in-process. One
client runs a closed loop: a job starts when the previous one returns, and
the fixed job list of the workload is repeated in whole passes for about
``--seconds`` (at least one pass). Every pass repeats the same jobs with
the same seeds, so every job's output digest must repeat. The workloads,
their job lists and the output checks live in ``workloads.py``.

``--trace 0`` prints the end-to-end metrics: set-up time (median of five
set-ups in fresh processes, made after this process's own set-up has read the
same files), jobs per second, median and tail
job latency, peak RSS, and ``rate_bits``, the information per flash the jobs
deliver: the re-scored GBAA rate on ``optimize`` and the Wolpaw transfer per
flash of the decoded accuracy on ``spell`` and ``sweep``. ``jobs_per_s`` is
the job list's length over the wall time of the median pass. ``--trace 1``
alternates untraced and traced passes and prints the per-layer metrics of
``tracing.py`` per pass of the job list, with the tracing overhead.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. The full result (provenance, per-job latencies,
output digests, check failures) goes to ``.perfbench/results/`` (or
``--out``); a traced run also writes its spans there.

Compare two result sets, e.g. parent and change run in alternating order:

    python3 perfbench/run.py --compare RESULTS_PARENT RESULTS_CHANGE
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (stdlib-only; imports no p300channel module)

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
TAIL_LADDER = (99, 95, 90, 75, 50)
SETUPS = 5            # timed set-ups per run, each in a fresh process
TAIL_BEYOND = 10      # samples a tail percentile must have beyond it


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def cap_threads() -> dict:
    """Cap BLAS/OpenMP pools of this process (and its children) at nproc."""
    cap = nproc()
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        os.environ[var] = str(min(int(current), cap) if current.isdigit() and int(current) > 0
                              else cap)
    return {var: os.environ[var] for var in THREAD_VARS}


def import_program():
    """Import p300channel from this checkout's src/, never from site-packages."""
    src = ROOT / "src"
    if not (src / "p300channel" / "__init__.py").is_file():
        raise FileNotFoundError(f"no p300channel sources under {src}")
    sys.path.insert(0, str(src))
    import p300channel
    import p300channel.cli
    if Path(p300channel.__file__).resolve().parent != (src / "p300channel").resolve():
        raise ImportError(f"p300channel imported from {p300channel.__file__}, not {src}")
    return p300channel


def setup(workload: str, seed: int, work: Path):
    """Import the program and build the workload's inputs; returns (pkg, jobs, seconds)."""
    t0 = perf_counter()
    pkg = import_program()
    work.mkdir(parents=True, exist_ok=True)
    jobs = workloads.SETUP[workload](pkg.cli, work, seed)
    return pkg, jobs, perf_counter() - t0


def setup_in_fresh_process(workload: str, seed: int, work: Path) -> tuple[float, float]:
    """Set up in a new interpreter; returns its (wall, CPU of all threads) seconds."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only", "--workload", workload,
         "--seed", str(seed), "--work", str(work)],
        capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up in a fresh process failed:\n{proc.stderr}")
    wall, cpu = proc.stdout.strip().splitlines()[-1].split()
    return float(wall), float(cpu)


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------

def run_job(cli, job, outdir: Path, tracer, exec_id: int) -> dict:
    argv = [a.replace(workloads.OUT, str(outdir)) for a in job.argv]
    if outdir.exists():
        shutil.rmtree(outdir)
    out, err = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.job_id = exec_id
    rc, error = None, None
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except (Exception, SystemExit):   # a crashing job is counted, the run goes on
        error = traceback.format_exc()
    latency = perf_counter() - t0
    artifacts = ({p.name: p.read_bytes() for p in sorted(outdir.iterdir()) if p.is_file()}
                 if outdir.is_dir() else {})
    return {"job": job.id, "latency_s": latency, "rc": rc, "error": error,
            "stdout": out.getvalue().replace(str(outdir), workloads.OUT),
            "stderr": err.getvalue(), "artifacts": artifacts, "traced": tracer is not None}


def closed_loop(cli, jobs, work: Path, seconds: float, tracer=None):
    """Whole passes over the job list; with a tracer, passes alternate untraced/traced."""
    execs, passes = [], []
    t_start = perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
        t0 = perf_counter()
        try:
            for job in jobs:
                execs.append(run_job(cli, job, work / "out" / job.id,
                                     tracer if traced else None, len(execs)))
        finally:
            if traced:
                tracer.uninstall()
        passes.append({"traced": traced, "wall_s": perf_counter() - t0})
        elapsed = perf_counter() - t_start
        need_traced = tracer is not None and not any(p["traced"] for p in passes)
        # stop where the run ends nearest to `seconds`: at most half a pass early or late
        if elapsed + 0.5 * elapsed / len(passes) > seconds and not need_traced:
            break
    return execs, passes


# ---------------------------------------------------------------------------
# Checks and digests
# ---------------------------------------------------------------------------

def digest(ex: dict) -> str:
    h = hashlib.sha256(ex["stdout"].encode())
    for name, data in ex["artifacts"].items():
        h.update(b"\0" + name.encode() + b"\0" + data)
    return h.hexdigest()


def check_all(jobs, execs, pkg, scratch: Path):
    """Check every execution; returns (failures, per-job quality, per-job digest)."""
    by_id = {job.id: job for job in jobs}
    failures, quality, digests = [], {}, {}
    for ex in execs:
        job = by_id[ex["job"]]
        problem = None
        if ex["error"] is not None:
            problem = ex["error"].strip().splitlines()[-1]
        elif ex["rc"] != 0:
            problem = f"exit code {ex['rc']}: {ex['stderr'].strip()[-200:]}"
        else:
            d = digest(ex)
            first = digests.setdefault(job.id, d)
            if d != first:
                problem = "output digest differs from this job's first run"
            else:
                try:
                    q = workloads.CHECKS[job.kind](job, ex["stdout"], ex["artifacts"],
                                                   scratch, pkg)
                    quality.setdefault(job.id, q)
                except (workloads.CheckFailed, KeyError, IndexError, TypeError,
                        ValueError) as exc:
                    problem = f"{type(exc).__name__}: {exc}"
        if problem is not None:
            failures.append({"job": job.id, "problem": problem})
    return failures, quality, digests


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def tail(latencies: list[float]) -> tuple[float, int, int]:
    """Highest ladder percentile with >= TAIL_BEYOND samples above it: (value, pct, beyond)."""
    cuts = statistics.quantiles(latencies, n=100, method="inclusive")
    for pct in TAIL_LADDER:
        value = cuts[pct - 1]
        beyond = sum(x > value for x in latencies)
        if beyond >= TAIL_BEYOND:
            return value, pct, beyond
    value = statistics.median(latencies)
    return value, 50, sum(x > value for x in latencies)


def end_to_end(execs, passes, quality, setup_times, setup_here) -> tuple[dict, dict]:
    lat = [ex["latency_s"] for ex in execs]
    wall = sum(p["wall_s"] for p in passes)
    jobs_per_pass = len(execs) / len(passes)
    tail_s, pct, beyond = tail(lat)
    rates = [q["rate_bits"] for q in quality.values()]
    accs = [q["accuracy"] for q in quality.values() if "accuracy" in q]
    values = {
        "setup_s": statistics.median(wall for wall, _ in setup_times),
        # the median pass, so one slow stretch of a shared machine does not set the run
        "jobs_per_s": statistics.median(jobs_per_pass / p["wall_s"] for p in passes),
        "job_p50_s": statistics.median(lat),
        "job_tail_s": tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rate_bits": sum(rates) / len(rates) if rates else 0.0,
    }
    detail = {"job_tail_pct": pct, "job_tail_beyond": beyond, "jobs": len(lat),
              "passes": len(passes), "timed_wall_s": wall, "setup_samples_s": [wall for wall, _ in setup_times],
              "setup_cpu_samples_s": [cpu for _, cpu in setup_times],
              "setup_in_process_s": setup_here,
              "accuracy": sum(accs) / len(accs) if accs else None}
    return values, detail


def per_layer(passes, tracer) -> dict:
    traced = [p["wall_s"] for p in passes if p["traced"]]
    untraced = [p["wall_s"] for p in passes if not p["traced"]]
    m = tracer.layer_metrics(len(traced), sum(traced))
    # traced over untraced jobs_per_s: the same job list, so the inverse ratio of pass times
    m["trace_overhead_ratio"] = statistics.median(untraced) / statistics.median(traced)
    return m


# ---------------------------------------------------------------------------
# Provenance and output
# ---------------------------------------------------------------------------

def provenance(pkg, workload, seed, jobs, caps) -> dict:
    import numpy
    import scipy
    commit = None
    if (ROOT / ".git").exists():   # a benchmark checkout need not be a git repository
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10,
                                    check=False).stdout.strip() or None
        except OSError:
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "p300channel").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": nproc(), "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "machine": platform.machine(), "thread_caps": caps,
        "git_commit": commit, "src_sha256": src.hexdigest(), "benchmark_seed": seed,
        "workload": workload,
        "why": next(w["why"] for w in benchmark_spec()["workloads"] if w["name"] == workload),
        "jobs": [{"id": j.id, "argv": list(j.argv), **j.meta} for j in jobs],
    }


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def emit(result: dict, spec_key: str, values: dict) -> None:
    units = {m["name"]: m["unit"] for m in benchmark_spec()[spec_key]}
    line = {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()}}
    for name, unit in units.items():
        print(f"  {name:<40} {values[name]:>14.6g} {unit}")
    print(json.dumps(line))


def run(args) -> int:
    caps = cap_threads()
    out_dir = Path(args.out) if args.out else ROOT / ".perfbench" / "results"
    stamp = (f"{args.workload}-s{args.seed}-t{args.trace}-"
             f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    work = ROOT / ".perfbench" / f"work-{os.getpid()}"
    try:
        pkg, jobs, setup_here = setup(args.workload, args.seed, work / "setup-0")
        setup_times = []
        if not args.trace:
            setup_times = [setup_in_fresh_process(args.workload, args.seed, work / f"setup-{k}")
                           for k in range(1, SETUPS + 1)]
        tracer = None
        if args.trace:
            import tracing
            tracer = tracing.Tracer()
        execs, passes = closed_loop(pkg.cli, jobs, work, args.seconds, tracer)
        failures, quality, digests = check_all(jobs, execs, pkg, work / "check")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "correct": not failures, "attempted": len(execs), "failed": len(failures),
        "failed_ratio": len(failures) / len(execs),
        "provenance": provenance(pkg, args.workload, args.seed, jobs, caps),
        "seconds": args.seconds, "trace": args.trace,
        "passes": passes, "failures": failures[:50], "digests": digests,
        "quality": quality,
        "latencies": [[ex["job"], ex["latency_s"], ex["traced"]] for ex in execs],
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.trace:
        values = per_layer(passes, tracer)
        tracer.write(out_dir / f"{stamp}.spans.csv.gz")
        spec_key = "per_layer"
    else:
        values, detail = end_to_end(execs, passes, quality, setup_times, setup_here)
        result["detail"] = detail
        spec_key = "end_to_end"
        print(f"{args.workload}: {detail['jobs']} jobs in {detail['passes']} passes, "
              f"job_tail_s is p{detail['job_tail_pct']} with {detail['job_tail_beyond']} "
              f"samples beyond; accuracy {detail['accuracy']}")
    result["metrics"] = values
    (out_dir / f"{stamp}.json").write_text(json.dumps(result, indent=1, sort_keys=True))
    print(f"{args.workload}: attempted {len(execs)}, failed {len(failures)} "
          f"(failed_ratio {result['failed_ratio']:.4g}); result in {out_dir / stamp}.json")
    for f in failures[:5]:
        print(f"  FAILED {f['job']}: {f['problem']}")
    emit(result, spec_key, values)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.SETUP))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="directory for result files")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                        help="compare two directories of result files and exit")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--work", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.compare:
        import compare
        return compare.main(args.compare[0], args.compare[1], benchmark_spec())
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_only:
        cap_threads()
        cpu0 = time.process_time()
        _, _, seconds = setup(args.workload, args.seed, Path(args.work))
        print(repr(seconds), repr(time.process_time() - cpu0))
        return 0
    try:
        return run(args)
    except (FileNotFoundError, ImportError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
