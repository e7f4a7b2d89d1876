"""Command-line front end: rate queries, source optimization, codebooks, simulation."""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .channel import AwgnNoise, BinarySymmetric, ChannelSpec, Noiseless
from .codebooks import (codebook_csv_text, export_codebook, gen_cbp, gen_mbc,
                        gen_min_dist, gen_rcp, import_codebook)
from .gbaa import GbaaConfig, gbaa_optimize
from .rates import (ConvergenceError, constrained_family_rate, fixed_point_a,
                    maxentropic_source, noiseless_rate, rll_capacity_perron)
from .selftest import format_results, run_selftest
from .simulate import (SimConfig, run_experiment, sweep_awgn, sweep_refractory,
                       sweep_rows_to_csv, SWEEP_COLUMNS)
from .sources import load_source, save_source

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_NUMERIC = 4

OUTDIR_ENV = "P300CHANNEL_OUTDIR"


def _resolve_seed(seed: int | None) -> int:
    if seed is None:
        seed = int(np.random.SeedSequence().generate_state(1)[0])
    print(f"# seed={seed}", file=sys.stderr)
    return seed


def _out_path(arg: str | None, default_name: str | None = None) -> Path | None:
    if arg is not None:
        return Path(arg)
    base = os.environ.get(OUTDIR_ENV)
    if base is not None and default_name is not None:
        return Path(base) / default_name
    return None


def _emit(text: str, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text)


def _json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _flat_csv(payload: dict) -> str:
    """Single-row CSV of the scalar fields, nested dicts dot-flattened."""
    flat = {}
    for key, value in payload.items():
        if isinstance(value, dict):
            flat.update({f"{key}.{k}": v for k, v in value.items()
                         if not isinstance(v, (dict, list))})
        elif not isinstance(value, list):
            flat[key] = value
    keys = sorted(flat)
    row = ",".join(repr(flat[k]) if isinstance(flat[k], float) else str(flat[k])
                   for k in keys)
    return ",".join(keys) + "\n" + row + "\n"


def _emit_payload(payload: dict, args) -> None:
    fmt = args.format or "json"
    text = _flat_csv(payload) if fmt == "csv" else _json(payload)
    _emit(text, _out_path(args.out))


def _noise_from_args(args) -> AwgnNoise | BinarySymmetric | Noiseless:
    sigma2 = getattr(args, "sigma2", None)
    eps = getattr(args, "eps", None)
    if sigma2 is not None and eps is not None:
        raise ValueError("give either --sigma2 or --eps, not both")
    if sigma2 is not None:
        return AwgnNoise(sigma2)
    if eps is not None:
        return BinarySymmetric(eps)
    return Noiseless()


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_rate(args) -> int:
    _resolve_seed(args.seed)   # the rate query is deterministic; echoed for uniformity
    closed = noiseless_rate(args.L)
    payload = {
        "L": args.L,
        "a_star": closed.argmax_a,
        "rate_bits": closed.rate,
        "perron_check": rll_capacity_perron(args.L).rate,
    }
    if args.a is not None:
        if not 0.0 <= args.a <= 1.0:
            raise ValueError(f"--a must lie in [0, 1], got {args.a}")
        payload["a"] = args.a
        payload["rate_at_a"] = constrained_family_rate(args.a, args.L)
    _emit_payload(payload, args)
    return EXIT_OK


def cmd_optimize(args) -> int:
    seed = _resolve_seed(args.seed)
    noise = _noise_from_args(args)
    if isinstance(noise, Noiseless):
        raise ValueError("optimize needs a noise law: --sigma2 or --eps")
    channel = ChannelSpec(args.L, noise)
    order = args.order if args.order is not None else max(args.L, 1)
    cfg = GbaaConfig(order=order, sample_len=args.len, max_iters=args.iters,
                     rate_tol=args.tol, seed=seed)
    source, best, trace = gbaa_optimize(channel, cfg)

    outdir = Path(args.out) if args.out is not None else Path(os.environ.get(OUTDIR_ENV, "."))
    outdir.mkdir(parents=True, exist_ok=True)
    source_file = outdir / "optimized_source.txt"
    trace_file = outdir / "rate_trace.csv"
    save_source(source, source_file)
    trace_file.write_text("iteration,rate\n"
                          + "".join(f"{i},{r!r}\n" for i, r in enumerate(trace)))
    payload = {
        "L": args.L,
        "order": order,
        "noise": "awgn" if isinstance(noise, AwgnNoise) else "bsc",
        "rate": best.rate,
        "std_err": best.std_err,
        "final_rate": trace[-1],
        "iterations": len(trace),
        "sample_len": cfg.sample_len,
        "seed": seed,
        "source_file": str(source_file),
        "trace_file": str(trace_file),
    }
    sys.stdout.write(_json(payload))
    return EXIT_OK


# Codebook kind -> its generator called with the options genbook and sweep share.
# The lambdas look each generator up in this module's globals when called, so a
# wrapper installed there later (a tracer, a test double) is the one that runs.
BOOK_KINDS = {
    "mbc": lambda a, seed: gen_mbc(maxentropic_source(a.L), a.W, a.N, seed),
    "rcp": lambda a, seed: gen_rcp(a.W, a.N, seed),
    "cbp": lambda a, seed: gen_cbp(a.N, a.gap, seed),
    "mindist": lambda a, seed: gen_min_dist(a.W, a.N, a.weight, a.trials, seed),
}


def cmd_genbook(args) -> int:
    seed = _resolve_seed(args.seed)
    if args.kind == "mbc" and args.source is not None:
        book = gen_mbc(load_source(args.source), args.W, args.N, seed)
    else:
        if args.kind == "mbc" and args.L is None:
            raise ValueError("genbook --kind mbc needs --L or --source")
        if args.kind == "cbp" and args.W != 36:
            raise ValueError("the checkerboard construction is specific to the 6x6 grid (W=36)")
        book = BOOK_KINDS[args.kind](args, seed)

    out = _out_path(args.out, f"codebook_{args.kind}.csv")
    if out is None:
        sys.stdout.write(codebook_csv_text(book))
    else:
        out.parent.mkdir(parents=True, exist_ok=True)
        export_codebook(book, out)
        sys.stdout.write(_json({"file": str(out), "kind": book.kind,
                                "W": book.num_chars, "N": book.num_trials,
                                "seed": seed}))
    return EXIT_OK


def cmd_simulate(args) -> int:
    seed = _resolve_seed(args.seed)
    book = import_codebook(args.book)
    channel = ChannelSpec(args.L, _noise_from_args(args))
    cfg = SimConfig(book, channel, runs=args.runs, seed=seed,
                    track_confusion=args.confusion)
    report = run_experiment(cfg)
    payload = report.to_dict()
    payload["ci_lo"], payload["ci_hi"] = payload.pop("wilson_ci95")
    _emit_payload(payload, args)
    return EXIT_OK


def cmd_sweep(args) -> int:
    seed = _resolve_seed(args.seed)
    if (args.sigma2_grid is None) == (args.L_grid is None):
        raise ValueError("give exactly one of --sigma2-grid or --L-grid")
    if args.sigma2_grid is not None:
        grid = [float(v) for v in args.sigma2_grid.split(",") if v]
        kinds = [k.strip() for k in args.kinds.split(",") if k.strip()]
        books = {}
        for kind_idx, kind in enumerate(sorted(kinds)):
            if kind not in BOOK_KINDS:
                raise ValueError(f"unknown codebook kind {kind!r}")
            bseed = int(np.random.SeedSequence([seed, kind_idx]).generate_state(1)[0])
            books[kind] = BOOK_KINDS[kind](args, bseed)
        rows = sweep_awgn(books, args.L, grid, runs=args.runs, seed=seed)
    else:
        grid = [int(v) for v in args.L_grid.split(",") if v]
        if args.sigma2 is None:
            raise ValueError("--L-grid sweeps need --sigma2")
        rows = sweep_refractory(grid, args.sigma2, args.N, runs=args.runs, seed=seed,
                                W=args.W)
    if (args.format or "csv") == "json":
        text = _json(rows)
    else:
        text = sweep_rows_to_csv(rows)
    _emit(text, _out_path(args.out, "sweep.csv"))
    return EXIT_OK


def cmd_selftest(args) -> int:
    _resolve_seed(args.seed)
    results = run_selftest()
    print(format_results(results))
    return EXIT_OK if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="p300channel",
        description="Refractory-channel rates, codebook design, and spelling simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="master seed (drawn and printed if omitted)")
    common.add_argument("--out", type=str, default=None, help="output file (or directory for optimize)")
    # parents share action objects, so per-subcommand defaults are resolved in
    # the handlers (sweep prefers csv, everything else json)
    common.add_argument("--format", choices=("json", "csv"), default=None)

    p = sub.add_parser("rate", parents=[common], help="closed-form noiseless rate")
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--a", type=float, default=None, help="also evaluate the family rate at this a")
    p.set_defaults(func=cmd_rate)

    p = sub.add_parser("optimize", parents=[common], help="optimize a Markov source for a noisy channel")
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--sigma2", type=float, default=None)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--order", type=int, default=None, help="source order (default: max(L, 1))")
    p.add_argument("--iters", type=int, default=30)
    p.add_argument("--len", type=int, default=50_000, help="simulated sequence length per iteration")
    p.add_argument("--tol", type=float, default=1e-6)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("genbook", parents=[common], help="generate a codebook CSV")
    p.add_argument("--kind", choices=tuple(BOOK_KINDS), required=True)
    p.add_argument("--W", type=int, default=36)
    p.add_argument("--N", type=int, default=60)
    p.add_argument("--L", type=int, default=None, help="mbc: use the rate-optimal source for this L")
    p.add_argument("--source", type=str, default=None, help="mbc: source file from `optimize`")
    p.add_argument("--gap", type=int, default=3, help="cbp: guaranteed minimum flash gap")
    p.add_argument("--weight", type=int, default=10, help="mindist: row weight")
    p.add_argument("--trials", type=int, default=50, help="mindist: search candidates")
    p.set_defaults(func=cmd_genbook)

    p = sub.add_parser("simulate", parents=[common], help="Monte Carlo spelling accuracy")
    p.add_argument("--book", type=str, required=True, help="codebook CSV")
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--sigma2", type=float, default=None)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--runs", type=int, default=1000)
    p.add_argument("--confusion", action="store_true", help="include the confusion matrix")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", parents=[common], help="accuracy sweeps (tidy CSV)")
    p.add_argument("--L", type=int, default=1)
    p.add_argument("--sigma2-grid", type=str, default=None, help="comma-separated AWGN powers")
    p.add_argument("--kinds", type=str, default="mbc,rcp,cbp,mindist")
    p.add_argument("--L-grid", type=str, default=None, help="comma-separated refractory lengths")
    p.add_argument("--sigma2", type=float, default=None, help="fixed AWGN power for --L-grid")
    p.add_argument("--W", type=int, default=36)
    p.add_argument("--N", type=int, default=60)
    p.add_argument("--runs", type=int, default=1000)
    p.add_argument("--gap", type=int, default=3)
    p.add_argument("--weight", type=int, default=10)
    p.add_argument("--trials", type=int, default=50)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("selftest", parents=[common], help="run the invariant suite")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
