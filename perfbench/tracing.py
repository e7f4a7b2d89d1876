"""Boundary tracing from outside the program.

The traced run replaces the module attributes through which one p300channel
module calls another (``p300channel.gbaa.fsm_response``,
``p300channel.simulate.run_experiment``, ``MarkovSource.sample``, ...) with
wrappers that record a span: name, start, end, parent span and job id. Spans
live in flat arrays in memory and are written out when the benchmark ends.
A span is named after the layer that defines the function, so
``p300channel.gbaa.apply_noise`` records ``channel.apply_noise``.

From outside, a span cannot split forward from backward recursion or the
per-run RNG from the MAP decode; that finer split needs tracing inside the
program.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
from array import array
from collections import defaultdict
from functools import wraps
from time import perf_counter


def _trellis_states(order: int, L: int) -> int:
    return 1 << max(order, L)


def _count_optimize(counts, a, result):
    channel, cfg = a["channel"], a["cfg"]
    iters = len(result[2])
    S = _trellis_states(cfg.order, channel.refractory_len)
    counts["gbaa.jobs"] += 1
    counts["gbaa.iterations"] += iters
    counts["gbaa.early_stops"] += iters < cfg.max_iters
    counts["gbaa.symbols"] += iters * cfg.sample_len
    counts["gbaa.edge_updates"] += iters * cfg.sample_len * 2 * S   # computed: symbols x 2S


def _count_estimate(counts, a, result):
    S = _trellis_states(a["source"].order, a["channel"].refractory_len)
    counts["gbaa.symbols"] += a["n"]
    counts["gbaa.edge_updates"] += a["n"] * 2 * S


def _count_runs(counts, a, result):
    counts["simulate.run_experiment.runs"] += a["cfg"].runs


def _count_sample(counts, a, result):
    counts["sources.sample.symbols"] += a["n"]


# (module holding the attribute, attribute path, span name, counter)
BOUNDARIES = (
    ("p300channel.cli", "main", "cli.main", None),
    ("p300channel.cli", "gbaa_optimize", "gbaa.gbaa_optimize", _count_optimize),
    ("p300channel.cli", "run_experiment", "simulate.run_experiment", _count_runs),
    ("p300channel.cli", "sweep_awgn", "simulate.sweep_awgn", None),
    ("p300channel.cli", "sweep_refractory", "simulate.sweep_refractory", None),
    ("p300channel.cli", "gen_mbc", "codebooks.gen_mbc", None),
    ("p300channel.cli", "gen_rcp", "codebooks.gen_rcp", None),
    ("p300channel.cli", "gen_cbp", "codebooks.gen_cbp", None),
    ("p300channel.cli", "gen_min_dist", "codebooks.gen_min_dist", None),
    ("p300channel.cli", "import_codebook", "codebooks.import_codebook", None),
    ("p300channel.cli", "maxentropic_source", "rates.maxentropic_source", None),
    ("p300channel.gbaa", "estimate_rate", "gbaa.estimate_rate", _count_estimate),
    ("p300channel.gbaa", "fsm_response", "channel.fsm_response", None),
    ("p300channel.gbaa", "apply_noise", "channel.apply_noise", None),
    ("p300channel.gbaa", "build_trellis", "channel.build_trellis", None),
    ("p300channel.gbaa", "perron_pair", "rates.perron_pair", None),
    ("p300channel.simulate", "run_experiment", "simulate.run_experiment", _count_runs),
    ("p300channel.simulate", "fsm_response", "channel.fsm_response", None),
    ("p300channel.simulate", "apply_noise", "channel.apply_noise", None),
    ("p300channel.simulate", "gen_mbc", "codebooks.gen_mbc", None),
    ("p300channel.simulate", "maxentropic_source", "rates.maxentropic_source", None),
    ("p300channel.sources", "MarkovSource.sample", "sources.sample", _count_sample),
)

MODULES = ("cli", "gbaa", "simulate", "codebooks", "rates", "sources", "channel")
COUNTS = ("gbaa.jobs", "gbaa.iterations", "gbaa.early_stops", "gbaa.symbols",
          "gbaa.edge_updates", "simulate.run_experiment.runs", "sources.sample.symbols")


class Tracer:
    """Installs the boundary wrappers and keeps the spans they record."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.job_id = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, span_name, counter):
        k = self._name_ids.setdefault(span_name, len(self._name_ids))
        if k == len(self.names):
            self.names.append(span_name)
        sig = inspect.signature(fn) if counter else None
        stack = self._stack

        @wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.start)
            self.name.append(k)
            self.parent.append(stack[-1] if stack else -1)
            self.job.append(self.job_id)
            self.end.append(0.0)
            stack.append(i)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = perf_counter()
                stack.pop()
            if counter is not None:
                counter(self.counts, sig.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def install(self):
        for module_name, path, span_name, counter in BOUNDARIES:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for p in parents:
                owner = getattr(owner, p)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, span_name, counter))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        """Span duration minus the time its direct children cover."""
        n = len(self.start)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        return [end[i] - start[i] - child[i] for i in range(n)]

    def layer_metrics(self, passes: int, wall_s: float) -> dict[str, float]:
        """Per-name calls, busy and self seconds, module roll-ups and counts, per pass."""
        self_t = self.self_times()
        calls, busy, own = defaultdict(int), defaultdict(float), defaultdict(float)
        mod_self, mod_spans = defaultdict(float), defaultdict(int)
        for i, s in enumerate(self_t):
            name = self.names[self.name[i]]
            calls[name] += 1
            own[name] += s
            busy[name] += self.end[i] - self.start[i]
            module = name.split(".", 1)[0]
            mod_self[module] += s
            mod_spans[module] += 1
        out = {}
        for name in sorted(set(span for _, _, span, _ in BOUNDARIES)):
            out[f"{name}.calls"] = calls[name] / passes
            out[f"{name}.busy_s"] = busy[name] / passes
            out[f"{name}.self_s"] = own[name] / passes
        for module in MODULES:
            out[f"{module}.self_s"] = mod_self[module] / passes
            out[f"{module}.spans"] = mod_spans[module] / passes
        for key in COUNTS:
            out[key] = self.counts[key] / passes
        edges, runs, jobs = (out["gbaa.edge_updates"], out["simulate.run_experiment.runs"],
                             out["gbaa.jobs"])
        gbaa_self = out["gbaa.gbaa_optimize.self_s"] + out["gbaa.estimate_rate.self_s"]
        # ratios of an absent layer read 0 so every workload reports every metric
        out["gbaa.ns_per_edge_update"] = 1e9 * gbaa_self / edges if edges else 0.0
        out["gbaa.early_stop_ratio"] = out["gbaa.early_stops"] / jobs if jobs else 0.0
        out["simulate.us_per_run"] = (1e6 * out["simulate.run_experiment.self_s"] / runs
                                      if runs else 0.0)
        out["trace.spans"] = len(self_t) / passes
        out["trace.wall_s"] = wall_s / passes
        out["trace.self_sum_s"] = sum(self_t) / passes
        out["trace.coverage_ratio"] = out["trace.self_sum_s"] / out["trace.wall_s"]
        return out

    def write(self, path):
        """Spans as gzip CSV, times in seconds from the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span,name,start_s,end_s,parent,job\n")
            for i in range(len(self.start)):
                fh.write(f"{i},{self.names[self.name[i]]},{self.start[i] - t0:.7f},"
                         f"{self.end[i] - t0:.7f},{self.parent[i]},{self.job[i]}\n")
