"""The library's parameter surface, the counterpart of the CLI's OPTION_SURFACE.

Every parameter listed here has a caller in the package, the demos or the
benchmark, and every public name is listed in PUBLIC_NAMES. A new one is
added here on purpose, together with its caller.
"""

import inspect

import pytest

import p300channel
from p300channel import (GbaaConfig, MarkovSource, SimConfig, brute_force_mi, estimate_rate,
                         fsm_response, map_decode, perron_pair, sweep_awgn, sweep_refractory,
                         wilson_interval)

REQUIRED = inspect.Parameter.empty

LIBRARY_SURFACE = [
    (perron_pair, {"A": REQUIRED}),
    (wilson_interval, {"successes": REQUIRED, "trials": REQUIRED}),
    (SimConfig, {"codebook": REQUIRED, "channel": REQUIRED, "runs": 1000, "seed": 0,
                 "track_confusion": False}),
    (map_decode, {"y": REQUIRED, "book": REQUIRED, "channel": REQUIRED}),
    (sweep_awgn, {"books": REQUIRED, "L": REQUIRED, "sigma2_grid": REQUIRED,
                  "runs": REQUIRED, "seed": REQUIRED}),
    (sweep_refractory, {"L_grid": REQUIRED, "sigma2": REQUIRED, "N": REQUIRED,
                        "runs": REQUIRED, "seed": REQUIRED, "W": 36}),
    (MarkovSource.sample, {"self": REQUIRED, "n": REQUIRED, "rng": REQUIRED}),
    (fsm_response, {"x": REQUIRED, "L": REQUIRED}),
    (estimate_rate, {"source": REQUIRED, "channel": REQUIRED, "n": REQUIRED, "seed": REQUIRED}),
    (brute_force_mi, {"source": REQUIRED, "channel": REQUIRED, "n": REQUIRED}),
    (GbaaConfig, {"order": REQUIRED, "sample_len": 50_000, "max_iters": 40, "seed": 0}),
]


@pytest.mark.parametrize("fn, params", LIBRARY_SURFACE,
                         ids=[fn.__qualname__ for fn, _ in LIBRARY_SURFACE])
def test_parameters_and_defaults(fn, params):
    got = {p.name: p.default for p in inspect.signature(fn).parameters.values()}
    assert got == params


PUBLIC_NAMES = [
    "AwgnNoise", "BinarySymmetric", "ChannelSpec", "apply_noise", "build_trellis",
    "fsm_response",
    "Codebook", "export_codebook", "gen_cbp", "gen_mbc",
    "gen_min_dist", "gen_rcp", "import_codebook", "min_hamming_distance",
    "GbaaConfig", "RateEstimate", "estimate_rate", "gbaa_optimize",
    "ConvergenceError", "RateResult", "binary_entropy", "brute_force_mi",
    "constrained_family_rate", "entropy_rate", "fixed_point_a",
    "maxentropic_source", "noiseless_rate", "perron_pair", "rll_adjacency",
    "rll_capacity_perron",
    "SimConfig", "SimReport", "map_decode", "run_experiment",
    "sweep_awgn", "sweep_refractory", "wilson_interval",
    "MarkovSource", "ReducibleChainError", "load_source", "save_source",
    "stationary_distribution",
    "__version__",
]


def test_public_names():
    assert sorted(p300channel.__all__) == sorted(PUBLIC_NAMES)
