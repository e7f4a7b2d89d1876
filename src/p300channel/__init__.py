"""Refractory finite-state channel model of the P300 speller.

A binary flash sequence drives a deterministic gate (an input 1 produces
a response only when none of the previous L inputs was 1; every 1 restarts
the lock) followed by a memoryless noise law. The package computes the
channel's information rates, optimizes Markov input laws, generates flash
codebooks, and scores them by Monte Carlo spelling simulation.
"""

from .channel import (AwgnNoise, BinarySymmetric, ChannelSpec, apply_noise, build_trellis,
                      fsm_response)
from .codebooks import (Codebook, export_codebook, gen_cbp, gen_mbc,
                        gen_min_dist, gen_rcp, import_codebook, min_hamming_distance)
from .gbaa import GbaaConfig, RateEstimate, estimate_rate, gbaa_optimize
from .rates import (ConvergenceError, RateResult, binary_entropy, brute_force_mi,
                    constrained_family_rate, entropy_rate, fixed_point_a,
                    maxentropic_source, noiseless_rate, perron_pair, rll_adjacency,
                    rll_capacity_perron)
from .simulate import (SimConfig, SimReport, map_decode, run_experiment, sweep_awgn,
                       sweep_refractory, wilson_interval)
from .sources import (MarkovSource, ReducibleChainError, load_source, save_source,
                      stationary_distribution)

__version__ = "0.1.0"

__all__ = [
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
