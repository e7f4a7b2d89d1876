"""The library's parameter surface, the counterpart of the CLI's OPTION_SURFACE.

Every parameter listed here has a caller in the package, the demos or the
benchmark. A new one is added here on purpose, together with its caller.
"""

import inspect

import pytest

from p300channel import (GbaaConfig, MarkovSource, SimConfig, map_decode, perron_pair,
                         sweep_awgn, sweep_refractory, wilson_interval)

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
    (MarkovSource.sample, {"self": REQUIRED, "n": REQUIRED, "rng": REQUIRED, "init": 0}),
    (GbaaConfig, {"order": REQUIRED, "sample_len": 50_000, "max_iters": 40, "seed": 0}),
]


@pytest.mark.parametrize("fn, params", LIBRARY_SURFACE,
                         ids=[fn.__qualname__ for fn, _ in LIBRARY_SURFACE])
def test_parameters_and_defaults(fn, params):
    got = {p.name: p.default for p in inspect.signature(fn).parameters.values()}
    assert got == params
