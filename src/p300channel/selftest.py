"""Built-in invariant suite: closed-form identities, dual routes, decoder oracle."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import channel as ch
from . import rates
from .channel import BinarySymmetric, ChannelSpec, GROUND
from .codebooks import Codebook, gen_min_dist
from .simulate import map_decode
from .sources import MarkovSource


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check_fixed_point_residuals() -> str:
    worst = 0.0
    for L in range(11):
        a = rates.fixed_point_a(L)
        worst = max(worst, abs(a - (1.0 - a) ** (L + 1)))
    if worst >= 1e-12:
        raise AssertionError(f"residual {worst:.3e} >= 1e-12")
    return f"max residual {worst:.1e} over L=0..10"


def _check_golden_fixed_point() -> str:
    a = rates.fixed_point_a(1)
    exact = (3.0 - np.sqrt(5.0)) / 2.0
    if abs(a - exact) >= 1e-10:
        raise AssertionError(f"|a* - (3-sqrt5)/2| = {abs(a - exact):.3e}")
    return f"a*(1) = {a:.12f}"


def _check_rate_identity() -> str:
    worst = 0.0
    for L in range(9):
        closed = rates.noiseless_rate(L).rate
        perron = rates.rll_capacity_perron(L).rate
        worst = max(worst, abs(closed - perron))
    if worst >= 1e-9:
        raise AssertionError(f"identity gap {worst:.3e} >= 1e-9")
    return f"max closed-form vs Perron gap {worst:.1e} over L=0..8"


def _check_achievability() -> str:
    worst = 0.0
    for L in range(1, 6):
        h = rates.entropy_rate(rates.maxentropic_source(L))
        worst = max(worst, abs(h - rates.noiseless_rate(L).rate))
    if worst >= 1e-9:
        raise AssertionError(f"achievability gap {worst:.3e} >= 1e-9")
    return f"max entropy-rate gap {worst:.1e} over L=1..5"


def _check_graph_route_agreement() -> str:
    worst = 0.0
    for L in range(1, 7):
        src = rates.maxentropic_source(L)
        p_one = rates.rll_maxentropic_emission(L)
        for h in range(src.num_histories):
            state = L if h == 0 else min((h & -h).bit_length() - 1, L)
            worst = max(worst, abs(src.p1[h] - p_one[state]))
    if worst >= 1e-9:
        raise AssertionError(f"construction disagreement {worst:.3e} >= 1e-9")
    return f"max transition disagreement {worst:.1e} over L=1..6"


def _check_fsm_equivalence() -> str:
    rng = np.random.default_rng(20240)
    for L in range(4):
        trellis = ch.build_trellis(max(L, 1), L)
        for _ in range(40):
            x = rng.integers(0, 2, size=rng.integers(1, 25))
            z_run, _ = ch.fsm_run(x, GROUND, L)
            z_closed = ch.fsm_response(x, L)
            z_walk = trellis.response(x)
            if not (np.array_equal(z_run, z_closed) and np.array_equal(z_run, z_walk)):
                raise AssertionError(f"route mismatch at L={L}, x={x.tolist()}")
    return "fold, closed form, and trellis walk agree (L=0..3)"


def _check_rll_output() -> str:
    rng = np.random.default_rng(20241)
    for L in range(1, 4):
        for _ in range(40):
            x = rng.integers(0, 2, size=50)
            z, _ = ch.fsm_run(x, GROUND, L)
            ones = np.flatnonzero(z)
            if ones.size > 1 and np.min(np.diff(ones)) < L + 1:
                raise AssertionError(f"(L,inf) violation at L={L}")
    return "gate output is (L,inf) run-length limited"


def _check_noise_reproducibility() -> str:
    z = np.tile([1, 0, 1, 1, 0], 20)
    for noise in (ch.AwgnNoise(0.5), ch.BinarySymmetric(0.2)):
        y1 = ch.apply_noise(z, noise, np.random.default_rng(7))
        y2 = ch.apply_noise(z, noise, np.random.default_rng(7))
        if not np.array_equal(y1, y2):
            raise AssertionError(f"seeded draws differ under {noise}")
    return "identical seeds give identical observations"


def _check_decoder_oracle() -> str:
    rng = np.random.default_rng(20242)
    book = Codebook(rng.integers(0, 2, size=(4, 6)), kind="selftest", seed=0)
    channel = ChannelSpec(1, BinarySymmetric(0.1))
    Z = ch.fsm_response(book.matrix, 1)
    eps = 0.1
    for bits in itertools.product((0, 1), repeat=6):
        y = np.array(bits, dtype=np.int8)
        # independent route: explicit posterior over characters
        d = (y[None, :] != Z).sum(axis=1)
        post = (eps ** d) * ((1 - eps) ** (6 - d))
        post = post / post.sum()
        if map_decode(y, book, channel) != int(np.argmax(post)):
            raise AssertionError(f"decoder mismatch at y={bits}")
    return "MAP decoder matches exhaustive posterior on all 64 outputs"


def _check_min_dist_oracle() -> str:
    # (6, 4, 2) needs all C(4, 2) words, so every trial repairs duplicate rows
    for W, N, weight in ((10, 12, 4), (6, 4, 2)):
        book = gen_min_dist(W, N, weight, trials=20, seed=20243)
        rows = [tuple(r) for r in book.matrix.tolist()]
        if len(set(rows)) != W:
            raise AssertionError(f"duplicate rows in the {W}x{N} book")
        if any(sum(r) != weight for r in rows):
            raise AssertionError(f"a row of the {W}x{N} book has weight != {weight}")
        # independent route: count the differing positions of every pair
        dist = min(sum(a != b for a, b in zip(x, y))
                   for x, y in itertools.combinations(rows, 2))
        if f"dist={dist})" not in book.kind:
            raise AssertionError(f"label {book.kind} but exhaustive distance {dist}")
    return "min-distance books: distinct constant-weight rows, label = pairwise count"


def _check_invertibility() -> str:
    for L, n in ((1, 10), (2, 10)):
        src = MarkovSource.constrained(L, 0.3)
        mi = rates.brute_force_mi(src, ChannelSpec(L), n)
        hx = rates.exact_input_entropy(src, n)
        if abs(mi - hx) >= 1e-12:
            raise AssertionError(f"MI {mi:.12f} != H(X)/n {hx:.12f} at L={L}")
    return "noiseless MI equals input entropy on the constrained family"


CHECKS = (
    ("fixed-point residuals", _check_fixed_point_residuals),
    ("golden-ratio fixed point", _check_golden_fixed_point),
    ("closed form vs Perron rate", _check_rate_identity),
    ("maxentropic achievability", _check_achievability),
    ("fixed-point vs eigenvector construction", _check_graph_route_agreement),
    ("FSM route equivalence", _check_fsm_equivalence),
    ("run-length-limited output", _check_rll_output),
    ("noise reproducibility", _check_noise_reproducibility),
    ("decoder oracle", _check_decoder_oracle),
    ("min-distance label oracle", _check_min_dist_oracle),
    ("constrained-family invertibility", _check_invertibility),
)


def run_selftest() -> list[CheckResult]:
    results = []
    for name, fn in CHECKS:
        try:
            detail = fn()
            results.append(CheckResult(name, True, detail))
        except Exception as exc:
            results.append(CheckResult(name, False, str(exc)))
    return results


def format_results(results: list[CheckResult]) -> str:
    width = max(len(r.name) for r in results)
    lines = [f"{'PASS' if r.passed else 'FAIL'}  {r.name.ljust(width)}  {r.detail}"
             for r in results]
    n_pass = sum(r.passed for r in results)
    lines.append(f"{n_pass}/{len(results)} checks passed")
    return "\n".join(lines)
