"""Built-in invariant suite: closed-form identities, dual routes, decoder oracle."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import channel as ch
from . import gbaa
from . import rates
from .channel import AwgnNoise, BinarySymmetric, ChannelSpec
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
    # the GBAA update on the noiseless weights (0 on an input 1 the gate
    # blocks, 1 elsewhere) is the Perron route to the maxentropic chain
    worst = 0.0
    for L in range(1, 7):
        trellis = ch.build_trellis(L, L)
        w = np.where((trellis.edge_input == 1) & (trellis.edge_z == 0), 0.0, 1.0)
        p1 = gbaa._maxentropic_update(trellis, w)
        worst = max(worst, np.max(np.abs(p1 - rates.maxentropic_source(L).p1)))
    if worst >= 1e-9:
        raise AssertionError(f"construction disagreement {worst:.3e} >= 1e-9")
    return f"max transition disagreement {worst:.1e} over L=1..6"


def _check_fsm_equivalence() -> str:
    rng = np.random.default_rng(20240)
    for L in range(4):
        trellis = ch.build_trellis(max(L, 1), L)
        for _ in range(40):
            x = rng.integers(0, 2, size=rng.integers(1, 25))
            # independent routes: a fold over the steps the gate stays locked,
            # and a walk along the trellis edges from the all-zero history
            z_run, z_walk, locked, s = [], [], 0, 0
            for b in x:
                z_run.append(int(b and not locked))
                locked = L if b else max(locked - 1, 0)
                e = trellis.out_edges[s, b]
                z_walk.append(int(trellis.edge_z[e]))
                s = trellis.edge_to[e]
            z_closed = ch.fsm_response(x, L).tolist()
            if not z_run == z_closed == z_walk:
                raise AssertionError(f"route mismatch at L={L}, x={x.tolist()}")
    return "fold, closed form, and trellis walk agree (L=0..3)"


def _check_rll_output() -> str:
    rng = np.random.default_rng(20241)
    for L in range(1, 4):
        for _ in range(40):
            x = rng.integers(0, 2, size=50)
            ones = np.flatnonzero(ch.fsm_response(x, L))
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


def _check_scan_routes() -> str:
    # the chunked scan against a numpy loop over the steps: every normalizer,
    # prediction q_t of the gate output (the z = 1 edge mass) and forward vector
    worst, n = 0.0, 2000
    for L, noise in ((1, AwgnNoise(0.5)), (2, BinarySymmetric(0.05))):
        source, tr = MarkovSource(L, np.linspace(0.2, 0.8, 1 << L)), ch.build_trellis(L, L)
        rng = np.random.default_rng(20244)
        y = ch.apply_noise(ch.fsm_response(source.sample(n, rng), L), noise, rng)
        f, prob = noise.emission(np.asarray(y, dtype=float)), gbaa._edge_prob(tr, source)
        r = np.bincount(tr.edge_from, weights=prob * tr.edge_z, minlength=1 << L)
        v, rows = np.eye(1 << L)[0], []
        for t in range(n):
            a = np.bincount(tr.edge_to, weights=v[tr.edge_from] * prob * f[t, tr.edge_z])
            rows.append(np.r_[np.log2(a.sum()), r @ v, v])
            v = a / a.sum()
        alphas, log2c, q = gbaa._scaled_forward(tr, prob, f, np.arange(n + 1))
        worst = max(worst, np.abs(np.column_stack([log2c, q, alphas[:-1]]) - rows).max())
    if worst >= 1e-12:
        raise AssertionError(f"scan/loop gap {worst:.3e} >= 1e-12")
    return f"max gap {worst:.1e} in normalizers, predictions, vectors (n={n})"


def _check_surprise_centring() -> str:
    # each law's mixture surprise against E[-log2 p_q(Y)], Y from weight w on
    # z = 1, p_q read off the emission table: summed over the two flips of a
    # BSC, and for AWGN by 80-node Gauss-Hermite quadrature
    worst, (t, wt) = 0.0, np.polynomial.hermite.hermgauss(80)
    for noise in (AwgnNoise(0.25), AwgnNoise(2.0), BinarySymmetric(0.05)):
        bsc = isinstance(noise, BinarySymmetric)
        g, weight = ((np.array([0, 1]), np.array([1 - noise.crossover, noise.crossover])) if bsc
                     else (np.sqrt(2.0 * noise.variance) * t, wt / np.sqrt(np.pi)))
        for q, w in itertools.product((0.0, 0.3, 1.0), repeat=2):
            got = weight @ noise.mixture_surprise(g, 0 * g, np.full(g.size, q), w)
            want = 0.0
            for z, pz in ((0, 1.0 - w), (1, w)):
                f = noise.emission((z + g) % 2 if bsc else z + g)
                want += pz * (weight @ -np.log2((1.0 - q) * f[:, 0] + q * f[:, 1])) if pz else 0.0
            worst = max(worst, abs(got - want))
    if worst >= 1e-10:
        raise AssertionError(f"mixture surprise off its mean by {worst:.3e}")
    return f"max centring gap {worst:.1e} (AWGN 0.25 and 2, BSC 0.05)"


def _from_ground_entropy(source: MarkovSource, n: int) -> float:
    """(1/n) sum_{t<n} sum_h P(h_t = h) H_b(p1[h]), the history law stepped from ground."""
    law = np.zeros(source.num_histories)
    law[0] = 1.0
    T = source.transition_matrix()
    hb = np.array([ch.binary_entropy(p) for p in source.p1])
    total = 0.0
    for _ in range(n):
        total += law @ hb
        law = law @ T
    return total / n


def _check_control_variates() -> str:
    # the control-variate estimate against the plain mean of D on two
    # simulated blocks, within 4 combined standard errors; then a
    # noiseless maxentropic block, where D_t = A_t, against its exact entropy
    worst, n = 0.0, 5000
    ends = np.linspace(0, n, 21, dtype=int)
    for L, noise in ((1, AwgnNoise(0.5)), (2, BinarySymmetric(0.05))):
        source = MarkovSource(L, np.linspace(0.2, 0.8, 1 << L))
        channel, trellis = ChannelSpec(L, noise), ch.build_trellis(L, L)
        rate, se, prob, f, _ = gbaa._forward_rate(trellis, source, channel, n,
                                                  np.random.default_rng(20244), False)
        sums = gbaa._scaled_forward(trellis, prob, f, ends, keep_alphas=False)[1]
        plain = -sums.sum() / n - noise.cond_entropy()
        plain_se = (-sums / np.diff(ends)).std(ddof=1) / np.sqrt(len(sums))
        worst = max(worst, abs(rate - plain) / np.hypot(se, plain_se))
    if worst >= 4.0:
        raise AssertionError(f"control-variate vs plain gap {worst:.2f} >= 4 combined SE")
    exact_gap = 0.0
    for L in (1, 2, 3):
        source = rates.maxentropic_source(L)
        est = gbaa.estimate_rate(source, ChannelSpec(L), n, seed=20245)
        exact_gap = max(exact_gap, abs(est.rate - _from_ground_entropy(source, n)), est.std_err)
    if exact_gap >= 1e-12:
        raise AssertionError(f"noiseless estimate or SE off the exact entropy by {exact_gap:.3e}")
    return (f"max gap {worst:.2f} combined SE (L=1 AWGN, L=2 BSC, n=5000); "
            f"noiseless L=1..3 exact to {exact_gap:.1e}")


def _check_invertibility() -> str:
    for L, n in ((1, 10), (2, 10)):
        src = MarkovSource.constrained(L, 0.3)
        mi = rates.brute_force_mi(src, ChannelSpec(L), n)
        hx = rates.brute_force_mi(src, ChannelSpec(0), n)
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
    ("chunked scan vs step loop", _check_scan_routes),
    ("mixture surprise centring", _check_surprise_centring),
    ("control variates vs plain estimate", _check_control_variates),
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
