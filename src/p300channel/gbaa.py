"""Noisy-channel information rates: trellis-based estimation and source optimization.

The rate of a Markov source over the gate-plus-noise channel is estimated
from one long simulated realization: a scaled forward recursion over the
joint input-history trellis gives -log2 p(y_1^n), and the conditional term
-log2 p(y_1^n | x_1^n) has a closed per-symbol form for each noise law.

The optimizer iterates the stochastic generalization of the Blahut-Arimoto
update: forward-backward posteriors turn the simulated block into a noisy
adjacency weight per trellis edge, and the maxentropic rule on that weighted
graph (Perron eigenvector scaling) produces the next transition matrix. In
the noiseless limit the weights collapse to the constraint graph and the
update reproduces the closed-form optimum.

Both recursions are products of per-step transfer matrices (Arnold,
Loeliger, Vontobel, Kavcic & Zeng, IEEE T-IT 2006) and run as a two-level
chunked scan in the spirit of the prefix-scan smoothers of Sarkka &
Garcia-Fernandez (IEEE TAC 2021): chunk transfer products, a scan over the
chunk boundaries, then a sweep inside all chunks at once. A length-n pass
takes about 3 sqrt(n) vectorized Python steps instead of n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelSpec, Trellis, build_trellis, fsm_response, apply_noise
from .rates import ConvergenceError, perron_pair
from .sources import MarkovSource, _chunk_len, stationary_distribution


@dataclass(frozen=True)
class RateEstimate:
    """Simulated rate in bits per flash with a block-resampled standard error."""

    rate: float
    std_err: float
    sample_len: int


@dataclass(frozen=True)
class GbaaConfig:
    order: int
    sample_len: int = 50_000
    max_iters: int = 40
    seed: int = 0

    def __post_init__(self):
        if self.order < 1:
            raise ValueError(f"order must be >= 1, got {self.order}")
        if self.sample_len < 100:
            raise ValueError(f"sample_len too small: {self.sample_len}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")


def _edge_prob(trellis: Trellis, source: MarkovSource) -> np.ndarray:
    """P(input of edge e | history of its start state) under ``source``."""
    p1 = source.p1[trellis.edge_from & (source.num_histories - 1)]
    return np.where(trellis.edge_input == 1, p1, 1.0 - p1)


def _chunked_scan(f: np.ndarray, v0: np.ndarray, gather: np.ndarray, prob: np.ndarray,
                  zsel: np.ndarray, keep: bool):
    """Normalized linear recursion v_{t+1}[j] ∝ sum_m v_t[gather[j, m]] w_t[j, m].

    ``w_t[j, m] = prob[j, m] * f[t, zsel[j, m]]`` is the weight of the m-th of
    the two trellis edges that feed entry j. The n steps are split into K
    chunks of C = ceil(sqrt(n)) steps and run in three vectorized passes:

    1. the transfer product of each of the first K-1 chunks, all chunks at
       once, one step at a time; each row is normalized after every step and
       its log2 scale kept, so no row underflows against another;
    2. a K-step scan of those products that gives the normalized vector at
       every chunk boundary (weighted in the log domain by the row scales);
    3. a C-step sweep inside all chunks at once, from their boundary vectors,
       which repeats the step-by-step recursion and yields every vector and
       every normalizer.

    That is about 2C + K Python steps instead of n. Returns the (n+1, S)
    vectors (None unless ``keep``) and the n normalizers; a normalizer that
    is zero or non-finite marks a collapse, which the caller reports.
    """
    n = f.shape[0]
    S = v0.size
    C = _chunk_len(n)
    K = -(-n // C)
    body = (K - 1) * C     # steps covered by full chunks whose product is needed
    with np.errstate(divide="ignore", invalid="ignore"):
        P = np.broadcast_to(np.eye(S), (K - 1, S, S)).copy()
        rho = np.zeros((K - 1, S))
        for i in range(C):
            w = prob * f[i:body:C][:, zsel]                    # (K-1, S, 2)
            P = (P[:, :, gather] * w[:, None]).sum(-1)
            rs = P.sum(-1)
            P /= np.where(rs > 0.0, rs, 1.0)[..., None]
            rho += np.log2(rs)

        bounds = np.full((K, S), np.nan)
        bounds[0] = v0
        for k in range(K - 1):
            g = np.log2(bounds[k]) + rho[k]
            top = g.max()
            if not top > -np.inf:
                break
            a = np.exp2(g - top) @ P[k]
            bounds[k + 1] = a / a.sum()

        vs = np.empty((n + 1, S)) if keep else None
        if keep:
            vs[0] = v0
        scale = np.empty(n)
        v = bounds
        for i in range(C):
            w = prob * f[i::C][:, zsel]                        # (rows, S, 2)
            v = (v[:w.shape[0], gather] * w).sum(-1)
            c = v.sum(-1)
            v /= c[:, None]
            scale[i::C] = c
            if keep:
                vs[i + 1::C] = v
    return vs, scale


def _first_collapse(scale: np.ndarray) -> int | None:
    bad = np.flatnonzero(~((scale > 0.0) & np.isfinite(scale)))
    return int(bad[0]) if bad.size else None


def _scaled_forward(trellis: Trellis, prob: np.ndarray, f: np.ndarray,
                    keep_alphas: bool = True):
    """Normalized forward recursion by the chunked scan of :func:`_chunked_scan`.

    alpha_{t+1}[j] ∝ sum over the edges e into j of alpha_t[from(e)] p_e f[t, z_e],
    from the all-zero history.
    Returns (alphas, per-step log2 scale factors); alphas is None unless
    ``keep_alphas``, so a rate estimate holds no (n+1, S) table.
    """
    v0 = np.zeros(trellis.num_states)
    v0[0] = 1.0
    e = trellis.in_edges
    alphas, c = _chunked_scan(f, v0, trellis.edge_from[e], prob[e], trellis.edge_z[e],
                              keep_alphas)
    t = _first_collapse(c)
    if t is not None:
        raise ConvergenceError(f"forward recursion collapsed at step {t}")
    return alphas, np.log2(c)


def _scaled_backward(trellis: Trellis, prob: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Normalized backward recursion: the chunked scan run on reversed time.

    beta_t[s] ∝ sum over the edges e out of s of beta_{t+1}[to(e)] p_e f[t, z_e],
    from the uniform beta_n.
    """
    n = f.shape[0]
    S = trellis.num_states
    e = trellis.out_edges
    rev, c = _chunked_scan(f[::-1], np.full(S, 1.0 / S), trellis.edge_to[e], prob[e],
                           trellis.edge_z[e], keep=True)
    t = _first_collapse(c)
    if t is not None:
        raise ConvergenceError(f"backward recursion collapsed at step {n - 1 - t}")
    return rev[::-1]


def _forward_rate(trellis: Trellis, source: MarkovSource, channel: ChannelSpec, n: int,
                  rng: np.random.Generator, keep_alphas: bool):
    """Simulate a length-n block from ground and run the forward scan over it.

    (1/n)(-log2 p(y_1^n)) comes from the scan's scale factors and the
    conditional term from the law's closed form; their difference is clipped
    to [0, 1], and the standard error comes from 20 block means. Returns the
    rate, its standard error, and the edge probabilities, emission table and
    forward vectors (None unless ``keep_alphas``) that a backward pass needs.
    """
    y = apply_noise(fsm_response(source.sample(n, rng), channel.refractory_len),
                    channel.noise, rng)
    prob = _edge_prob(trellis, source)
    f = channel.noise.emission(np.asarray(y, dtype=np.float64))
    alphas, log2c = _scaled_forward(trellis, prob, f, keep_alphas=keep_alphas)
    rate = float(np.clip(-log2c.mean() - channel.noise.cond_entropy(), 0.0, 1.0))
    n_blocks = min(20, n)
    ends = np.linspace(0, n, n_blocks + 1, dtype=int)
    block_means = np.array([-log2c[a:b].mean() for a, b in zip(ends[:-1], ends[1:])])
    std_err = float(block_means.std(ddof=1) / np.sqrt(n_blocks)) if n_blocks > 1 else 0.0
    return rate, std_err, prob, f, alphas


def estimate_rate(source: MarkovSource, channel: ChannelSpec, n: int, seed: int) -> RateEstimate:
    """Estimate the information rate of ``source`` over ``channel`` in bits/flash.

    One length-n realization is scored by :func:`_forward_rate`, keeping no
    per-step state vectors. The source, the gate and the forward pass all
    start from the all-zero history, the gate's ground state.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    stationary_distribution(source)   # rejects a chain with several recurrent classes
    trellis = build_trellis(source.order, channel.refractory_len)
    rate, std_err, *_ = _forward_rate(trellis, source, channel, n, np.random.default_rng(seed),
                                      keep_alphas=False)
    return RateEstimate(rate=rate, std_err=std_err, sample_len=n)


def _edge_weights(trellis: Trellis, prob: np.ndarray, alphas: np.ndarray, betas: np.ndarray,
                  f: np.ndarray) -> np.ndarray:
    """Expected noisy-adjacency weight per edge from posterior branch statistics.

    For each edge the metric T is the expected log a-posteriori branch
    probability given that the edge is traversed,
    E[ log2 P(S_t | S_{t-1}, y_1^n) | edge ], estimated with posterior weights
    (sigma_t is exactly E[1{edge at t} | y], so the weighted average is the
    same conditional mean with lower variance). In the noiseless limit T = 0
    on support edges and the weight matrix collapses to the constraint-graph
    adjacency; with a single state the update reduces to the memoryless
    Blahut-Arimoto rule q' being proportional to 2^T. Edges with no posterior
    mass get weight 0 and stay off the graph.
    """
    n = f.shape[0]
    ef = trellis.edge_from
    E = ef.size
    sigma = alphas[:-1][:, ef] * prob * f[:, trellis.edge_z] * betas[1:][:, trellis.edge_to]
    norm = sigma.sum(axis=1, keepdims=True)
    if np.any(norm <= 0.0):
        raise ConvergenceError("posterior normalization collapsed")
    sigma /= norm
    gamma = sigma.reshape(n, trellis.num_states, 2).sum(axis=2)   # edges 2s, 2s+1 leave s
    weights = np.zeros(E)
    visits = sigma.sum(axis=0)
    for e in range(E):
        if visits[e] <= 0.0 or prob[e] <= 0.0:
            continue
        se = sigma[:, e]
        mask = se > 0.0
        ratio = se[mask] / gamma[mask, ef[e]]
        t_e = np.sum(se[mask] * np.log2(ratio)) / visits[e]
        weights[e] = 2.0 ** t_e
    return weights


def _maxentropic_update(trellis: Trellis, weights: np.ndarray) -> np.ndarray:
    """New P(1 | history) from the Perron pair of the weighted edge graph."""
    S = trellis.num_states
    W = np.zeros((S, S))
    W[trellis.edge_from, trellis.edge_to] = weights
    _, v = perron_pair(W)
    w = (weights * v[trellis.edge_to]).reshape(S, 2)   # edges 2s, 2s+1 leave s
    total = w.sum(axis=1)
    p1 = np.divide(w[:, 1], total, out=np.zeros(S), where=total > 0.0)
    p1[v <= 1e-300] = 0.5   # state unreachable under the updated chain; leave neutral
    return np.clip(p1, 0.0, 1.0)


def gbaa_optimize(channel: ChannelSpec, cfg: GbaaConfig
                  ) -> tuple[MarkovSource, RateEstimate, list[float]]:
    """Optimize an order-r Markov source for ``channel``.

    Starts from the uniform source and alternates simulation, forward-backward
    edge statistics (both by the chunked scan), and the maxentropic update on
    the weighted graph. Runs ``max_iters`` iterations; the last computes only
    its rate, since no later iteration would use its update. Per-iteration rates
    fluctuate by the Monte Carlo error, so the best-by-trace and final
    iterates are re-scored on fresh, longer samples and the better of the two
    is returned with its unbiased estimate plus the full per-iteration trace.
    """
    L = channel.refractory_len
    if cfg.order < L:
        raise ValueError(
            f"order {cfg.order} < channel memory {L}: the maxentropic update is "
            f"only defined when the source remembers at least the channel window"
        )
    rng = np.random.default_rng(cfg.seed)
    source = MarkovSource.uniform(cfg.order)
    trellis = build_trellis(cfg.order, L)
    iterates: list[MarkovSource] = []
    trace: list[float] = []
    for _ in range(cfg.max_iters):
        rate, _, prob, f, alphas = _forward_rate(trellis, source, channel, cfg.sample_len, rng,
                                                 keep_alphas=True)
        iterates.append(source)
        trace.append(rate)
        if len(trace) == cfg.max_iters:
            break   # no further iteration would use the update, so skip it
        betas = _scaled_backward(trellis, prob, f)
        weights = _edge_weights(trellis, prob, alphas, betas, f)
        source = MarkovSource(cfg.order, _maxentropic_update(trellis, weights))

    candidates = {int(np.argmax(trace)), len(trace) - 1}
    eval_len = max(4 * cfg.sample_len, 100_000)
    best_source, best_est = None, None
    for idx in sorted(candidates):
        eval_seed = int(np.random.SeedSequence([cfg.seed, idx, eval_len]).generate_state(1)[0])
        est = estimate_rate(iterates[idx], channel, eval_len, eval_seed)
        if best_est is None or est.rate > best_est.rate:
            best_source, best_est = iterates[idx], est
    return best_source, best_est, trace
