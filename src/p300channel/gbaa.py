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
Loeliger, Vontobel, Kavcic & Zeng, IEEE T-IT 2006) and run as a three-level
chunked scan in the spirit of the prefix-scan smoothers of Sarkka &
Garcia-Fernandez (IEEE TAC 2021): chunk transfer products, a two-level scan
over the chunk boundaries (group products, a walk over the group
boundaries, a sweep inside all groups), then a sweep inside all chunks at
once. A length-n pass takes about 6 n^(1/3) vectorized Python steps instead
of n; from 64 trellis states on it is the plain step-by-step loop.
"""

from __future__ import annotations

import math
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


_LOOP_STATES = 64   # from this many states on, dense chunk products cost more than they save


def _chunked_scan(f: np.ndarray, v0: np.ndarray, gather: np.ndarray, prob: np.ndarray,
                  zsel: np.ndarray, keep: bool):
    """Normalized linear recursion v_{t+1}[j] ∝ sum_m v_t[gather[j, m]] w_t[j, m].

    ``w_t[j, m] = prob[j, m] * f[t, zsel[j, m]]`` is the weight of the m-th of
    the two trellis edges that feed entry j. The n steps are split into K
    chunks of C = ``_chunk_len(n, S^2)`` steps, about 2 n^(1/3) for S <= 4,
    and run in three vectorized passes:

    1. the S x S transfer product of each of the first K-1 chunks, all chunks
       at once, one step at a time; each row is normalized after every step
       and its log2 scale kept, so no row underflows against another;
    2. the normalized vector at every chunk boundary, from a two-level scan
       over those K-1 products (:func:`_dense_scan`, about 3 sqrt(K) steps);
    3. a C-step sweep inside all chunks at once, from their boundary vectors,
       which repeats the step-by-step recursion and yields every vector and
       every normalizer.

    The chunk index is the innermost axis of phases 1 and 3, so numpy's inner
    loops run over the chunks. That is 2C + 3 sqrt(K) Python steps instead of
    n: about 6 n^(1/3), or 280 at n = 1e5. Phase 1 costs about n S^2
    operations against phase 3's n S, so from ``_LOOP_STATES`` states on
    C = n: K = 1, phases 1 and 2 are skipped, and phase 3 is the
    step-by-step loop. Returns the (n+1, S) vectors (None unless ``keep``)
    and the n normalizers; a normalizer that is zero or non-finite marks a
    collapse, which the caller reports.
    """
    n = f.shape[0]
    S = v0.size
    C = _chunk_len(n, S * S) if S < _LOOP_STATES else n
    K = -(-n // C)
    body = (K - 1) * C     # steps covered by full chunks whose product is needed
    with np.errstate(divide="ignore", invalid="ignore"):
        if K > 1:
            P = np.zeros((S, S, K - 1))          # P[i, j, k]: chunk k, row i, column j
            P[np.arange(S), np.arange(S)] = 1.0
            rho = np.zeros((S, K - 1))
            nxt, edge = np.empty_like(P), np.empty_like(P)
            for i in range(C):   # "clip" never clips here; it lets take fill out unbuffered
                w = prob[..., None] * f[i:body:C].T[zsel]      # (S, 2, K-1)
                np.take(P, gather[:, 0], axis=1, out=nxt, mode="clip")
                nxt *= w[:, 0]
                np.take(P, gather[:, 1], axis=1, out=edge, mode="clip")
                edge *= w[:, 1]
                P, nxt = nxt, P
                P += edge
                rs = P.sum(1)
                P *= (1.0 / np.where(rs > 0.0, rs, 1.0))[:, None]
                rho += np.log2(rs)
            del nxt, edge
            v = _dense_scan(v0, rho.T, P.transpose(2, 0, 1)).T
            del P
        else:
            v = v0[:, None]

        vs = np.empty((n + 1, S)) if keep else None
        if keep:
            vs[0] = v0
        scale = np.empty(n)
        for i in range(C):
            fi = f[i::C].T                                     # (Z, rows)
            v = (v[gather, :fi.shape[1]] * (prob[..., None] * fi[zsel])).sum(1)
            c = v.sum(0)
            v /= c
            scale[i::C] = c
            if keep:
                vs[i + 1::C] = v.T
    return vs, scale


def _dense_step(v: np.ndarray, rho: np.ndarray, P: np.ndarray):
    """Rows of v diag(2^rho) P, normalized, and their log2 scales.

    ``P`` holds row-normalized products whose rows carry the log2 scales
    ``rho``; they are weighed in the log domain, row by row of ``v``, so no
    scale overflows or underflows against another. A row that the product
    kills stays zero with scale -inf. Leading axes of the arguments broadcast.
    """
    g = np.log2(v) + rho[..., None, :]
    top = g.max(-1, keepdims=True)
    top = np.where(top > -np.inf, top, 0.0)
    a = np.exp2(g - top) @ P
    s = a.sum(-1, keepdims=True)
    return a / np.where(s > 0.0, s, 1.0), top + np.log2(s)


def _dense_scan(v0: np.ndarray, rho: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Normalized b_0 = v0, ..., b_M with b_{k+1} ∝ b_k diag(2^rho[k]) P[k].

    A two-level scan over the M dense S x S products, in groups of
    D = ceil(sqrt(M)): the product of each of the first G-1 groups, all
    groups at once (D-1 steps); a walk over the G group boundaries; then a
    D-step sweep inside all groups from their boundary vectors. Returns the
    (M+1, S) vectors.
    """
    M, S = rho.shape
    D = math.isqrt(M - 1) + 1
    G = -(-M // D)
    full = (G - 1) * D     # products covered by groups whose product is needed
    Q, sig = P[:full:D], rho[:full:D]
    for i in range(1, D):
        Q, s = _dense_step(Q, rho[i:full:D], P[i:full:D])
        sig = sig + s[..., 0]
    v = np.empty((G, 1, S))
    v[0] = v0
    for g in range(G - 1):
        v[g + 1] = _dense_step(v[g], sig[g], Q[g])[0]
    out = np.empty((M + 1, S))
    out[0] = v0
    for i in range(D):
        v = _dense_step(v[:len(range(i, M, D))], rho[i::D], P[i::D])[0]
        out[i + 1::D] = v[:, 0]
    return out


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
    del y   # the scan needs only the emission table
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
    for i in range(cfg.max_iters):
        update = i + 1 < cfg.max_iters   # no later iteration would use the last update
        rate, _, prob, f, alphas = _forward_rate(trellis, source, channel, cfg.sample_len, rng,
                                                 keep_alphas=update)
        iterates.append(source)
        trace.append(rate)
        if not update:
            break
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
