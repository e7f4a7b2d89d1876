"""Noisy-channel information rates: trellis-based estimation and source optimization.

The rate of a Markov source over the gate-plus-noise channel is estimated
from one long simulated realization: a scaled forward recursion over the
joint input-history trellis gives -log2 p(y_1^n), and the conditional term
-log2 p(y_1^n | x_1^n) has a closed per-symbol form for each noise law. Five
per-step terms of exactly known mean, from the inputs, the emission table and
the noise law's unbiased estimate of each step's predictive surprise, are
fitted as control variates over 20 blocks: on ten channels, 2x to 2.7e6x less
variance than the earlier two-term fit, and exact in the noiseless limit.

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
of n; from 64 trellis states on it is the plain step-by-step loop. The chunk
products are renormalized only before a step that could take a row sum out
of [2^-64, 2^64], which the emission table alone bounds, so an entry flushes
to zero below 2^-1010 of its row sum (2^-1074 if renormalized every step).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import (AwgnNoise, ChannelSpec, Trellis, apply_noise, build_trellis,
                      fsm_response)
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

# Chunk-product rows are renormalized only before a step that could take a row
# sum out of [2^-_ROW_BITS, 2^_ROW_BITS]. Then no row sum overflows (S 2^64 is
# far below 2^1024), and an entry flushes to zero only below 2^-1010 of its row
# sum instead of 2^-1074: a loss of 64 of the 1074 binary orders of magnitude
# below a row's sum, all of them far under the 2^-53 precision of anything a
# rate, a block mean or a boundary vector is computed to.
_ROW_BITS = 64.0


def _renorm_schedule(f: np.ndarray, gather: np.ndarray, prob: np.ndarray, C: int) -> list[bool]:
    """Which of the C steps of phase 1 renormalize the chunk products first.

    One step multiplies the row sum of every product by a factor in
    [a_min min_z f[t, z], a_max max_z f[t, z]], where a_s, the summed
    probability of the edges a step reads from state s, is 1 for every s in
    the forward recursion (the two out-edges of a state) and at most 2 in
    the backward one. The worst case over the chunks bounds each step; a
    row sum starts at 1 after a renormalization, and the next one comes
    before the step whose bound could leave [2^-64, 2^64]. A factor of 0
    (as in a noiseless law) renormalizes before every step.
    """
    n, S = f.shape[0], gather.shape[0]
    m = n // C                                  # full chunks
    view = f[:m * C].reshape(m, 2 * C)
    lo = view.min(0).reshape(C, 2).min(1)
    hi = view.max(0).reshape(C, 2).max(1)
    if n > m * C:                               # the short last chunk
        tail = f[m * C:]
        lo[:tail.shape[0]] = np.minimum(lo[:tail.shape[0]], tail.min(1))
        hi[:tail.shape[0]] = np.maximum(hi[:tail.shape[0]], tail.max(1))
    a = np.bincount(gather.ravel(), prob.ravel(), minlength=S)
    lo = (np.log2(lo) + np.log2(a.min())).tolist()
    hi = (np.log2(hi) + np.log2(a.max())).tolist()
    renorm, down, up = [False] * C, 0.0, 0.0
    for i in range(C):
        if i and (down + lo[i] < -_ROW_BITS or up + hi[i] > _ROW_BITS):
            renorm[i], down, up = True, 0.0, 0.0
        down += lo[i]
        up += hi[i]
    return renorm


def _renormalize(P: np.ndarray, rho: np.ndarray) -> None:
    """Scale every row of the (S, S, K) products to sum 1, adding its log2 sum to ``rho``.

    A row that sums to zero stays zero, and its scale becomes -inf.
    """
    rs = P.sum(1)
    P *= (1.0 / np.where(rs > 0.0, rs, 1.0))[:, None]
    rho += np.log2(rs)


def _chunk_products(f, gather, prob, zsel, C: int):
    """Phase 1 of :func:`_chunked_scan`: the transfer product of each of the K chunks.

    All chunks advance at once, one step at a time, renormalized as
    :func:`_renorm_schedule` says and always after the last step. The last
    chunk may be short; its weights are zero past its end. Returns the
    row-normalized (S, S, K) products and their (S, K) row log2 scales.
    """
    n, S = f.shape[0], gather.shape[0]
    K = -(-n // C)
    P = np.zeros((S, S, K))                    # P[i, j, k]: chunk k, row i, column j
    P[np.arange(S), np.arange(S)] = 1.0
    rho = np.zeros((S, K))
    nxt, edge = np.empty_like(P), np.empty_like(P)
    w = np.empty((S, 2, K))
    renorm = _renorm_schedule(f, gather, prob, C)
    for i in range(C):   # "clip" never clips here; it lets take fill out unbuffered
        if renorm[i]:
            _renormalize(P, rho)
        if i == n - (K - 1) * C:               # past the end of a short last chunk
            w[..., -1] = 0.0
        fi = f[i::C].T                                        # (Z, chunks with a step i)
        np.multiply(prob[..., None], fi[zsel], out=w[..., :fi.shape[1]])
        np.take(P, gather[:, 0], axis=1, out=nxt, mode="clip")
        nxt *= w[:, 0]
        np.take(P, gather[:, 1], axis=1, out=edge, mode="clip")
        edge *= w[:, 1]
        P, nxt = nxt, P
        P += edge
    _renormalize(P, rho)
    return P, rho


def _chunked_scan(f: np.ndarray, v0: np.ndarray, gather: np.ndarray, prob: np.ndarray,
                  zsel: np.ndarray, ends: np.ndarray, keep: bool,
                  readout: np.ndarray | None = None):
    """Normalized linear recursion v_{t+1}[j] ∝ sum_m v_t[gather[j, m]] w_t[j, m].

    ``w_t[j, m] = prob[j, m] * f[t, zsel[j, m]]`` is the weight of the m-th of
    the two trellis edges that feed entry j, and c_t = |v_t w_t| is the
    normalizer of step t. The n steps are split into K chunks of
    C = ``_chunk_len(n, S^2)`` steps, about 2 n^(1/3) for S <= 4, and run in
    three vectorized passes:

    1. the S x S transfer product of each chunk, all chunks at once, one step
       at a time (:func:`_chunk_products`). Rows are renormalized, with their
       log2 scales kept, only before a step that could take a row sum out of
       [2^-64, 2^64] (``_ROW_BITS``) and after the last step; so no row
       underflows against another, and an entry flushes to zero only below
       2^-1010 of its row sum;
    2. the normalized vector at every chunk boundary, from a two-level scan
       over the products (:func:`_dense_scan`, about 3 sqrt(K) steps);
    3. a C-step sweep inside all chunks at once, from their boundary vectors,
       which repeats the step-by-step recursion and yields every vector and
       every normalizer.

    The chunk index is the innermost axis of phases 1 and 3, so numpy's inner
    loops run over the chunks. That is 2C + 3 sqrt(K) Python steps instead of
    n: about 6 n^(1/3), or 280 at n = 1e5. Phase 1 costs about n S^2
    operations against phase 3's n S, so from ``_LOOP_STATES`` states on
    C = n: K = 1, phases 1 and 2 are skipped, and phase 3 is the
    step-by-step loop.

    Returns the (n+1, S) vectors (None unless ``keep``), the sums of log2 c_t
    over the blocks [ends[b], ends[b+1]) of the increasing ``ends`` (from 0
    to n), the first step whose normalizer is zero or not finite (None if
    none), which the caller reports, and ``readout`` . v_t for every t < n.
    """
    n = f.shape[0]
    S = v0.size
    C = _chunk_len(n, S * S) if S < _LOOP_STATES else n
    K = -(-n // C)
    with np.errstate(divide="ignore", invalid="ignore"):
        if K > 1:
            P, rho = _chunk_products(f, gather, prob, zsel, C)
            v = _dense_scan(v0, rho[:, :K - 1].T, P[:, :, :K - 1].transpose(2, 0, 1)).T
            del P
        else:
            v = v0[:, None]

        vs = np.empty((n + 1, S)) if keep else None
        if keep:
            vs[0] = v0
        scale = np.empty(n)
        reads = None if readout is None else np.empty(n)
        for i in range(C):
            fi = f[i::C].T                                     # (Z, rows)
            if reads is not None:
                reads[i::C] = readout @ v[:, :fi.shape[1]]
            v = (v[gather, :fi.shape[1]] * (prob[..., None] * fi[zsel])).sum(1)
            c = v.sum(0)
            v /= c
            scale[i::C] = c
            if keep:
                vs[i + 1::C] = v.T
        return vs, np.add.reduceat(np.log2(scale), ends[:-1]), _first_collapse(scale), reads


_FLOOR = -np.finfo(np.float64).max


def _dense_step(v: np.ndarray, rho: np.ndarray, P: np.ndarray):
    """Rows of v diag(2^rho) P as (a, t): row j of the result is a[j] 2^t[j].

    The rows of ``v`` are weighed in the log domain, each shifted by its own
    largest term, so no scale in ``rho`` overflows or underflows against
    another. If the rows of ``P`` sum to 1 (or to 0, with scale -inf), each
    row of ``a`` sums to between 1 and S, so steps chain without being
    normalized. A row of ``v`` that is zero, or whose every term ``P``
    kills, comes out zero with t = -inf. Leading axes of the arguments
    broadcast.
    """
    g = np.log2(v)
    g += rho[..., None, :]
    t = np.maximum.reduce(g, -1, keepdims=True)
    g -= np.maximum(t, _FLOOR)   # a zero row has t = -inf; its g - t stays -inf, not nan
    return np.exp2(g, out=g) @ P, t


def _normalized(a: np.ndarray) -> np.ndarray:
    """Rows of ``a`` scaled to sum 1, in place; a zero row stays zero."""
    s = np.add.reduce(a, -1, keepdims=True)
    return np.divide(a, s, out=a, where=s > 0.0)


def _dense_scan(v0: np.ndarray, rho: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Normalized b_0 = v0, ..., b_M with b_{k+1} ∝ b_k diag(2^rho[k]) P[k], as (M+1, S).

    A two-level scan over the M dense S x S products, in groups of
    D = ceil(sqrt(M)): the product of each of the first G-1 groups, all
    groups at once (D-1 steps); a walk over the G group boundaries; then a
    D-step sweep inside all groups from their boundary vectors. Only that
    sweep normalizes its vectors.
    """
    M, S = rho.shape
    D = math.isqrt(M - 1) + 1
    G = -(-M // D)
    full = (G - 1) * D     # products covered by groups whose product is needed
    Q, sig = P[:full:D], rho[:full:D]
    for i in range(1, D):
        Q, t = _dense_step(Q, rho[i:full:D], P[i:full:D])
        sig = sig + t[..., 0]
    v = np.empty((G, 1, S))
    v[0] = v0
    for g in range(G - 1):
        v[g + 1] = _dense_step(v[g], sig[g], Q[g])[0]
    v = _normalized(v)
    out = np.empty((M + 1, S))
    out[0] = v0
    for i in range(D):
        v = _normalized(_dense_step(v[:len(range(i, M, D))], rho[i::D], P[i::D])[0])
        out[i + 1::D] = v[:, 0]
    return out


def _first_collapse(scale: np.ndarray) -> int | None:
    bad = np.flatnonzero(~((scale > 0.0) & np.isfinite(scale)))
    return int(bad[0]) if bad.size else None


def _response_prob(trellis: Trellis, prob: np.ndarray) -> np.ndarray:
    """P(z = 1 | state): the probability of the z = 1 edge out of each state, or 0."""
    return np.where(trellis.edge_z[1::2] == 1, prob[1::2], 0.0)   # edge 2s + 1 has input 1


def _scaled_forward(trellis: Trellis, prob: np.ndarray, f: np.ndarray, ends: np.ndarray,
                    keep_alphas: bool = True):
    """Normalized forward recursion by the chunked scan of :func:`_chunked_scan`.

    alpha_{t+1}[j] ∝ sum over the edges e into j of alpha_t[from(e)] p_e f[t, z_e],
    from the all-zero history.
    Returns (alphas, or None unless ``keep_alphas``; the sums of the log2
    scale factors over the blocks between ``ends``; every step's prediction
    q_t = P(z_t = 1 | y_1^{t-1}) of the gate output).
    """
    v0 = np.zeros(trellis.num_states)
    v0[0] = 1.0
    e = trellis.in_edges
    alphas, sums, t, q = _chunked_scan(f, v0, trellis.edge_from[e], prob[e], trellis.edge_z[e],
                                       ends, keep_alphas, _response_prob(trellis, prob))
    if t is not None:
        raise ConvergenceError(f"forward recursion collapsed at step {t}")
    return alphas, sums, q


def _scaled_backward(trellis: Trellis, prob: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Normalized backward recursion: the chunked scan run on reversed time.

    beta_t[s] ∝ sum over the edges e out of s of beta_{t+1}[to(e)] p_e f[t, z_e],
    from the uniform beta_n.
    """
    n = f.shape[0]
    S = trellis.num_states
    e = trellis.out_edges
    rev, _, t, _ = _chunked_scan(f[::-1], np.full(S, 1.0 / S), trellis.edge_to[e], prob[e],
                                 trellis.edge_z[e], np.array([0, n]), keep=True)
    if t is not None:
        raise ConvergenceError(f"backward recursion collapsed at step {n - 1 - t}")
    return rev[::-1]


# Rate estimation needs sigma >= 2^-32. The simulated y = z + g is rounded to
# within 2^-53 of z + g (|y| < 2 but for far tails), which perturbs each
# symbol's log-likelihood by about |g| 2^-53 / sigma^2 ~ 2^-53 / sigma nats:
# at most 2^-21 here, far below any Monte Carlo error. Once sigma nears
# ulp(1) = 2^-52, z + g rounds to z, the closed-form H(Y|X) no longer
# describes the simulated block, and the rate comes out silently wrong.
_MIN_VARIANCE = 2.0 ** -64


def _entropy_block_sums(source: MarkovSource, ends: np.ndarray) -> np.ndarray:
    """Exact sums of E[S_t] = sum_h P(h_t = h) H_b(p1[h]) over the blocks between ``ends``.

    The history law starts at the all-zero history e_0 and moves by the
    transition matrix T, so the sum over t < e is F(e) = e_0 sum_{s<e} T^s hb,
    and each block sum is a difference of F at two block ends. Level k of a
    doubling holds T^(2^k) and sum_{s<2^k} T^s hb. Every end takes the levels
    of its binary digits, low to high, carrying its law e_0 T^(digits so
    far); the laws of all ends move together, one (m + 1) x H by H x H
    product per level. Unlike the stationary mean H(X), this keeps the
    O(1/n) transient from ground. Each square's rows are scaled back to sum
    1: squaring doubles a row-sum error, so unscaled powers would lose about
    2^k ulps of mass by T^(2^k).

    Once every row of T^(2^k) lies within 1e-14 of the first in L1, the chain
    has settled to 1 pi, and so has every later power: each later run of 2^k
    steps adds pi . sum_{s<2^k} T^s hb, the remaining digits of every end
    are summed in that closed form, and the doubling stops. Each later
    E[S_t] is then off by at most 1e-14 bit. A well-mixed chain settles
    in about 6 to 10 levels, and only those cost an H x H squaring. A periodic
    chain (p1 in {0, 1}), or one whose law depends on which closed class it
    starts in, never settles and runs every level, so it stays exact.
    """
    q = np.stack([1.0 - source.p1, source.p1])
    with np.errstate(divide="ignore", invalid="ignore"):
        hb = -np.where(q > 0.0, q * np.log2(q), 0.0).sum(0)
    power, total = source.transition_matrix(), hb    # T^(2^k), sum_{s<2^k} T^s hb
    law = np.zeros((len(ends), len(hb)))
    law[:, 0] = 1.0
    F = np.zeros(len(ends))
    for k in range(int(ends[-1]).bit_length()):
        digit = (ends >> k & 1).astype(bool)
        F[digit] += law[digit] @ total
        law[digit] = law[digit] @ power
        total = total + power @ total
        power = power @ power
        power /= power.sum(1, keepdims=True)
        if np.abs(power - power[0]).sum(1).max() <= 1e-14:
            runs = ends >> k + 1    # the remaining runs of 2^(k+1) steps
            F += np.where(runs > 0, law @ total + (runs - 1) * (power[0] @ total), 0.0)
            break
    return np.diff(F)


def _control_fit(d: np.ndarray, X: np.ndarray, lens: np.ndarray) -> tuple[float, float]:
    """Control-variate mean of the block means ``d`` and its standard error.

    ``X`` holds one column per control variate: its block means less their
    exact means. The fit is least squares of d on [1, X], weighted by the
    block lengths. By the Frisch-Waugh-Lovell theorem its intercept is
    (e . y) / (e . e), where e and y are the weighted intercept column and d
    with the variates partialled out (Gram-Schmidt, so no LAPACK workspace is
    touched), and its variance is s^2 / (e . e), with s^2 from the residuals
    over m - 1 - k degrees of freedom (m blocks, k variates). A variate left
    with at most 1e-12 of its norm by the earlier ones is rounding in their
    span (R_q and R_h against A' in the noiseless limit); it is skipped and
    not counted in k. With no variate the intercept is the plain mean.
    """
    m, k = X.shape
    M = np.column_stack([X, np.ones(m), d]) * np.sqrt(lens)[:, None]
    norms = np.linalg.norm(M, axis=0)
    for j in range(k):
        norm = np.sqrt(M[:, j] @ M[:, j])
        if norm <= 1e-12 * norms[j]:
            k -= 1
            continue
        q = M[:, j] / norm
        M[:, j + 1:] -= np.outer(q, q @ M[:, j + 1:])
    e, y = M[:, -2], M[:, -1]
    mean = float(e @ y / (e @ e))
    if m == 1:
        return mean, 0.0
    resid = y - mean * e
    return mean, float(np.sqrt(resid @ resid / (m - 1 - k) / (e @ e)))


def _control_sums(trellis: Trellis, prob: np.ndarray, noise, x: np.ndarray, z: np.ndarray,
                  y: np.ndarray, f: np.ndarray, q: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Block sums of A'_t, S_t, B_t, V_t(q_t) and V_t(pz1_t) (:func:`_forward_rate`), as rows.

    Each input and the ``trellis.memory`` inputs before it are packed into the
    narrowest unsigned index 2 h_t + x_t of its edge; A', S and pz1_t (at
    h_t = edge >> 1) are read off it. Wider temporaries are one block long.
    """
    with np.errstate(divide="ignore"):
        neg_log = np.where(prob > 0.0, -np.log2(prob), 0.0)
    hb = np.repeat((prob * neg_log).reshape(-1, 2).sum(1), 2)   # H_b of each edge's state
    per_edge = np.column_stack([neg_log - hb, hb])              # A' and S of each edge
    pz1 = _response_prob(trellis, prob)
    xs = x.astype(np.min_scalar_type(prob.size - 1))
    edge = xs.copy()
    for k in range(1, trellis.memory + 1):
        edge[k:] |= xs[:-k] << k
    out = np.empty((5, len(ends) - 1))
    for b in range(out.shape[1]):
        s = slice(ends[b], ends[b + 1])
        counts = np.bincount(edge[s], minlength=prob.size)
        out[:2, b] = counts @ per_edge
        out[2, b] = -np.log2(np.where(z[s], f[s, 1], f[s, 0])).sum()
        w = np.stack([q[s], pz1[edge[s] >> 1]])
        out[3:, b] = noise.mixture_surprise(y[s], z[s], q[s], w).sum(1)
    return out


def _forward_rate(trellis: Trellis, source: MarkovSource, channel: ChannelSpec, n: int,
                  rng: np.random.Generator, keep_alphas: bool):
    """Simulate a length-n block from ground and estimate its rate with control variates.

    The forward scan gives D_t = -log2 c_t = -log2 p_q(y_t), p_q the
    predictive mixture (1 - q_t) f(. | 0) + q_t f(. | 1) under the filter's
    prediction q_t of z_t; D's mean less the law's H(Y|X) is the plain
    estimate. Five per-step terms of exactly known mean (:func:`_control_sums`)
    serve as control variates (Lavenberg & Welch, Management Science 1981):
    A' = A_t - S_t, with A_t = -log2 P(x_t | h_t) and S_t = H_b(p1[h_t]), its
    mean given h_t (mean 0); S_t, with mean sum_h P(h_t = h) H_b(p1[h]) under
    the history law from ground (:func:`_entropy_block_sums`); B_t =
    -log2 f[t, z_t], with mean H(Y|X); and R_q = D_t - V_t(q_t) and R_h =
    D_t - V_t(pz1_t), where V_t(w) is the law's ``mixture_surprise``, whose
    mean given the simulated past is that of -log2 p_q(Y_t) for Y_t drawn
    with weight w on z = 1. Under pz1_t = P(z_t = 1 | h_t) that is D_t's own
    conditional mean, so R_h is a martingale difference (Henderson & Glynn,
    Math. Oper. Res. 2002); q_t is pz1_t's mean given the observations, so
    R_q has mean 0 too. Over m = min(20, n) blocks, :func:`_control_fit`
    fits the block means of D - E[S] to the variates'. The rate is the mean
    of E[S] plus the intercept less H(Y|X), clipped to [0, 1], with the fit's
    standard error. In the noiseless limit, where D_t = A_t, it is the exact
    from-ground mean input entropy with a standard error of 0.

    A variate whose block means spread by no more than 1e-12 of those of the
    term it is made of (D for R_q and R_h) differs by rounding only; fitted,
    it would be collinear with the intercept and scale rounding noise up by
    as much as 1e14, so it is left out: B under a noiseless law or a BSC
    block with no flip, A' and S under a uniform source, R_q and R_h under
    BSC 0.5 (D_t = V_t = 1). With m < k + 2 blocks for k variates none is
    fitted, which leaves the plain mean of D.

    Returns the rate, its standard error, and the edge probabilities,
    emission table and forward vectors (None unless ``keep_alphas``) that a
    backward pass needs. An AWGN variance below 2^-64 is rejected (see
    ``_MIN_VARIANCE``).
    """
    noise = channel.noise
    if isinstance(noise, AwgnNoise) and noise.variance < _MIN_VARIANCE:
        raise ValueError(f"AWGN variance {noise.variance!r} is below 2^-64: the simulated "
                         f"noise would not survive rounding, so no rate can be estimated")
    x = source.sample(n, rng)
    z = fsm_response(x, channel.refractory_len)
    y = apply_noise(z, noise, rng)
    prob = _edge_prob(trellis, source)
    f = noise.emission(np.asarray(y, dtype=np.float64))
    m = min(20, n)
    ends = np.linspace(0, n, m + 1, dtype=int)
    alphas, sums, q = _scaled_forward(trellis, prob, f, ends, keep_alphas=keep_alphas)
    lens = np.diff(ends)
    A1, S, B, Vq, Vh = _control_sums(trellis, prob, noise, x, z, y, f, q, ends)
    es = _entropy_block_sums(source, ends)
    D = -sums
    variates = ((A1, 0.0, A1), (S, es, S), (B, noise.cond_entropy() * lens, B),
                (D - Vq, 0.0, D), (D - Vh, 0.0, D))   # (block sums, their means, their term)
    cols = [(v - mean) / lens for v, mean, term in variates
            if np.ptp(v / lens) > 1e-12 * np.abs(term / lens).max()]
    X = np.column_stack(cols) if cols and m >= len(cols) + 2 else np.empty((m, 0))
    excess, std_err = _control_fit((D - es) / lens, X, lens)
    rate = float(np.clip(es.sum() / n + excess - noise.cond_entropy(), 0.0, 1.0))
    return rate, std_err, prob, f, alphas


def estimate_rate(source: MarkovSource, channel: ChannelSpec, n: int, seed: int) -> RateEstimate:
    """Estimate the information rate of ``source`` over ``channel`` in bits/flash.

    One length-n realization is scored by :func:`_forward_rate`, with the
    control variates, and keeps no per-step state vectors. The source, the
    gate, the forward pass and the exact means of the variates all start
    from the all-zero history, the gate's ground state. ``std_err`` is the
    control-variate fit's standard error over 20 blocks.
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
    mass, or of probability 0, get weight 0 and stay off the graph. The sums
    run over time blocks of 2^15 numbers, so no array has n rows.
    """
    n, S, ef = f.shape[0], trellis.num_states, trellis.edge_from
    rows = max(1, 2 ** 15 // ef.size)   # 2^15 numbers a block, as in _chunk_len
    visits, total = np.zeros(ef.size), np.zeros(ef.size)
    for lo in range(0, n, rows):
        hi = min(n, lo + rows)
        sigma = (alphas[lo:hi, ef] * prob * f[lo:hi, trellis.edge_z]
                 * betas[lo + 1:hi + 1, trellis.edge_to])
        norm = sigma.sum(axis=1, keepdims=True)
        if np.any(norm <= 0.0):
            raise ConvergenceError("posterior normalization collapsed")
        sigma /= norm
        pair = sigma.reshape(-1, S, 2)   # edges 2s, 2s+1 leave s; their sum is gamma_s
        ratio = np.divide(pair, pair.sum(axis=2, keepdims=True), out=np.ones_like(pair),
                          where=pair > 0.0)   # sigma / gamma, 1 where sigma = 0
        visits += sigma.sum(axis=0)
        total += (sigma * np.log2(ratio).reshape(sigma.shape)).sum(axis=0)
    live = (visits > 0.0) & (prob > 0.0)
    return np.where(live, 2.0 ** (total / np.where(live, visits, 1.0)), 0.0)


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


# The re-score's floor on symbols: from max(2 len, 20,000) the five-variate estimate
# was at least as precise as the [A, B] fit from max(4 len, 50,000) on ten channels.
_EVAL_FLOOR = 20_000


def gbaa_optimize(channel: ChannelSpec, cfg: GbaaConfig
                  ) -> tuple[MarkovSource, RateEstimate, list[float]]:
    """Optimize an order-r Markov source for ``channel``.

    Starts from the uniform source and runs ``max_iters`` - 1 iterations of
    simulation, forward-backward edge statistics (both by the chunked scan)
    and the maxentropic update on the weighted graph. The final iterate gets
    no trace pass: its trace entry is its re-score on a fresh sample of
    max(2 ``sample_len``, ``_EVAL_FLOOR``) symbols. Every rate is the estimate
    of :func:`_forward_rate`. Trace entries carry Monte Carlo error, so an
    earlier iterate that leads the trace is re-scored the same way; the
    better re-score is returned with its source and the ``max_iters`` entries.
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
    for _ in range(cfg.max_iters - 1):
        rate, _, prob, f, alphas = _forward_rate(trellis, source, channel, cfg.sample_len, rng,
                                                 keep_alphas=True)
        iterates.append(source)
        trace.append(rate)
        betas = _scaled_backward(trellis, prob, f)
        weights = _edge_weights(trellis, prob, alphas, betas, f)
        source = MarkovSource(cfg.order, _maxentropic_update(trellis, weights))
    iterates.append(source)
    eval_len = max(2 * cfg.sample_len, _EVAL_FLOOR)

    def rescore(idx: int) -> RateEstimate:
        eval_seed = int(np.random.SeedSequence([cfg.seed, idx, eval_len]).generate_state(1)[0])
        return estimate_rate(iterates[idx], channel, eval_len, eval_seed)

    best_idx, best_est = len(iterates) - 1, rescore(len(iterates) - 1)
    trace.append(best_est.rate)
    lead = int(np.argmax(trace))
    if lead != best_idx:
        est = rescore(lead)
        if est.rate > best_est.rate:
            best_idx, best_est = lead, est
    return iterates[best_idx], best_est, trace
