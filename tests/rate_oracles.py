"""Independent routes to the control-variate rate estimate, kept as test oracles.

The library packs each input and its history into one narrow code and sums
A'_t = A_t - S_t, S_t = H_b(p1[h_t]), B_t = -log2 f[t, z_t] and the noise
law's mixture surprise block by block; it reads the filter's prediction q_t
of the gate output off the chunked scan, takes the exact means of S by
repeated squaring of the history chain, evaluates the AWGN surprise in the
log domain, and fits the variates on centred columns by Gram-Schmidt. Here
q_t and the per-step log2 p(y_1^t) come from enumerating every input
sequence, every per-step term from a loop over the steps (the gate by its
scalar fold, the surprise from the emission table at each mirrored point),
the means of S from the history law propagated one step at a time, and the
fit from the normal equations of the weighted design.

The library reduces the GBAA edge metric by time blocks, all edges at once;
here it comes from the whole (n, 2S) posterior table, one edge at a time.
"""

import itertools
import math

import numpy as np

from gate_oracles import fsm_run
from p300channel import ConvergenceError, binary_entropy


def history_entropy_means(source, n: int) -> np.ndarray:
    """E[S_t] = sum_h P(h_t = h) H_b(p1[h]) for t < n, from the all-zero history."""
    size = source.num_histories
    p1 = [float(p) for p in source.p1]
    hb = [binary_entropy(p) for p in p1]
    law = [1.0] + [0.0] * (size - 1)
    out = []
    for _ in range(n):
        out.append(sum(w * e for w, e in zip(law, hb)))
        nxt = [0.0] * size
        for h, w in enumerate(law):
            if w:
                nxt[(h << 1) & (size - 1)] += w * (1.0 - p1[h])
                nxt[((h << 1) | 1) & (size - 1)] += w * p1[h]
        law = nxt
    return np.array(out)


def enumerated_prefixes(source, L: int, noise, y) -> tuple[np.ndarray, np.ndarray]:
    """log2 p(y_1^t) for t = 0..n and q_t = P(z_t = 1 | y_1^{t-1}) for t < n, from ground.

    Every input sequence of length n is enumerated with its probability, its
    gate output by the scalar fold, and the likelihood of each prefix of y.
    """
    n = len(y)
    f = noise.emission(np.asarray(y, dtype=np.float64))
    mask = source.num_histories - 1
    p_y = np.zeros(n + 1)      # p(y_1^t)
    p_z1 = np.zeros(n)         # p(y_1^{t-1}, z_t = 1)
    for bits in itertools.product((0, 1), repeat=n):
        p, h = 1.0, 0
        for b in bits:
            p *= source.p1[h] if b else 1.0 - source.p1[h]
            h = ((h << 1) | b) & mask
        z, _ = fsm_run(np.array(bits), L)
        like = np.concatenate([[1.0], np.cumprod(f[np.arange(n), z])])
        p_y += p * like
        p_z1 += p * like[:-1] * (z == 1)
    return np.log2(p_y), p_z1 / p_y[:-1]


def mixture_surprise_loop(noise, y: float, z: int, q: float, w: float) -> float:
    """E[-log2 p_q(Y)] for Y from z' = 1 with probability w, p_q from the emission table.

    A BSC sums over z' and both outputs. Under AWGN, with g = y - z, it
    averages -log2 p_q over the points z' + g and z' - g.
    """
    def surprise(v):
        f0, f1 = noise.emission(np.array([v], dtype=np.float64))[0]
        return -math.log2((1.0 - q) * f0 + q * f1)

    total = 0.0
    for zp, pz in ((0, 1.0 - w), (1, w)):
        if pz == 0.0:
            continue
        if hasattr(noise, "crossover"):
            eps = noise.crossover
            for v, pv in ((zp, 1.0 - eps), (1 - zp, eps)):
                total += pz * pv * surprise(v) if pv else 0.0
        else:
            g = float(y) - z
            total += pz * 0.5 * (surprise(zp + g) + surprise(zp - g))
    return total


def step_variates(source, L: int, noise, x, y, f, q) -> dict:
    """The per-step terms of the five variates, one step at a time.

    A' = -log2 P(x_t | h_t) - S_t, S_t = H_b(p1[h_t]), B_t = -log2 f[t, z_t],
    and the mixture surprise under the weights q_t and pz1_t = P(z_t = 1 | h_t),
    which is p1[h_t] if none of the last L inputs was 1, else 0.
    """
    h, mask, last_one = 0, source.num_histories - 1, -L - 1
    z, _ = fsm_run(np.asarray(x), L)
    out = {k: [] for k in ("A1", "S", "B", "Vq", "Vh")}
    for t, b in enumerate(np.asarray(x).tolist()):
        p1 = float(source.p1[h])
        pz1 = p1 if t - last_one > L else 0.0
        out["S"].append(binary_entropy(p1))
        out["A1"].append(-math.log2(p1 if b else 1.0 - p1) - out["S"][-1])
        out["B"].append(-math.log2(f[t, z[t]]))
        out["Vq"].append(mixture_surprise_loop(noise, y[t], int(z[t]), float(q[t]), float(q[t])))
        out["Vh"].append(mixture_surprise_loop(noise, y[t], int(z[t]), float(q[t]), pz1))
        if b:
            last_one = t
        h = ((h << 1) | b) & mask
    return {k: np.array(v) for k, v in out.items()}


def two_variate_terms(source, L: int, x, f) -> tuple[np.ndarray, np.ndarray]:
    """A_t = -log2 P(x_t | h_t) and B_t = -log2 f[t, z_t] over a long block, in numpy.

    h_t packs the r inputs before step t, newest in the lowest bit, with
    zeros before the start; z_t is x_t unless one of the L inputs before it
    was 1.
    """
    x = np.asarray(x, dtype=np.int64)
    n = len(x)
    h, blocked = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=bool)
    for k in range(1, max(source.order, L) + 1):
        prev = np.concatenate([np.zeros(k, dtype=np.int64), x])[:n]
        if k <= source.order:
            h |= prev << (k - 1)
        if k <= L:
            blocked |= prev == 1
    p1 = source.p1[h]
    z = np.where(blocked, 0, x)
    return -np.log2(np.where(x == 1, p1, 1.0 - p1)), -np.log2(f[np.arange(n), z])


def _block_means(v, ends) -> np.ndarray:
    return np.array([v[a:b].sum() for a, b in zip(ends[:-1], ends[1:])]) / np.diff(ends)


def normal_equations_fit(d, variates, lens) -> tuple[float, float]:
    """Intercept of the weighted least squares of d on [1, variates] and its standard error.

    ``variates`` holds (block means, their exact means, block means of the
    term the variate is made of). A variate is left out when its block means
    spread by at most 1e-12 of the term's largest magnitude, all of them are
    with fewer than k + 2 blocks for k variates, and a variate is skipped
    when the part of it outside the span of the kept ones (a weighted least
    squares residual) is at most 1e-12 of its weighted norm. The variance is
    s^2 (X'WX)^-1_00 over m - 1 - k degrees of freedom.
    """
    m = len(lens)
    W = np.diag(np.asarray(lens, dtype=float))
    cols = [v - mean for v, mean, term in variates if np.ptp(v) > 1e-12 * np.abs(term).max()]
    kept = []
    for c in cols if m >= len(cols) + 2 else []:
        resid = c
        if kept:
            K = np.column_stack(kept)
            resid = c - K @ np.linalg.solve(K.T @ W @ K, K.T @ W @ c)
        if math.sqrt(resid @ W @ resid) > 1e-12 * math.sqrt(c @ W @ c):
            kept.append(c)
    X = np.column_stack([np.ones(m), *kept])
    G = X.T @ W @ X
    coef = np.linalg.solve(G, X.T @ W @ d)
    resid = d - X @ coef
    dof = m - X.shape[1]
    se = math.sqrt(resid @ W @ resid / dof * np.linalg.inv(G)[0, 0]) if dof else 0.0
    return float(coef[0]), se


def control_variate_rate(D, terms: dict, ES, cond_entropy: float, ends) -> tuple[float, float]:
    """(rate, std_err) from per-step D = -log2 c_t, the terms of :func:`step_variates`, E[S].

    The block means of D - E[S] are fitted on A', S - E[S], B - H(Y|X),
    D - V(q) and D - V(pz1); the rate is the mean of E[S] plus the
    intercept less H(Y|X), unclipped.
    """
    d, es = _block_means(D, ends), _block_means(ES, ends)
    a1, s, b, vq, vh = (_block_means(terms[k], ends) for k in ("A1", "S", "B", "Vq", "Vh"))
    variates = [(a1, 0.0, a1), (s, es, s), (b, cond_entropy, b), (d - vq, 0.0, d),
                (d - vh, 0.0, d)]
    icpt, se = normal_equations_fit(d - es, variates, np.diff(ends))
    return float(ES.mean() + icpt - cond_entropy), se


def two_variate_rate(D, A, EA, B, cond_entropy: float, ends) -> tuple[float, float]:
    """(rate, std_err) of the earlier fit on A = -log2 P(x_t | h_t) and B alone.

    The block means of D - E[A] are fitted on A - E[A] and B - H(Y|X). This
    is the estimator the five-variate fit replaced, kept as the baseline of
    its precision.
    """
    d, a, ea, b = (_block_means(v, ends) for v in (D, A, EA, B))
    icpt, se = normal_equations_fit(d - ea, [(a, ea, a), (b, cond_entropy, b)], np.diff(ends))
    return float(EA.mean() + icpt - cond_entropy), se


def edge_weights_loop(trellis, prob, alphas, betas, f) -> np.ndarray:
    """2^T_e per edge, T_e = sum_t sigma_e log2(sigma_e / gamma_from(e)) / sum_t sigma_e.

    sigma is the (n, 2S) edge posterior and gamma the (n, S) state posterior;
    an edge with no posterior mass or probability 0 weighs 0.
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
