"""Independent routes to the control-variate rate estimate, kept as test oracles.

The library packs each input and its history into one narrow code and sums
A_t = -log2 P(x_t | h_t) and B_t = -log2 f[t, z_t] block by block; it takes
the exact means of A by repeated squaring of the history chain, and fits the
variates on centred columns. Here A and B come from a loop over the steps,
the means of A from the history law propagated one step at a time, and the
fit from the normal equations of the weighted design [1, A - E A, B - E B].

The library reduces the GBAA edge metric by time blocks, all edges at once;
here it comes from the whole (n, 2S) posterior table, one edge at a time.
"""

import math

import numpy as np

from p300channel import ConvergenceError, binary_entropy


def history_entropy_means(source, n: int) -> np.ndarray:
    """E[A_t] = sum_h P(h_t = h) H_b(p1[h]) for t < n, from the all-zero history."""
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


def step_terms(source, x, z, f) -> tuple[np.ndarray, np.ndarray]:
    """A_t = -log2 P(x_t | h_t) and B_t = -log2 f[t, z_t], one step at a time."""
    h, mask, A, B = 0, source.num_histories - 1, [], []
    for t, (b, zt) in enumerate(zip(x.tolist(), z.tolist())):
        p = source.p1[h] if b else 1.0 - source.p1[h]
        A.append(-math.log2(p))
        B.append(-math.log2(f[t, zt]))
        h = ((h << 1) | b) & mask
    return np.array(A), np.array(B)


def control_variate_rate(D, A, EA, B, cond_entropy: float, ends) -> tuple[float, float]:
    """(rate, std_err) from the per-step D = -log2 c_t, A, E[A] and B over the blocks ``ends``.

    Weighted least squares of the block means of D - E[A] on [1, A - E[A],
    B - H(Y|X)], weights the block lengths; a variate whose block means
    spread by at most 1e-12 of their largest magnitude, or every variate with
    fewer than 4 blocks, is left out. The
    rate is the mean of E[A] plus the intercept less H(Y|X), clipped to
    [0, 1]; its variance is the intercept's, s^2 (X'WX)^-1_00.
    """
    lens = np.diff(ends)
    m = len(lens)

    def means(v):
        return np.array([v[a:b].sum() for a, b in zip(ends[:-1], ends[1:])]) / lens

    d, a, ea, b = means(D), means(A), means(EA), means(B)
    kept = [np.ptp(v) > 1e-12 * np.abs(v).max() for v in (a, b)] if m >= 4 else [False, False]
    cols = [c for c, keep in zip((a - ea, b - cond_entropy), kept) if keep]
    X = np.column_stack([np.ones(m), *cols])
    W = np.diag(lens.astype(float))
    G = X.T @ W @ X
    coef = np.linalg.solve(G, X.T @ W @ (d - ea))
    resid = d - ea - X @ coef
    dof = m - X.shape[1]
    se = math.sqrt(resid @ W @ resid / dof * np.linalg.inv(G)[0, 0]) if dof else 0.0
    return float(np.clip(EA.mean() + coef[0] - cond_entropy, 0.0, 1.0)), se


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
