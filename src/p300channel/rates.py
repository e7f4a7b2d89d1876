"""Information-rate theory of the noiseless refractory gate channel.

The gate output is a run-length-limited binary sequence (at least L zeros
between ones), so the noiseless maximum rate has a closed form: the best
member of the constrained source family attains max_a H_b(a) / (1 + L a),
whose maximizer solves a = (1 - a)^(L + 1). The same number is the base-2
log of the spectral radius of the constraint graph; both routes are kept as
independent computations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import AwgnNoise, ChannelSpec, binary_entropy
from .sources import MarkovSource, stationary_distribution


class ConvergenceError(RuntimeError):
    """A numeric iteration failed to reach its tolerance."""


@dataclass(frozen=True)
class RateResult:
    """An information rate in bits per flash, with its maximizer where one exists."""

    rate: float
    argmax_a: float | None = None


def fixed_point_a(L: int) -> float:
    """The unique root of a = (1 - a)^(L + 1) in [0, 1].

    Bisection on the strictly increasing difference a - (1 - a)^(L + 1);
    the bracket is shrunk to floating-point resolution, far below the
    1e-12 contract.
    """
    if L < 0:
        raise ValueError(f"L must be >= 0, got {L}")

    def f(a: float) -> float:
        return a - (1.0 - a) ** (L + 1)

    lo, hi = 0.0, 1.0
    while hi - lo > 1e-15:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def constrained_family_rate(a: float, L: int) -> float:
    """Entropy rate H_b(a) / (1 + L a) of the constrained family member."""
    if L < 0:
        raise ValueError(f"L must be >= 0, got {L}")
    return binary_entropy(a) / (1.0 + L * a)


def noiseless_rate(L: int) -> RateResult:
    """Maximum noiseless rate: H_b(a*) / (1 + L a*) at the fixed point a*."""
    a_star = fixed_point_a(L)
    return RateResult(rate=constrained_family_rate(a_star, L), argmax_a=a_star)


# ---------------------------------------------------------------------------
# Constraint-graph route
# ---------------------------------------------------------------------------

def rll_adjacency(L: int) -> np.ndarray:
    """Adjacency matrix of the (L, inf) constraint graph.

    State i counts zeros emitted since the last 1, capped at the free state
    L. Emitting 0 advances i to i+1 (the free state stays put); emitting 1
    is only allowed from the free state and resets the count. For L = 0 the
    single free state carries both edges.
    """
    if L < 0:
        raise ValueError(f"L must be >= 0, got {L}")
    A = np.zeros((L + 1, L + 1))
    for i in range(L):
        A[i, i + 1] += 1.0   # forced zero
    A[L, L] += 1.0           # zero from the free state
    A[L, 0] += 1.0           # a one restarts the zero count
    return A


def perron_pair(A: np.ndarray):
    """Dominant eigenvalue and nonnegative right eigenvector by power iteration.

    The iteration runs on ``A + I``: it has the same Perron vector, and its
    eigenvalue lam + 1 strictly dominates every other, so periodic matrices
    such as ``[[0, 2], [1, 0]]`` (eigenvalues +-sqrt 2) converge too. The
    residual is checked against ``A`` itself. Raises
    :class:`ConvergenceError` if it does not reach 1e-13 * lam within
    200,000 sweeps.
    """
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("perron_pair needs a square matrix")
    if np.any(A < 0):
        raise ValueError("perron_pair needs a nonnegative matrix")
    B = A + np.eye(A.shape[0])
    v = np.full(A.shape[0], 1.0 / A.shape[0])
    lam = 0.0
    for _ in range(200_000):
        w = B @ v
        s = w.sum()
        if not np.isfinite(s):
            raise ConvergenceError("power iteration collapsed (non-finite)")
        lam = s / v.sum() - 1.0
        w /= s
        if np.max(np.abs(A @ w - lam * w)) <= 1e-13 * lam:
            return float(lam), w
        v = w
    raise ConvergenceError(f"power iteration did not converge in 200000 sweeps (lam ~ {lam:.6g})")


def rll_capacity_perron(L: int) -> RateResult:
    """log2 of the constraint-graph spectral radius; equals noiseless_rate(L)."""
    lam, _ = perron_pair(rll_adjacency(L))
    return RateResult(rate=float(np.log2(lam)))


def maxentropic_source(L: int) -> MarkovSource:
    """The order-L constrained source at the fixed point a*; rate-optimal."""
    if L < 1:
        raise ValueError(f"maxentropic_source needs L >= 1, got {L}")
    return MarkovSource.constrained(L, fixed_point_a(L))


def entropy_rate(source: MarkovSource) -> float:
    """Markov entropy rate in bits: sum_h pi(h) H_b(P(1|h)) on the recurrent class."""
    pi = stationary_distribution(source)
    rate = 0.0
    for h in np.flatnonzero(pi > 0):
        rate += pi[h] * binary_entropy(source.p1[h])
    return float(rate)


# ---------------------------------------------------------------------------
# Exact finite-n mutual information by enumeration
# ---------------------------------------------------------------------------

MAX_BRUTE_FORCE_N = 14


def brute_force_mi(source: MarkovSource, channel: ChannelSpec, n: int) -> float:
    """Exact I(X_1^n; Y_1^n | S_0 = ground) / n for binary-output channels.

    Enumerates all 2^n inputs with their Markov probabilities and all
    reachable gate outputs; the source and the gate both start from the
    all-zero history. The output alphabet must be finite, so AWGN is
    rejected. A test instrument: n is capped at 14.
    """
    if isinstance(channel.noise, AwgnNoise):
        raise ValueError("brute_force_mi needs a finite output alphabet; AWGN rejected")
    if not 1 <= n <= MAX_BRUTE_FORCE_N:
        raise ValueError(f"n must lie in 1..{MAX_BRUTE_FORCE_N}, got {n}")
    L = channel.refractory_len
    rmask = source.num_histories - 1
    lmask = (1 << L) - 1
    xs = np.arange(1 << n, dtype=np.int64)
    probs = np.ones(1 << n)
    h = np.zeros(1 << n, dtype=np.int64)
    hz = np.zeros(1 << n, dtype=np.int64)
    zints = np.zeros(1 << n, dtype=np.int64)
    for t in range(n):
        bit = (xs >> (n - 1 - t)) & 1
        p1h = source.p1[h]
        probs *= np.where(bit == 1, p1h, 1.0 - p1h)
        z = bit & (hz == 0)
        zints = (zints << 1) | z
        h = ((h << 1) | bit) & rmask
        hz = ((hz << 1) | bit) & lmask

    uz, inv = np.unique(zints, return_inverse=True)
    pz = np.bincount(inv, weights=probs, minlength=uz.size)
    keep = pz > 0
    uz, pz = uz[keep], pz[keep]

    eps = channel.noise.crossover
    if eps == 0.0:
        # y = z exactly, so I = H(Y) - H(Y|X) = H(Z)
        return float(-np.sum(pz * np.log2(pz)) / n)

    # H(Y): P(y) = sum_z P(z) eps^d(y,z) (1-eps)^(n-d); chunked over outputs
    popcount = np.array([bin(i).count("1") for i in range(1 << n)], dtype=np.int64)
    ratio = eps / (1.0 - eps)
    base = (1.0 - eps) ** n
    hy = 0.0
    chunk = max(1, (1 << 22) // uz.size)
    for lo in range(0, 1 << n, chunk):
        ys = np.arange(lo, min(lo + chunk, 1 << n), dtype=np.int64)
        d = popcount[np.bitwise_xor.outer(ys, uz)]
        py = (base * ratio ** d) @ pz
        hy -= np.sum(py * np.log2(py))
    return float((hy - n * binary_entropy(eps)) / n)
