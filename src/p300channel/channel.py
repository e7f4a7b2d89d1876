"""Finite-state model of refractory ERP elicitation plus memoryless noise.

The channel is a cascade: a deterministic finite-state machine gates the
binary input (a flash either elicits a response or falls into a refractory
window of ``L`` steps), then a memoryless noise law corrupts the gate output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


# ---------------------------------------------------------------------------
# Channel parameters
# ---------------------------------------------------------------------------

def binary_entropy(p: float) -> float:
    """H_b(p) in bits, with the endpoint values defined as 0 by continuity."""
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must lie in [0, 1], got {p}")
    if p in (0.0, 1.0):
        return 0.0
    return float(-p * np.log2(p) - (1.0 - p) * np.log2(1.0 - p))


# A noise law maps gate outputs z to observations y. Each law draws y
# (``sample``), gives the per-symbol likelihoods p(y_t | z) that the trellis
# recursions use (``emission``), the closed-form (1/n) E[-log2 p(Y|X)]
# (``cond_entropy``), a per-step value whose mean given the simulated past is
# the expected surprise of the predictive mixture (``mixture_surprise``), its
# echo in reports (``summary``), and the per-codeword decoder score
# (``score``): log p(y | z) in the law's own log base, up to a term that is
# the same for every codeword and, for AWGN, a positive factor.

@dataclass(frozen=True)
class AwgnNoise:
    """Additive white Gaussian noise with power ``variance``."""

    variance: float

    def __post_init__(self):
        if not 0 < self.variance < np.inf:
            raise ValueError(f"AWGN variance must be positive and finite, got {self.variance}")

    def sample(self, z: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return z + rng.normal(0.0, np.sqrt(self.variance), z.shape)

    def emission(self, y: np.ndarray) -> np.ndarray:
        """f[t, z] = p(y_t | Z_t = z) for z in {0, 1}, a density."""
        f = np.empty((y.shape[0], 2))
        norm = 1.0 / np.sqrt(2.0 * np.pi * self.variance)
        inv2v = 0.5 / self.variance
        for z, col in enumerate(f.T):   # in place: no temporary the size of y
            np.subtract(y, z, out=col)
            np.square(col, out=col)
            col *= -inv2v
            np.exp(col, out=col)
            col *= norm
        return f

    def cond_entropy(self) -> float:
        return float(0.5 * np.log2(2.0 * np.pi * np.e * self.variance))

    def mixture_surprise(self, y: np.ndarray, z: np.ndarray, q: np.ndarray,
                         w: np.ndarray) -> np.ndarray:
        """Per-step unbiased estimates of E[-log2 p_q(Y_t) | past], Y_t from weight ``w`` on z = 1.

        p_q = (1 - q) f(. | 0) + q f(. | 1). As g_t = y_t - z_t is symmetric and
        independent of the past and of z_t, -log2 p_q averaged over z' +- g_t and
        weighed over z' is unbiased. Factors whose log leaves [-708, 708] (q in
        {0, 1}, a tiny sigma) are redone in the log domain. ``w`` may stack on axis 0.
        """
        g, q = np.broadcast_arrays(y - z, q)
        lam = 0.5 / self.variance
        lo, hi = lam * (-2.0 * g - 1.0), lam * (2.0 * g - 1.0)   # ln phi(g +- 1) / phi(g)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            p, e_lo, e_hi = 1.0 - q, np.exp(lo), np.exp(hi)
            ln = np.log([p + q * e_hi, p + q * e_lo, p * e_lo + q, p * e_hi + q])   # y = g, -g,
            bad = ~(np.abs(ln) <= 708.0).all(0)                                   # 1 + g, 1 - g
            if bad.any():
                l0, l1, lo, hi = np.log1p(-q[bad]), np.log(q[bad]), lo[bad], hi[bad]
                ln[:, bad] = np.logaddexp([l0, l0, l0 + lo, l0 + hi], [l1 + hi, l1 + lo, l1, l1])
        at0, at1 = ln[0] + ln[1], ln[2] + ln[3]
        neg_ln_phi = lam * g * g + 0.5 * np.log(2.0 * np.pi * self.variance)
        return (neg_ln_phi - 0.5 * (at0 + w * (at1 - at0))) / np.log(2.0)

    def summary(self) -> dict:
        return {"kind": "awgn", "sigma2": self.variance}

    def score(self, Y: np.ndarray, Z: np.ndarray) -> np.ndarray:
        """Scores ``y.z - |z|^2 / 2`` of observation rows Y against 0/1 rows Z, (len Y, len Z).

        That is sigma^2 times the natural-log likelihood, less ``-|y|^2 / 2``,
        which is the same for every row of Z. The score is not divided by
        sigma^2: at a subnormal variance the quotient overflows to inf, and the
        inf ties would go to the lowest row.
        """
        return Y @ Z.T - 0.5 * Z.sum(axis=1)   # |z|^2 = |z| for bits


@dataclass(frozen=True)
class BinarySymmetric:
    """Independent bit flips with probability ``crossover`` in [0, 0.5].

    Crossover 0 is the noiseless channel, y = z; it still draws one uniform
    per symbol, like any other crossover.
    """

    crossover: float

    def __post_init__(self):
        if not 0.0 <= self.crossover <= 0.5:
            raise ValueError(f"crossover must lie in [0, 0.5], got {self.crossover}")

    def sample(self, z: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        flips = rng.random(z.shape) < self.crossover
        return (z ^ flips).astype(np.int8)

    def emission(self, y: np.ndarray) -> np.ndarray:
        """f[t, z] = P(y_t | Z_t = z) for z in {0, 1}."""
        eps = self.crossover
        f = np.empty((y.shape[0], 2))
        f[:, 0] = np.where(y == 0, 1.0 - eps, eps)
        f[:, 1] = np.where(y == 1, 1.0 - eps, eps)
        return f

    def cond_entropy(self) -> float:
        return binary_entropy(self.crossover)

    def mixture_surprise(self, y: np.ndarray, z: np.ndarray, q: np.ndarray,
                         w: np.ndarray) -> np.ndarray:
        """Per-step E[-log2 p_q(Y_t)], Y_t from weight ``w`` on z = 1, as the exact two-output sum.

        ``y`` and ``z`` are not read; an output of probability 0 adds 0.
        """
        eps, total = self.crossover, 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            for a, b in ((1.0 - eps, eps), (eps, 1.0 - eps)):   # P(y | z = 0), P(y | z = 1)
                p, pw = (1.0 - q) * a + q * b, (1.0 - w) * a + w * b
                total = total - np.where(pw > 0.0, pw * np.log2(p), 0.0)
        return total

    def summary(self) -> dict:
        if self.crossover == 0.0:
            return {"kind": "noiseless"}
        return {"kind": "bsc", "crossover": self.crossover}

    def score(self, Y: np.ndarray, Z: np.ndarray) -> np.ndarray:
        """Base-2 log scores of 0/1 observation rows Y against 0/1 rows Z.

        Scores the Hamming distance ``d = |y| + |z| - 2 y.z`` (exact in
        float64), so rows at equal distance tie exactly, and drops
        ``N log2(1 - eps)``; at crossover 0 a row scores 0 if y = z, else -inf.
        """
        d = Y.sum(axis=1)[:, None] + Z.sum(axis=1) - 2.0 * (Y @ Z.T)
        eps = self.crossover
        if eps == 0.0:
            return np.where(d == 0, 0.0, -np.inf)
        return d * (np.log2(eps) - np.log2(1.0 - eps))


NoiseLaw = AwgnNoise | BinarySymmetric


@dataclass(frozen=True)
class ChannelSpec:
    """Refractory length plus the memoryless noise law applied to the gate output."""

    refractory_len: int
    noise: NoiseLaw = BinarySymmetric(0.0)

    def __post_init__(self):
        if self.refractory_len < 0:
            raise ValueError(f"refractory_len must be >= 0, got {self.refractory_len}")
        if not isinstance(self.noise, (AwgnNoise, BinarySymmetric)):
            raise TypeError(f"unknown noise law: {self.noise!r}")


def as_bits(x) -> np.ndarray:
    """Validate a 0/1 sequence (or stack of sequences) and return it as int8."""
    arr = np.asarray(x)
    if arr.size and not ((arr == 0) | (arr == 1)).all():
        raise ValueError("binary sequence entries must be exactly 0 or 1")
    return arr.astype(np.int8)


# ---------------------------------------------------------------------------
# The gate FSM
# ---------------------------------------------------------------------------

def fsm_response(x, L: int) -> np.ndarray:
    """Vectorized closed form of the gate output from ground.

    z_n = 1 iff x_n = 1 and no 1 appears in the previous L inputs, where the
    inputs before the sequence start count as 0. Accepts a single sequence or
    a stack of row sequences.
    """
    bits = as_bits(x)
    single = bits.ndim == 1
    rows = np.atleast_2d(bits)
    if L < 0:
        raise ValueError(f"L must be >= 0, got {L}")
    n = rows.shape[1]
    padded = np.hstack([np.zeros((rows.shape[0], L), dtype=np.int8), rows])
    blocked = np.zeros_like(rows)
    for k in range(L):
        blocked |= padded[:, k:k + n]
    z = rows & (1 - blocked)
    return z[0] if single else z


# ---------------------------------------------------------------------------
# Noise application
# ---------------------------------------------------------------------------

def apply_noise(z, noise: NoiseLaw, rng: np.random.Generator) -> np.ndarray:
    """Pass a gate-output sequence through the memoryless noise law.

    AWGN returns reals y = z + g with g ~ N(0, variance); the BSC returns
    bits. Identical generator state gives identical output.
    """
    return noise.sample(as_bits(z), rng)


# ---------------------------------------------------------------------------
# Joint input-history trellis
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Trellis:
    """Deterministic graph on the last m = max(r, L) inputs, as edge arrays.

    State integers encode the history window with the most recent bit in the
    least significant position. Edge ``2s + x`` leaves state ``s`` on input
    ``x``; its z label is 1 iff ``x`` is 1 and the L most recent history bits
    are all zero. Every state has exactly two in-edges and two out-edges:
    ``in_edges[j]`` are the edges into ``j`` (ascending) and ``out_edges[s]``
    the edges out of ``s``.
    """

    memory: int
    edge_from: np.ndarray    # (2S,) int
    edge_input: np.ndarray   # (2S,) int
    edge_to: np.ndarray      # (2S,) int
    edge_z: np.ndarray       # (2S,) int
    in_edges: np.ndarray     # (S, 2) int
    out_edges: np.ndarray    # (S, 2) int

    @property
    def num_states(self) -> int:
        return 1 << self.memory


def build_trellis(r: int, L: int) -> Trellis:
    """Joint source/channel trellis over m = max(r, L) input-history bits."""
    if r < 1:
        raise ValueError(f"source order r must be >= 1, got {r}")
    if L < 0:
        raise ValueError(f"L must be >= 0, got {L}")
    m = max(r, L)
    S = 1 << m
    edge_from = np.repeat(np.arange(S), 2)
    edge_input = np.tile(np.array([0, 1]), S)
    edge_to = ((edge_from << 1) | edge_input) & (S - 1)
    # z = 1 only on input 1 out of a history whose last L bits are clear
    edge_z = edge_input & ((edge_from & ((1 << L) - 1)) == 0)
    return Trellis(memory=m, edge_from=edge_from, edge_input=edge_input, edge_to=edge_to,
                   edge_z=edge_z, in_edges=np.argsort(edge_to, kind="stable").reshape(S, 2),
                   out_edges=np.arange(2 * S).reshape(S, 2))
