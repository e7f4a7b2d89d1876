"""Finite-state model of refractory ERP elicitation plus memoryless noise.

The channel is a cascade: a deterministic finite-state machine gates the
binary input (a flash either elicits a response or falls into a refractory
window of ``L`` steps), then a memoryless noise law corrupts the gate output.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


# ---------------------------------------------------------------------------
# States and channel parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChannelState:
    """Gate state: ``level`` 0 is the ground state, ``level`` l in 1..L is R_l.

    R_1 means "the last input 1 arrived one step ago"; zeros advance the
    level until R_L releases back to ground.
    """

    level: int = 0

    def __post_init__(self):
        if self.level < 0:
            raise ValueError(f"state level must be >= 0, got {self.level}")

    @property
    def is_ground(self) -> bool:
        return self.level == 0


GROUND = ChannelState(0)


def state_history(s0: ChannelState, width: int) -> int:
    """History integer (newest bit in the LSB) of the pre-history that ``s0`` implies.

    R_l stands for a lone 1 input l steps back, as in :func:`fsm_response`,
    so it is bit l - 1; a bit beyond the ``width`` newest inputs is dropped.
    GROUND is the all-zero history.
    """
    return (1 << (s0.level - 1)) & ((1 << width) - 1) if s0.level else 0


def refractory(level: int) -> ChannelState:
    """The refractory state R_level, level in 1..L."""
    if level < 1:
        raise ValueError("refractory level starts at 1")
    return ChannelState(level)


@dataclass(frozen=True)
class AwgnNoise:
    """Additive white Gaussian noise with power ``variance``."""

    variance: float

    def __post_init__(self):
        if not self.variance > 0:
            raise ValueError(f"AWGN variance must be positive, got {self.variance}")


@dataclass(frozen=True)
class BinarySymmetric:
    """Independent bit flips with probability ``crossover`` in [0, 0.5]."""

    crossover: float

    def __post_init__(self):
        if not 0.0 <= self.crossover <= 0.5:
            raise ValueError(f"crossover must lie in [0, 0.5], got {self.crossover}")


@dataclass(frozen=True)
class Noiseless:
    """Identity output law: y = z."""


NoiseLaw = AwgnNoise | BinarySymmetric | Noiseless


@dataclass(frozen=True)
class ChannelSpec:
    """Refractory length plus the memoryless noise law applied to the gate output."""

    refractory_len: int
    noise: NoiseLaw = field(default_factory=Noiseless)

    def __post_init__(self):
        if self.refractory_len < 0:
            raise ValueError(f"refractory_len must be >= 0, got {self.refractory_len}")
        if not isinstance(self.noise, (AwgnNoise, BinarySymmetric, Noiseless)):
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

def fsm_step(state: ChannelState, x: int, L: int) -> tuple[ChannelState, int]:
    """Advance the gate one step.

    An input 1 always lands in R_1 and produces output 1 only from ground.
    On input 0, ground and R_L return to ground while R_l advances to R_{l+1}.
    For L = 0 the machine is stateless and z = x.
    """
    if L < 0:
        raise ValueError(f"L must be >= 0, got {L}")
    if state.level > L:
        raise ValueError(f"state R_{state.level} does not exist for L={L}")
    if x not in (0, 1):
        raise ValueError(f"input must be 0 or 1, got {x!r}")
    if L == 0:
        return GROUND, x
    if x == 1:
        return ChannelState(1), 1 if state.is_ground else 0
    if state.is_ground or state.level == L:
        return GROUND, 0
    return ChannelState(state.level + 1), 0


def fsm_run(x, s0: ChannelState, L: int) -> tuple[np.ndarray, list[ChannelState]]:
    """Fold :func:`fsm_step` over an input sequence.

    Returns the gate output ``z`` (same length as ``x``) and the visited
    states S_1..S_n.
    """
    bits = as_bits(x)
    if bits.ndim != 1:
        raise ValueError("fsm_run expects a 1-D bit sequence")
    z = np.empty(bits.size, dtype=np.int8)
    states: list[ChannelState] = []
    s = s0
    for i, b in enumerate(bits):
        s, zi = fsm_step(s, int(b), L)
        z[i] = zi
        states.append(s)
    return z, states


def fsm_response(x, L: int, s0: ChannelState = GROUND) -> np.ndarray:
    """Vectorized closed form of the gate output.

    z_n = 1 iff x_n = 1 and no 1 appears in the previous L inputs, where the
    pre-history implied by ``s0`` fills positions before the sequence start.
    Accepts a single sequence or a stack of row sequences.
    """
    bits = as_bits(x)
    single = bits.ndim == 1
    rows = np.atleast_2d(bits)
    if L < 0:
        raise ValueError(f"L must be >= 0, got {L}")
    if s0.level > L:
        raise ValueError(f"state R_{s0.level} does not exist for L={L}")
    if L == 0:
        return rows[0].copy() if single else rows.copy()
    n = rows.shape[1]
    pre = np.zeros((rows.shape[0], L), dtype=np.int8)
    if s0.level >= 1:
        # S_0 = R_l corresponds to a lone pre-history 1 located l steps back.
        pre[:, L - s0.level] = 1
    padded = np.hstack([pre, rows])
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

    AWGN returns reals y = z + g with g ~ N(0, variance); the binary laws
    return bits. Identical generator state gives identical output.
    """
    bits = as_bits(z)
    if isinstance(noise, Noiseless):
        return bits.copy()
    if isinstance(noise, BinarySymmetric):
        flips = rng.random(bits.shape) < noise.crossover
        return (bits ^ flips).astype(np.int8)
    if isinstance(noise, AwgnNoise):
        return bits + rng.normal(0.0, np.sqrt(noise.variance), bits.shape)
    raise TypeError(f"unknown noise law: {noise!r}")


# ---------------------------------------------------------------------------
# Joint input-history trellis
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class TrellisGraph:
    """Deterministic graph on the last max(r, L) inputs.

    State integers encode the history window with the most recent bit in the
    least significant position. Each state has exactly two outgoing edges
    (input 0 / input 1); the z label of an edge is 1 iff its input is 1 and
    the L most recent history bits are all zero.
    """

    memory: int
    next_state: np.ndarray   # (2**memory, 2) int
    z_out: np.ndarray        # (2**memory, 2) int8

    @property
    def num_states(self) -> int:
        return 1 << self.memory

    def response(self, x, start: int = 0) -> np.ndarray:
        """Walk the trellis from history ``start`` and return the z labels."""
        bits = as_bits(x)
        z = np.empty(bits.size, dtype=np.int8)
        s = start
        for i, b in enumerate(bits):
            z[i] = self.z_out[s, b]
            s = int(self.next_state[s, b])
        return z


def build_trellis(r: int, L: int) -> TrellisGraph:
    """Joint source/channel trellis over m = max(r, L) input-history bits."""
    if r < 1:
        raise ValueError(f"source order r must be >= 1, got {r}")
    if L < 0:
        raise ValueError(f"L must be >= 0, got {L}")
    m = max(r, L)
    size = 1 << m
    mask = size - 1
    lmask = (1 << L) - 1
    states = np.arange(size)
    next_state = np.empty((size, 2), dtype=np.int64)
    z_out = np.zeros((size, 2), dtype=np.int8)
    for x in (0, 1):
        next_state[:, x] = ((states << 1) | x) & mask
    # z = 1 only on input 1 out of a history whose last L bits are clear
    z_out[:, 1] = (states & lmask) == 0
    return TrellisGraph(memory=m, next_state=next_state, z_out=z_out)
