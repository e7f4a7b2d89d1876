"""Independent routes to the gate output, kept as test oracles.

The library has one gate, the vectorized closed form ``fsm_response``, and
one trellis, the edge arrays of ``build_trellis``. The scalar state-machine
fold and the trellis walk below are second routes to the same output.
"""

import numpy as np

from p300channel.channel import as_bits


def fsm_step(level: int, x: int, L: int) -> tuple[int, int]:
    """Advance the gate one step from ``level``: 0 is ground, l in 1..L is R_l.

    R_l means "the last input 1 arrived l steps ago". An input 1 always lands
    in R_1 and produces output 1 only from ground. On input 0, ground and R_L
    return to ground while R_l advances to R_{l+1}. For L = 0 the machine is
    stateless and z = x.
    """
    if L < 0:
        raise ValueError(f"L must be >= 0, got {L}")
    if not 0 <= level <= L:
        raise ValueError(f"state level {level} does not exist for L={L}")
    if x not in (0, 1):
        raise ValueError(f"input must be 0 or 1, got {x!r}")
    if L == 0:
        return 0, x
    if x == 1:
        return 1, 1 if level == 0 else 0
    if level == 0 or level == L:
        return 0, 0
    return level + 1, 0


def fsm_run(x, L: int) -> tuple[np.ndarray, list[int]]:
    """Fold :func:`fsm_step` over an input sequence from ground.

    Returns the gate output ``z`` (same length as ``x``) and the visited
    state levels S_1..S_n.
    """
    bits = as_bits(x)
    if bits.ndim != 1:
        raise ValueError("fsm_run expects a 1-D bit sequence")
    z = np.empty(bits.size, dtype=np.int8)
    levels: list[int] = []
    s = 0
    for i, b in enumerate(bits):
        s, zi = fsm_step(s, int(b), L)
        z[i] = zi
        levels.append(s)
    return z, levels


def trellis_walk(trellis, x) -> np.ndarray:
    """Follow the trellis edges from the all-zero history and return their z labels."""
    z, s = [], 0
    for b in as_bits(x):
        e = trellis.out_edges[s, b]
        z.append(trellis.edge_z[e])
        s = trellis.edge_to[e]
    return np.array(z, dtype=np.int8)
