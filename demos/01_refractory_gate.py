#!/usr/bin/env python3
"""Walk through the refractory gate: states, outputs, and the run-length law.

A flash (input 1) elicits a response (z = 1) only when none of the
previous L inputs was a 1. Every flash, answered or not, restarts the lock
for L steps; zeros advance the lock until it releases. The net effect:
responses are separated by at least L zeros.
"""

import numpy as np

from p300channel import build_trellis, fsm_response

L = 2
x = [1, 1, 0, 1, 0, 0, 1, 0, 1, 0, 0, 0, 1]

print(f"refractory length L = {L}")
print(f"input  x = {x}")
z = fsm_response(x, L)
print(f"output z = {z.tolist()}")

# walk the trellis over the last L inputs: the history after each step names
# the gate state (G = no 1 among the last L inputs, R_l = the last 1 was l
# steps ago)
trellis = build_trellis(r=L, L=L)
s, z_walk, states = 0, [], []
for b in x:
    e = trellis.out_edges[s, b]
    z_walk.append(int(trellis.edge_z[e]))
    s = int(trellis.edge_to[e])
    states.append(f"R{(s & -s).bit_length()}" if s else "G")
print("states   =", " ".join(states))
assert z_walk == z.tolist()
print("\nclosed form and trellis walk agree")

print(f"\ntrellis over the last {trellis.memory} inputs: {trellis.num_states} states")
for e in range(trellis.edge_to.size):
    print(f"  history {trellis.edge_from[e]:0{trellis.memory}b} --x={trellis.edge_input[e]}--> "
          f"{trellis.edge_to[e]:0{trellis.memory}b}  (z={trellis.edge_z[e]})")

# responses are (L, inf) run-length limited no matter how bursty the input
rng = np.random.default_rng(0)
ones = [np.flatnonzero(zz) for zz in fsm_response(rng.integers(0, 2, size=(2000, 40)), L)]
worst = min(np.diff(o).min() - 1 for o in ones if o.size > 1)
print(f"\nminimum observed gap between responses over 2000 random inputs: "
      f"{int(worst)} (the gate guarantees >= {L})")

# single flashes always get through; repeated flashes are swallowed
print("\nburst demo:")
for pattern in ([1, 0, 0, 0, 1], [1, 1, 1, 1, 1]):
    print(f"  x={pattern} -> z={fsm_response(pattern, L).tolist()}")
