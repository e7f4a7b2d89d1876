"""Binary Markov sources conditioned on a fixed-length history window."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class ReducibleChainError(ValueError):
    """The history chain has more than one recurrent class."""


@dataclass(frozen=True, eq=False)
class MarkovSource:
    """Order-r binary Markov law P(X_n = 1 | last r bits).

    ``p1`` is indexed by the integer encoding of the history window with the
    most recent bit in the least significant position; ``p1[h]`` is the
    probability that the next bit is 1.
    """

    order: int
    p1: np.ndarray

    def __post_init__(self):
        if self.order < 1:
            raise ValueError(f"order must be >= 1, got {self.order}")
        p1 = np.asarray(self.p1, dtype=np.float64)
        if p1.shape != (1 << self.order,):
            raise ValueError(
                f"need {1 << self.order} history probabilities, got shape {p1.shape}"
            )
        if not np.all((p1 >= 0.0) & (p1 <= 1.0)):   # NaN fails too
            raise ValueError("transition probabilities must lie in [0, 1]")
        object.__setattr__(self, "p1", p1)

    @classmethod
    def constrained(cls, order: int, a: float) -> "MarkovSource":
        """The run-length family member: P(1 | all-zero history) = a, else 0."""
        p1 = np.zeros(1 << order)
        p1[0] = a
        return cls(order, p1)

    @classmethod
    def uniform(cls, order: int) -> "MarkovSource":
        return cls(order, np.full(1 << order, 0.5))

    @property
    def num_histories(self) -> int:
        return 1 << self.order

    def transition_matrix(self) -> np.ndarray:
        """Chain on history integers: T[h, (h << 1 | x) & mask] = P(x | h)."""
        size = self.num_histories
        mask = size - 1
        T = np.zeros((size, size))
        h = np.arange(size)
        T[h, (h << 1) & mask] += 1.0 - self.p1
        T[h, ((h << 1) | 1) & mask] += self.p1
        return T

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw a length-n realization from the all-zero history.

        A stationary start goes through :meth:`_sweep`, as ``gen_mbc`` does. Bit t is
        ``u[t] < p1[h_t]`` for ``u = rng.random(n)``, computed by a two-level
        chunked scan over history integers: with K chunks of C = ``_chunk_len(n, H)``,
        about 2 n^(1/3), steps (H = 2^r),

        1. the H -> H history map of each of the first K-1 chunks, for all
           chunks at once, one step at a time;
        2. a K-step walk of those maps from history 0, in plain Python over
           one flat list, which gives the history at every chunk boundary;
        3. a C-step sweep inside all chunks at once from their boundary
           histories, which draws every bit.

        That is about 2C numpy steps and K list lookups instead of n numpy
        steps; the comparisons and the generator draws are those of the
        step-by-step loop, so the output and the generator state afterwards
        are identical to it.
        """
        if n == 0:
            return np.empty(0, dtype=np.int8)
        C = _chunk_len(n, self.num_histories)
        K = -(-n // C)
        # pad to K full chunks; the padding only drives bits past n, which are dropped
        U = np.ones((K, C))
        rng.random(out=U.reshape(-1)[:n])
        H = self.num_histories
        M = np.broadcast_to(np.arange(H), (K - 1, H))
        for i in range(C):
            M = ((M << 1) | (U[:-1, i, None] < self.p1[M])) & (H - 1)
        maps = M.ravel().tolist()   # one flat list: no Python list per chunk
        bounds = [0]
        for k in range(0, len(maps), H):
            bounds.append(maps[k + bounds[-1]])
        return self._sweep(U, np.array(bounds)).ravel()[:n]

    def _sweep(self, U: np.ndarray, h: np.ndarray) -> np.ndarray:
        """Bits of independent chains: row k starts at history h[k], driven by U[k].

        Column i holds bit i of every row, ``U[:, i] < p1[h]``, which each
        history then shifts in.
        """
        mask = self.num_histories - 1
        X = np.empty(U.shape, dtype=np.int8)
        for i in range(U.shape[1]):
            b = U[:, i] < self.p1[h]
            X[:, i] = b
            h = ((h << 1) | b) & mask
        return X


def _chunk_len(n: int, width: int) -> int:
    """Chunk length C of a chunked scan over n >= 1 steps, ``width`` numbers per chunk state.

    A scan makes about 2C steps inside its K = n / C chunks and K, or 3
    sqrt(K), over their boundaries, so C = ceil(2 n^(1/3)) balances the two.
    C grows past that to keep the K chunk states of a step within 2^15
    numbers (256 KiB), where more chunks cost cache misses, not Python steps.
    """
    c = int((8 * n) ** (1 / 3))
    while c ** 3 < 8 * n:   # float rounding can leave c one short
        c += 1
    return min(n, max(c, -(-n * width // 2 ** 15)))


def history_label(h: int, order: int) -> str:
    """Bitstring of a history integer, oldest bit first."""
    return format(h, f"0{order}b")


def history_from_label(label: str) -> int:
    if not label or set(label) - {"0", "1"}:
        raise ValueError(f"history label must be a nonempty bitstring, got {label!r}")
    return int(label, 2)


def recurrent_classes(source: MarkovSource) -> list[np.ndarray]:
    """Closed classes of the history chain, each sorted, by smallest member.

    Reachability grows one step per O(4^r) pass; the worst case, a de Bruijn
    cycle with p1 in {0, 1}, takes 2^r passes (about 1 s at r = 10).
    """
    T = source.transition_matrix() > 0
    j = np.arange(len(T))
    lo, hi = j >> 1, (j >> 1) | (len(T) >> 1)   # the two histories that shift into j
    R, grown = None, np.eye(len(T), dtype=bool)  # R[j, i]: j is reachable from i
    while not np.array_equal(R, grown):
        R = grown
        grown = R | (R[lo] & T[lo, j, None]) | (R[hi] & T[hi, j, None])
    closed = (R.T <= R).all(axis=1)              # i reaches back from all it reaches
    return [np.flatnonzero(R[:, i]) for i in np.unique(R[:, closed].argmax(axis=0))]


def stationary_distribution(source: MarkovSource) -> np.ndarray:
    """Stationary law over all histories (zero on transient ones).

    Raises :class:`ReducibleChainError` when the chain has several recurrent
    classes and the stationary law is therefore not unique.

    Solved by Grassmann-Taksar-Heyman state reduction, which never subtracts:
    an escape probability below machine epsilon, where ``1 - p`` rounds to 1
    and ``T - I`` turns singular, still counts at its full relative accuracy.
    """
    classes = recurrent_classes(source)
    if len(classes) != 1:
        raise ReducibleChainError(
            f"history chain has {len(classes)} recurrent classes; expected one"
        )
    members = classes[0]
    P = source.transition_matrix()[np.ix_(members, members)]
    k = len(members)
    # censor states k-1, ..., 1 out of the chain one at a time
    for n in range(k - 1, 0, -1):
        out = max(P[n, :n].sum(), 1e-300)   # floor: an escape rate that underflowed
        P[:n, n] /= out
        P[:n, :n] += np.outer(P[:n, n], P[n, :n])
    pi_members = np.ones(k)
    for n in range(1, k):
        pi_members[n] = pi_members[:n] @ P[:n, n]
        if pi_members[n] > 1.0:   # keep every entry <= 1, so no sum overflows
            pi_members[:n + 1] /= pi_members[n]
    pi_members /= pi_members.sum()
    pi = np.zeros(source.num_histories)
    pi[members] = pi_members
    return pi


def save_source(source: MarkovSource, path) -> None:
    """Write a source file: an order header then one `bitstring,prob` per history."""
    lines = [f"# order={source.order}"]
    for h in range(source.num_histories):
        lines.append(f"{history_label(h, source.order)},{float(source.p1[h])!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_source(path) -> MarkovSource:
    """Read a file written by :func:`save_source`; errors name the file and line."""
    with open(path) as fh:
        raw = [(k, line.strip()) for k, line in enumerate(fh, 1) if line.strip()]
    if not raw or not raw[0][1].startswith("# order="):
        raise ValueError(f"{path}: missing '# order=<r>' header")
    k, header = raw[0]
    try:
        order = int(header.split("=", 1)[1])
    except ValueError:
        raise ValueError(f"{path}:{k}: order must be an integer, got {header!r}") from None
    if order < 1:
        raise ValueError(f"{path}:{k}: order must be >= 1, got {order}")
    count = len(raw) - 1
    # bit lengths are compared first, so a huge order never builds 2^order
    if count.bit_length() != order + 1 or count != 1 << order:
        problem = "missing" if count.bit_length() <= order else "extra"
        raise ValueError(f"{path}: order {order} needs 2^{order} history lines, got {count} "
                         f"({problem} histories)")
    p1 = np.empty(count)
    seen = set()
    for k, line in raw[1:]:
        label, _, prob = line.partition(",")
        try:
            h, p = history_from_label(label), float(prob)
        except ValueError:
            raise ValueError(f"{path}:{k}: expected '<history bits>,<probability>', "
                             f"got {line!r}") from None
        if len(label) != order:
            raise ValueError(f"{path}:{k}: history {label!r} does not match order {order}")
        if h in seen:
            raise ValueError(f"{path}:{k}: history {label} listed twice")
        seen.add(h)
        p1[h] = p
    return MarkovSource(order, p1)
