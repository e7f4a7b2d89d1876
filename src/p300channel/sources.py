"""Binary Markov sources conditioned on a fixed-length history window."""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

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

        Bit t is ``u[t] < p1[h_t]`` for ``u = rng.random(n)``, drawn by
        :func:`_speculative_scan` over chunks of C = ``_chunk_len(n, 2)`` steps,
        every chunk swept from history 0. Histories are discrete, so a restarted
        chunk that meets its earlier run stays equal to it (coupling: Propp &
        Wilson, Random Struct. Algorithms 1996). The comparisons and generator
        draws are the step-by-step loop's, so the output and the generator state
        afterwards are identical to it.
        """
        x = np.empty(n, dtype=np.int8)
        if n:
            C = _chunk_len(n, 2)
            _speculative_scan(partial(_history_sweep, self.p1, rng.random(n), x),
                              np.zeros(-(-n // C), dtype=np.intp), n, C)
        return x


def _history_sweep(p1: np.ndarray, u: np.ndarray, x: np.ndarray, s: int, h: np.ndarray, C: int):
    """The sampler's sweep: chains of history integers h[P, k], chunk k at step s + kC.

    Step i of chunk k draws bit ``u[s + kC + i] < p1[h]`` into ``x`` (that of
    the first chain), which each history then shifts in. With P = 2 a chunk
    has met once its two histories are equal; they stay equal from there.
    """
    mask = len(p1) - 1
    met = np.zeros(h.shape[1], dtype=bool)
    for i in range(C):
        ui = u[s + i::C]
        k = ui.size
        if k < h.shape[1]:                # a short last chunk has ended
            h = h[:, :k]
        b = ui < p1[h]
        x[s + i::C] = b[0]
        h = ((h << 1) | b) & mask
        if len(h) == 2:
            met[:k] |= h[0] == h[1]
            if met[:k].all():
                break
    return h, met


def _speculative_scan(sweep, starts: np.ndarray, n: int, C: int) -> None:
    """Run n steps of a recursion as K = ceil(n / C) chunks, by speculation and fix-up rounds.

    ``sweep(s, v, c)`` advances the P runs ``v[..., P, k]`` of every chunk k
    through its steps s + kc .. s + kc + c - 1, all chunks at once, writes the
    first run's values, and returns the runs after its last step and whether
    each chunk met (with P = 2, its runs agree; it stops once all have). The
    first sweep starts chunk k from ``starts[..., k]`` (overwritten). Each
    fix-up round (Maleki, Musuvathi & Mytkowicz, PPoPP 2014) restarts every
    chunk after the proven ones from its predecessor's end, beside a rerun
    from its previous start: from its meeting step on, a chunk's earlier
    values are right. The chunks up to the first that does not meet are
    proven, so a round costs at most C steps and proves at least one chunk.
    A round after the first that meets nothing shows an input that does not
    forget its start; the unproven rest then runs as the step-by-step loop.
    """
    K = -(-n // C)
    end, _ = sweep(0, starts[..., None, :], C)
    last = end[..., 0, :K - 1]   # the end of each chunk but the last
    p, rounds = 0, 0             # chunks 0 .. p are proven
    while p < K - 1:
        restart = np.stack([last[..., p:], starts[..., p + 1:]], axis=-2)
        end, met = sweep((p + 1) * C, restart, C)
        unmet = np.flatnonzero(~met[:-1])   # the last chunk's end starts nothing
        if not unmet.size:
            return
        starts[..., p + 1:] = restart[..., 0, :]
        last[..., p + 1:] = end[..., 0, :K - 2 - p]
        p += 1 + int(unmet[0])
        rounds += 1
        if rounds > 1 and not met.any():
            s = (p + 1) * C
            sweep(s, last[..., p, None, None], n - s)
            return


def _chunk_len(n: int, width: int) -> int:
    """Chunk length C of a chunked scan over n >= 1 steps, ``width`` numbers per chunk state.

    A speculative scan over chunks of C steps makes C vectorized steps in its
    first sweep and about m in each fix-up round, m the steps its restarts
    take to meet, and a round redoes about 2 m n / C of the sweep's n steps
    of work; C = ceil(2 n^(1/3)) keeps both small. The sampler's histories
    meet within a few steps and take C; the trellis passes meet in 20 to 70
    steps and take 2C, so that a round redoes less than the sweep did.
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
