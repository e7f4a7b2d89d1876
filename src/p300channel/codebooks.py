"""Codebook generators: memory-based rows plus the standard speller baselines."""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass, field

import numpy as np

from .sources import MarkovSource, stationary_distribution


@dataclass(frozen=True)
class GridLayout:
    """Character grid of the speller screen; flash groups are its rows/columns."""

    rows: int = 6
    cols: int = 6

    @property
    def num_chars(self) -> int:
        return self.rows * self.cols

    def group_columns(self) -> np.ndarray:
        """Indicator matrix (num_chars, rows + cols): one column per flash group."""
        W = self.num_chars
        groups = np.zeros((W, self.rows + self.cols), dtype=np.int8)
        chars = np.arange(W)
        groups[chars, chars // self.cols] = 1
        groups[chars, self.rows + chars % self.cols] = 1
        return groups


@dataclass(frozen=True, eq=False)
class Codebook:
    """W x N binary flash schedule; row w is character w's pattern."""

    matrix: np.ndarray
    kind: str
    seed: int
    source: MarkovSource | None = field(default=None, repr=False)

    def __post_init__(self):
        m = np.asarray(self.matrix)
        if m.ndim != 2:
            raise ValueError(f"codebook matrix must be 2-D, got shape {m.shape}")
        if m.size and not np.isin(m, (0, 1)).all():
            raise ValueError("codebook entries must be 0 or 1")
        m = m.astype(np.int8)
        object.__setattr__(self, "matrix", m)
        if len({tuple(row) for row in m}) != m.shape[0]:
            warnings.warn(f"codebook ({self.kind}) contains duplicate rows")

    @property
    def num_chars(self) -> int:
        return self.matrix.shape[0]

    @property
    def num_trials(self) -> int:
        return self.matrix.shape[1]


def _rows_distinct(matrix: np.ndarray) -> bool:
    return len({tuple(row) for row in matrix}) == matrix.shape[0]


# ---------------------------------------------------------------------------
# Memory-based codebook
# ---------------------------------------------------------------------------

def gen_mbc(source: MarkovSource, W: int, N: int, seed: int) -> Codebook:
    """Rows drawn i.i.d. from ``source`` started at its stationary history law.

    Duplicate rows are resampled; the retry budget bounds degenerate sources
    (an all-zero source can never produce W distinct rows). Each candidate
    row takes N + 1 uniforms: the first picks its start history by the
    inverse-CDF rule of ``Generator.choice``, the rest drive the source.
    Candidates are drawn in batches and taken in order, so the book is the
    one a row-by-row draw gives.
    """
    if N < 1 or W < 1:
        raise ValueError(f"need W >= 1 and N >= 1, got W={W}, N={N}")
    pi = stationary_distribution(source)   # also rejects multi-class chains
    cdf = pi.cumsum()
    cdf /= cdf[-1]
    rng = np.random.default_rng(np.random.SeedSequence([seed, W, N]))
    rows: list[tuple] = []
    seen: set[tuple] = set()
    budget = 20 * W
    while len(rows) < W:
        if budget == 0:
            raise ValueError(
                f"could not draw {W} distinct rows of length {N} from this source"
            )
        batch = min(budget, W - len(rows))
        budget -= batch
        U = rng.random((batch, N + 1))
        h0 = cdf.searchsorted(U[:, 0], side="right")
        for row in map(tuple, source._sweep(U[:, 1:], h0)):
            if row in seen:
                continue
            seen.add(row)
            rows.append(row)
    return Codebook(np.array(rows, dtype=np.int8),
                    kind=f"mbc(order={source.order})", seed=seed, source=source)


# ---------------------------------------------------------------------------
# Row-column paradigm
# ---------------------------------------------------------------------------

def gen_rcp(W: int = 36, N: int = 60, seed: int = 0,
            layout: GridLayout = GridLayout()) -> Codebook:
    """Blocks of random permutations of the grid's row and column flash groups.

    Every block of rows+cols trials flashes each character exactly twice
    (once in its grid row, once in its grid column).
    """
    if W != layout.num_chars:
        raise ValueError(f"W={W} does not match the {layout.rows}x{layout.cols} grid")
    block = layout.rows + layout.cols
    if N % block != 0 or N == 0:
        raise ValueError(f"N must be a positive multiple of {block}, got {N}")
    groups = layout.group_columns()
    rng = np.random.default_rng(np.random.SeedSequence([seed, W, N]))
    for _ in range(50):
        cols = [groups[:, rng.permutation(block)] for _ in range(N // block)]
        matrix = np.hstack(cols)
        if _rows_distinct(matrix):
            return Codebook(matrix, kind="rcp", seed=seed)
    raise ValueError("could not generate distinct RCP rows (retry budget exhausted)")


# ---------------------------------------------------------------------------
# Checkerboard paradigm
# ---------------------------------------------------------------------------

CBP_MAX_GAP = 3   # guaranteed by the pass structure on the 6x6 grid


def gen_cbp(N: int = 60, min_gap: int = 3, seed: int = 0) -> Codebook:
    """Checkerboard schedule for the 6x6 grid with a guaranteed flash gap.

    The 36 characters split by checkerboard parity into two sets of 18; each
    set is shuffled into a 3x6 virtual grid per pass. A pass emits the 18
    virtual groups as [rows of A, rows of B, columns of A, columns of B],
    which keeps every character's successive flashes at least 4 columns
    apart (>= 3 intervening trials). The guarantee is re-checked on the
    emitted matrix.
    """
    if min_gap < 1:
        raise ValueError(f"min_gap must be >= 1, got {min_gap}")
    if min_gap > CBP_MAX_GAP:
        raise ValueError(
            f"min_gap={min_gap} infeasible for the 6x6 checkerboard (max {CBP_MAX_GAP})"
        )
    if N < 18:
        raise ValueError(f"need N >= 18 for one full checkerboard pass, got {N}")
    W = 36
    cells = np.arange(W)
    parity = (cells // 6 + cells % 6) % 2
    halves = [cells[parity == 0], cells[parity == 1]]
    rng = np.random.default_rng(np.random.SeedSequence([seed, N, min_gap]))

    columns = []
    while len(columns) < N:
        grids = [rng.permutation(h).reshape(3, 6) for h in halves]
        pass_groups: list[np.ndarray] = []
        for g in grids:                                    # virtual rows, A then B
            pass_groups.extend(g[i] for i in rng.permutation(3))
        for g in grids:                                    # virtual columns, A then B
            pass_groups.extend(g[:, j] for j in rng.permutation(6))
        for members in pass_groups:
            col = np.zeros(W, dtype=np.int8)
            col[members] = 1
            columns.append(col)
    matrix = np.column_stack(columns[:N])

    for w in range(W):
        flashes = np.flatnonzero(matrix[w])
        if flashes.size > 1 and np.min(np.diff(flashes)) - 1 < min_gap:
            raise AssertionError(f"gap guarantee violated for character {w}")
    return Codebook(matrix, kind=f"cbp(gap={min_gap})", seed=seed)


# ---------------------------------------------------------------------------
# Max-min-Hamming-distance baseline
# ---------------------------------------------------------------------------

def min_hamming_distance(matrix: np.ndarray) -> int:
    """Minimum pairwise Hamming distance between rows."""
    m = np.asarray(matrix, dtype=np.int16)
    if m.shape[0] < 2:
        raise ValueError("need at least two rows")
    best = m.shape[1] + 1
    for i in range(m.shape[0] - 1):
        d = np.abs(m[i + 1:] - m[i]).sum(axis=1).min()
        best = min(best, int(d))
    return best


def _random_constant_weight(W: int, N: int, weight: int, rng: np.random.Generator):
    rows: set[tuple] = set()
    guard = 200 * W
    while len(rows) < W:
        if guard == 0:
            raise ValueError(f"cannot draw {W} distinct weight-{weight} rows of length {N}")
        guard -= 1
        row = np.zeros(N, dtype=np.int8)
        row[rng.choice(N, size=weight, replace=False)] = 1
        rows.add(tuple(row))
    return np.array(sorted(rows), dtype=np.int8)[rng.permutation(W)]


def gen_min_dist(W: int, N: int, weight: int = 10, trials: int = 50,
                 seed: int = 0) -> Codebook:
    """Best-of-``trials`` random constant-weight codebook by min pairwise distance.

    Nested seed streams (one child per trial) make the achieved distance
    monotone in ``trials`` for a fixed seed.
    """
    if weight > N:
        raise ValueError(f"weight {weight} exceeds N={N}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    from math import comb
    if W > comb(N, weight):
        raise ValueError(f"only {comb(N, weight)} weight-{weight} words exist; W={W}")
    children = np.random.SeedSequence([seed, W, N, weight]).spawn(trials)
    best_matrix, best_d = None, -1
    for child in children:
        candidate = _random_constant_weight(W, N, weight, np.random.default_rng(child))
        d = min_hamming_distance(candidate) if W > 1 else N
        if d > best_d:
            best_matrix, best_d = candidate, d
    return Codebook(best_matrix, kind=f"mindist(weight={weight},dist={best_d})", seed=seed)


# ---------------------------------------------------------------------------
# CSV serialization
# ---------------------------------------------------------------------------

_HEADER_RE = re.compile(r"^# W=(\d+) N=(\d+) kind=(\S+) seed=(-?\d+)$")


def codebook_csv_text(book: Codebook) -> str:
    lines = [f"# W={book.num_chars} N={book.num_trials} kind={book.kind} seed={book.seed}"]
    lines.extend(",".join(str(int(v)) for v in row) for row in book.matrix)
    return "\n".join(lines) + "\n"


def export_codebook(book: Codebook, path) -> None:
    with open(path, "w") as fh:
        fh.write(codebook_csv_text(book))


def import_codebook(path) -> Codebook:
    """Read the CSV format written by :func:`export_codebook`.

    Malformed headers, non-binary entries, and shape mismatches are errors;
    duplicate rows only warn (imported baselines may contain them).
    """
    with open(path) as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty codebook file")
    m = _HEADER_RE.match(lines[0])
    if not m:
        raise ValueError(f"{path}: bad header {lines[0]!r}")
    W, N, kind, seed = int(m.group(1)), int(m.group(2)), m.group(3), int(m.group(4))
    body = lines[1:]
    if len(body) != W:
        raise ValueError(f"{path}: header says W={W} but found {len(body)} rows")
    matrix = np.empty((W, N), dtype=np.int8)
    for i, line in enumerate(body):
        cells = line.split(",")
        if len(cells) != N:
            raise ValueError(f"{path}: row {i} has {len(cells)} entries, expected N={N}")
        for j, cell in enumerate(cells):
            if cell not in ("0", "1"):
                raise ValueError(f"{path}: row {i} entry {cell!r} is not 0/1")
            matrix[i, j] = int(cell)
    return Codebook(matrix, kind=kind, seed=seed)
