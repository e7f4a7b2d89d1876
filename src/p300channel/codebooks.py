"""Codebook generators: memory-based rows plus the standard speller baselines."""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass, field

import numpy as np

from .channel import as_bits
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
        if not ((m == 0) | (m == 1)).all():
            raise ValueError("codebook entries must be 0 or 1")
        m = m.astype(np.int8)
        object.__setattr__(self, "matrix", m)
        if not _rows_distinct(m):
            warnings.warn(f"codebook ({self.kind}) contains duplicate rows")

    @property
    def num_chars(self) -> int:
        return self.matrix.shape[0]

    @property
    def num_trials(self) -> int:
        return self.matrix.shape[1]


def _rows_distinct(matrix: np.ndarray) -> bool:
    """True when no two rows are equal (rows compared by their bytes, so one dtype)."""
    return len({row.tobytes() for row in matrix}) == matrix.shape[0]


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

def _min_distances(books: np.ndarray) -> np.ndarray:
    """Minimum row-pair Hamming distance of each 0/1 book in a (T, W >= 2, N) stack.

    One stacked Gram product gives every pair at once: d(x, y) = |x| + |y| - 2 x.y.
    The terms are integers at most 2N, exact in float32 while N < 2**24.
    """
    T, W, N = books.shape
    B = books.astype(np.float32 if N < 2**24 else np.float64)
    norms = B.sum(axis=2)
    d = B @ B.transpose(0, 2, 1)
    d *= -2
    d += norms[:, :, None]
    d += norms[:, None, :]
    d[:, range(W), range(W)] = np.inf
    return d.min(axis=(1, 2)).astype(np.int64)


def min_hamming_distance(matrix: np.ndarray) -> int:
    """Minimum pairwise Hamming distance between the rows of a 0/1 matrix."""
    m = as_bits(matrix)
    if m.ndim != 2:
        raise ValueError(f"need a 2-D matrix, got shape {m.shape}")
    if m.shape[0] < 2:
        raise ValueError("need at least two rows")
    return int(_min_distances(m[None])[0])


def _constant_weight_rows(rng: np.random.Generator, rows: int, N: int,
                          weight: int) -> np.ndarray:
    """``rows`` uniform weight-``weight`` words of length N from one (rows, N) uniform block.

    Each row's support is the positions of its ``weight`` smallest uniforms.
    """
    U = rng.random((rows, N))
    words = np.zeros((rows, N), dtype=np.int8)
    support = np.argpartition(U, max(weight - 1, 0), axis=1)[:, :weight]
    np.put_along_axis(words, support, 1, axis=1)
    return words


def _redraw_duplicates(book: np.ndarray, rng: np.random.Generator, weight: int,
                       budget: int) -> None:
    """Redraw in place, in row order, each row equal to an earlier one.

    Row i is redrawn until it differs from rows 0..i-1, so the rows are a uniform
    ordered draw of distinct words; ``budget`` bounds the redraws.
    """
    W, N = book.shape
    seen: set[bytes] = set()
    for row in book:
        while row.tobytes() in seen:
            if budget == 0:
                raise ValueError(
                    f"cannot draw {W} distinct weight-{weight} rows of length {N}")
            budget -= 1
            row[:] = _constant_weight_rows(rng, 1, N, weight)[0]
        seen.add(row.tobytes())


def gen_min_dist(W: int, N: int, weight: int = 10, trials: int = 50,
                 seed: int = 0) -> Codebook:
    """Best-of-``trials`` random constant-weight codebook by min pairwise distance.

    Trial t owns child t of ``SeedSequence([seed, W, N, weight]).spawn(trials)``:
    it draws one (W, N) uniform block whose rows become uniform weight-``weight``
    words, and then, only if two rows coincide, redraws the later duplicates in
    row order from the same child. At most 200 W rows are drawn per trial. All
    trials are scored by one stacked Gram product and the first trial with the
    largest minimum distance wins. A trial depends only on its own child, so
    for a fixed seed the achieved distance is monotone in ``trials``. Block
    draws keep a trial to a few array operations; they give other books for a
    seed than the earlier row-by-row ``Generator.choice`` draws, with the same
    law (uniform distinct constant-weight rows, best of ``trials``).
    """
    if W < 1 or N < 1:
        raise ValueError(f"need W >= 1 and N >= 1, got W={W}, N={N}")
    if weight > N:
        raise ValueError(f"weight {weight} exceeds N={N}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    from math import comb
    if W > comb(N, weight):
        raise ValueError(f"only {comb(N, weight)} weight-{weight} words exist; W={W}")
    rngs = [np.random.default_rng(child)
            for child in np.random.SeedSequence([seed, W, N, weight]).spawn(trials)]
    books = np.stack([_constant_weight_rows(rng, W, N, weight) for rng in rngs])
    if W == 1:
        dists = np.full(trials, N)
    else:
        dists = _min_distances(books)
        for t in np.flatnonzero(dists == 0):
            _redraw_duplicates(books[t], rngs[t], weight, budget=199 * W)
            dists[t] = _min_distances(books[t:t + 1])[0]
    best = int(np.argmax(dists))   # the first trial with the largest distance
    return Codebook(books[best], kind=f"mindist(weight={weight},dist={dists[best]})",
                    seed=seed)


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
    # Split every row at once on the UTF-8 bytes; "," and "\n" never occur inside
    # a multi-byte character, so byte cells are the text's cells.
    text = "\n".join(body).encode()
    raw = np.frombuffer(text, dtype=np.uint8)
    sep = np.flatnonzero((raw == ord(",")) | (raw == ord("\n")))
    start = np.concatenate(([0], sep + 1))            # cells in row-major order
    size = np.concatenate((sep, [raw.size])) - start
    row = np.concatenate(([0], np.cumsum(raw[sep] == ord("\n"))))
    widths = np.bincount(row, minlength=W)
    is_bit = size == 1
    first = raw[start[is_bit]]
    is_bit[is_bit] = (first == ord("0")) | (first == ord("1"))
    # the first bad row wins; within a row its length is checked before its cells
    bad_len, bad_cell = np.flatnonzero(widths != N), np.flatnonzero(~is_bit)
    i = bad_len[0] if bad_len.size else W
    if bad_cell.size and row[bad_cell[0]] < i:
        k = bad_cell[0]
        cell = text[start[k]:start[k] + size[k]].decode()
        raise ValueError(f"{path}: row {row[k]} entry {cell!r} is not 0/1")
    if i < W:
        raise ValueError(f"{path}: row {i} has {widths[i]} entries, expected N={N}")
    return Codebook(raw[::2].reshape(W, N) - ord("0"), kind=kind, seed=seed)
