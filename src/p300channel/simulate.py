"""Monte Carlo spelling experiments: uniform target, transmission, MAP decoding."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .channel import AwgnNoise, ChannelSpec, apply_noise, fsm_response
from .codebooks import Codebook, gen_mbc
from .rates import maxentropic_source


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion (z = 1.96), within [0, 1]."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes must lie in 0..{trials}, got {successes}")
    z = 1.96
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * np.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    # at k = 0 or k = n the bound that should be exact misses 0 or 1 by rounding
    return max(0.0, float(center - half)), min(1.0, float(center + half))


def _decode(Y: np.ndarray, Z: np.ndarray, noise) -> np.ndarray:
    """MAP character of each observation row; ties go to the lowest index.

    Each distinct gate response is scored once by the law's ``score`` and the
    scores are gathered back to the rows, so rows with the same response
    (refractory twins) get bit-identical scores.
    """
    rows = np.ascontiguousarray(Z).view(np.dtype((np.void, Z.shape[1] * Z.dtype.itemsize)))
    _, first, inv = np.unique(rows.ravel(), return_index=True, return_inverse=True)
    return np.argmax(noise.score(Y.astype(np.float64, copy=False),
                                 Z[first].astype(np.float64))[:, inv], axis=1)


def map_decode(y, book: Codebook, channel: ChannelSpec) -> int:
    """Most likely character for one observation; ties go to the lowest index."""
    y = np.asarray(y)
    if y.ndim != 1 or y.shape[0] != book.num_trials:
        raise ValueError(f"observation length {y.shape} does not match N={book.num_trials}")
    Z = fsm_response(book.matrix, channel.refractory_len)
    return int(_decode(y[None, :], Z, channel.noise)[0])


def _check_runs(runs: int) -> None:
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")


@dataclass(frozen=True)
class SimConfig:
    codebook: Codebook
    channel: ChannelSpec
    runs: int = 1000
    seed: int = 0
    track_confusion: bool = False

    def __post_init__(self):
        _check_runs(self.runs)


@dataclass(frozen=True, eq=False)
class SimReport:
    """Accuracy estimate plus the configuration that produced it."""

    accuracy: float
    ci_lo: float   # 95% Wilson interval of the accuracy
    ci_hi: float
    runs: int
    seed: int
    config: dict
    per_char_confusion: np.ndarray | None = field(default=None, repr=False)

    def to_dict(self) -> dict:
        out = {
            "accuracy": self.accuracy,
            "ci_lo": self.ci_lo,
            "ci_hi": self.ci_hi,
            "runs": self.runs,
            "seed": self.seed,
            "config": self.config,
        }
        if self.per_char_confusion is not None:
            out["per_char_confusion"] = self.per_char_confusion.tolist()
        return out


_BLOCK = 4096   # runs per noise draw and decode; the report does not depend on it


def run_experiment(cfg: SimConfig) -> SimReport:
    """Spell ``runs`` uniformly drawn targets and score the MAP decoder.

    One generator, ``default_rng(SeedSequence(seed))``, drives the whole
    experiment. It first draws every target with one ``integers(W, size=runs)``
    call, then the noise of run 0, run 1, ... in turn: N normals (AWGN) or N
    uniforms (BSC, crossover 0 included) per run. The runs are
    transmitted and decoded in blocks of rows, and since the generator yields
    the same values however a draw is split, the blocking does not change
    the report.
    """
    book, channel = cfg.codebook, cfg.channel
    W, N = book.num_chars, book.num_trials
    Z = fsm_response(book.matrix, channel.refractory_len)
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    targets = rng.integers(W, size=cfg.runs)
    decoded = np.empty(cfg.runs, dtype=np.int64)
    for lo in range(0, cfg.runs, _BLOCK):
        Y = apply_noise(Z[targets[lo:lo + _BLOCK]], channel.noise, rng)
        decoded[lo:lo + _BLOCK] = _decode(Y, Z, channel.noise)

    correct = int(np.sum(decoded == targets))
    accuracy = correct / cfg.runs
    confusion = None
    if cfg.track_confusion:
        confusion = np.bincount(targets * W + decoded, minlength=W * W).reshape(W, W)
    config = {
        "W": W,
        "N": N,
        "codebook": book.kind,
        "codebook_seed": book.seed,
        "L": channel.refractory_len,
        "noise": channel.noise.summary(),
        "runs": cfg.runs,
    }
    ci_lo, ci_hi = wilson_interval(correct, cfg.runs)
    return SimReport(accuracy=accuracy, ci_lo=ci_lo, ci_hi=ci_hi, runs=cfg.runs,
                     seed=cfg.seed, config=config, per_char_confusion=confusion)


# ---------------------------------------------------------------------------
# Parameter sweeps
# ---------------------------------------------------------------------------

SWEEP_COLUMNS = ("sigma2", "L", "codebook", "N", "runs",
                 "accuracy", "ci_lo", "ci_hi", "seed")


def _point_seed(master: int, index: int) -> int:
    return int(np.random.SeedSequence([master, index]).generate_state(1)[0])


def _sweep_row(sigma2: float, L: int, label: str, N: int, make_book, runs: int, seed: int) -> dict:
    """One tidy row; a point whose book or experiment fails warns and reads NaN."""
    channel = ChannelSpec(L, AwgnNoise(sigma2))   # an invalid sigma2 fails the whole sweep
    row = {"sigma2": sigma2, "L": L, "codebook": label, "N": N, "runs": runs, "seed": seed}
    try:
        rep = run_experiment(SimConfig(make_book(), channel, runs=runs, seed=seed))
        row.update(accuracy=rep.accuracy, ci_lo=rep.ci_lo, ci_hi=rep.ci_hi)
    except Exception as exc:  # keep sweeping; the point is reported as failed
        warnings.warn(f"sweep point (sigma2={sigma2}, L={L}, {label}) failed: {exc}")
        row.update(accuracy=float("nan"), ci_lo=float("nan"), ci_hi=float("nan"))
    return row


def sweep_awgn(books: dict[str, Codebook], L: int, sigma2_grid, runs: int, seed: int) -> list[dict]:
    """Accuracy of each codebook at every AWGN noise level; tidy rows."""
    grid = sorted(float(s) for s in sigma2_grid)
    if not grid or not books:
        raise ValueError("sweep needs a nonempty sigma2 grid and at least one codebook")
    _check_runs(runs)
    rows = []
    for idx, (sigma2, label) in enumerate(
            (s, lbl) for s in grid for lbl in sorted(books)):
        book = books[label]
        rows.append(_sweep_row(sigma2, L, label, book.num_trials, lambda: book, runs,
                               _point_seed(seed, idx)))
    return rows


def sweep_refractory(L_grid, sigma2: float, N: int, runs: int, seed: int,
                     W: int = 36) -> list[dict]:
    """Accuracy of the memory-based codebook as the refractory length grows.

    The codebook is regenerated for each channel: MBC(L) rows come from the
    rate-optimal source of that L.
    """
    grid = sorted(int(L) for L in L_grid)
    if not grid:
        raise ValueError("sweep needs a nonempty L grid")
    _check_runs(runs)
    if any(L < 1 for L in grid):
        raise ValueError("refractory sweep needs L >= 1")
    rows = []
    for idx, L in enumerate(grid):
        pseed = _point_seed(seed, idx)
        rows.append(_sweep_row(sigma2, L, f"mbc(order={L})", N,
                               lambda: gen_mbc(maxentropic_source(L), W, N, seed=pseed),
                               runs, pseed))
    return rows


def sweep_rows_to_csv(rows: list[dict], columns=SWEEP_COLUMNS) -> str:
    """Render rows as CSV in the given column order (floats by ``repr``)."""
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(repr(row[c]) if isinstance(row[c], float) else str(row[c])
                              for c in columns))
    return "\n".join(lines) + "\n"
