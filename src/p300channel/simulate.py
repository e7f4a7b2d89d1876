"""Monte Carlo spelling experiments: uniform target, transmission, MAP decoding."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .channel import AwgnNoise, ChannelSpec, ChannelState, GROUND, apply_noise, fsm_response
from .codebooks import Codebook, gen_mbc
from .rates import maxentropic_source


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion (z = 1.96), within [0, 1]."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * np.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    # at k = 0 or k = n the bound that should be exact misses 0 or 1 by rounding
    return max(0.0, float(center - half)), min(1.0, float(center + half))


def response_matrix(book: Codebook, channel: ChannelSpec,
                    s0: ChannelState = GROUND) -> np.ndarray:
    """Gate responses z(w) of every codebook row."""
    return fsm_response(book.matrix, channel.refractory_len, s0)


def _log_likelihoods(Y: np.ndarray, Z: np.ndarray, noise) -> np.ndarray:
    """Per-row log-likelihood scores, shape (batch, W), up to a term equal across rows.

    Each distinct gate response is scored once by the law's ``score`` and the
    scores are gathered back to the rows, so rows with the same response
    (refractory twins) get bit-identical scores and ties go to the lowest
    index.
    """
    Zu, inv = np.unique(Z, axis=0, return_inverse=True)
    return noise.score(Y.astype(np.float64, copy=False), Zu.astype(np.float64))[:, inv]


def _decode(Y: np.ndarray, Z: np.ndarray, noise) -> np.ndarray:
    """MAP character of each observation row; ties go to the lowest index."""
    return np.argmax(_log_likelihoods(Y, Z, noise), axis=1)


def map_decode(y, book: Codebook, channel: ChannelSpec,
               s0: ChannelState = GROUND) -> int:
    """Most likely character for one observation; ties go to the lowest index."""
    y = np.asarray(y)
    if y.ndim != 1 or y.shape[0] != book.num_trials:
        raise ValueError(f"observation length {y.shape} does not match N={book.num_trials}")
    Z = response_matrix(book, channel, s0)
    return int(_decode(y[None, :], Z, channel.noise)[0])


@dataclass(frozen=True)
class SimConfig:
    codebook: Codebook
    channel: ChannelSpec
    runs: int = 1000
    seed: int = 0
    s0: ChannelState = GROUND
    track_confusion: bool = False

    def __post_init__(self):
        if self.runs < 1:
            raise ValueError(f"runs must be >= 1, got {self.runs}")


@dataclass(frozen=True, eq=False)
class SimReport:
    """Accuracy estimate plus the configuration that produced it."""

    accuracy: float
    wilson_ci95: tuple[float, float]
    runs: int
    seed: int
    config: dict
    per_char_confusion: np.ndarray | None = field(default=None, repr=False)

    def to_dict(self) -> dict:
        out = {
            "accuracy": self.accuracy,
            "wilson_ci95": list(self.wilson_ci95),
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
    if cfg.s0.level > channel.refractory_len:
        raise ValueError(f"state R_{cfg.s0.level} does not exist for L={channel.refractory_len}")
    W, N = book.num_chars, book.num_trials
    Z = response_matrix(book, channel, cfg.s0)
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
        "s0": cfg.s0.level,
        "runs": cfg.runs,
    }
    return SimReport(accuracy=accuracy, wilson_ci95=wilson_interval(correct, cfg.runs),
                     runs=cfg.runs, seed=cfg.seed, config=config,
                     per_char_confusion=confusion)


# ---------------------------------------------------------------------------
# Parameter sweeps
# ---------------------------------------------------------------------------

SWEEP_COLUMNS = ("sigma2", "L", "codebook", "N", "runs",
                 "accuracy", "ci_lo", "ci_hi", "seed")


def _point_seed(master: int, index: int) -> int:
    return int(np.random.SeedSequence([master, index]).generate_state(1)[0])


def _sweep_row(sigma2: float, L: int, label: str, book: Codebook, runs: int,
               seed: int, s0: ChannelState) -> dict:
    channel = ChannelSpec(L, AwgnNoise(sigma2))
    row = {"sigma2": sigma2, "L": L, "codebook": label, "N": book.num_trials,
           "runs": runs, "seed": seed}
    try:
        rep = run_experiment(SimConfig(book, channel, runs=runs, seed=seed, s0=s0))
        row.update(accuracy=rep.accuracy, ci_lo=rep.wilson_ci95[0],
                   ci_hi=rep.wilson_ci95[1])
    except Exception as exc:  # keep sweeping; the point is reported as failed
        warnings.warn(f"sweep point (sigma2={sigma2}, L={L}, {label}) failed: {exc}")
        row.update(accuracy=float("nan"), ci_lo=float("nan"), ci_hi=float("nan"))
    return row


def sweep_awgn(books: dict[str, Codebook], L: int, sigma2_grid, runs: int,
               seed: int, s0: ChannelState = GROUND) -> list[dict]:
    """Accuracy of each codebook at every AWGN noise level; tidy rows."""
    grid = sorted(float(s) for s in sigma2_grid)
    if not grid or not books:
        raise ValueError("sweep needs a nonempty sigma2 grid and at least one codebook")
    rows = []
    for idx, (sigma2, label) in enumerate(
            (s, lbl) for s in grid for lbl in sorted(books)):
        rows.append(_sweep_row(sigma2, L, label, books[label], runs,
                               _point_seed(seed, idx), s0))
    return rows


def sweep_refractory(L_grid, sigma2: float, N: int, runs: int, seed: int,
                     W: int = 36, s0: ChannelState = GROUND) -> list[dict]:
    """Accuracy of the memory-based codebook as the refractory length grows.

    The codebook is regenerated for each channel: MBC(L) rows come from the
    rate-optimal source of that L.
    """
    grid = sorted(int(L) for L in L_grid)
    if not grid:
        raise ValueError("sweep needs a nonempty L grid")
    if any(L < 1 for L in grid):
        raise ValueError("refractory sweep needs L >= 1")
    rows = []
    for idx, L in enumerate(grid):
        pseed = _point_seed(seed, idx)
        try:
            book = gen_mbc(maxentropic_source(L), W, N, seed=pseed)
        except ValueError as exc:
            warnings.warn(f"sweep point L={L} failed to build MBC: {exc}")
            rows.append({"sigma2": sigma2, "L": L, "codebook": f"mbc(order={L})",
                         "N": N, "runs": runs, "seed": pseed,
                         "accuracy": float("nan"), "ci_lo": float("nan"),
                         "ci_hi": float("nan")})
            continue
        rows.append(_sweep_row(sigma2, L, book.kind, book, runs, pseed, s0))
    return rows


def sweep_rows_to_csv(rows: list[dict]) -> str:
    """Render tidy sweep rows in the canonical column order."""
    lines = [",".join(SWEEP_COLUMNS)]
    for row in rows:
        lines.append(",".join(repr(row[c]) if isinstance(row[c], float) else str(row[c])
                              for c in SWEEP_COLUMNS))
    return "\n".join(lines) + "\n"
