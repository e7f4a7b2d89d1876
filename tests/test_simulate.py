import itertools
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import erfc
from scipy.stats import binom, chisquare

from p300channel import (AwgnNoise, BinarySymmetric, ChannelSpec, Codebook,
                         SimConfig, fsm_response, gen_cbp, gen_mbc, gen_min_dist,
                         gen_rcp, map_decode, maxentropic_source, run_experiment,
                         wilson_interval)
from p300channel import simulate
from p300channel.simulate import sweep_awgn, sweep_refractory, sweep_rows_to_csv


def first_argmax(values) -> int:
    """Index of the largest value; ties go to the lowest index."""
    values = list(values)
    return values.index(max(values))


def exact_binary_likelihoods(y, Z, eps: float) -> list[Fraction]:
    """p(y | w) for every row, in exact rational arithmetic (eps = 0 is noiseless)."""
    e = Fraction(eps)
    n = len(y)
    out = []
    for z in Z:
        d = sum(int(a) != int(b) for a, b in zip(y, z))
        out.append(e ** d * (1 - e) ** (n - d))
    return out


def awgn_log_likelihoods(y, Z, variance: float) -> list[float]:
    """log p(y | w) up to a common constant, one row at a time."""
    return [-float(np.sum((y - z) ** 2)) / (2.0 * variance) for z in Z.astype(np.float64)]


def distinct_responses(Z) -> np.ndarray:
    """Distinct rows of Z in order of first appearance, as floats."""
    seen = dict.fromkeys(tuple(z) for z in Z.tolist())
    return np.array(list(seen), dtype=np.float64).reshape(len(seen), Z.shape[1])


def span_basis(Z) -> np.ndarray:
    """Orthonormal columns Q, min(N, D) of them, with every distinct row of Z in their span."""
    return np.linalg.qr(distinct_responses(Z).T)[0]


def _book(matrix) -> Codebook:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # duplicate rows are wanted here
        return Codebook(np.asarray(matrix), kind="t", seed=0)


@st.composite
def small_books(draw):
    """Random W x N books with W, N <= 8, often with repeated rows."""
    W, N = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    rows = draw(st.lists(st.lists(st.integers(0, 1), min_size=N, max_size=N),
                         min_size=W, max_size=W))
    for dst, src in draw(st.lists(st.tuples(st.integers(0, W - 1), st.integers(0, W - 1)),
                                  max_size=3)):
        rows[dst] = list(rows[src])
    return _book(rows)


class TestWilson:
    def test_brackets_the_point_estimate(self):
        lo, hi = wilson_interval(73, 100)
        assert lo < 0.73 < hi

    def test_extremes_stay_in_unit_interval(self):
        lo, hi = wilson_interval(0, 50)
        assert lo == 0.0 or lo > 0.0
        assert 0.0 <= lo < hi <= 1.0
        lo, hi = wilson_interval(50, 50)
        assert 0.0 <= lo < hi <= 1.0

    @pytest.mark.parametrize("all_correct", [False, True])
    def test_extremes_clamped_for_every_trial_count(self, all_correct):
        # unclamped, k = n gave ci_hi = 1 + 2e-16 for thousands of n (3000/3000 among them)
        for n in range(1, 20_001):
            lo, hi = wilson_interval(n if all_correct else 0, n)
            assert 0.0 <= lo <= hi <= 1.0
        assert wilson_interval(3000, 3000)[1] == 1.0

    def test_shrinks_with_trials(self):
        w1 = np.diff(wilson_interval(50, 100))
        w2 = np.diff(wilson_interval(5000, 10000))
        assert w2 < w1

    @pytest.mark.parametrize("successes", [-1, 4])
    def test_rejects_successes_outside_the_trials(self, successes):
        with pytest.raises(ValueError, match="successes"):
            wilson_interval(successes, 3)


class TestMapDecode:
    def test_exact_match_wins_noiseless(self):
        book = Codebook(np.array([[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0]]),
                        kind="t", seed=0)
        chan = ChannelSpec(1)
        z1 = fsm_response(book.matrix[1], 1)
        assert map_decode(z1, book, chan) == 1

    def test_awgn_two_rows_spec_example(self):
        book = Codebook(np.array([[1, 0], [0, 1]]), kind="t", seed=0)
        chan = ChannelSpec(1, AwgnNoise(1.0))
        # squared distances 0.02 vs 2.02 -> first character
        assert map_decode(np.array([0.9, -0.1]), book, chan) == 0

    def test_identical_responses_tie_to_lowest_index(self):
        # [1,1,0] and [1,0,0] have the same gate response at L=1
        book = Codebook(np.array([[0, 1, 1, 0], [0, 1, 0, 0], [1, 0, 0, 1]]),
                        kind="t", seed=0)
        chan = ChannelSpec(1)
        y = fsm_response(book.matrix[1], 1)
        assert map_decode(y, book, chan) == 0

    @pytest.mark.parametrize("sigma2", [1e-310, 5e-324])
    def test_awgn_subnormal_variance(self, sigma2):
        # a score divided by a subnormal variance overflowed to inf, and the
        # inf ties went to the lowest index: z_3 decoded as 2
        book = gen_rcp(36, 60, seed=1)
        chan = ChannelSpec(1, AwgnNoise(sigma2))
        for i in (0, 3, 35):
            assert map_decode(fsm_response(book.matrix[i], 1), book, chan) == i

    def test_length_mismatch_rejected(self):
        book = Codebook(np.array([[1, 0], [0, 1]]), kind="t", seed=0)
        with pytest.raises(ValueError):
            map_decode(np.array([1.0, 0.0, 0.0]), book, ChannelSpec(1, AwgnNoise(1.0)))

    def test_agrees_with_exhaustive_posterior_bsc(self):
        rng = np.random.default_rng(123)
        book = Codebook(rng.integers(0, 2, size=(4, 6)), kind="t", seed=0)
        eps = 0.1
        chan = ChannelSpec(1, BinarySymmetric(eps))
        Z = fsm_response(book.matrix, 1)
        for bits in itertools.product((0, 1), repeat=6):
            y = np.array(bits, dtype=np.int8)
            d = (y[None, :] != Z).sum(axis=1)
            posterior = (eps ** d) * ((1 - eps) ** (6 - d)) / 4.0
            posterior /= posterior.sum()
            assert map_decode(y, book, chan) == int(np.argmax(posterior))


class TestDecoderVsExhaustivePosterior:
    """The batched decoder of run_experiment and map_decode against the posterior."""

    @settings(max_examples=200, deadline=None)
    @given(book=small_books(), L=st.integers(0, 2),
           noise=st.one_of(st.just(BinarySymmetric(0.0)),
                           st.builds(BinarySymmetric, st.floats(0.0, 0.5))))
    def test_binary_on_every_output(self, book, L, noise):
        eps = noise.crossover
        chan = ChannelSpec(L, noise)
        Z = fsm_response(book.matrix, L)
        N = book.num_trials
        Y = np.array(list(itertools.product((0, 1), repeat=N)), dtype=np.int8)
        decoded = simulate._decode(Y, Z, noise)
        for y, got in zip(Y, decoded):
            want = first_argmax(exact_binary_likelihoods(y, Z, eps))
            assert got == want
            assert map_decode(y, book, chan) == want

    @settings(max_examples=150, deadline=None)
    @given(book=small_books(), L=st.integers(0, 2), sigma2=st.floats(1e-3, 1e3),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_awgn_on_random_outputs(self, book, L, sigma2, seed):
        noise = AwgnNoise(sigma2)
        chan = ChannelSpec(L, noise)
        Z = fsm_response(book.matrix, L)
        rng = np.random.default_rng(seed)
        targets = rng.integers(book.num_chars, size=20)
        Y = Z[targets] + np.sqrt(sigma2) * rng.standard_normal((20, book.num_trials))
        decoded = simulate._decode(Y, Z, noise)
        for y, got in zip(Y, decoded):
            want = first_argmax(awgn_log_likelihoods(y, Z, sigma2))
            assert got == want
            assert map_decode(y, book, chan) == want


def oracle_experiment(book: Codebook, channel: ChannelSpec, runs: int, seed: int):
    """Accuracy and confusion of the documented stream, decoded by brute force.

    One generator: all targets first, then each run's noise in turn, drawn
    one run at a time. An AWGN run draws m = min(N, D) normals xi, the
    coordinates of its noise in the basis Q of the span of the D distinct
    responses, and is decoded from the whole observation z_t + sigma Q xi.
    """
    W, N = book.matrix.shape
    Z = fsm_response(book.matrix, channel.refractory_len)
    noise = channel.noise
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    targets = rng.integers(W, size=runs)
    Q = span_basis(Z)
    confusion = np.zeros((W, W), dtype=np.int64)
    for t in targets:
        if isinstance(noise, AwgnNoise):
            y = Z[t] + np.sqrt(noise.variance) * (Q @ rng.standard_normal(Q.shape[1]))
            scores = awgn_log_likelihoods(y, Z, noise.variance)
        else:
            y = Z[t] ^ (rng.random(N) < noise.crossover)
            scores = exact_binary_likelihoods(y, Z, noise.crossover)
        confusion[t, first_argmax(scores)] += 1
    return np.trace(confusion) / runs, confusion


TWIN_ROWS = np.zeros((3, 12), dtype=np.int8)
TWIN_ROWS[0, :3] = [1, 1, 0]    # same L=1 gate response as row 1
TWIN_ROWS[1, :3] = [1, 0, 0]
TWIN_ROWS[2, 6:9] = [1, 0, 1]

STREAM_CASES = [
    ("rcp", ChannelSpec(1, AwgnNoise(2.0))),
    ("rcp", ChannelSpec(2, BinarySymmetric(0.2))),
    ("rcp", ChannelSpec(1)),
    ("rcp", ChannelSpec(0, BinarySymmetric(0.1))),
    ("twin", ChannelSpec(1, AwgnNoise(1e-4))),
    ("twin", ChannelSpec(1)),
    ("twin", ChannelSpec(2, BinarySymmetric(0.1))),
    ("rcp60", ChannelSpec(0, AwgnNoise(0.5))),   # 36 distinct responses of rank 11
]


def _stream_book(kind: str) -> Codebook:
    if kind == "twin":
        return Codebook(TWIN_ROWS, kind="twin", seed=0)
    return gen_rcp(36, 24 if kind == "rcp" else 60, seed=5)


class TestExperimentStream:
    @pytest.mark.parametrize("kind,chan", STREAM_CASES)
    def test_matches_independent_reimplementation(self, kind, chan):
        book = _stream_book(kind)
        rep = run_experiment(SimConfig(book, chan, runs=400, seed=11, track_confusion=True))
        accuracy, confusion = oracle_experiment(book, chan, 400, 11)
        assert rep.accuracy == accuracy
        assert np.array_equal(rep.per_char_confusion, confusion)

    @pytest.mark.parametrize("kind,chan", STREAM_CASES)
    def test_report_does_not_depend_on_block_size(self, kind, chan, monkeypatch):
        cfg = SimConfig(_stream_book(kind), chan, runs=150, seed=3, track_confusion=True)
        reports = []
        for block in (1, 7, 150, 10_000):
            monkeypatch.setattr(simulate, "_BLOCK", block)
            reports.append(run_experiment(cfg).to_dict())
        assert all(r == reports[0] for r in reports[1:])

    def test_targets_are_uniform(self):
        # confusion row sums count how often each target was drawn, whatever
        # the decoder did. A uniform draw gives p < 1e-3 for one seed in a
        # thousand; the seed is fixed, so the test is deterministic.
        book = gen_rcp(36, 24, seed=5)
        rep = run_experiment(SimConfig(book, ChannelSpec(1), runs=20_000, seed=2024,
                                       track_confusion=True))
        counts = rep.per_char_confusion.sum(axis=1)
        assert counts.sum() == 20_000
        assert chisquare(counts).pvalue > 1e-3

    @settings(max_examples=150, deadline=None)
    @given(book=small_books(), L=st.integers(0, 2), sigma2=st.floats(1e-3, 1e3),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(book=_book([[1, 0, 0], [0, 1, 0], [1, 1, 0], [1, 1, 0]]), L=0, sigma2=1.0,
             seed=0)   # twins, rank 2 < D = 3
    @example(book=_book([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 1], [0, 0, 0]]), L=1,
             sigma2=0.1, seed=1)   # N = 3 < D = 5
    def test_projected_draw_decides_like_the_full_observation(self, book, L, sigma2, seed):
        # any g whose coordinates in the span basis Q are the draw sigma xi,
        # whatever its part orthogonal to the span, gives the same decisions
        # through _decode of z_t + g
        noise, Z = AwgnNoise(sigma2), fsm_response(book.matrix, L)
        Q = span_basis(Z)
        rng = np.random.default_rng(seed)
        targets = rng.integers(book.num_chars, size=20)
        decided = simulate._transmit(Z, noise, targets, np.random.default_rng([seed, 1]))
        xi = np.random.default_rng([seed, 1]).standard_normal((20, Q.shape[1]))
        eta = rng.standard_normal((20, book.num_trials))
        g = np.sqrt(sigma2) * (xi @ Q.T + eta - (eta @ Q) @ Q.T)
        assert np.array_equal(decided, simulate._decode(Z[targets] + g, Z, noise))


BOUND_BOOK_SEEDS = {1: (101, 103, 104, 105), 2: (202, 203, 204, 205)}   # the acceptance books


def _decodable_books(L: int) -> dict[str, Codebook]:
    """One 36x60 book of each kind whose gate responses at L are distinct."""
    mbc, rcp, cbp, mindist = BOUND_BOOK_SEEDS[L]
    books = {"mbc": gen_mbc(maxentropic_source(L), 36, 60, seed=mbc),
             "rcp": gen_rcp(36, 60, seed=rcp),
             "cbp": gen_cbp(60, 3, seed=cbp),
             "mindist": gen_min_dist(36, 60, weight=10, trials=50, seed=mindist)}
    for book in books.values():
        assert len(distinct_responses(fsm_response(book.matrix, L))) == 36
    return books


class TestAccuracyBounds:
    @pytest.mark.parametrize("sigma2", [0.25, 0.5])
    @pytest.mark.parametrize("L", [1, 2])
    def test_awgn_error_count_lies_between_the_pairwise_bounds(self, L, sigma2):
        # for target i the MAP error is at least the chance of landing nearer
        # to some u_j than to u_i, Q(d_ij / 2 sigma), and at most the union of
        # those events (Proakis & Salehi, ch. 4). Neither decoding route holds
        # these bounds by construction. One-sided binomial tests at 1e-3.
        runs = 20_000
        for kind, book in _decodable_books(L).items():
            Z = fsm_response(book.matrix, L).astype(np.float64)
            d = np.sqrt(((Z[:, None] - Z[None]) ** 2).sum(axis=2))
            pair = 0.5 * erfc(d / (2.0 * np.sqrt(sigma2)) / np.sqrt(2.0))
            np.fill_diagonal(pair, 0.0)
            lo, hi = pair.max(axis=1).mean(), min(1.0, pair.sum(axis=1).mean())
            rep = run_experiment(SimConfig(book, ChannelSpec(L, AwgnNoise(sigma2)),
                                           runs=runs, seed=L))
            errors = runs - round(rep.accuracy * runs)
            assert binom.cdf(errors, runs, lo) >= 1e-3, (kind, errors, runs * lo)
            assert binom.sf(errors - 1, runs, hi) >= 1e-3, (kind, errors, runs * hi)


class TestRunExperiment:
    def test_noiseless_distinct_responses_give_perfect_accuracy(self):
        book = gen_mbc(maxentropic_source(1), 36, 60, seed=2)
        rep = run_experiment(SimConfig(book, ChannelSpec(1), runs=400, seed=0))
        assert rep.accuracy == 1.0

    def test_chance_floor_under_huge_noise(self):
        # as sigma^2 grows the decision stops depending on the target, so the
        # count of correct runs tends to Binomial(runs, 1/36) exactly; at 1e4
        # the law still reads 0.0295, not 1/36. One-sided tests at 1e-3.
        book = gen_rcp(36, 60, seed=3)
        cfg = SimConfig(book, ChannelSpec(1, AwgnNoise(1e8)), runs=10_000, seed=1)
        correct = round(run_experiment(cfg).accuracy * cfg.runs)
        assert binom.cdf(correct, cfg.runs, 1 / 36) >= 1e-3
        assert binom.sf(correct - 1, cfg.runs, 1 / 36) >= 1e-3

    def test_seed_determinism(self):
        book = gen_rcp(36, 24, seed=5)
        cfg = SimConfig(book, ChannelSpec(1, AwgnNoise(2.0)), runs=300, seed=9,
                        track_confusion=True)
        a, b = run_experiment(cfg), run_experiment(cfg)
        assert a.accuracy == b.accuracy
        assert np.array_equal(a.per_char_confusion, b.per_char_confusion)

    def test_same_seed_same_report(self):
        book = gen_rcp(36, 24, seed=5)
        cfg = SimConfig(book, ChannelSpec(1, BinarySymmetric(0.2)), runs=250, seed=4,
                        track_confusion=True)
        a, b = run_experiment(cfg), run_experiment(cfg)
        assert a.to_dict() == b.to_dict()
        other = run_experiment(SimConfig(book, cfg.channel, runs=250, seed=5,
                                         track_confusion=True))
        assert not np.array_equal(other.per_char_confusion, a.per_char_confusion)

    def test_confusion_rows_count_trials(self):
        book = gen_rcp(36, 24, seed=6)
        cfg = SimConfig(book, ChannelSpec(1, AwgnNoise(3.0)), runs=500, seed=2,
                        track_confusion=True)
        rep = run_experiment(cfg)
        assert rep.per_char_confusion.sum() == 500
        assert rep.accuracy == np.trace(rep.per_char_confusion) / 500

    def test_refractory_twin_rows_confuse_at_low_noise(self):
        # [1,1,0,...] and [1,0,0,...] share a gate response at L=1, so the
        # decoder cannot separate them: all of the pair's mass lands on the
        # lower index (tie rule) and the confusion concentrates on the pair.
        rows = np.zeros((3, 12), dtype=np.int8)
        rows[0, :3] = [1, 1, 0]
        rows[1, :3] = [1, 0, 0]
        rows[2, 6:9] = [1, 0, 1]
        book = Codebook(rows, kind="twin", seed=0)
        assert np.array_equal(fsm_response(rows[0], 1), fsm_response(rows[1], 1))
        cfg = SimConfig(book, ChannelSpec(1, AwgnNoise(1e-4)), runs=3000, seed=7,
                        track_confusion=True)
        rep = run_experiment(cfg)
        conf = rep.per_char_confusion
        assert conf[:2, 2].sum() == 0 and conf[2, :2].sum() == 0
        # both twins decode identically, so target 1 is always misread as 0
        assert conf[0, 0] + conf[1, 0] == conf[:2].sum()
        n_pair = conf[:2].sum()
        assert rep.accuracy == pytest.approx(1 - conf[1, 0] / rep.runs)
        assert abs(conf[1, 0] / n_pair - 0.5) < 0.05   # uniform targets hit each twin

    def test_chance_floor_under_useless_bsc(self):
        # BSC(0.5) carries nothing: every run decodes to index 0 (tie rule),
        # landing exactly at the 1/W floor under uniform targets
        book = gen_rcp(36, 24, seed=8)
        cfg = SimConfig(book, ChannelSpec(1, BinarySymmetric(0.5)), runs=5000, seed=3)
        rep = run_experiment(cfg)
        lo, hi = rep.ci_lo, rep.ci_hi
        half_width = (hi - lo) / 2
        assert rep.accuracy >= 1 / 36 - 3 * half_width
        assert lo <= 1 / 36 <= hi

    def test_invalid_config(self):
        book = gen_rcp(36, 12, seed=1)
        with pytest.raises(ValueError):
            SimConfig(book, ChannelSpec(1), runs=0)


class TestSweeps:
    def test_awgn_sweep_shape_and_monotonicity(self):
        books = {"mbc": gen_mbc(maxentropic_source(1), 36, 60, seed=11),
                 "rcp": gen_rcp(36, 60, seed=12)}
        rows = sweep_awgn(books, L=1, sigma2_grid=[4.0, 0.5, 1.5], runs=800, seed=3)
        assert len(rows) == 6
        assert [r["sigma2"] for r in rows] == [0.5, 0.5, 1.5, 1.5, 4.0, 4.0]
        for label in books:
            acc = [r["accuracy"] for r in rows if r["codebook"] == label]
            ci = [(r["ci_lo"], r["ci_hi"]) for r in rows if r["codebook"] == label]
            for k in range(len(acc) - 1):
                assert acc[k] >= acc[k + 1] or ci[k][0] <= ci[k + 1][1]

    def test_refractory_sweep_regenerates_mbc(self):
        rows = sweep_refractory([2, 1], sigma2=1.0, N=60, runs=500, seed=5)
        assert [r["L"] for r in rows] == [1, 2]
        assert rows[0]["codebook"] == "mbc(order=1)"
        assert rows[1]["codebook"] == "mbc(order=2)"

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            sweep_awgn({"rcp": gen_rcp(36, 12, seed=0)}, 1, [], runs=10, seed=0)
        with pytest.raises(ValueError):
            sweep_refractory([], sigma2=1.0, N=60, runs=10, seed=0)

    def test_csv_rendering(self):
        books = {"rcp": gen_rcp(36, 12, seed=1)}
        rows = sweep_awgn(books, L=1, sigma2_grid=[1.0], runs=50, seed=2)
        text = sweep_rows_to_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "sigma2,L,codebook,N,runs,accuracy,ci_lo,ci_hi,seed"
        assert len(lines) == 2

    def test_failed_book_points_read_nan(self):
        # N=3 has too few distinct rows for 36 characters, so both books fail
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rows = sweep_refractory([1, 2], sigma2=1.5, N=3, runs=10, seed=1)
        assert len(rows) == 2
        for idx, (L, row) in enumerate(zip((1, 2), rows)):
            assert row["codebook"] == f"mbc(order={L})" and row["L"] == L
            assert row["N"] == 3 and row["seed"] == simulate._point_seed(1, idx)
            assert all(np.isnan(row[c]) for c in ("accuracy", "ci_lo", "ci_hi"))
        assert [w.category for w in caught] == [UserWarning, UserWarning]
        for L, w in zip((1, 2), caught):
            assert str(w.message).startswith(f"sweep point (sigma2=1.5, L={L}, mbc(order={L}))")

    def test_failed_experiment_reads_nan(self, monkeypatch):
        def broken(cfg):
            raise RuntimeError("decoder broke")

        monkeypatch.setattr(simulate, "run_experiment", broken)
        books = {"rcp": gen_rcp(36, 12, seed=1)}
        with pytest.warns(UserWarning, match=r"sweep point \(sigma2=1\.0, L=1, rcp\) failed: "
                                             r"decoder broke"):
            (row,) = sweep_awgn(books, 1, [1.0], runs=10, seed=2)
        assert row["codebook"] == "rcp" and row["N"] == 12
        assert row["seed"] == simulate._point_seed(2, 0)
        assert all(np.isnan(row[c]) for c in ("accuracy", "ci_lo", "ci_hi"))
        line = sweep_rows_to_csv([row]).splitlines()[1]
        assert line == f"1.0,1,rcp,12,10,nan,nan,nan,{row['seed']}"

    def test_sweep_deterministic(self):
        books = {"rcp": gen_rcp(36, 12, seed=1)}
        a = sweep_awgn(books, 1, [0.5, 2.0], runs=200, seed=8)
        b = sweep_awgn(books, 1, [0.5, 2.0], runs=200, seed=8)
        assert a == b
