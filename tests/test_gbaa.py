import itertools
import tracemalloc
import warnings

import numpy as np
import pytest

from p300channel import gbaa
from p300channel import (AwgnNoise, BinarySymmetric, ChannelSpec, GbaaConfig,
                         MarkovSource, apply_noise, binary_entropy, brute_force_mi, build_trellis,
                         entropy_rate, estimate_rate, fixed_point_a, fsm_response, gbaa_optimize,
                         maxentropic_source, noiseless_rate)
from gate_oracles import fsm_run
from rate_oracles import (control_variate_rate, edge_weights_loop, enumerated_prefixes,
                          history_entropy_means, normal_equations_fit, step_variates,
                          two_variate_rate, two_variate_terms)
from p300channel.gbaa import _edge_prob, _edge_weights, _scaled_backward, _scaled_forward
from p300channel.rates import ConvergenceError

GOLDEN_RATE = 0.6942419136306174


class TestEstimateRate:
    def test_noiseless_maxentropic_hits_rate(self):
        est = estimate_rate(maxentropic_source(1), ChannelSpec(1), n=100_000, seed=42)
        assert est.rate == pytest.approx(GOLDEN_RATE, abs=0.01)

    def test_useless_bsc_is_zero(self):
        est = estimate_rate(maxentropic_source(1),
                            ChannelSpec(1, BinarySymmetric(0.5)), n=50_000, seed=1)
        assert est.rate == pytest.approx(0.0, abs=0.01)

    def test_consistency_with_entropy_rate(self):
        # noiseless channel with a constrained source: x is a function of y, so
        # D_t = A_t and the estimate is the exact mean input entropy from ground.
        # That differs from the entropy rate by the transient from ground, whose
        # sum over t converges geometrically and is computed here to 2000 steps.
        src, n = MarkovSource.constrained(1, 0.30), 100_000
        est = estimate_rate(src, ChannelSpec(1), n=n, seed=7)
        assert abs(est.rate - history_entropy_means(src, n).mean()) < 1e-12
        assert est.std_err < 1e-12
        transient = (history_entropy_means(src, 2000) - entropy_rate(src)).sum()
        assert abs(transient) > 1e-3
        assert abs(est.rate - (entropy_rate(src) + transient / n)) < 1e-12

    @pytest.mark.parametrize("L", [1, 2, 3])
    def test_exact_at_the_noiseless_limit(self, L):
        # the maxentropic source never feeds the gate a blocked 1, so x = z = y,
        # D_t = A_t, and both the estimate and its standard error are exact
        src, n = maxentropic_source(L), 5000
        est = estimate_rate(src, ChannelSpec(L), n=n, seed=L)
        assert abs(est.rate - history_entropy_means(src, n).mean()) < 1e-12
        assert est.std_err <= 1e-12

    @pytest.mark.parametrize("L, noise, p1", [(1, AwgnNoise(0.5), [0.7, 0.3]),
                                              (2, BinarySymmetric(0.05), [0.34, 0.41, 0.34, 0.41])])
    def test_control_variates_unbiased_and_calibrated(self, monkeypatch, L, noise, p1):
        # 200 seeds: the control-variate estimate against the plain mean of D
        # from the same scan's block sums, paired; and its reported standard
        # error against its spread over the seeds
        src, chan, n = MarkovSource(L, np.array(p1)), ChannelSpec(L, noise), 20_000
        plain = []
        forward = gbaa._scaled_forward

        def spy(*args, **kwargs):
            out = forward(*args, **kwargs)
            plain.append(-out[1].sum() / n - noise.cond_entropy())
            return out

        monkeypatch.setattr(gbaa, "_scaled_forward", spy)
        ests = [estimate_rate(src, chan, n, seed) for seed in range(200)]
        rate = np.array([e.rate for e in ests])
        diff = rate - np.array(plain)
        assert abs(diff.mean()) <= 3 * diff.std(ddof=1) / np.sqrt(len(diff))
        rms_se = np.sqrt(np.mean([e.std_err ** 2 for e in ests]))
        assert 0.85 <= rms_se / rate.std(ddof=1) <= 1.15

    @pytest.mark.parametrize("p1", [
        np.random.default_rng(3).uniform(0.2, 0.8, 8),   # settles in a few levels
        [1e-3, 0.5, 1 - 1e-3, 0.5],                      # slow to mix
        [0.3, 0.0, 0.6, 1.0],   # ground's class and the closed {11}: rows never agree
    ])
    @pytest.mark.parametrize("n", [10, 4007])
    def test_entropy_block_sums_match_the_stepped_law(self, p1, n):
        # the doubling, with and without its early stop once T^(2^k) has
        # settled, against the history law stepped from ground one step at a time
        src = MarkovSource(int(np.log2(len(p1))), np.array(p1))
        ends = np.linspace(0, n, min(20, n) + 1, dtype=int)
        want = np.add.reduceat(history_entropy_means(src, n), ends[:-1])
        assert gbaa._entropy_block_sums(src, ends) == pytest.approx(want, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("p1", [[0.5, 0.5], [0.3, 0.6]])
    def test_a_variate_constant_up_to_rounding_is_left_out(self, monkeypatch, p1):
        # BSC 1e-10 over 1250 symbols: no bit flips, so B_t is the same float
        # every step, and the block means of 62 and 63 equal terms differ by
        # an ulp. Fitted, that B column is collinear with the intercept; left
        # out, the estimate is the normal-equations fit on the other variates
        # of the same block sums: R_q and R_h under the uniform source, whose
        # A'_t = 0 and S_t = 1 are constant too, and A', S, R_q and R_h under
        # the other. It stays within the combined SE of the plain mean of D
        # under the other source, and within 3 of them under the uniform one,
        # whose estimate was the plain mean itself before R_q and R_h.
        src, n = MarkovSource(1, np.array(p1)), 1250
        chan = ChannelSpec(1, BinarySymmetric(1e-10))
        ends = np.linspace(0, n, 21, dtype=int)
        lens = np.diff(ends)
        assert set(lens) == {62, 63}
        es = np.add.reduceat(history_entropy_means(src, n), ends[:-1]) / lens
        seen = []
        forward, sums = gbaa._scaled_forward, gbaa._control_sums
        monkeypatch.setattr(gbaa, "_scaled_forward",
                            lambda *a, **k: seen.append(forward(*a, **k)) or seen[-1])
        monkeypatch.setattr(gbaa, "_control_sums", lambda *a: seen.append(sums(*a)) or seen[-1])
        for seed in range(3):
            est = estimate_rate(src, chan, n, seed)
            d = -seen[-2][1] / lens
            a1, s, b, vq, vh = seen[-1] / lens
            assert np.ptp(b) <= 1e-12 * np.abs(b).max()
            assert (np.ptp(a1) == np.ptp(s) == 0.0) == (p1 == [0.5, 0.5])
            variates = [(d - vq, 0.0, d), (d - vh, 0.0, d)]
            if p1 != [0.5, 0.5]:
                variates += [(a1, 0.0, a1), (s, es, s)]
            icpt, se = normal_equations_fit(d - es, variates, lens)
            H = chan.noise.cond_entropy()
            assert est.rate == pytest.approx(es @ lens / n + icpt - H, abs=1e-12)
            assert est.std_err == pytest.approx(se, abs=1e-12)
            plain = d @ lens / n - H
            plain_se = np.sqrt(lens @ (d - d @ lens / n) ** 2 / (len(lens) - 1) / n)
            slack = 3.0 if p1 == [0.5, 0.5] else 1.0
            assert abs(est.rate - plain) <= slack * np.hypot(est.std_err, plain_se)

    def test_upper_bound_respected(self):
        rng = np.random.default_rng(3)
        for L in (1, 2):
            bound = noiseless_rate(L).rate
            for _ in range(4):
                src = MarkovSource(L, rng.random(1 << L))
                est = estimate_rate(src, ChannelSpec(L), n=30_000,
                                    seed=int(rng.integers(1 << 31)))
                assert est.rate <= bound + 3 * max(est.std_err, 1e-4)

    def test_matches_brute_force_on_bsc(self):
        src = maxentropic_source(1)
        for eps in (0.0, 0.05, 0.2):
            chan = ChannelSpec(1, BinarySymmetric(eps))
            est = estimate_rate(src, chan, n=100_000, seed=17)
            assert abs(est.rate - brute_force_mi(src, chan, 12)) < 0.02

    def test_seeded_determinism(self):
        src = maxentropic_source(1)
        chan = ChannelSpec(1, AwgnNoise(0.5))
        a = estimate_rate(src, chan, n=20_000, seed=5)
        b = estimate_rate(src, chan, n=20_000, seed=5)
        assert a == b

    def test_std_err_shrinks_with_length(self):
        src = MarkovSource.constrained(1, 0.3)
        chan = ChannelSpec(1, AwgnNoise(1.0))
        se = [estimate_rate(src, chan, n=n, seed=9).std_err
              for n in (10_000, 160_000)]
        assert se[1] < se[0] / 2   # ~1/sqrt(16) ideally

    def test_estimate_outside_the_unit_range_is_returned_raw_and_warns(self):
        # 10 symbols read 1.434 bit, 12.6 SE above the ceiling, and -0.039 bit,
        # 0.4 SE below the floor, which stays quiet; clipping would hide both
        source = MarkovSource(3, np.random.default_rng(3).uniform(0.3, 0.7, 8))
        channel = ChannelSpec(2, BinarySymmetric(0.02))
        with pytest.warns(UserWarning, match=r"estimate 1\.434.* outside \[-3 SE, 1 \+ 3 SE\]"):
            high = estimate_rate(source, channel, 10, seed=0)
        assert high.rate > 1.0 + 3.0 * high.std_err
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            low = estimate_rate(source, channel, 10, seed=2)
            # a deterministic source carries nothing: -2.2e-16 bit, 4 SE below
            # 0, is rounding, which the 1e-12 allowance keeps quiet
            periodic = estimate_rate(MarkovSource(2, [1.0, 0.0, 0.0, 0.0]),
                                     ChannelSpec(2, AwgnNoise(0.25)), 3000, seed=2)
        assert -3.0 * low.std_err < low.rate < 0.0
        assert -1e-12 < periodic.rate < -3.0 * periodic.std_err

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError, match="n must be"):
            estimate_rate(maxentropic_source(1), ChannelSpec(1), n=0, seed=0)

    def test_variance_below_the_floor_rejected(self):
        # below sigma = 2^-32 the simulated noise does not survive rounding
        # (z + g rounds toward z), so the closed-form H(Y|X) no longer describes
        # the block; at sigma^2 = 1e-300 the rate read 0.497 instead of ~0.678
        src = MarkovSource.uniform(1)
        for var in (1e-300, 2.0 ** -65):
            chan = ChannelSpec(1, AwgnNoise(var))
            with pytest.raises(ValueError, match="below 2\\^-64"):
                estimate_rate(src, chan, n=1000, seed=3)
            with pytest.raises(ValueError, match="below 2\\^-64"):
                gbaa_optimize(chan, GbaaConfig(order=1, sample_len=1000, max_iters=1))
        at_floor = estimate_rate(src, ChannelSpec(1, AwgnNoise(2.0 ** -64)), n=100_000, seed=3)
        noiseless = estimate_rate(src, ChannelSpec(1), n=100_000, seed=3)
        assert abs(at_floor.rate - noiseless.rate) < 5 * max(at_floor.std_err, 0.0032)

    def test_reducible_source_rejected(self):
        with pytest.raises(ValueError, match="recurrent"):
            estimate_rate(MarkovSource(1, np.array([0.0, 1.0])), ChannelSpec(1),
                          n=1000, seed=0)


def _enumerated_log2_py(source, L, eps, y):
    """log2 p(y) from ground, summed over every input, by the gate fold."""
    n = y.size
    total = 0.0
    for bits in itertools.product((0, 1), repeat=n):
        p, h = 1.0, 0
        for b in bits:
            p *= source.p1[h] if b else 1.0 - source.p1[h]
            h = ((h << 1) | b) & (source.num_histories - 1)
        z, _ = fsm_run(np.array(bits), L)
        d = int(np.sum(z != y))
        total += p * eps ** d * (1.0 - eps) ** (n - d)
    return float(np.log2(total))


class TestInitialState:
    @pytest.mark.parametrize("L, r", [(1, 1), (1, 2), (2, 1), (2, 2), (2, 3)])
    def test_forward_matches_enumeration_from_ground(self, L, r):
        eps = 0.1
        rng = np.random.default_rng(10 * L + r)
        source = MarkovSource(r, rng.uniform(0.1, 0.9, 1 << r))
        channel = ChannelSpec(L, BinarySymmetric(eps))
        tr = build_trellis(r, L)
        y = rng.integers(0, 2, 9).astype(np.int8)
        f = channel.noise.emission(y.astype(np.float64))
        _, log2c, q = _scaled_forward(tr, _edge_prob(tr, source), f, np.array([0, 9]))
        assert log2c.sum() == pytest.approx(_enumerated_log2_py(source, L, eps, y), abs=1e-12)
        want_q = enumerated_prefixes(source, L, channel.noise, y)[1]
        assert np.max(np.abs(q - want_q)) < 1e-12

    @pytest.mark.parametrize("L, r", [(1, 1), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
    @pytest.mark.filterwarnings("ignore:rate estimate")   # 10 symbols can read above 1 bit
    def test_estimate_rate_starts_source_gate_and_forward_at_s0(self, L, r):
        # S_0 is ground: the block estimate_rate scores is the one drawn here.
        # D_t and q_t come from enumerating every input sequence, and the
        # control variates from the oracles' own per-step terms and E[S] on
        # that block, fitted by the normal equations.
        eps, n = 0.02, 10
        source = MarkovSource(r, np.random.default_rng(r).uniform(0.3, 0.7, 1 << r))
        channel = ChannelSpec(L, BinarySymmetric(eps))
        ES = history_entropy_means(source, n)
        for seed in range(3):
            rng = np.random.default_rng(seed)
            x = source.sample(n, rng)
            z = fsm_response(x, L)
            y = apply_noise(z, channel.noise, rng)
            log2p, q = enumerated_prefixes(source, L, channel.noise, y)
            terms = step_variates(source, L, channel.noise, x, y,
                                  channel.noise.emission(y.astype(np.float64)), q)
            want, want_se = control_variate_rate(-np.diff(log2p), terms, ES, binary_entropy(eps),
                                                 np.arange(n + 1))
            est = estimate_rate(source, channel, n, seed)
            assert est.rate == pytest.approx(want, abs=1e-12)
            assert est.std_err == pytest.approx(want_se, abs=1e-12)


class TestForwardRecursion:
    def test_posteriors_normalized(self):
        src = maxentropic_source(2)
        chan = ChannelSpec(2, AwgnNoise(0.5))
        rng = np.random.default_rng(0)
        x = src.sample(2000, rng)
        from p300channel import fsm_response, apply_noise
        y = apply_noise(fsm_response(x, 2), chan.noise, rng)
        tr = build_trellis(2, 2)
        alphas, _, _ = _scaled_forward(tr, _edge_prob(tr, src),
                                       chan.noise.emission(y.astype(float)), np.array([0, 2000]))
        assert np.allclose(alphas.sum(axis=1), 1.0, atol=1e-9)

    def test_conditional_term_closed_forms(self):
        assert BinarySymmetric(0.0).cond_entropy() == 0.0
        assert BinarySymmetric(0.2).cond_entropy() == pytest.approx(0.7219280948873623)
        assert AwgnNoise(1.0).cond_entropy() == pytest.approx(0.5 * np.log2(2 * np.pi * np.e))


def _posteriors(source, L, noise, n, seed):
    """(trellis, edge probabilities, alphas, betas, emission table) of one simulated block."""
    rng = np.random.default_rng(seed)
    y = apply_noise(fsm_response(source.sample(n, rng), L), noise, rng)
    tr = build_trellis(source.order, L)
    prob = _edge_prob(tr, source)
    f = noise.emission(np.asarray(y, dtype=np.float64))
    alphas = _scaled_forward(tr, prob, f, np.array([0, n]))[0]
    return tr, prob, alphas, _scaled_backward(tr, prob, f), f


def _block_rows(S):
    return max(1, 2 ** 15 // (2 * S))


def _assert_matches_loop(args):
    got, want = _edge_weights(*args), edge_weights_loop(*args)
    assert np.array_equal(got == 0.0, want == 0.0)
    assert np.max(np.abs(got - want) / np.where(want > 0.0, want, 1.0)) < 1e-12
    return got


class TestEdgeWeights:
    """The time-blocked edge metric against the per-edge loop over the whole posterior table."""

    @pytest.mark.parametrize("L, r", [(1, 1), (2, 3), (2, 6)])   # S = 2, 8, 64
    def test_matches_the_per_edge_loop_at_every_block_edge(self, L, r):
        rows = _block_rows(1 << r)
        src = MarkovSource(r, np.random.default_rng(r).uniform(0.1, 0.9, 1 << r))
        for n in (1, rows - 1, rows, rows + 1, 3 * rows + 7):
            _assert_matches_loop(_posteriors(src, L, AwgnNoise(0.5), n, seed=n))

    @pytest.mark.parametrize("L", [1, 2, 3])
    def test_noiseless_blocked_edges_weigh_exactly_zero(self, L):
        n = 3 * _block_rows(1 << L) + 7
        args = _posteriors(maxentropic_source(L), L, BinarySymmetric(0.0), n, seed=L)
        prob = args[1]
        weights = _assert_matches_loop(args)
        assert np.any(prob == 0.0) and np.all(weights[prob == 0.0] == 0.0)
        # noiseless: every visited edge has T = 0; edges out of unreachable states weigh 0
        assert np.all((weights == 0.0) | (np.abs(weights - 1.0) < 1e-12))

    def test_collapse_in_a_later_block_raises(self):
        rows = _block_rows(8)
        tr, prob, alphas, betas, f = _posteriors(maxentropic_source(2), 2, AwgnNoise(0.5),
                                                 3 * rows + 7, seed=3)
        alphas[2 * rows + 5] = 0.0   # no posterior mass at one step of the third block
        for fn in (_edge_weights, edge_weights_loop):
            with pytest.raises(ConvergenceError, match="posterior normalization collapsed"):
                fn(tr, prob, alphas, betas, f)

    def test_peak_memory_holds_no_table_with_n_rows(self):
        n, r = 50_000, 6   # S = 64: the full (n, 2S) posterior table alone is 51 MB
        rng = np.random.default_rng(0)
        tr = build_trellis(r, 2)
        prob = _edge_prob(tr, MarkovSource(r, rng.uniform(0.1, 0.9, 1 << r)))
        alphas, betas = rng.random((2, n + 1, 1 << r))
        f = AwgnNoise(0.5).emission(rng.integers(0, 2, n).astype(np.float64))
        tracemalloc.start()
        try:
            _edge_weights(tr, prob, alphas, betas, f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20


class TestGbaaOptimize:
    def test_bsc0_recovers_closed_form_L2(self):
        chan = ChannelSpec(2, BinarySymmetric(0.0))
        cfg = GbaaConfig(order=2, sample_len=15_000, max_iters=20, seed=5)
        src, est, trace = gbaa_optimize(chan, cfg)
        target = noiseless_rate(2).rate
        assert abs(est.rate - target) / target < 0.01
        assert abs(src.p1[0] - fixed_point_a(2)) < 0.02

    def test_huge_noise_rate_near_zero(self):
        chan = ChannelSpec(1, AwgnNoise(1e3))
        src, est, trace = gbaa_optimize(chan, GbaaConfig(order=1, sample_len=20_000,
                                                         max_iters=6, seed=3))
        assert est.rate < 0.01

    def test_trace_non_decreasing_up_to_noise(self):
        chan = ChannelSpec(1, BinarySymmetric(0.0))
        cfg = GbaaConfig(order=1, sample_len=15_000, max_iters=15, seed=2)
        _, _, trace = gbaa_optimize(chan, cfg)
        slack = 3 * 0.5 / np.sqrt(cfg.sample_len)   # ~3x the per-iteration std err
        assert all(b >= a - slack for a, b in zip(trace, trace[1:]))

    def test_trace_bounded_by_max_iters(self):
        chan = ChannelSpec(1, BinarySymmetric(0.1))
        cfg = GbaaConfig(order=1, sample_len=2_000, max_iters=4, seed=1)
        _, _, trace = gbaa_optimize(chan, cfg)
        assert 1 <= len(trace) <= 4

    def test_seeded_determinism(self):
        chan = ChannelSpec(1, AwgnNoise(0.5))
        cfg = GbaaConfig(order=1, sample_len=3_000, max_iters=3, seed=11)
        a = gbaa_optimize(chan, cfg)
        b = gbaa_optimize(chan, cfg)
        assert np.array_equal(a[0].p1, b[0].p1)
        assert a[1] == b[1]
        assert a[2] == b[2]

    def test_order_below_channel_memory_rejected(self):
        with pytest.raises(ValueError, match="order"):
            gbaa_optimize(ChannelSpec(2, AwgnNoise(0.1)), GbaaConfig(order=1, seed=0))

    def test_order_above_channel_memory_allowed(self):
        chan = ChannelSpec(1, BinarySymmetric(0.0))
        cfg = GbaaConfig(order=2, sample_len=10_000, max_iters=8, seed=6)
        src, est, _ = gbaa_optimize(chan, cfg)
        assert src.order == 2
        assert est.rate == pytest.approx(noiseless_rate(1).rate, abs=0.02)

    def test_last_update_skipped(self, monkeypatch):
        # the update after the last iteration would never be used, so its
        # backward pass must not run
        calls = []
        backward = gbaa._scaled_backward
        monkeypatch.setattr(gbaa, "_scaled_backward",
                            lambda *a: calls.append(1) or backward(*a))
        cfg = GbaaConfig(order=1, sample_len=2_000, max_iters=3, seed=4)
        _, _, trace = gbaa_optimize(ChannelSpec(1, AwgnNoise(0.5)), cfg)
        assert len(trace) == 3
        assert len(calls) == 2

    def test_last_iteration_keeps_no_alphas(self, monkeypatch):
        # max_iters - 1 = 2 updating iterations, each a forward and a backward
        # pass that keep their (n+1, S) tables; then the final iterate is not
        # simulated at sample_len but re-scored once on max(2 len, 20,000)
        # symbols, with no table, and so is the leading earlier iterate if
        # any. Every pass is one call of the scan: (length, table built).
        scans = []
        scan = gbaa._chunked_scan

        def spy(f, *args, **kwargs):
            out = scan(f, *args, **kwargs)
            scans.append((f.shape[0], out[0] is not None))
            return out

        monkeypatch.setattr(gbaa, "_chunked_scan", spy)
        cfg = GbaaConfig(order=1, sample_len=2_000, max_iters=3, seed=4)
        gbaa_optimize(ChannelSpec(1, AwgnNoise(0.5)), cfg)
        assert scans[:4] == [(2_000, True)] * 4
        assert scans[4:] in ([(20_000, False)], [(20_000, False)] * 2)


class TestRescorePrecision:
    """The re-score is no less precise than the two-variate fit it replaced at its old length.

    gbaa_optimize re-scores on max(2 len, 20,000) symbols with the five
    variates; before, it took max(4 len, 50,000) with A and B alone, the
    fit kept as the oracles' ``two_variate_rate``. At the benchmark's
    len 1e4 these are 20,000 and 50,000 symbols. The sd of each over its
    own seeds must not exceed the old one's by more than 15%.
    """

    @pytest.mark.parametrize("L, noise, source, seeds", [
        (1, AwgnNoise(0.5), MarkovSource.uniform(1), 40),
        (3, AwgnNoise(0.05), maxentropic_source(3), 120),
    ], ids=["L1-AWGN-0.5-uniform", "L3-AWGN-0.05-maxentropic"])
    def test_rescore_sd_within_the_two_variate_sd(self, L, noise, source, seeds):
        chan = ChannelSpec(L, noise)
        n_new, n_old = max(2 * 10_000, 20_000), max(4 * 10_000, 50_000)
        new = [estimate_rate(source, chan, n_new, seed).rate for seed in range(seeds)]
        tr, EA = build_trellis(L, L), history_entropy_means(source, n_old)
        ends = np.linspace(0, n_old, 21, dtype=int)
        old = []
        for seed in range(seeds, 2 * seeds):
            rng = np.random.default_rng(seed)
            x = source.sample(n_old, rng)
            f = noise.emission(apply_noise(fsm_response(x, L), noise, rng))
            log2c = _scaled_forward(tr, _edge_prob(tr, source), f, np.arange(n_old + 1), False)[1]
            A, B = two_variate_terms(source, L, x, f)
            old.append(two_variate_rate(-log2c, A, EA, B, noise.cond_entropy(), ends)[0])
        assert np.std(new, ddof=1) <= 1.15 * np.std(old, ddof=1)
