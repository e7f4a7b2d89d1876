import numpy as np
import pytest
from scipy.optimize import brentq

from p300channel import (BinarySymmetric, ChannelSpec, MarkovSource,
                         binary_entropy, brute_force_mi, constrained_family_rate,
                         entropy_rate, fixed_point_a, maxentropic_source,
                         noiseless_rate, perron_pair, rll_adjacency,
                         rll_capacity_perron)
from p300channel.channel import AwgnNoise, build_trellis
from p300channel.gbaa import _maxentropic_update
from p300channel.sources import ReducibleChainError

GOLDEN_RATE = 0.6942419136306174   # log2((1 + sqrt 5) / 2)


def largest_real_root_rate(L):
    """Independent route: companion-polynomial root of z^(L+1) = z^L + 1."""
    coeffs = np.zeros(L + 2)
    coeffs[0] = 1.0
    coeffs[1] = -1.0
    coeffs[-1] = -1.0
    roots = np.roots(coeffs)
    lam = max(r.real for r in roots if abs(r.imag) < 1e-9)
    return float(np.log2(lam))


class TestBinaryEntropy:
    def test_endpoints_by_continuity(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_symmetric_peak(self):
        assert binary_entropy(0.5) == 1.0
        assert binary_entropy(0.2) == pytest.approx(binary_entropy(0.8))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            binary_entropy(1.2)


class TestFixedPoint:
    def test_golden_ratio_value(self):
        assert fixed_point_a(1) == pytest.approx((3 - np.sqrt(5)) / 2, abs=1e-12)

    def test_memoryless_half(self):
        assert fixed_point_a(0) == pytest.approx(0.5, abs=1e-12)

    def test_against_brentq_oracle(self):
        for L in range(8):
            ref = brentq(lambda a: a - (1 - a) ** (L + 1), 0.0, 1.0, xtol=1e-14)
            assert fixed_point_a(L) == pytest.approx(ref, abs=1e-12)

    def test_residuals_below_1e12(self):
        for L in range(11):
            a = fixed_point_a(L)
            assert abs(a - (1 - a) ** (L + 1)) < 1e-12


class TestNoiselessRate:
    def test_memoryless_bit(self):
        assert noiseless_rate(0).rate == pytest.approx(1.0, abs=1e-12)

    def test_golden_rate(self):
        assert noiseless_rate(1).rate == pytest.approx(GOLDEN_RATE, abs=1e-10)

    def test_L2_cubic_root(self):
        assert noiseless_rate(2).rate == pytest.approx(largest_real_root_rate(2), abs=1e-9)

    def test_strictly_decreasing_in_L(self):
        rates = [noiseless_rate(L).rate for L in range(9)]
        assert all(a > b for a, b in zip(rates, rates[1:]))

    def test_family_rate_below_max_off_optimum(self):
        for L in (1, 2, 3):
            best = noiseless_rate(L).rate
            a_star = fixed_point_a(L)
            for a in (0.05, 0.2, a_star - 0.05, a_star + 0.05, 0.7, 0.95):
                assert constrained_family_rate(a, L) < best


class TestPerronRoute:
    def test_matches_closed_form_L0_to_8(self):
        for L in range(9):
            assert abs(noiseless_rate(L).rate - rll_capacity_perron(L).rate) < 1e-9

    def test_L1_golden(self):
        assert rll_capacity_perron(1).rate == pytest.approx(GOLDEN_RATE, abs=1e-9)

    def test_L0_full_shift(self):
        assert rll_capacity_perron(0).rate == pytest.approx(1.0, abs=1e-12)

    def test_L3_quartic_root(self):
        assert rll_capacity_perron(3).rate == pytest.approx(largest_real_root_rate(3), abs=1e-9)

    def test_adjacency_structure(self):
        A = rll_adjacency(2)
        assert A.tolist() == [[0, 1, 0], [0, 0, 1], [1, 0, 1]]
        assert rll_adjacency(0).tolist() == [[2]]

    def test_perron_pair_validation(self):
        with pytest.raises(ValueError):
            perron_pair(np.array([[1.0, -1.0], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            perron_pair(np.ones((2, 3)))

    def test_perron_pair_periodic(self):
        # irreducible with period 2: eigenvalues +-sqrt(2) have equal modulus
        A = np.array([[0.0, 2.0], [1.0, 0.0]])
        lam, v = perron_pair(A)
        assert lam == pytest.approx(np.sqrt(2.0), abs=1e-12)
        assert np.all(v > 0)
        assert np.allclose(A @ v, lam * v, atol=1e-12)
        assert v[0] / v[1] == pytest.approx(np.sqrt(2.0), abs=1e-12)

    @pytest.mark.parametrize("A, root", [
        ([[2.0, 1.0], [0.0, 1.0]], 2.0),                          # triangular
        ([[1.0, 0.0, 0.0], [0.0, 0.0, 3.0], [0.0, 3.0, 0.0]], 3.0),  # two classes, one periodic
    ])
    def test_perron_pair_reducible(self, A, root):
        A = np.array(A)
        lam, v = perron_pair(A)
        assert lam == pytest.approx(root, abs=1e-12)
        assert np.all(v >= 0)
        assert np.allclose(A @ v, lam * v, atol=1e-12)


class TestMaxentropicSource:
    def test_L1_probabilities(self):
        src = maxentropic_source(1)
        assert src.p1[0] == pytest.approx(0.3819660112501051, abs=1e-9)
        assert src.p1[1] == 0.0

    def test_L2_probabilities(self):
        src = maxentropic_source(2)
        assert src.p1[0] == pytest.approx(fixed_point_a(2), abs=1e-12)
        assert np.all(src.p1[1:] == 0.0)

    def test_agrees_with_eigenvector_construction(self):
        # Perron route: the GBAA update on the noiseless edge weights (0 on an
        # input 1 the gate blocks, 1 elsewhere) is the maxentropic chain
        for L in range(1, 9):
            tr = build_trellis(L, L)
            w = np.where((tr.edge_input == 1) & (tr.edge_z == 0), 0.0, 1.0)
            p1 = _maxentropic_update(tr, w)
            assert np.max(np.abs(p1 - maxentropic_source(L).p1)) < 1e-9

    def test_stationary_one_frequency(self):
        from p300channel import stationary_distribution
        for L in (1, 2, 3):
            src = maxentropic_source(L)
            a = fixed_point_a(L)
            pi = stationary_distribution(src)
            assert float(pi @ src.p1) == pytest.approx(a / (1 + L * a), abs=1e-10)

    def test_rejects_L0(self):
        with pytest.raises(ValueError):
            maxentropic_source(0)


class TestEntropyRate:
    def test_iid_fair_coin(self):
        assert entropy_rate(MarkovSource(1, np.array([0.5, 0.5]))) == pytest.approx(1.0)

    def test_achievability_L1_to_5(self):
        for L in range(1, 6):
            assert entropy_rate(maxentropic_source(L)) == pytest.approx(
                noiseless_rate(L).rate, abs=1e-9)

    def test_deterministic_source_zero(self):
        assert entropy_rate(MarkovSource(1, np.array([0.0, 0.0]))) == 0.0

    def test_reducible_chain_rejected(self):
        with pytest.raises(ReducibleChainError):
            entropy_rate(MarkovSource(1, np.array([0.0, 1.0])))


def exact_input_entropy(source, n):
    """H(X_1^n)/n from the all-zero history: the MI of the noiseless L = 0 channel."""
    return brute_force_mi(source, ChannelSpec(0), n)


class TestBruteForceMi:
    def test_fair_coin_memoryless_one_bit(self):
        src = MarkovSource(1, np.array([0.5, 0.5]))
        assert brute_force_mi(src, ChannelSpec(0), 1) == pytest.approx(1.0)

    def test_useless_channel_is_zero(self):
        src = maxentropic_source(1)
        chan = ChannelSpec(1, BinarySymmetric(0.5))
        for n in (4, 9):
            assert brute_force_mi(src, chan, n) == pytest.approx(0.0, abs=1e-12)

    def test_maxentropic_L1_n12_frozen_value(self):
        # frozen from the recursion H = (1/n) sum_t q_t Hb(a*), q_{t+1} = 1 - a* q_t
        mi = brute_force_mi(maxentropic_source(1), ChannelSpec(1), 12)
        assert mi == pytest.approx(0.7102320715430904, abs=1e-12)
        assert 0.69 < mi < 0.72

    def test_finite_n_decreases_toward_asymptote(self):
        src = maxentropic_source(1)
        vals = [brute_force_mi(src, ChannelSpec(1), n) for n in (6, 9, 12)]
        assert vals[0] > vals[1] > vals[2] > GOLDEN_RATE

    def test_invertibility_on_constrained_family(self):
        for L, a in ((1, 0.3), (1, 0.5), (2, 0.25)):
            src = MarkovSource.constrained(L, a)
            mi = brute_force_mi(src, ChannelSpec(L), 11)
            assert mi == pytest.approx(exact_input_entropy(src, 11), abs=1e-12)

    def test_upper_bound_random_sources(self):
        # any-source finite-n ceiling: H(Z_1^n) <= log2 #{(L,inf) words of length n};
        # at L=1 the ceiling itself sits within 0.02 of the asymptote, so the
        # slack bound holds for every source there
        def rll_count(n, L):
            counts = [0] * L + [1]   # start free: no one emitted yet
            for _ in range(n):
                nxt = [0] * (L + 1)
                for i in range(L):
                    nxt[i + 1] += counts[i]
                nxt[L] += counts[L]
                nxt[0] += counts[L]
                counts = nxt
            return sum(counts)

        rng = np.random.default_rng(77)
        n = 12
        for L in (1, 2):
            ceiling = np.log2(rll_count(n, L)) / n
            for _ in range(25):
                src = MarkovSource(L, rng.random(1 << L))
                mi = brute_force_mi(src, ChannelSpec(L), n)
                assert mi <= ceiling + 1e-12
                if L == 1:
                    assert mi <= noiseless_rate(L).rate + 0.02

    def test_bsc_between_zero_and_noiseless(self):
        src = maxentropic_source(1)
        clean = brute_force_mi(src, ChannelSpec(1), 10)
        noisy = brute_force_mi(src, ChannelSpec(1, BinarySymmetric(0.1)), 10)
        assert 0.0 < noisy < clean

    def test_rejects_awgn_and_large_n(self):
        src = maxentropic_source(1)
        with pytest.raises(ValueError):
            brute_force_mi(src, ChannelSpec(1, AwgnNoise(1.0)), 8)
        with pytest.raises(ValueError):
            brute_force_mi(src, ChannelSpec(1), 15)
