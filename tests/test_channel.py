import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from gate_oracles import fsm_run, fsm_step, trellis_walk
from p300channel import (AwgnNoise, BinarySymmetric, ChannelSpec, apply_noise, build_trellis,
                         fsm_response)
from p300channel.channel import as_bits


class TestFsmStep:
    def test_one_from_ground_fires(self):
        assert fsm_step(0, 1, L=2) == (1, 1)

    def test_one_in_refractory_is_gated(self):
        assert fsm_step(1, 1, L=2) == (1, 0)

    def test_deepest_refractory_releases(self):
        assert fsm_step(2, 0, L=2) == (0, 0)

    def test_full_case_table_L3(self):
        # zeros: G->G, R1->R2, R2->R3, R3->G; ones: always R1
        assert fsm_step(0, 0, 3) == (0, 0)
        assert fsm_step(1, 0, 3) == (2, 0)
        assert fsm_step(2, 0, 3) == (3, 0)
        assert fsm_step(3, 0, 3) == (0, 0)
        for s in (0, 1, 2, 3):
            nxt, z = fsm_step(s, 1, 3)
            assert nxt == 1
            assert z == (1 if s == 0 else 0)

    def test_memoryless_limit(self):
        assert fsm_step(0, 1, L=0) == (0, 1)
        assert fsm_step(0, 0, L=0) == (0, 0)

    def test_rejects_overdeep_state(self):
        with pytest.raises(ValueError):
            fsm_step(3, 0, L=2)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            fsm_step(0, 2, L=1)
        with pytest.raises(ValueError):
            fsm_step(-1, 0, L=2)


class TestFsmRun:
    def test_hand_trace(self):
        z, states = fsm_run([1, 1, 0, 1], L=1)
        assert z.tolist() == [1, 0, 0, 1]
        assert states == [1, 1, 0, 1]

    @pytest.mark.parametrize("L", [0, 1, 2, 3])
    def test_all_zero_input(self, L):
        z, _ = fsm_run([0, 0, 0], L)
        assert z.tolist() == [0, 0, 0]

    def test_second_one_in_refractory(self):
        z, _ = fsm_run([1, 0, 1], L=2)
        assert z.tolist() == [1, 0, 0]

    def test_rejects_nonbinary(self):
        with pytest.raises(ValueError):
            fsm_run([0, 1, 2], 1)


class TestClosedFormEquivalence:
    @pytest.mark.parametrize("L", [0, 1, 2, 3])
    def test_every_sequence_up_to_len_12(self, L):
        # z_n = 1 iff x_n = 1 and x_{n-L}..x_{n-1} are all zero, ground start
        for n in range(1, 13):
            for bits in itertools.product((0, 1), repeat=n):
                z_run, _ = fsm_run(bits, L)
                ref = [
                    int(bits[i] == 1 and not any(bits[max(0, i - L):i]))
                    for i in range(n)
                ]
                assert z_run.tolist() == ref, (L, bits)

    def test_vectorized_matches_fold(self):
        rng = np.random.default_rng(3)
        for L in range(4):
            for _ in range(30):
                x = rng.integers(0, 2, size=rng.integers(1, 40))
                z_run, _ = fsm_run(x, L)
                assert np.array_equal(fsm_response(x, L), z_run)

    def test_row_stack(self):
        rows = np.array([[1, 1, 0, 1], [1, 0, 1, 0]])
        z = fsm_response(rows, 1)
        assert z.tolist() == [[1, 0, 0, 1], [1, 0, 1, 0]]


@st.composite
def gate_cases(draw):
    L = draw(st.integers(0, 4))
    r = draw(st.sampled_from([max(L, 1), L + 1]))
    x = draw(st.lists(st.integers(0, 1), min_size=0, max_size=40))
    return np.array(x, dtype=np.int8), L, r


class TestGateRoutesProperty:
    @settings(max_examples=300, deadline=None)
    @given(case=gate_cases())
    def test_trellis_walk_closed_form_and_fold_agree(self, case):
        x, L, r = case
        trellis = build_trellis(r, L)
        walk = trellis_walk(trellis, x)
        closed = fsm_response(x, L)
        fold, _ = fsm_run(x, L)
        assert walk.tolist() == closed.tolist() == fold.tolist()


class TestRllProperty:
    @pytest.mark.parametrize("L", [1, 2, 3])
    def test_output_ones_are_separated(self, L):
        rng = np.random.default_rng(11)
        for _ in range(100):
            x = rng.integers(0, 2, size=60)
            z, _ = fsm_run(x, L)
            ones = np.flatnonzero(z)
            if ones.size > 1:
                assert np.diff(ones).min() >= L + 1


class TestAsBits:
    @pytest.mark.parametrize("x", [
        [True, False, True],
        np.array([[0, 1], [1, 0]], dtype=np.int64),
        np.array([1, 0, 1], dtype=np.uint8),
        [0.0, 1.0, -0.0],
        np.array([1.0, 0.0], dtype=np.float32),
        1,
        [],
    ])
    def test_accepts_zero_one(self, x):
        out = as_bits(x)
        assert out.dtype == np.int8
        assert np.array_equal(out, np.asarray(x, dtype=np.float64))

    @pytest.mark.parametrize("x", [
        [0, 2], [1, -1], [0.5, 1.0], [0.0, np.nan], [np.inf], 2,
        np.array([255], dtype=np.uint8), [True, 3],
    ])
    def test_rejects_everything_else(self, x):
        with pytest.raises(ValueError, match="must be exactly 0 or 1"):
            as_bits(x)


class TestApplyNoise:
    def test_noiseless_identity(self):
        # a channel with no noise law given gets the noiseless one, y = z
        noise = ChannelSpec(0).noise
        assert noise.summary() == {"kind": "noiseless"}
        y = apply_noise([1, 0, 1, 1], noise, np.random.default_rng(0))
        assert y.tolist() == [1, 0, 1, 1]

    def test_bsc_zero_crossover(self):
        y = apply_noise([0, 1], BinarySymmetric(0.0), np.random.default_rng(0))
        assert y.tolist() == [0, 1]

    def test_bsc_flip_fraction(self):
        rng = np.random.default_rng(5)
        z = np.zeros(200_000, dtype=np.int8)
        y = apply_noise(z, BinarySymmetric(0.2), rng)
        assert abs(y.mean() - 0.2) < 0.005

    def test_awgn_moments(self):
        rng = np.random.default_rng(6)
        z = np.ones(1_000_000, dtype=np.int8)
        y = apply_noise(z, AwgnNoise(0.25), rng)
        g = y - 1.0
        assert abs(g.var() - 0.25) < 0.002
        assert abs(g.mean()) < 0.002

    def test_seeded_reproducibility(self):
        z = np.tile([1, 0, 1], 50)
        for noise in (AwgnNoise(0.3), BinarySymmetric(0.25)):
            a = apply_noise(z, noise, np.random.default_rng(42))
            b = apply_noise(z, noise, np.random.default_rng(42))
            assert np.array_equal(a, b)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            AwgnNoise(0.0)
        with pytest.raises(ValueError):
            AwgnNoise(-1.0)
        with pytest.raises(ValueError):
            BinarySymmetric(0.6)
        with pytest.raises(ValueError):
            BinarySymmetric(-0.1)
        with pytest.raises(ValueError):
            ChannelSpec(-1)


class TestTrellis:
    @staticmethod
    def z_of(t, s, x):
        return t.edge_z[t.out_edges[s, x]]

    def test_r1_L1_shape_and_labels(self):
        t = build_trellis(1, 1)
        assert t.num_states == 2
        assert t.edge_to.size == 4 and t.edge_z.size == 4
        assert self.z_of(t, 0, 1) == 1   # history 0, input 1 fires
        assert self.z_of(t, 1, 1) == 0   # history 1, input 1 gated

    def test_r2_L2_single_firing_edge(self):
        t = build_trellis(2, 2)
        assert t.num_states == 4
        fired = [(s, x) for s in range(4) for x in (0, 1) if self.z_of(t, s, x) == 1]
        assert fired == [(0, 1)]

    def test_memoryless_passes_input(self):
        t = build_trellis(1, 0)
        assert t.num_states == 2
        for s in range(2):
            for x in (0, 1):
                assert self.z_of(t, s, x) == x

    def test_walk_reproduces_fsm_run(self):
        rng = np.random.default_rng(8)
        for r, L in ((1, 1), (2, 2), (1, 3), (3, 1)):
            t = build_trellis(r, L)
            for _ in range(25):
                x = rng.integers(0, 2, size=30)
                z_run, _ = fsm_run(x, L)
                assert np.array_equal(trellis_walk(t, x), z_run)

    @pytest.mark.parametrize("r,L", [(1, 0), (1, 1), (2, 2), (2, 3), (3, 2)])
    def test_strongly_connected(self, r, L):
        t = build_trellis(r, L)
        S = t.num_states
        adj = np.zeros((S, S), dtype=bool)
        adj[t.edge_from, t.edge_to] = True
        n_comp, _ = connected_components(csr_matrix(adj), directed=True,
                                         connection="strong")
        assert n_comp == 1

    def test_deterministic_edges(self):
        t = build_trellis(2, 1)
        # one successor per (state, input); 2 * 2^m edges in total
        assert t.out_edges.shape == (4, 2)
        assert np.array_equal(t.edge_from[t.out_edges], np.repeat(np.arange(4), 2).reshape(4, 2))
        assert np.array_equal(t.edge_input[t.out_edges], np.tile([0, 1], (4, 1)))
        assert np.all((0 <= t.edge_to) & (t.edge_to < 4))
        # every state has exactly two in-edges, listed in ascending order
        assert np.array_equal(t.edge_to[t.in_edges], np.repeat(np.arange(4), 2).reshape(4, 2))
        assert np.all(np.diff(t.in_edges, axis=1) > 0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            build_trellis(0, 1)
        with pytest.raises(ValueError):
            build_trellis(1, -1)


@st.composite
def law_cases(draw):
    """A noise law, observation rows Y drawn for it, and 0/1 codeword rows Z."""
    N = draw(st.integers(1, 10))
    rows = st.lists(st.integers(0, 1), min_size=N, max_size=N)
    Z = np.array(draw(st.lists(rows, min_size=1, max_size=6)), dtype=np.float64)
    if draw(st.booleans()):
        law = AwgnNoise(draw(st.floats(0.05, 20.0)))
        reals = st.lists(st.floats(-2.0, 3.0), min_size=N, max_size=N)
        Y = np.array(draw(st.lists(reals, min_size=1, max_size=4)))
    else:
        law = BinarySymmetric(draw(st.one_of(st.just(0.0), st.just(0.5),
                                             st.floats(0.0, 0.5))))
        Y = np.array(draw(st.lists(rows, min_size=1, max_size=4)), dtype=np.float64)
    return law, Y, Z


class TestLikelihoodConsistency:
    """A law's decoder score and its emission table are one likelihood."""

    @settings(max_examples=300, deadline=None)
    @given(case=law_cases())
    def test_score_is_log_emission_product_plus_a_row_constant(self, case):
        law, Y, Z = case
        log = np.log if isinstance(law, AwgnNoise) else np.log2   # the law's own base
        score = law.score(Y, Z)
        assert score.shape == (Y.shape[0], Z.shape[0])
        cols = np.arange(Z.shape[1])
        for b, y in enumerate(Y):
            f = law.emission(y)[cols, Z.astype(int)]   # (rows of Z, N) factors
            # the product is exactly 0 where a factor is (only at crossover 0),
            # and the score is -inf exactly there
            zero = (f == 0.0).any(axis=1)
            assert np.array_equal(np.isneginf(score[b]), zero)
            if zero.all():
                continue
            gap = score[b][~zero] - log(f[~zero]).sum(axis=1)
            assert np.ptp(gap) < 1e-9


WEIGHTS = (0.0, 1e-12, 0.3, 1.0)


class TestMixtureSurprise:
    """Each law's per-step surprise has the mean of -log2 p_q(Y), p_q the predictive mixture.

    p_q = (1 - q) f(. | 0) + q f(. | 1), and Y comes from z' = 1 with
    probability w, else z' = 0, through the law.
    """

    @pytest.mark.parametrize("variance", [1e-4, 0.05, 1.0, 1e3])
    def test_awgn_mirror_average_is_centred(self, variance):
        # one quad integrates the mirrored estimate over g ~ N(0, variance);
        # the other integrates -log2 p_q(z' + g) for each z', with p_q from
        # the two Gaussian log densities. Together they check the
        # symmetrization and the density bookkeeping.
        noise, sd = AwgnNoise(variance), math.sqrt(variance)
        c = -0.5 * math.log(2.0 * math.pi * variance)

        def pdf(g):
            return math.exp(c - g * g / (2.0 * variance))

        kw = dict(epsabs=0.0, epsrel=1e-13, limit=200)
        for q, w in itertools.product(WEIGHTS, repeat=2):
            def mirrored(g):
                v = noise.mixture_surprise(np.array([g]), np.zeros(1, np.int8), np.array([q]), w)
                return pdf(g) * float(v[0])

            def direct(g, z):
                logs = [math.log(p) + c - (z + g - mean) ** 2 / (2.0 * variance)
                        for p, mean in ((1.0 - q, 0.0), (q, 1.0)) if p > 0.0]
                top = max(logs)
                ln_p = top + math.log(sum(math.exp(v - top) for v in logs))
                return -pdf(g) * ln_p / math.log(2.0)

            got = integrate.quad(mirrored, -12.0 * sd, 12.0 * sd, **kw)[0]
            want = sum(pz * integrate.quad(direct, -12.0 * sd, 12.0 * sd, args=(z,), **kw)[0]
                       for z, pz in ((0, 1.0 - w), (1, w)) if pz)
            assert abs(got - want) < 1e-10, (q, w)

    @pytest.mark.parametrize("eps", [0.0, 0.01, 0.3, 0.5])
    def test_bsc_sum_matches_enumeration(self, eps):
        noise = BinarySymmetric(eps)
        for q, w in itertools.product(WEIGHTS, repeat=2):
            want = 0.0
            for z, pz in ((0, 1.0 - w), (1, w)):
                for flip, pf in ((0, 1.0 - eps), (1, eps)):
                    y = z ^ flip
                    p_y = (1.0 - q) * (eps if y else 1.0 - eps) + q * (1.0 - eps if y else eps)
                    if pz * pf:   # an output the mixture rules out is infinitely surprising
                        want += pz * pf * -math.log2(p_y) if p_y else math.inf
            got = noise.mixture_surprise(np.zeros(3, np.int8), np.zeros(3, np.int8),
                                         np.full(3, q), w)
            if math.isinf(want):
                assert np.all(got == math.inf), (q, w)
            else:
                assert np.all(np.abs(got - want) <= 1e-14 * max(1.0, want)), (q, w)

    @pytest.mark.parametrize("noise", [AwgnNoise(0.5), AwgnNoise(1e-4), BinarySymmetric(0.1)])
    def test_stacked_weights_broadcast(self, noise):
        rng = np.random.default_rng(4)
        z = rng.integers(0, 2, 50).astype(np.int8)
        y = apply_noise(z, noise, rng)
        q, w = rng.random((2, 50))
        both = noise.mixture_surprise(y, z, q, np.stack([q, w]))
        assert np.array_equal(both[0], noise.mixture_surprise(y, z, q, q))
        assert np.array_equal(both[1], noise.mixture_surprise(y, z, q, w))
        # a scalar prediction broadcasts, also where a factor is redone in the log
        # domain (q in {0, 1} at variance 1e-4, where phi(g +- 1) / phi(g) underflows)
        for q0 in (0.0, 0.4, 1.0):
            want = noise.mixture_surprise(y, z, np.full(50, q0), w)
            assert np.array_equal(noise.mixture_surprise(y, z, q0, w), want)
