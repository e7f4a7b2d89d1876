import itertools

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from p300channel import (AwgnNoise, BinarySymmetric, ChannelSpec, ChannelState, GROUND,
                         Noiseless, apply_noise, build_trellis, fsm_response, fsm_run,
                         fsm_step, refractory)
from p300channel.channel import as_bits


class TestFsmStep:
    def test_one_from_ground_fires(self):
        assert fsm_step(GROUND, 1, L=2) == (refractory(1), 1)

    def test_one_in_refractory_is_gated(self):
        assert fsm_step(refractory(1), 1, L=2) == (refractory(1), 0)

    def test_deepest_refractory_releases(self):
        assert fsm_step(refractory(2), 0, L=2) == (GROUND, 0)

    def test_full_case_table_L3(self):
        # zeros: G->G, R1->R2, R2->R3, R3->G; ones: always R1
        assert fsm_step(GROUND, 0, 3) == (GROUND, 0)
        assert fsm_step(refractory(1), 0, 3) == (refractory(2), 0)
        assert fsm_step(refractory(2), 0, 3) == (refractory(3), 0)
        assert fsm_step(refractory(3), 0, 3) == (GROUND, 0)
        for s in (GROUND, refractory(1), refractory(2), refractory(3)):
            nxt, z = fsm_step(s, 1, 3)
            assert nxt == refractory(1)
            assert z == (1 if s is GROUND else 0)

    def test_memoryless_limit(self):
        assert fsm_step(GROUND, 1, L=0) == (GROUND, 1)
        assert fsm_step(GROUND, 0, L=0) == (GROUND, 0)

    def test_rejects_overdeep_state(self):
        with pytest.raises(ValueError):
            fsm_step(refractory(3), 0, L=2)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            fsm_step(GROUND, 2, L=1)
        with pytest.raises(ValueError):
            ChannelState(-1)
        with pytest.raises(ValueError):
            refractory(0)


class TestFsmRun:
    def test_hand_trace(self):
        z, states = fsm_run([1, 1, 0, 1], GROUND, L=1)
        assert z.tolist() == [1, 0, 0, 1]
        assert states == [refractory(1), refractory(1), GROUND, refractory(1)]

    @pytest.mark.parametrize("L", [0, 1, 2, 3])
    def test_all_zero_input(self, L):
        z, _ = fsm_run([0, 0, 0], GROUND, L)
        assert z.tolist() == [0, 0, 0]

    def test_second_one_in_refractory(self):
        z, _ = fsm_run([1, 0, 1], GROUND, L=2)
        assert z.tolist() == [1, 0, 0]

    def test_rejects_nonbinary(self):
        with pytest.raises(ValueError):
            fsm_run([0, 1, 2], GROUND, 1)


class TestClosedFormEquivalence:
    @pytest.mark.parametrize("L", [0, 1, 2, 3])
    def test_every_sequence_up_to_len_12(self, L):
        # z_n = 1 iff x_n = 1 and x_{n-L}..x_{n-1} are all zero, ground start
        for n in range(1, 13):
            for bits in itertools.product((0, 1), repeat=n):
                z_run, _ = fsm_run(bits, GROUND, L)
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
                z_run, _ = fsm_run(x, GROUND, L)
                assert np.array_equal(fsm_response(x, L), z_run)

    def test_refractory_start_matches_fold(self):
        rng = np.random.default_rng(4)
        for L in (1, 2, 3):
            for level in range(1, L + 1):
                x = rng.integers(0, 2, size=20)
                z_run, _ = fsm_run(x, refractory(level), L)
                assert np.array_equal(fsm_response(x, L, refractory(level)), z_run)

    def test_row_stack(self):
        rows = np.array([[1, 1, 0, 1], [1, 0, 1, 0]])
        z = fsm_response(rows, 1)
        assert z.tolist() == [[1, 0, 0, 1], [1, 0, 1, 0]]


class TestRllProperty:
    @pytest.mark.parametrize("L", [1, 2, 3])
    def test_output_ones_are_separated(self, L):
        rng = np.random.default_rng(11)
        for _ in range(100):
            x = rng.integers(0, 2, size=60)
            z, _ = fsm_run(x, GROUND, L)
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
        y = apply_noise([1, 0], Noiseless(), np.random.default_rng(0))
        assert y.tolist() == [1, 0]

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
    def test_r1_L1_shape_and_labels(self):
        t = build_trellis(1, 1)
        assert t.num_states == 2
        assert t.next_state.size == 4 and t.z_out.size == 4
        assert t.z_out[0, 1] == 1   # history 0, input 1 fires
        assert t.z_out[1, 1] == 0   # history 1, input 1 gated

    def test_r2_L2_single_firing_edge(self):
        t = build_trellis(2, 2)
        assert t.num_states == 4
        fired = [(s, x) for s in range(4) for x in (0, 1) if t.z_out[s, x] == 1]
        assert fired == [(0, 1)]

    def test_memoryless_passes_input(self):
        t = build_trellis(1, 0)
        assert t.num_states == 2
        for s in range(2):
            for x in (0, 1):
                assert t.z_out[s, x] == x

    def test_walk_reproduces_fsm_run(self):
        rng = np.random.default_rng(8)
        for r, L in ((1, 1), (2, 2), (1, 3), (3, 1)):
            t = build_trellis(r, L)
            for _ in range(25):
                x = rng.integers(0, 2, size=30)
                z_run, _ = fsm_run(x, GROUND, L)
                assert np.array_equal(t.response(x), z_run)

    @pytest.mark.parametrize("r,L", [(1, 0), (1, 1), (2, 2), (2, 3), (3, 2)])
    def test_strongly_connected(self, r, L):
        t = build_trellis(r, L)
        S = t.num_states
        adj = np.zeros((S, S), dtype=bool)
        for s in range(S):
            adj[s, t.next_state[s, 0]] = True
            adj[s, t.next_state[s, 1]] = True
        n_comp, _ = connected_components(csr_matrix(adj), directed=True,
                                         connection="strong")
        assert n_comp == 1

    def test_deterministic_edges(self):
        t = build_trellis(2, 1)
        # one successor per (state, input); 2 * 2^m edges in total
        assert t.next_state.shape == (4, 2)
        assert np.all((0 <= t.next_state) & (t.next_state < 4))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            build_trellis(0, 1)
        with pytest.raises(ValueError):
            build_trellis(1, -1)
