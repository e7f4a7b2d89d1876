"""The chunked forward-backward scan against the step-by-step loop it replaced.

The loop below is the reference: one Python step per symbol, each step a
bincount of edge weights into the next normalized vector. The scan in
``p300channel.gbaa`` reassociates the same products, so the two agree to
rounding, not bit for bit; 1e-12 is far above float64 reassociation error on
these normalized quantities and far below anything a rate or an edge weight
could show.
"""

import numpy as np
import pytest

from p300channel import (AwgnNoise, BinarySymmetric, MarkovSource, apply_noise, build_trellis,
                         fsm_response)
from p300channel.gbaa import _edge_prob, _edge_weights, _scaled_backward, _scaled_forward
from p300channel.rates import ConvergenceError
from p300channel.sources import _chunk_len

TOL = 1e-12


def loop_forward(tr, ep, f):
    n = f.shape[0]
    S = tr.num_states
    alphas = np.zeros((n + 1, S))
    alphas[0, 0] = 1.0
    log2c = np.empty(n)
    like = f[:, tr.edge_z]
    ef, et = tr.edge_from, tr.edge_to
    for t in range(n):
        w = alphas[t, ef] * ep * like[t]
        a = np.bincount(et, weights=w, minlength=S)
        c = a.sum()
        if c <= 0.0 or not np.isfinite(c):
            raise ConvergenceError(f"forward recursion collapsed at step {t}")
        alphas[t + 1] = a / c
        log2c[t] = np.log2(c)
    return alphas, log2c


def loop_backward(tr, ep, f):
    n = f.shape[0]
    S = tr.num_states
    betas = np.empty((n + 1, S))
    betas[n] = 1.0 / S
    like = f[:, tr.edge_z]
    ef, et = tr.edge_from, tr.edge_to
    for t in range(n - 1, -1, -1):
        w = betas[t + 1, et] * ep * like[t]
        b = np.bincount(ef, weights=w, minlength=S)
        s = b.sum()
        if s <= 0.0 or not np.isfinite(s):
            raise ConvergenceError(f"backward recursion collapsed at step {t}")
        betas[t] = b / s
    return betas


def _case(L, r, noise, n, seed):
    rng = np.random.default_rng(seed)
    src = MarkovSource(r, rng.uniform(0.1, 0.9, 1 << r))
    y = apply_noise(fsm_response(src.sample(n, rng), L), noise, rng)
    tr = build_trellis(r, L)
    return tr, _edge_prob(tr, src), noise.emission(np.asarray(y, dtype=np.float64))


C = _chunk_len(10_007)    # 101: sizes around it leave a full, a partial or a 1-step chunk
SIZES = (1, 2, C - 1, C, C + 1, 10_007)
NOISES = (AwgnNoise(0.5), BinarySymmetric(0.1), BinarySymmetric(0.0))
NOISELESS = BinarySymmetric(0.0)


@pytest.mark.parametrize("noise", NOISES, ids=["AwgnNoise", "BinarySymmetric", "Noiseless"])
@pytest.mark.parametrize("L", [0, 1, 2, 3])
def test_scan_matches_loop(L, noise):
    # r = L is the smallest legal order (r >= 1); r = L + 1 adds a history bit
    for r in sorted({max(L, 1), L + 1}):
        for n in SIZES:
            tr, ep, f = _case(L, r, noise, n, seed=1000 * L + 10 * r + n)
            a_loop, l_loop = loop_forward(tr, ep, f)
            b_loop = loop_backward(tr, ep, f)
            a_scan, l_scan = _scaled_forward(tr, ep, f)
            b_scan = _scaled_backward(tr, ep, f)
            assert np.max(np.abs(l_scan - l_loop)) < TOL
            assert np.max(np.abs(a_scan - a_loop)) < TOL
            assert np.max(np.abs(b_scan - b_loop)) < TOL
            w_loop = _edge_weights(tr, ep, a_loop, b_loop, f)
            w_scan = _edge_weights(tr, ep, a_scan, b_scan, f)
            assert np.max(np.abs(w_scan - w_loop)) < TOL


def test_rate_pass_keeps_no_alphas():
    tr, ep, f = _case(2, 2, AwgnNoise(0.5), 5000, seed=4)
    alphas, log2c = _scaled_forward(tr, ep, f, keep_alphas=False)
    assert alphas is None
    assert np.max(np.abs(log2c - loop_forward(tr, ep, f)[1])) < TOL


def test_chunk_len_is_ceil_sqrt():
    for n in (1, 2, 3, 4, 5, 99, 100, 101, 10_000, 10_001):
        c = _chunk_len(n)
        assert (c - 1) ** 2 < n <= c ** 2


def _message(fn, *args):
    with pytest.raises(ConvergenceError) as info:
        fn(*args)
    return str(info.value)


def test_collapse_reports_the_loops_step():
    tr = build_trellis(1, 1)
    ep = _edge_prob(tr, MarkovSource.uniform(1))
    f = NOISELESS.emission(np.array([0.0, 1.0, 1.0, 0.0]))
    assert _message(_scaled_forward, tr, ep, f) == "forward recursion collapsed at step 2"
    assert _message(loop_forward, tr, ep, f) == "forward recursion collapsed at step 2"
    assert _message(_scaled_backward, tr, ep, f) == "backward recursion collapsed at step 1"
    assert _message(loop_backward, tr, ep, f) == "backward recursion collapsed at step 1"


@pytest.mark.parametrize("pos", [0, 1, 30, 31, 32, 500, 960, 997])
def test_collapse_anywhere_in_the_chunks(pos):
    # n = 999 has C = 32 and a 7-step last chunk; two adjacent responses are
    # impossible at L = 1, so both recursions collapse next to ``pos``
    rng = np.random.default_rng(pos)
    z = fsm_response(MarkovSource.uniform(1).sample(999, rng), 1).astype(np.float64)
    z[pos:pos + 2] = 1.0
    tr = build_trellis(1, 1)
    ep = _edge_prob(tr, MarkovSource.uniform(1))
    f = NOISELESS.emission(z)
    assert _message(_scaled_forward, tr, ep, f) == _message(loop_forward, tr, ep, f)
    assert _message(_scaled_backward, tr, ep, f) == _message(loop_backward, tr, ep, f)
