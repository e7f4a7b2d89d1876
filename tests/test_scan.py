"""The chunked forward-backward scan against the step-by-step loop it replaced.

The loop below is the reference: one Python step per symbol, each step a
bincount of edge weights into the next normalized vector. The scan in
``p300channel.gbaa`` reassociates the same products, so the two agree to
rounding, not bit for bit; 1e-12 is far above float64 reassociation error on
these normalized quantities and far below anything a rate or an edge weight
could show.
"""

import math

import numpy as np
import pytest

from p300channel import (AwgnNoise, BinarySymmetric, MarkovSource, apply_noise, build_trellis,
                         fsm_response)
from p300channel.gbaa import (_LOOP_STATES, _edge_prob, _edge_weights, _scaled_backward,
                               _scaled_forward)
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


def _levels(n, S):
    """(C, steps in the last chunk, D, chunks in the last group) of the scan over n steps.

    The chunk boundaries come from a scan over the K - 1 chunk products in
    groups of D = ceil(sqrt(K - 1)); the last chunk and the last group may
    be short.
    """
    C = _chunk_len(n, S * S)
    M = -(-n // C) - 1
    if M == 0:
        return C, n, 0, 0
    D = math.isqrt(M - 1) + 1
    return C, n - M * C, D, M - (-(-M // D) - 1) * D


def _edge(last, full):
    return "full" if last == full else "one" if last == 1 else "partial"


# the smallest length >= 200 for each kind of last chunk (full, partial, one
# step) and last group (full, partial, one chunk); below 4096 steps C is the
# same for every S <= 16 in these tests
EDGES = {}
for _n in range(200, 4096):
    _C, _last, _D, _group = _levels(_n, 2)
    EDGES.setdefault((_edge(_last, _C), _edge(_group, _D)), _n)
assert len(EDGES) == 9
SIZES = (1, 2, 4,        # K = 1: one chunk, no chunk products
         5,              # K = 2: one chunk product, one group
         *sorted(EDGES.values()), 10_007)
NOISES = (AwgnNoise(0.5), BinarySymmetric(0.1), BinarySymmetric(0.0))
NOISELESS = BinarySymmetric(0.0)


@pytest.mark.parametrize("noise", NOISES, ids=["AwgnNoise", "BinarySymmetric", "Noiseless"])
@pytest.mark.parametrize("L", [0, 1, 2, 3])
def test_scan_matches_loop(L, noise):
    # r = L is the smallest legal order (r >= 1); r = L + 1 adds a history bit
    for r in sorted({max(L, 1), L + 1}):
        for n in SIZES:
            _assert_scan_matches_loop(*_case(L, r, noise, n, seed=1000 * L + 10 * r + n))


def test_rate_pass_keeps_no_alphas():
    tr, ep, f = _case(2, 2, AwgnNoise(0.5), 5000, seed=4)
    alphas, log2c = _scaled_forward(tr, ep, f, keep_alphas=False)
    assert alphas is None
    assert np.max(np.abs(log2c - loop_forward(tr, ep, f)[1])) < TOL


def test_chunk_len_is_ceil_twice_cube_root():
    for n in (1, 2, 3, 4, 5, 26, 27, 28, 999, 1000, 1001, 10_000, 100_000):
        c = _chunk_len(n, 1)
        assert c == n or (c - 1) ** 3 < 8 * n <= c ** 3
        assert c <= n
    # wide chunk states: chunks grow so that K * width stays within 2^15
    assert _chunk_len(100_000, 64) == 196 and _chunk_len(100_000, 256) == 782
    assert _chunk_len(10, 2 ** 20) == 10


def test_sizes_cover_every_level_edge():
    assert _levels(4, 2)[2] == 0 and _levels(5, 2) == (4, 1, 1, 1)
    for n in EDGES.values():
        assert _levels(n, 2) == _levels(n, 16)


def _assert_scan_matches_loop(tr, ep, f):
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


@pytest.mark.parametrize("L, r", [(5, 5), (2, 6)])
def test_scan_matches_loop_at_large_S(L, r):
    # S = 32 still runs the chunked scan; S = 64 runs it as the plain loop (C = n)
    assert (1 << r < _LOOP_STATES) == (r == 5)
    for n in (1, 3, 300):
        _assert_scan_matches_loop(*_case(L, r, AwgnNoise(0.5), n, seed=n))
    z = fsm_response(MarkovSource.uniform(r).sample(300, np.random.default_rng(r)), L)
    z = z.astype(np.float64)
    z[150:152] = 1.0          # two adjacent responses: both recursions collapse there
    tr = build_trellis(r, L)
    ep = _edge_prob(tr, MarkovSource.uniform(r))
    f = NOISELESS.emission(z)
    assert _message(_scaled_forward, tr, ep, f) == _message(loop_forward, tr, ep, f)
    assert _message(_scaled_backward, tr, ep, f) == _message(loop_backward, tr, ep, f)


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


@pytest.mark.parametrize("pos", [0, 1, 30, 31, 32, 383, 384, 500, 960, 997, 3839, 3840, 4005])
def test_collapse_anywhere_in_the_chunks(pos):
    # n = 4007 has C = 32, a 7-step last chunk, and 125 chunk products in
    # groups of D = 12 (384 steps) with a 5-chunk last group from step 3840.
    # So 31/32 and 383/384 straddle a chunk and a group boundary, 500 and 997
    # lie inside a group past its first chunk, and 4005 is in the last chunk.
    # Two adjacent responses are impossible at L = 1, so both recursions
    # collapse next to ``pos``.
    assert _levels(4007, 2) == (32, 7, 12, 5)
    rng = np.random.default_rng(pos)
    z = fsm_response(MarkovSource.uniform(1).sample(4007, rng), 1).astype(np.float64)
    z[pos:pos + 2] = 1.0
    tr = build_trellis(1, 1)
    ep = _edge_prob(tr, MarkovSource.uniform(1))
    f = NOISELESS.emission(z)
    assert _message(_scaled_forward, tr, ep, f) == _message(loop_forward, tr, ep, f)
    assert _message(_scaled_backward, tr, ep, f) == _message(loop_backward, tr, ep, f)
