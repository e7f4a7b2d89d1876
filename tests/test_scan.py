"""The chunked forward-backward scan against the step-by-step loop it replaced.

The loop below is the reference: one Python step per symbol, each step a
bincount of edge weights into the next normalized vector. The scan in
``p300channel.gbaa`` reassociates the same products, so the two agree to
rounding, not bit for bit; 1e-12 is far above float64 reassociation error on
these normalized quantities and far below anything a rate or an edge weight
could show. The scan returns sums of log2 normalizers over blocks of steps;
with a block end at every step (``_every``) they are the per-step values.
The forward pass also returns the filter's prediction of the gate output at
every step, which the loop gives as the z = 1 edge mass out of its vector.
A pass that keeps no vectors runs the same sweep and is checked on its own.
"""

import math

import numpy as np
import pytest

from p300channel import (AwgnNoise, BinarySymmetric, ChannelSpec, MarkovSource, apply_noise,
                         build_trellis, estimate_rate, fsm_response)
from p300channel import gbaa
from p300channel.gbaa import (_LOOP_STATES, _dense_scan, _edge_prob, _edge_weights,
                               _forward_rate, _scaled_backward, _scaled_forward)
from p300channel.rates import ConvergenceError
from p300channel.sources import _chunk_len
from rate_oracles import (control_variate_rate, history_entropy_means, step_variates,
                          two_variate_rate)

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


def loop_predictions(tr, ep, alphas):
    """q_t = P(z_t = 1 | y_1^{t-1}): the mass of the z = 1 edges out of each vector."""
    r = np.bincount(tr.edge_from, weights=ep * (tr.edge_z == 1), minlength=tr.num_states)
    return alphas[:-1] @ r


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


def _every(f):
    return np.arange(f.shape[0] + 1)


def _blocks(n):
    """The block ends of a rate estimate: 20 blocks, or n of one step below 20 steps."""
    return np.linspace(0, n, min(20, n) + 1, dtype=int)


def test_rate_pass_keeps_no_alphas():
    tr, ep, f = _case(2, 2, AwgnNoise(0.5), 5000, seed=4)
    alphas, log2c, _ = _scaled_forward(tr, ep, f, _every(f), keep_alphas=False)
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
    a_scan, l_scan, q_scan = _scaled_forward(tr, ep, f, _every(f))
    b_scan = _scaled_backward(tr, ep, f)
    assert np.max(np.abs(l_scan - l_loop)) < TOL
    _assert_rate_pass_matches_loop(tr, ep, f, _blocks(f.shape[0]), l_loop)
    assert np.max(np.abs(a_scan - a_loop)) < TOL
    assert np.max(np.abs(q_scan - loop_predictions(tr, ep, a_loop))) < TOL
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
    assert _forward_message(tr, ep, f) == _message(loop_forward, tr, ep, f)
    assert _message(_scaled_forward, tr, ep, f, _every(f)) == _message(loop_forward, tr, ep, f)
    assert _message(_scaled_backward, tr, ep, f) == _message(loop_backward, tr, ep, f)


def _assert_rate_pass_matches_loop(tr, ep, f, ends, l_loop):
    # the pass of a rate estimate: block sums and predictions, no (n+1, S) table
    alphas, sums, q = _scaled_forward(tr, ep, f, ends, keep_alphas=False)
    assert alphas is None and sums.shape == (len(ends) - 1,)
    want = np.array([l_loop[a:b].sum() for a, b in zip(ends[:-1], ends[1:])])
    assert np.max(np.abs(sums - want) / np.diff(ends)) < TOL
    assert np.max(np.abs(q - loop_predictions(tr, ep, loop_forward(tr, ep, f)[0]))) < TOL


def _message(fn, *args):
    with pytest.raises(ConvergenceError) as info:
        fn(*args)
    return str(info.value)


def _forward_message(tr, ep, f):
    return _message(lambda: _scaled_forward(tr, ep, f, _blocks(f.shape[0]), keep_alphas=False))


def test_collapse_reports_the_loops_step():
    tr = build_trellis(1, 1)
    ep = _edge_prob(tr, MarkovSource.uniform(1))
    f = NOISELESS.emission(np.array([0.0, 1.0, 1.0, 0.0]))
    assert _forward_message(tr, ep, f) == "forward recursion collapsed at step 2"
    assert (_message(_scaled_forward, tr, ep, f, _every(f))
            == "forward recursion collapsed at step 2")
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
    assert _forward_message(tr, ep, f) == _message(loop_forward, tr, ep, f)
    assert _message(_scaled_forward, tr, ep, f, _every(f)) == _message(loop_forward, tr, ep, f)
    assert _message(_scaled_backward, tr, ep, f) == _message(loop_backward, tr, ep, f)


@pytest.mark.parametrize("n, ends", [
    # n = 4007: C = 32, chunk boundaries at multiples of 32, a 7-step last chunk from 4000
    (4007, [0, 1, 31, 32, 33, 64, 500, 3999, 4000, 4001, 4005, 4006, 4007]),
    # n = 4032 = 126 * 32: the last chunk is full, so n is a chunk boundary
    (4032, [0, 32, 4000, 4031, 4032]),
    (4007, [0, 4007]),
])
def test_rate_pass_block_ends_anywhere(n, ends):
    assert _levels(4007, 4)[:2] == (32, 7) and _levels(4032, 4)[:2] == (32, 32)
    assert _levels(200_000, 2)[:2] == (117, 47)   # the collapse test below
    for noise in NOISES:
        tr, ep, f = _case(2, 2, noise, n, seed=n)
        _assert_rate_pass_matches_loop(tr, ep, f, np.array(ends), loop_forward(tr, ep, f)[1])


@pytest.mark.parametrize("L, r, noise", [(1, 1, AwgnNoise(0.5)), (2, 2, BinarySymmetric(0.05)),
                                         (3, 3, AwgnNoise(0.25)), (2, 6, AwgnNoise(0.5))])
@pytest.mark.parametrize("n", [7, 19, 20, 4007])
def test_rate_estimate_matches_loop(L, r, noise, n):
    # _forward_rate with and without alphas (estimate_rate, a GBAA
    # iteration) against the loop's per-step normalizers and predictions on
    # the same simulated block, with the control variates from the oracles'
    # own per-step terms; S = 64 (r = 6) is one chunk, so its pass is the
    # step-by-step sweep
    src = MarkovSource(r, np.random.default_rng(r).uniform(0.1, 0.9, 1 << r))
    tr, chan = build_trellis(r, L), ChannelSpec(L, noise)
    rng = np.random.default_rng(n)
    x = src.sample(n, rng)
    y = apply_noise(fsm_response(x, L), noise, rng)
    f = noise.emission(np.asarray(y, dtype=np.float64))
    ep = _edge_prob(tr, src)
    a_loop, log2c = loop_forward(tr, ep, f)
    terms = step_variates(src, L, noise, x, y, f, loop_predictions(tr, ep, a_loop))
    want, want_se = control_variate_rate(-log2c, terms, history_entropy_means(src, n),
                                         noise.cond_entropy(), _blocks(n))
    for keep in (False, True):
        rate, se, ep_rate, f_rate, alphas = _forward_rate(tr, src, chan, n,
                                                          np.random.default_rng(n), keep)
        assert (alphas is None) != keep
        assert np.array_equal(ep_rate, ep) and np.array_equal(f_rate, f)
        assert abs(rate - want) < TOL
        assert abs(se - want_se) < TOL


@pytest.mark.parametrize("pos", [300, 1169, 1170, 100_001, 199_990])
def test_collapse_through_estimate_rate_names_the_loops_step(monkeypatch, pos):
    # two adjacent responses, impossible at L = 1, in the noiseless block that
    # estimate_rate scores: its forward pass collapses and reports the step
    # where the loop collapses. At n = 2e5, C = 117: 1169/1170 straddle the
    # chunk boundary at 1170, and 199_990 lies in the 47-step last chunk.
    def responses(z, noise, rng):
        z = z.astype(np.float64)
        z[pos:pos + 2] = 1.0
        seen.append(z)
        return z
    seen = []
    monkeypatch.setattr(gbaa, "apply_noise", responses)
    with pytest.raises(ConvergenceError) as info:
        estimate_rate(MarkovSource.uniform(1), ChannelSpec(1, NOISELESS), 200_000, seed=pos)
    tr = build_trellis(1, 1)
    f = NOISELESS.emission(seen[0])
    assert str(info.value) == _message(loop_forward, tr, _edge_prob(tr, MarkovSource.uniform(1)), f)


def _stress_cases():
    # BSC 1e-200 with flipped observations: a flip costs 2^-664, so chunk-product
    # rows (and boundary weights) sit up to 2^-1328 apart within one chunk; four
    # responses in a row, impossible at L >= 1, need two flips, 2^-1328 in all
    for L, r, n in ((1, 1, 3000), (2, 3, 3000), (1, 2, 5)):
        tr, ep, f = _case(L, r, BinarySymmetric(1e-200), n, seed=n + r)
        y = (f[:, 1] > f[:, 0]).astype(np.float64)
        flips = np.array([7, 9, 1500, 2999]) % n
        y[flips] = 1.0 - y[flips]
        y[1700 % n:1704 % n] = 1.0
        yield "bsc1e-200", tr, ep, BinarySymmetric(1e-200).emission(y)
    # AWGN 1e-4: densities up to 40, so row sums grow by up to 2^5.3 a step
    for L, r in ((1, 1), (3, 3)):
        yield "awgn1e-4", *_case(L, r, AwgnNoise(1e-4), 3000, seed=r)
    # one step scaled below 2^-64 (and one above 2^64): renormalize around it
    tr, ep, f = _case(2, 2, AwgnNoise(0.5), 3000, seed=5)
    f[1000] *= 2.0 ** -70
    f[2000] *= 2.0 ** 70
    yield "scaled-steps", tr, ep, f
    # every step scaled by 2^±40: a C = 29-step chunk product would leave the
    # float range without renormalizing within the chunk
    for bits in (-40, 40):
        tr, ep, f = _case(1, 2, AwgnNoise(0.5), 3000, seed=6)
        yield f"scaled-by-2^{bits}", tr, ep, f * 2.0 ** bits


@pytest.mark.parametrize("name, tr, ep, f", list(_stress_cases()),
                         ids=[c[0] for c in _stress_cases()])
def test_renormalization_stress_matches_loop(name, tr, ep, f):
    _assert_scan_matches_loop(tr, ep, f)
    _assert_rate_pass_matches_loop(tr, ep, f, _every(f), loop_forward(tr, ep, f)[1])


def _exact_dense_scan(v0, rho, P):
    """b_{k+1} ∝ b_k diag(2^rho[k]) P[k] in exact rationals: rho holds integers or -inf."""
    from fractions import Fraction
    b = [Fraction(x) for x in v0]
    out = [np.array(v0, dtype=float)]
    for k in range(rho.shape[0]):
        w = [x * (Fraction(2) ** int(r)) if r > -np.inf else Fraction(0)
             for x, r in zip(b, rho[k])]
        a = [sum(w[s] * Fraction(P[k, s, j]) for s in range(len(w))) for j in range(len(w))]
        total = sum(a)
        b = a if total == 0 else [x / total for x in a]
        out.append(np.array([float(x) for x in b]))
    return np.array(out)


@pytest.mark.parametrize("M", [1, 2, 5, 17])
def test_dense_scan_matches_exact_oracle(M):
    # row scales 2^1100 apart, a row the product kills (scale -inf) and, from
    # the product that kills every row, a vector that stays zero
    rng = np.random.default_rng(M)
    S = 4
    P = rng.random((M, S, S))
    P /= P.sum(-1, keepdims=True)
    rho = rng.choice([-1100.0, 0.0, 1100.0, 7.0], size=(M, S))
    P[:, 1] = 0.0
    rho[:, 1] = -np.inf
    if M > 2:
        P[M - 2] = 0.0
        rho[M - 2] = -np.inf
    v0 = np.array([0.25, 0.25, 0.5, 0.0])
    with np.errstate(divide="ignore", invalid="ignore"):
        b = _dense_scan(v0, rho, P)
    want = _exact_dense_scan(v0, rho, P)
    assert np.max(np.abs(b - want)) < TOL
    if M > 2:
        assert np.all(b[M - 1:] == 0.0)


@pytest.mark.parametrize("bits", [-3.0, 0.0, 2.5])
def test_renormalization_keeps_row_sums_in_range(monkeypatch, bits):
    # the schedule renormalizes before a row sum could leave [2^-64, 2^64]; the
    # backward pass reads up to two in-edges per state, so with p1 = 0.95 a step
    # can grow a row by almost 2 max f, which the schedule must count
    seen = []
    renormalize = gbaa._renormalize
    monkeypatch.setattr(gbaa, "_renormalize",
                        lambda P, rho: seen.append(P.sum(1)) or renormalize(P, rho))
    # (n = 3016 = 104 C: no short last chunk, whose product is zeroed past its end)
    assert _levels(3016, 4)[:2] == (29, 29)
    src = MarkovSource(2, [0.95, 0.95, 0.05, 0.95])
    tr = build_trellis(2, 1)
    rng = np.random.default_rng(7)
    y = apply_noise(fsm_response(src.sample(3016, rng), 1), AwgnNoise(0.5), rng)
    f = AwgnNoise(0.5).emission(y) * 2.0 ** bits
    ep = _edge_prob(tr, src)
    _scaled_backward(tr, ep, f)
    _scaled_forward(tr, ep, f, _blocks(3016), keep_alphas=False)
    rs = np.concatenate([x.ravel() for x in seen])
    assert seen and np.all(rs > 0.0)
    assert np.all(np.abs(np.log2(rs)) <= 64.0 + 1e-9)
