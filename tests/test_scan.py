"""The chunked forward-backward scan against the step-by-step loop it replaced.

The loop below is the reference: one Python step per symbol, each step a
bincount of edge weights into the next normalized vector. The scan in
``p300channel.gbaa`` is speculative: chunks after the first start from the
uniform vector and keep their values from the step where a restart from the
true start meets them to a relative 1e-13. So the two agree to that tolerance
and to rounding, not bit for bit; 1e-12 is above both on these normalized
quantities and far below anything a rate or an edge weight could show. The
scan returns sums of log2 normalizers over blocks of steps; with a block end
at every step (``_every``) they are the per-step values.
The forward pass also returns the filter's prediction of the gate output at
every step, which the loop gives as the z = 1 edge mass out of its vector.
A pass that keeps no vectors runs the same sweep and is checked on its own.
"""

import numpy as np
import pytest

from p300channel import (AwgnNoise, BinarySymmetric, ChannelSpec, MarkovSource, apply_noise,
                         build_trellis, estimate_rate, fsm_response)
from p300channel import gbaa
from p300channel.gbaa import (_edge_prob, _edge_weights, _forward_rate, _scaled_backward,
                               _scaled_forward)
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
    """(C, steps in the last chunk) of the scan over n steps; the last chunk may be short."""
    C = min(n, 2 * _chunk_len(n, S))
    return C, n - (-(-n // C) - 1) * C


def _edge(last, full):
    return "full" if last == full else "one" if last == 1 else "partial"


# the smallest length >= 200 for each kind of last chunk (full, partial, one
# step); below 4096 steps C is the same for every S <= 16 in these tests
EDGES = {}
for _n in range(200, 4096):
    _C, _last = _levels(_n, 2)
    EDGES.setdefault(_edge(_last, _C), _n)
assert len(EDGES) == 3
SIZES = (1, 2, 4, 10,    # K = 1: one chunk, no fix-up
         11,             # K = 2: one restarted chunk of one step
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
    assert _levels(10, 2) == (10, 10) and _levels(11, 2) == (10, 1)
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


@pytest.mark.parametrize("L, r", [(5, 5), (2, 6), (3, 7)])
def test_scan_matches_loop_at_large_S(L, r):
    # S = 32, 64 and 128 run the same speculative scan as S <= 16: 300 steps
    # make 11 chunks of 28
    assert _levels(300, 1 << r) == (28, 20)
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


# In a noiseless L = 1 block a response pins the state, so a restarted chunk
# meets its speculative run at its first response and not before.
IN_FIXUP = 20 * 64 + 10      # chunk 20 has no response before the collapse
AFTER_MEET = 30 * 64 + 40    # chunk 30 responds at its step 2, then collapses


@pytest.mark.parametrize("pos", [0, 1, 30, 31, 32, 63, 64, 383, 384, 500, 960, 997, 3839, 3840,
                                 3967, 3968, 4005, IN_FIXUP, AFTER_MEET])
def test_collapse_anywhere_in_the_chunks(pos):
    # n = 4007 has C = 64 and a 39-step last chunk from 3968, so 63/64 and
    # 3967/3968 straddle a chunk boundary, 500 and 997 lie inside a chunk, and
    # 4005 is in the last chunk. Chunk 0 is exact from the start; in any other
    # chunk a collapse before the restart meets the speculative run (IN_FIXUP)
    # is written by the fix-up, and one after it (AFTER_MEET) by the sweep.
    # Two adjacent responses are impossible at L = 1, so both recursions
    # collapse next to ``pos``.
    assert _levels(4007, 2) == (64, 39)
    rng = np.random.default_rng(pos)
    z = fsm_response(MarkovSource.uniform(1).sample(4007, rng), 1).astype(np.float64)
    start = pos - pos % 64
    if pos == IN_FIXUP:
        z[start:pos] = 0.0
    if pos == AFTER_MEET:
        z[start:start + 5] = [0.0, 0.0, 1.0, 0.0, 0.0]
    z[pos:pos + 2] = 1.0
    tr = build_trellis(1, 1)
    ep = _edge_prob(tr, MarkovSource.uniform(1))
    f = NOISELESS.emission(z)
    assert _forward_message(tr, ep, f) == _message(loop_forward, tr, ep, f)
    assert _message(_scaled_forward, tr, ep, f, _every(f)) == _message(loop_forward, tr, ep, f)
    assert _message(_scaled_backward, tr, ep, f) == _message(loop_backward, tr, ep, f)


@pytest.mark.parametrize("n, ends", [
    # n = 4007: C = 64, chunk boundaries at multiples of 64, a 39-step last chunk from 3968
    (4007, [0, 1, 63, 64, 65, 128, 500, 3967, 3968, 3969, 4005, 4006, 4007]),
    # n = 4032 = 63 * 64: the last chunk is full, so n is a chunk boundary
    (4032, [0, 64, 3968, 4031, 4032]),
    (4007, [0, 4007]),
])
def test_rate_pass_block_ends_anywhere(n, ends):
    assert _levels(4007, 4) == (64, 39) and _levels(4032, 4) == (64, 64)
    assert _levels(200_000, 2) == (234, 164)   # the collapse test below
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
    # own per-step terms; S = 64 (r = 6) runs the same chunked scan
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
    # where the loop collapses. At n = 2e5, C = 234: 1169/1170 straddle the
    # chunk boundary at 1170, and 199_990 lies in the 164-step last chunk.
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
    # BSC 1e-200 with flipped observations: a flip costs 2^-664, so entries of
    # one vector sit up to 2^-1328 apart, and the fix-up's relative test must
    # hold on the smallest of them; four responses in a row, impossible at
    # L >= 1, need two flips, 2^-1328 in all
    for L, r, n in ((1, 1, 3000), (2, 3, 3000), (1, 2, 5)):
        tr, ep, f = _case(L, r, BinarySymmetric(1e-200), n, seed=n + r)
        y = (f[:, 1] > f[:, 0]).astype(np.float64)
        flips = np.array([7, 9, 1500, 2999]) % n
        y[flips] = 1.0 - y[flips]
        y[1700 % n:1704 % n] = 1.0
        yield "bsc1e-200", tr, ep, BinarySymmetric(1e-200).emission(y)
    # AWGN 1e-4: densities up to 40, so a normalizer is up to 2^5.3
    for L, r in ((1, 1), (3, 3)):
        yield "awgn1e-4", *_case(L, r, AwgnNoise(1e-4), 3000, seed=r)
    # one step scaled below 2^-64 (and one above 2^64)
    tr, ep, f = _case(2, 2, AwgnNoise(0.5), 3000, seed=5)
    f[1000] *= 2.0 ** -70
    f[2000] *= 2.0 ** 70
    yield "scaled-steps", tr, ep, f
    # every step scaled by 2^±40: a chunk's product of normalizers would leave
    # the float range, which the per-step normalizers never form
    for bits in (-40, 40):
        tr, ep, f = _case(1, 2, AwgnNoise(0.5), 3000, seed=6)
        yield f"scaled-by-2^{bits}", tr, ep, f * 2.0 ** bits


@pytest.mark.parametrize("name, tr, ep, f", list(_stress_cases()),
                         ids=[c[0] for c in _stress_cases()])
def test_renormalization_stress_matches_loop(name, tr, ep, f):
    _assert_scan_matches_loop(tr, ep, f)
    _assert_rate_pass_matches_loop(tr, ep, f, _every(f), loop_forward(tr, ep, f)[1])


def _periodic_case(variance, n, seed):
    # order 2, p1 = [1, 0, 0, 0]: the inputs run 1, 0, 0, 1, 0, 0, ... from
    # ground, so the loop's vector is one state at every step, while a chunk
    # started from the uniform vector keeps some mass on the other two phases
    # until the observations drive it to exactly zero
    src = MarkovSource(2, [1.0, 0.0, 0.0, 0.0])
    rng = np.random.default_rng(seed)
    y = apply_noise(fsm_response(src.sample(n, rng), 2), AwgnNoise(variance), rng)
    tr = build_trellis(2, 2)
    return tr, _edge_prob(tr, src), AwgnNoise(variance).emission(np.asarray(y, dtype=np.float64))


def _sweeps(monkeypatch):
    """Record (vectors per chunk, chunks, C, chunks that met) of every sweep the scan makes."""
    calls, sweep = [], gbaa._sweep

    def spy(f, out, v, C, *args):
        end, met = sweep(f, out, v, C, *args)
        calls.append(v.shape[1:] + (C, int(met.sum())))
        return end, met

    monkeypatch.setattr(gbaa, "_sweep", spy)
    return calls


@pytest.mark.parametrize("variance, blank, rounds, loop", [
    # AWGN 100 hardly tells the phases apart: no restarted chunk meets in the
    # first fix-up round or the second, so the rest of every pass runs as the
    # step-by-step loop from the first unmet chunk's corrected end
    (100.0, None, 2, True),
    # AWGN 0.01 drives the wrong phases to exactly zero within a chunk, but not
    # across steps 1000-1039, which carry no information: chunk 17 (986-1043)
    # does not meet, and the second round, which restarts chunk 18 from its
    # corrected end, meets everywhere
    (0.01, (1000, 1040), 2, False),
    # a blank stretch over several chunks: each later round proves one of them
    # and meets the chunks after the stretch, so the rounds go on, and no loop
    (0.01, (1000, 1200), 4, False),
], ids=["never-forgets", "one-chunk-unmet", "chunks-unmet"])
def test_scan_matches_loop_where_chunks_do_not_meet(monkeypatch, variance, blank, rounds, loop):
    tr, ep, f = _periodic_case(variance, 3000, seed=1)
    if blank:
        f[slice(*blank)] = 1.0
    assert _levels(3000, 4) == (58, 42)
    calls = _sweeps(monkeypatch)
    _scaled_forward(tr, ep, f, _every(f))
    # the first fix-up round over 51 restarted chunks meets some of them
    # exactly when the input forgets its start somewhere
    assert calls[1][:3] == (2, 51, 58) and (0 < calls[1][3] < 51) == (blank is not None)
    assert [P for P, _, _, _ in calls].count(2) == rounds
    assert (calls[-1][:2] == (1, 1)) == loop
    _assert_scan_matches_loop(tr, ep, f)
