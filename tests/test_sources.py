import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from p300channel import (MarkovSource, ReducibleChainError, gen_mbc, load_source,
                         maxentropic_source, save_source)
from p300channel.sources import (_chunk_len, history_from_label, history_label,
                                 recurrent_classes, stationary_distribution)


def loop_sample(source, n, rng, init=0):
    """Oracle: the step-by-step sampler, one symbol per Python step."""
    h = int(init)
    mask = source.num_histories - 1
    u = rng.random(n)
    p1 = source.p1
    out = np.empty(n, dtype=np.int8)
    for t in range(n):
        b = 1 if u[t] < p1[h] else 0
        out[t] = b
        h = ((h << 1) | b) & mask
    return out


def loop_gen_mbc(source, W, N, seed):
    """Oracle: MBC rows drawn one at a time, each from its own choice() start."""
    pi = stationary_distribution(source)
    rng = np.random.default_rng(np.random.SeedSequence([seed, W, N]))
    rows, seen, budget, drawn = [], set(), 20 * W, 0
    while len(rows) < W:
        if budget == 0:
            raise ValueError(
                f"could not draw {W} distinct rows of length {N} from this source"
            )
        budget -= 1
        drawn += 1
        h0 = int(rng.choice(source.num_histories, p=pi))
        row = tuple(loop_sample(source, N, rng, init=h0))
        if row in seen:
            continue
        seen.add(row)
        rows.append(row)
    return np.array(rows, dtype=np.int8), drawn


def test_constrained_shape():
    src = MarkovSource.constrained(2, 0.3)
    assert src.p1.tolist() == [0.3, 0.0, 0.0, 0.0]


def test_validation():
    with pytest.raises(ValueError):
        MarkovSource(0, np.array([0.5]))
    with pytest.raises(ValueError):
        MarkovSource(1, np.array([0.5, 1.5]))
    with pytest.raises(ValueError):
        MarkovSource(1, np.array([0.5]))
    with pytest.raises(ValueError, match="must lie in"):
        MarkovSource(1, np.array([np.nan, 0.5]))


def test_history_labels_round_trip():
    # oldest bit first; the integer keeps the newest bit in the LSB
    assert history_label(0b01, 2) == "01"
    assert history_from_label("01") == 1
    for h in range(8):
        assert history_from_label(history_label(h, 3)) == h


def test_transition_matrix_rows_sum_to_one():
    rng = np.random.default_rng(0)
    src = MarkovSource(3, rng.random(8))
    T = src.transition_matrix()
    assert np.allclose(T.sum(axis=1), 1.0)


def test_transition_matrix_follows_shift():
    src = MarkovSource(2, np.array([0.2, 0.4, 0.6, 0.8]))
    T = src.transition_matrix()
    # from history 0b01 (newest bit 1): emitting 0 -> 0b10, emitting 1 -> 0b11
    assert T[1, 2] == pytest.approx(0.6)
    assert T[1, 3] == pytest.approx(0.4)


def test_stationary_iid():
    src = MarkovSource(1, np.array([0.3, 0.3]))
    pi = stationary_distribution(src)
    assert pi == pytest.approx([0.7, 0.3], abs=1e-12)


def test_stationary_of_constrained_chain():
    # order-2 constrained chain: history 11 is transient
    src = MarkovSource.constrained(2, 0.25)
    pi = stationary_distribution(src)
    assert pi[3] == 0.0
    assert pi.sum() == pytest.approx(1.0, abs=1e-12)
    # fraction of ones equals a / (1 + L a) by the renewal argument
    assert float(pi @ src.p1) == pytest.approx(0.25 / 1.5, abs=1e-12)


def closed_classes_oracle(source):
    """Oracle: the strongly connected components that no edge leaves."""
    T = source.transition_matrix() > 0
    n_comp, labels = connected_components(csr_matrix(T), directed=True, connection="strong")
    return [np.flatnonzero(labels == c) for c in range(n_comp)
            if not T[labels == c][:, labels != c].any()]


def de_bruijn_source(bits="0000100110101111"):
    """The deterministic source whose 2^r histories form one cycle along ``bits``."""
    r = len(bits).bit_length() - 1
    cyclic = bits + bits[:r]
    p1 = np.zeros(len(bits))
    for t in range(len(bits)):
        p1[history_from_label(cyclic[t:t + r])] = int(cyclic[t + r])
    return MarkovSource(r, p1)


def test_multiple_recurrent_classes_detected():
    src = MarkovSource(1, np.array([0.0, 1.0]))   # all-zero and all-one absorbers
    assert len(recurrent_classes(src)) == 2
    with pytest.raises(ReducibleChainError):
        stationary_distribution(src)


def test_sampling_frequency_and_support():
    src = MarkovSource.constrained(1, 0.4)
    rng = np.random.default_rng(12)
    x = src.sample(100_000, rng)
    ones = np.flatnonzero(x)
    assert np.diff(ones).min() >= 2            # no adjacent ones
    assert abs(x.mean() - 0.4 / 1.4) < 0.01    # stationary fraction a/(1+a)


def test_sampling_determinism():
    src = MarkovSource(2, np.array([0.3, 0.1, 0.7, 0.2]))
    a = src.sample(500, np.random.default_rng(9))
    b = src.sample(500, np.random.default_rng(9))
    assert np.array_equal(a, b)


def test_source_file_round_trip(tmp_path):
    src = MarkovSource(2, np.array([0.31, 0.0, 0.25, 1.0]))
    path = tmp_path / "src.txt"
    save_source(src, path)
    back = load_source(path)
    assert back.order == 2
    assert np.array_equal(back.p1, src.p1)


def test_source_file_validation(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0,0.5\n1,0.5\n")
    with pytest.raises(ValueError, match="order"):
        load_source(path)
    path.write_text("# order=2\n00,0.5\n01,0.5\n10,0.5\n")
    with pytest.raises(ValueError, match="missing"):
        load_source(path)
    path.write_text("# order=1\n00,0.5\n01,0.5\n")
    with pytest.raises(ValueError, match="order"):
        load_source(path)


@st.composite
def markov_sources(draw, max_order=4):
    order = draw(st.integers(1, max_order))
    entry = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
    p1 = draw(st.lists(entry, min_size=1 << order, max_size=1 << order))
    return MarkovSource(order, np.array(p1))


@settings(max_examples=300, deadline=None)
@given(source=markov_sources(max_order=6))
@example(source=de_bruijn_source())
# escapes far below machine epsilon: 1 - p rounds to 1, so T - I is singular
@example(source=MarkovSource(4, np.eye(16)[4] + 2.39e-217 * np.eye(16)[[0, 9]].sum(0)))
@example(source=MarkovSource(3, np.array([1.17549435e-38, 0, 1, 0, 0, 1.40129846e-45, 0, 0])))
def test_recurrent_classes_match_scc_oracle(source):
    want = closed_classes_oracle(source)
    got = recurrent_classes(source)
    assert sorted(map(tuple, got)) == sorted(map(tuple, want))
    if len(want) == 1:
        pi = stationary_distribution(source)
        assert set(np.flatnonzero(pi)) <= set(want[0])
    else:
        with pytest.raises(ReducibleChainError, match=f"has {len(want)} recurrent classes"):
            stationary_distribution(source)


def test_de_bruijn_source_is_one_cycle():
    source = de_bruijn_source()
    assert [c.tolist() for c in recurrent_classes(source)] == [list(range(16))]
    assert stationary_distribution(source) == pytest.approx(np.full(16, 1 / 16), abs=1e-12)


# ---------------------------------------------------------------------------
# Chunked sampler vs the step-by-step loop
# ---------------------------------------------------------------------------

# lengths that fill the last chunk exactly, or leave one step in it or missing;
# up to 5000 steps and order 4 the chunk length does not depend on the order
chunk_edges = [n for n in range(1, 5001)
               if n % _chunk_len(n, 16) in (0, 1, _chunk_len(n, 16) - 1)]
assert all(_chunk_len(n, 16) == _chunk_len(n, 2) for n in chunk_edges)
lengths = st.one_of(st.integers(0, 5000), st.sampled_from(chunk_edges))


def _draw(fn, source, n, seed):
    rng = np.random.default_rng(seed)
    return fn(source, n, rng), rng.bit_generator.state


@settings(max_examples=300, deadline=None)
@given(source=markov_sources(), n=lengths, seed=st.integers(0, 2 ** 32 - 1))
def test_chunked_sample_matches_loop(source, n, seed):
    got, got_state = _draw(MarkovSource.sample, source, n, seed)
    want, want_state = _draw(loop_sample, source, n, seed)
    assert got_state == want_state
    assert got.dtype == np.int8 and got.shape == (n,)
    assert np.array_equal(got, want)


# 99_975 is 1075 full chunks of 93 steps; 100_000 leaves a 25-step last chunk
@pytest.mark.parametrize("n", [0, 1, 2, 3, 100, 101, 10_007, 99_975, 100_000])
@pytest.mark.parametrize("order", [1, 3])
def test_chunked_sample_matches_loop_long(n, order):
    rng = np.random.default_rng(order)
    source = MarkovSource(order, rng.random(1 << order))
    a, b = np.random.default_rng(n), np.random.default_rng(n)
    assert np.array_equal(source.sample(n, a), loop_sample(source, n, b))
    assert a.bit_generator.state == b.bit_generator.state


def test_empty_sample():
    x = MarkovSource.uniform(2).sample(0, np.random.default_rng(0))
    assert x.dtype == np.int8 and x.shape == (0,)


# ---------------------------------------------------------------------------
# Batched MBC rows vs the row-by-row oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("source, W, N", [
    (maxentropic_source(1), 36, 60),
    (maxentropic_source(2), 36, 60),
    (maxentropic_source(3), 36, 20),
    (MarkovSource(2, np.array([0.3, 0.9, 0.1, 0.6])), 10, 4),
])
def test_batched_mbc_matches_row_oracle(source, W, N):
    for seed in range(8):
        want, _ = loop_gen_mbc(source, W, N, seed)
        assert np.array_equal(gen_mbc(source, W, N, seed).matrix, want)


def test_batched_mbc_resamples_duplicates_like_oracle():
    source = MarkovSource(1, np.array([0.05, 0.5]))   # mostly zeros: many repeats
    for seed in range(8):
        want, drawn = loop_gen_mbc(source, 36, 8, seed)
        assert drawn > 36
        assert np.array_equal(gen_mbc(source, 36, 8, seed).matrix, want)


def test_batched_mbc_exhausts_budget_like_oracle():
    # length-3 rows of the L=3 run-length source: only 000, 100, 010, 001 exist
    source = maxentropic_source(3)
    with pytest.raises(ValueError) as want:
        loop_gen_mbc(source, 5, 3, seed=0)
    with pytest.raises(ValueError) as got:
        gen_mbc(source, 5, 3, seed=0)
    assert str(got.value) == str(want.value)
