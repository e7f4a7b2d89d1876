import re
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chisquare

from p300channel import (Codebook, GridLayout, MarkovSource, export_codebook, gen_cbp,
                         gen_mbc, gen_min_dist, gen_rcp, import_codebook,
                         maxentropic_source, min_hamming_distance)
from p300channel import codebooks


def row_gaps(row):
    ones = np.flatnonzero(row)
    return np.diff(ones) - 1 if ones.size > 1 else np.array([], dtype=int)


def min_hamming_loop(matrix):
    """Reference: the per-row loop the Gram-product version replaced."""
    m = np.asarray(matrix, dtype=np.int16)
    best = m.shape[1] + 1
    for i in range(m.shape[0] - 1):
        d = np.abs(m[i + 1:] - m[i]).sum(axis=1).min()
        best = min(best, int(d))
    return best


def import_loop(path):
    """Reference: the per-cell CSV parse the vectorized one replaced."""
    with open(path) as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty codebook file")
    m = codebooks._HEADER_RE.match(lines[0])
    if not m:
        raise ValueError(f"{path}: bad header {lines[0]!r}")
    W, N, kind, seed = int(m.group(1)), int(m.group(2)), m.group(3), int(m.group(4))
    body = lines[1:]
    if len(body) != W:
        raise ValueError(f"{path}: header says W={W} but found {len(body)} rows")
    matrix = np.empty((W, N), dtype=np.int8)
    for i, line in enumerate(body):
        cells = line.split(",")
        if len(cells) != N:
            raise ValueError(f"{path}: row {i} has {len(cells)} entries, expected N={N}")
        for j, cell in enumerate(cells):
            if cell not in ("0", "1"):
                raise ValueError(f"{path}: row {i} entry {cell!r} is not 0/1")
            matrix[i, j] = int(cell)
    return Codebook(matrix, kind=kind, seed=seed)


def label_distance(book):
    return int(re.search(r"dist=(\d+)\)", book.kind).group(1))


class TestMbc:
    def test_support_and_frequency(self):
        book = gen_mbc(maxentropic_source(1), W=36, N=60, seed=101)
        for row in book.matrix:
            gaps = row_gaps(row)
            assert gaps.size == 0 or gaps.min() >= 1
        stationary = 0.3819660112501051 / (1 + 0.3819660112501051)
        assert abs(book.matrix.mean() - stationary) < 0.03

    def test_order2_gap_constraint(self):
        book = gen_mbc(maxentropic_source(2), W=36, N=60, seed=7)
        for row in book.matrix:
            gaps = row_gaps(row)
            assert gaps.size == 0 or gaps.min() >= 2

    def test_rows_distinct(self):
        book = gen_mbc(maxentropic_source(1), W=36, N=60, seed=3)
        assert len({tuple(r) for r in book.matrix}) == 36

    def test_degenerate_source_rejected(self):
        allzero = MarkovSource(1, np.array([0.0, 0.0]))
        with pytest.raises(ValueError, match="distinct"):
            gen_mbc(allzero, W=36, N=60, seed=0)

    def test_deterministic(self):
        a = gen_mbc(maxentropic_source(1), 36, 60, seed=5)
        b = gen_mbc(maxentropic_source(1), 36, 60, seed=5)
        assert np.array_equal(a.matrix, b.matrix)

    def test_kind_records_order(self):
        book = gen_mbc(maxentropic_source(2), 12, 40, seed=1)
        assert book.kind == "mbc(order=2)"
        assert book.source is not None


class TestRcp:
    def test_block_regularity(self):
        book = gen_rcp(36, 60, seed=4)
        for b in range(5):
            block = book.matrix[:, 12 * b:12 * (b + 1)]
            assert np.all(block.sum(axis=0) == 6)   # each flash group lights 6 chars
            assert np.all(block.sum(axis=1) == 2)   # each char flashed twice per block
    def test_deterministic(self):
        a = gen_rcp(36, 12, seed=9)
        b = gen_rcp(36, 12, seed=9)
        assert np.array_equal(a.matrix, b.matrix)

    def test_consecutive_flashes_happen(self):
        # randomized row/column order often flashes a character twice in a row
        hits = 0
        for seed in range(40):
            m = gen_rcp(36, 12, seed=seed).matrix
            if any((row[:-1] & row[1:]).any() for row in m):
                hits += 1
        assert hits > 0

    def test_rejects_bad_N(self):
        with pytest.raises(ValueError):
            gen_rcp(36, 30, seed=0)
        with pytest.raises(ValueError):
            gen_rcp(35, 24, seed=0)


class TestCbp:
    def test_gap_guarantee(self):
        for g in (1, 2, 3):
            book = gen_cbp(N=60, min_gap=g, seed=11)
            for row in book.matrix:
                gaps = row_gaps(row)
                assert gaps.size == 0 or gaps.min() >= g

    def test_gap_one_means_no_adjacent_ones(self):
        book = gen_cbp(N=36, min_gap=1, seed=2)
        for row in book.matrix:
            assert not (row[:-1] & row[1:]).any()

    def test_pass_flashes_every_char_twice(self):
        book = gen_cbp(N=54, min_gap=3, seed=8)
        for p in range(3):
            chunk = book.matrix[:, 18 * p:18 * (p + 1)]
            assert np.all(chunk.sum(axis=1) == 2)

    def test_half_blocks_cover_their_half_twice(self):
        book = gen_cbp(N=18, min_gap=3, seed=1)
        cells = np.arange(36)
        parity = (cells // 6 + cells % 6) % 2
        half_a_cols = np.r_[0:3, 6:12]     # rows of A, columns of A
        counts = book.matrix[:, half_a_cols].sum(axis=1)
        assert np.all(counts[parity == 0] == 2)
        assert np.all(counts[parity == 1] == 0)

    def test_infeasible_gap_rejected(self):
        with pytest.raises(ValueError, match="infeasible"):
            gen_cbp(N=60, min_gap=4, seed=0)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            gen_cbp(N=12, min_gap=1, seed=0)

    def test_deterministic(self):
        assert np.array_equal(gen_cbp(60, 3, seed=6).matrix,
                              gen_cbp(60, 3, seed=6).matrix)


class TestMinDist:
    def test_two_complementary_rows(self):
        book = gen_min_dist(W=2, N=4, weight=2, trials=200, seed=0)
        assert min_hamming_distance(book.matrix) == 4

    def test_constant_weight_and_reported_distance(self):
        book = gen_min_dist(W=36, N=60, weight=10, trials=30, seed=1)
        assert np.all(book.matrix.sum(axis=1) == 10)
        d = min_hamming_distance(book.matrix)
        assert d >= 2
        assert f"dist={d}" in book.kind

    def test_monotone_in_trials(self):
        dists = []
        for trials in (1, 2, 5, 10, 25):
            book = gen_min_dist(W=12, N=24, weight=8, trials=trials, seed=3)
            dists.append(min_hamming_distance(book.matrix))
        assert all(b >= a for a, b in zip(dists, dists[1:]))

    def test_impossible_requests_rejected(self):
        with pytest.raises(ValueError):
            gen_min_dist(W=7, N=4, weight=2, trials=1, seed=0)   # only C(4,2)=6 words
        with pytest.raises(ValueError):
            gen_min_dist(W=2, N=4, weight=5, trials=1, seed=0)
        with pytest.raises(ValueError, match="only 1 weight-0 words"):
            gen_min_dist(W=2, N=4, weight=0, trials=1, seed=0)
        with pytest.raises(ValueError, match="trials"):
            gen_min_dist(W=2, N=4, weight=2, trials=0, seed=0)
        for W, N in ((0, 4), (1, 0)):
            with pytest.raises(ValueError, match="W >= 1 and N >= 1"):
                gen_min_dist(W=W, N=N, weight=0, trials=1, seed=0)

    def test_every_word_when_W_is_the_word_count(self):
        book = gen_min_dist(W=6, N=4, weight=2, trials=3, seed=0)
        assert {tuple(r) for r in book.matrix} == {
            tuple(int(i in pair) for i in range(4))
            for pair in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))}
        assert label_distance(book) == min_hamming_loop(book.matrix) == 2

    def test_single_row_reports_N(self):
        book = gen_min_dist(W=1, N=7, weight=3, trials=4, seed=2)
        assert book.matrix.shape == (1, 7) and book.matrix.sum() == 3
        assert book.kind == "mindist(weight=3,dist=7)"

    def test_weight_zero_single_row(self):
        book = gen_min_dist(W=1, N=5, weight=0, trials=2, seed=0)
        assert np.array_equal(book.matrix, np.zeros((1, 5), dtype=np.int8))
        assert book.kind == "mindist(weight=0,dist=5)"

    def test_rows_are_uniform_words(self):
        rows = codebooks._constant_weight_rows(np.random.default_rng(4), 20000, 5, 2)
        assert np.all(rows.sum(axis=1) == 2)
        _, counts = np.unique(rows, axis=0, return_counts=True)
        assert counts.size == comb(5, 2) and chisquare(counts).pvalue > 1e-3

    def test_repaired_books_are_uniform_orderings(self):
        # 3 distinct words out of 3 leaves only the order; most trials need repairs
        books = [gen_min_dist(W=3, N=3, weight=1, trials=1, seed=s).matrix.argmax(axis=1)
                 for s in range(1200)]
        _, counts = np.unique(books, axis=0, return_counts=True)
        assert counts.size == 6 and chisquare(counts).pvalue > 1e-3

    def test_budget_exhausted_message(self, monkeypatch):
        def same_word(rng, rows, N, weight):   # every draw is the first weight-k word
            words = np.zeros((rows, N), dtype=np.int8)
            words[:, :weight] = 1
            return words

        monkeypatch.setattr(codebooks, "_constant_weight_rows", same_word)
        with pytest.raises(ValueError,
                           match="cannot draw 3 distinct weight-2 rows of length 5"):
            gen_min_dist(W=3, N=5, weight=2, trials=2, seed=0)

    def test_budget_allows_200_W_draws(self, monkeypatch):
        # a child that repeats one word until its 200 W-th row draw still gives a book
        drawn = []

        def late_second_word(rng, rows, N, weight):
            drawn.append(rows)
            words = np.zeros((rows, N), dtype=np.int8)
            words[:, :weight] = 1
            return np.roll(words, 1, axis=1) if sum(drawn) == 200 * 2 else words

        monkeypatch.setattr(codebooks, "_constant_weight_rows", late_second_word)
        book = gen_min_dist(W=2, N=5, weight=2, trials=1, seed=0)
        assert sum(drawn) == 400
        assert book.kind == "mindist(weight=2,dist=2)"


@settings(max_examples=200, deadline=None)
@given(data=st.data(), W=st.integers(2, 40), N=st.integers(1, 64))
def test_gram_distance_matches_loop(data, W, N):
    seed = data.draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    m = rng.integers(0, 2, size=(W, N), dtype=np.int8)
    if data.draw(st.booleans()):                     # force a duplicate pair: distance 0
        i, j = data.draw(st.lists(st.integers(0, W - 1), min_size=2, max_size=2,
                                  unique=True))
        m[j] = m[i]
    if data.draw(st.booleans()):                     # all-zero rows
        m[data.draw(st.lists(st.integers(0, W - 1), max_size=W))] = 0
    dtype = data.draw(st.sampled_from((np.int8, np.int64, bool, np.float64)))
    assert min_hamming_distance(m.astype(dtype)) == min_hamming_loop(m)


def test_min_hamming_distance_rejects_bad_input():
    with pytest.raises(ValueError, match="two rows"):
        min_hamming_distance(np.ones((1, 4)))
    with pytest.raises(ValueError, match="2-D"):
        min_hamming_distance(np.ones(4))
    with pytest.raises(ValueError, match="0 or 1"):
        min_hamming_distance(np.array([[0, 2], [1, 0]]))


@st.composite
def min_dist_requests(draw):
    N = draw(st.integers(1, 14))
    weight = draw(st.integers(0, N))
    W = draw(st.integers(1, min(comb(N, weight), 16)))
    return W, N, weight, draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=60, deadline=None)
@given(request=min_dist_requests())
def test_gen_min_dist_properties(request):
    W, N, weight, seed = request
    books = [gen_min_dist(W, N, weight, trials=t, seed=seed) for t in (1, 2, 4, 7)]
    for book in books:
        m = book.matrix
        assert m.shape == (W, N)
        assert len({tuple(r) for r in m}) == W
        assert np.all(m.sum(axis=1) == weight)
        assert label_distance(book) == (min_hamming_loop(m) if W > 1 else N)
    dists = [label_distance(b) for b in books]
    assert dists == sorted(dists)                    # monotone over trial prefixes
    for shorter, longer in zip(books, books[1:]):    # the first best trial wins
        if label_distance(shorter) == label_distance(longer):
            assert np.array_equal(shorter.matrix, longer.matrix)
    again = gen_min_dist(W, N, weight, trials=7, seed=seed)
    assert np.array_equal(again.matrix, books[-1].matrix) and again.kind == books[-1].kind


class TestSerialization:
    def test_round_trip_matrix_and_file(self, tmp_path):
        book = gen_rcp(36, 24, seed=10)
        path = tmp_path / "book.csv"
        export_codebook(book, path)
        back = import_codebook(path)
        assert np.array_equal(back.matrix, book.matrix)
        assert back.kind == book.kind and back.seed == book.seed
        path2 = tmp_path / "again.csv"
        export_codebook(back, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_nonbinary_entry_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# W=2 N=2 kind=x seed=0\n0,2\n1,0\n")
        with pytest.raises(ValueError, match="not 0/1"):
            import_codebook(path)

    def test_header_disagreement_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# W=3 N=2 kind=x seed=0\n0,1\n1,0\n")
        with pytest.raises(ValueError, match="W=3"):
            import_codebook(path)
        path.write_text("# W=2 N=3 kind=x seed=0\n0,1\n1,0\n")
        with pytest.raises(ValueError, match="N=3"):
            import_codebook(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,1\n1,0\n")
        with pytest.raises(ValueError, match="header"):
            import_codebook(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("\n  \n")
        with pytest.raises(ValueError, match="empty codebook file"):
            import_codebook(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# W=2 N=2 kind=x\n0,1\n1,0\n")
        with pytest.raises(ValueError, match=r"bad header '# W=2 N=2 kind=x'"):
            import_codebook(path)

    def test_wrong_row_count_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# W=3 N=2 kind=x seed=0\n0,1\n1,0\n")
        with pytest.raises(ValueError, match="header says W=3 but found 2 rows"):
            import_codebook(path)

    def test_wrong_row_length_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# W=2 N=2 kind=x seed=0\n0,1\n1,0,1\n")
        with pytest.raises(ValueError, match="row 1 has 3 entries, expected N=2"):
            import_codebook(path)

    def test_non_binary_entry_message(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# W=2 N=3 kind=x seed=0\n0,1,1\n1,,\u00e9\n")
        with pytest.raises(ValueError, match=r"row 1 entry '' is not 0/1"):
            import_codebook(path)

    @pytest.mark.parametrize("body, message", [
        ("1,2\n0\n", "row 0 entry '2' is not 0/1"),           # cell before a later length
        ("1\n0,2\n", "row 0 has 1 entries, expected N=2"),   # length before a later cell
        ("1,2,3\n0,1\n", "row 0 has 3 entries, expected N=2"),  # length before own cells
        ("0,1\n1, 0\n", "row 1 entry ' 0' is not 0/1"),
    ])
    def test_first_error_in_row_major_order(self, tmp_path, body, message):
        path = tmp_path / "bad.csv"
        path.write_text("# W=2 N=2 kind=x seed=0\n" + body)
        with pytest.raises(ValueError, match=re.escape(message)):
            import_codebook(path)

    @pytest.mark.filterwarnings("ignore:codebook .* contains duplicate rows")
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), W=st.integers(0, 4), N=st.integers(1, 4))
    def test_parse_matches_cell_loop(self, tmp_path_factory, data, W, N):
        cell = st.one_of(st.sampled_from(("0", "1")),
                         st.sampled_from(("", "2", "01", " 1", "0 ", "\u00e9", "1\x00", "-")))
        rows = data.draw(st.lists(
            st.lists(cell, min_size=max(N - 1, 0), max_size=N + 1).map(",".join),
            min_size=W, max_size=W))
        path = tmp_path_factory.mktemp("csv") / "book.csv"
        path.write_text("\n".join([f"# W={W} N={N} kind=x seed=1", *rows]) + "\n",
                        encoding="utf-8")
        try:
            expected = import_loop(path)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                import_codebook(path)
            assert str(got.value) == str(exc)
        else:
            book = import_codebook(path)
            assert book.matrix.dtype == np.int8
            assert np.array_equal(book.matrix, expected.matrix)
            assert (book.kind, book.seed) == (expected.kind, expected.seed)

    def test_duplicate_rows_warn_only(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("# W=2 N=2 kind=imported seed=0\n1,0\n1,0\n")
        with pytest.warns(UserWarning, match="duplicate"):
            book = import_codebook(path)
        assert book.num_chars == 2


@pytest.mark.parametrize("matrix", [
    [[0, 1], [1, 0]], [[True, False], [False, True]], [[0.0, 1.0], [-0.0, 0.0]],
    np.array([[0, 1], [1, 0]], dtype=np.uint8), np.zeros((0, 3)),
    [[0, 2], [1, 0]], [[-1, 0], [1, 0]], [[0.5, 1.0], [0.0, 1.0]],
    [[np.nan, 1.0], [0.0, 1.0]], np.array([[255, 0], [1, 0]], dtype=np.uint8),
])
def test_codebook_accepts_exactly_what_isin_accepts(matrix):
    m = np.asarray(matrix)
    if np.isin(m, (0, 1)).all():
        book = Codebook(m, kind="t", seed=0)
        assert book.matrix.dtype == np.int8 and np.array_equal(book.matrix, m)
    else:
        with pytest.raises(ValueError, match="codebook entries must be 0 or 1"):
            Codebook(m, kind="t", seed=0)


def test_codebook_duplicate_rows_warn():
    with pytest.warns(UserWarning, match=r"codebook \(t\) contains duplicate rows"):
        Codebook(np.array([[1, 0, 1], [0, 1, 1], [1, 0, 1]]), kind="t", seed=0)
    with pytest.warns(UserWarning, match="duplicate"):
        Codebook(np.zeros((2, 0)), kind="t", seed=0)     # two empty rows are equal


def test_grid_layout_groups():
    layout = GridLayout()
    groups = layout.group_columns()
    assert groups.shape == (36, 12)
    assert np.all(groups.sum(axis=0) == 6)
    assert np.all(groups.sum(axis=1) == 2)
