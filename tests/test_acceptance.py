"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite is deterministic under its frozen seeds.
"""

import itertools
import json
import time

import numpy as np
import pytest

from p300channel import (AwgnNoise, BinarySymmetric, ChannelSpec, Codebook,
                         GbaaConfig, MarkovSource, SimConfig, brute_force_mi,
                         entropy_rate, estimate_rate, fixed_point_a, fsm_response,
                         gbaa_optimize, gen_cbp, gen_mbc, gen_min_dist, gen_rcp,
                         map_decode, maxentropic_source, noiseless_rate,
                         rll_capacity_perron, run_experiment)
from p300channel.cli import main

GOLDEN_RATE = 0.6942419136306174
SIGMA2_GRID = (0.5, 1.0, 2.0, 4.0, 8.0)
MID_RANGE = (1.0, 2.0, 4.0)
RUNS = 10_000


def report(criterion: str, detail: str):
    print(f"PASS {criterion}: {detail}")


@pytest.fixture(scope="module")
def books_by_L():
    books = {
        1: {
            "mbc": gen_mbc(maxentropic_source(1), 36, 60, seed=101),
            "rcp": gen_rcp(36, 60, seed=103),
            "cbp": gen_cbp(60, 3, seed=104),
            "mindist": gen_min_dist(36, 60, weight=10, trials=50, seed=105),
        },
        2: {
            "mbc": gen_mbc(maxentropic_source(2), 36, 60, seed=202),
            "rcp": gen_rcp(36, 60, seed=203),
            "cbp": gen_cbp(60, 3, seed=204),
            "mindist": gen_min_dist(36, 60, weight=10, trials=50, seed=205),
        },
    }
    # the comparison presumes decodable books: distinct gate responses per channel
    for L, group in books.items():
        for label, book in group.items():
            Z = fsm_response(book.matrix, L)
            assert len({tuple(r) for r in Z}) == 36, (L, label)
    return books


def test_criterion_1_fixed_point_golden_ratio():
    exact = (3.0 - np.sqrt(5.0)) / 2.0
    fixed_point_a(1)   # warm-up outside the timed call
    t0 = time.perf_counter()
    a = fixed_point_a(1)
    elapsed = time.perf_counter() - t0
    assert abs(a - exact) < 1e-10
    assert elapsed < 1e-3
    report("criterion-1 fixed point",
           f"|a*-(3-sqrt5)/2|={abs(a - exact):.2e}, {elapsed * 1e6:.0f}us")


def test_criterion_2_rate_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for L in range(9):
        closed = noiseless_rate(L).rate
        perron = rll_capacity_perron(L).rate
        worst = max(worst, abs(closed - perron))
        if L == 1:
            assert abs(closed - GOLDEN_RATE) < 1e-9
            assert abs(perron - GOLDEN_RATE) < 1e-9
    elapsed = time.perf_counter() - t0
    assert worst < 1e-9
    assert elapsed < 1.0
    report("criterion-2 rate identity",
           f"max gap {worst:.2e} over L=0..8, {elapsed:.2f}s")


def test_criterion_3_achievability():
    worst = 0.0
    for L in range(1, 6):
        gap = abs(entropy_rate(maxentropic_source(L)) - noiseless_rate(L).rate)
        worst = max(worst, gap)
    assert worst < 1e-9
    report("criterion-3 achievability", f"max gap {worst:.2e} over L=1..5")


def test_criterion_4_upper_bound_property():
    # At L=1 the n=12 transient is capped at log2(F14)/12 - rate < 0.02 for
    # every source, so the slack covers any draw; 200 random sources checked.
    L, n = 1, 12
    t0 = time.perf_counter()
    bound = noiseless_rate(L).rate + 0.02
    rng = np.random.default_rng(4242)
    worst = -np.inf
    for _ in range(200):
        src = MarkovSource(L, rng.random(1 << L))
        mi = brute_force_mi(src, ChannelSpec(L), n)
        worst = max(worst, mi)
        assert mi <= bound
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report("criterion-4 upper bound",
           f"max MI {worst:.5f} <= {bound:.5f} over 200 sources, {elapsed:.1f}s")


@pytest.mark.parametrize("L", [1, 2])
def test_criterion_5_gbaa_noiseless_limit(L):
    t0 = time.perf_counter()
    channel = ChannelSpec(L, AwgnNoise(1e-4))
    cfg = GbaaConfig(order=L, sample_len=50_000, max_iters=40, seed=11)
    source, est, trace = gbaa_optimize(channel, cfg)
    elapsed = time.perf_counter() - t0
    target = noiseless_rate(L).rate
    a_star = fixed_point_a(L)
    rel_err = abs(est.rate - target) / target
    a_err = abs(float(source.p1[0]) - a_star)
    assert rel_err < 0.01
    assert a_err < 0.02
    assert elapsed < 300.0
    report(f"criterion-5 GBAA noiseless limit L={L}",
           f"rate {est.rate:.5f} vs {target:.5f} (rel {rel_err:.4f}), "
           f"P(1|0^L) {float(source.p1[0]):.5f} vs a* {a_star:.5f}, {elapsed:.0f}s")


def test_criterion_6_estimator_oracle_equivalence():
    src = maxentropic_source(1)
    diffs = {}
    for eps in (0.0, 0.05, 0.2):
        chan = ChannelSpec(1, BinarySymmetric(eps))
        est = estimate_rate(src, chan, n=100_000, seed=17)
        oracle = brute_force_mi(src, chan, 12)
        diffs[eps] = abs(est.rate - oracle)
        assert diffs[eps] < 0.02
    report("criterion-6 estimator vs oracle",
           ", ".join(f"eps={e}: diff {d:.4f}" for e, d in diffs.items()))


def test_criterion_7_decoder_oracle():
    rng = np.random.default_rng(123)
    book = Codebook(rng.integers(0, 2, size=(4, 6)), kind="oracle", seed=0)
    eps = 0.1
    chan = ChannelSpec(1, BinarySymmetric(eps))
    Z = fsm_response(book.matrix, 1)
    mismatches = 0
    for bits in itertools.product((0, 1), repeat=6):
        y = np.array(bits, dtype=np.int8)
        d = (y[None, :] != Z).sum(axis=1)
        posterior = (eps ** d) * ((1 - eps) ** (6 - d))
        posterior = posterior / posterior.sum()
        if map_decode(y, book, chan) != int(np.argmax(posterior)):
            mismatches += 1
    assert mismatches == 0
    report("criterion-7 decoder oracle", "0 mismatches over all 64 outputs")


def _accuracy_table(books, L, runs, master_seed):
    table = {}
    for i, sigma2 in enumerate(SIGMA2_GRID):
        for j, (label, book) in enumerate(sorted(books.items())):
            seed = int(np.random.SeedSequence([master_seed, i, j]).generate_state(1)[0])
            cfg = SimConfig(book, ChannelSpec(L, AwgnNoise(sigma2)), runs=runs, seed=seed)
            rep = run_experiment(cfg)
            table[sigma2, label] = (rep.accuracy, (rep.ci_lo, rep.ci_hi))
    return table


@pytest.mark.parametrize("L", [1, 2])
def test_criterion_8_mbc_outperforms_baselines(L, books_by_L):
    t0 = time.perf_counter()
    table = _accuracy_table(books_by_L[L], L, RUNS, master_seed=800 + L)
    elapsed = time.perf_counter() - t0
    accs = [acc for acc, _ in table.values()]
    assert min(accs) <= 0.25 and max(accs) >= 0.90   # grid spans the 20-95% range

    for label in ("rcp", "cbp", "mindist"):
        for sigma2 in SIGMA2_GRID:
            assert table[sigma2, "mbc"][0] >= table[sigma2, label][0], (label, sigma2)
        separated = sum(
            table[s, "mbc"][1][0] > table[s, label][1][1] for s in MID_RANGE)
        assert separated >= 2, f"CI separation vs {label}: {separated}/3"

    mid_gaps = {s: table[s, "mbc"][0] - max(table[s, lbl][0]
                                            for lbl in ("rcp", "cbp", "mindist"))
                for s in MID_RANGE}
    assert elapsed < 900.0
    report(f"criterion-8 codebook comparison L={L}",
           f"MBC >= all baselines at {len(SIGMA2_GRID)} points, mid-range gaps "
           + ", ".join(f"{s}: {g:+.3f}" for s, g in mid_gaps.items())
           + f", {elapsed:.0f}s")


def test_criterion_9_mbc_degrades_with_L():
    sigma2 = 1.5
    results = []
    for L in (1, 2, 3):
        book = gen_mbc(maxentropic_source(L), 36, 60, seed=300 + L)
        seed = int(np.random.SeedSequence([900, L]).generate_state(1)[0])
        cfg = SimConfig(book, ChannelSpec(L, AwgnNoise(sigma2)), runs=RUNS, seed=seed)
        rep = run_experiment(cfg)
        results.append((L, rep.accuracy, (rep.ci_lo, rep.ci_hi)))
    for (_, acc_a, ci_a), (_, acc_b, ci_b) in zip(results, results[1:]):
        assert acc_a >= acc_b or ci_a[0] <= ci_b[1]   # ordered up to CI overlap
    report("criterion-9 refractory degradation",
           ", ".join(f"L={L}: {acc:.3f}" for L, acc, _ in results))


def test_criterion_10_floor_and_ceiling(books_by_L):
    for L, group in books_by_L.items():
        for label, book in group.items():
            rep = run_experiment(SimConfig(book, ChannelSpec(L), runs=2000,
                                           seed=1000 + L))
            assert rep.accuracy == 1.0, (L, label)
    # swamping noise drives the standard row-column book to chance level
    chance_book = books_by_L[1]["rcp"]
    cfg = SimConfig(chance_book, ChannelSpec(1, AwgnNoise(1e4)), runs=RUNS, seed=0)
    rep = run_experiment(cfg)
    lo, hi = rep.ci_lo, rep.ci_hi
    assert lo <= 1 / 36 <= hi
    assert rep.accuracy >= 1 / 36 - 3 * (hi - lo) / 2   # chance is a floor
    report("criterion-10 floor and ceiling",
           f"noiseless accuracy 1.0 for all books; chance run {rep.accuracy:.4f} "
           f"(CI [{lo:.4f}, {hi:.4f}] covers 1/36={1 / 36:.4f})")


def _run_cli_capture(capsys, tmp_path, tag, argv):
    outdir = tmp_path / tag
    outdir.mkdir()
    argv = [a.replace("@OUT@", str(outdir)) for a in argv]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0, (argv, captured.err)
    files = {p.name: p.read_bytes() for p in sorted(outdir.rglob("*")) if p.is_file()}
    # the echoed output location necessarily differs between the two runs
    return captured.out.replace(str(outdir), "@OUT@"), files


def test_criterion_11_byte_identical_outputs(capsys, tmp_path):
    book_file = tmp_path / "book.csv"
    main(["genbook", "--kind", "rcp", "--N", "24", "--seed", "5",
          "--out", str(book_file)])
    capsys.readouterr()

    invocations = {
        "rate": ["rate", "--L", "1", "--seed", "3"],
        "optimize": ["optimize", "--L", "1", "--sigma2", "0.5", "--iters", "2",
                     "--len", "2000", "--seed", "6", "--out", "@OUT@"],
        "genbook-mbc": ["genbook", "--kind", "mbc", "--L", "1", "--N", "36",
                        "--seed", "4", "--out", "@OUT@/mbc.csv"],
        "genbook-mindist": ["genbook", "--kind", "mindist", "--N", "24",
                            "--trials", "5", "--seed", "4", "--out", "@OUT@/md.csv"],
        "simulate": ["simulate", "--book", str(book_file), "--L", "1",
                     "--sigma2", "1.0", "--runs", "200", "--seed", "8",
                     "--confusion"],
        "sweep": ["sweep", "--L", "1", "--sigma2-grid", "0.5,2", "--kinds",
                  "rcp,cbp", "--runs", "100", "--seed", "9"],
        "selftest": ["selftest", "--seed", "0"],
    }
    for tag, argv in invocations.items():
        out1, files1 = _run_cli_capture(capsys, tmp_path, f"{tag}-a", argv)
        out2, files2 = _run_cli_capture(capsys, tmp_path, f"{tag}-b", argv)
        assert out1 == out2, f"{tag}: stdout differs between runs"
        assert list(files1) == list(files2)
        for name in files1:
            assert files1[name] == files2[name], f"{tag}: file {name} differs"
    report("criterion-11 determinism",
           f"{len(invocations)} subcommands byte-identical across repeated runs")
