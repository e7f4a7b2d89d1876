import json

import numpy as np
import pytest

from p300channel import gen_cbp, gen_mbc, gen_min_dist, gen_rcp, maxentropic_source
from p300channel.cli import main
from p300channel.codebooks import codebook_csv_text


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRate:
    def test_L1_values(self, capsys):
        code, out, _ = run_cli(capsys, "rate", "--L", "1", "--seed", "0")
        assert code == 0
        payload = json.loads(out)
        assert payload["a_star"] == pytest.approx(0.381966011, abs=1e-6)
        assert payload["rate_bits"] == pytest.approx(0.694242, abs=1e-6)
        assert payload["perron_check"] == pytest.approx(payload["rate_bits"], abs=1e-9)

    def test_L0(self, capsys):
        code, out, _ = run_cli(capsys, "rate", "--L", "0", "--seed", "0")
        payload = json.loads(out)
        assert payload["a_star"] == pytest.approx(0.5, abs=1e-9)
        assert payload["rate_bits"] == pytest.approx(1.0, abs=1e-9)

    def test_family_rate_at_a(self, capsys):
        code, out, _ = run_cli(capsys, "rate", "--L", "1", "--a", "0.5", "--seed", "0")
        payload = json.loads(out)
        assert payload["rate_at_a"] == pytest.approx(2 / 3, abs=1e-9)

    def test_invalid_inputs_exit_3(self, capsys):
        assert run_cli(capsys, "rate", "--L", "-2", "--seed", "0")[0] == 3
        assert run_cli(capsys, "rate", "--L", "1", "--a", "1.5", "--seed", "0")[0] == 3

    def test_seed_echoed_on_stderr(self, capsys):
        _, _, err = run_cli(capsys, "rate", "--L", "1", "--seed", "123")
        assert "# seed=123" in err

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "rate", "--L", "1", "--seed", "0",
                               "--format", "csv")
        assert code == 0
        header, row = out.strip().split("\n")
        values = dict(zip(header.split(","), row.split(",")))
        assert float(values["rate_bits"]) == pytest.approx(0.694242, abs=1e-6)


class TestUsageErrors:
    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["rate"])
        assert exc.value.code == 2


OUTPUT = {"--seed": None, "--out": None}
BOOK_OPTIONS = {"--W": 36, "--N": 60, "--gap": None, "--weight": None, "--trials": None}
NOISE = {"--sigma2": None, "--eps": None}
OPTION_SURFACE = {
    "rate": {**OUTPUT, "--format": "json", "--L": None, "--a": None},
    "optimize": {**OUTPUT, "--L": None, **NOISE, "--order": None, "--iters": 30,
                 "--len": 50_000},
    "genbook": {**OUTPUT, "--kind": None, "--L": None, "--source": None, **BOOK_OPTIONS},
    "simulate": {**OUTPUT, "--format": "json", "--book": None, "--L": None, **NOISE,
                 "--runs": 1000, "--confusion": False},
    "sweep": {**OUTPUT, "--format": "csv", "--L": None, "--sigma2-grid": None,
              "--kinds": None, "--L-grid": None, "--sigma2": None,
              "--runs": 1000, **BOOK_OPTIONS},
    "selftest": {"--seed": None},
}


class TestOptionSurface:
    def test_each_subcommand_has_exactly_its_flags(self):
        import argparse
        from p300channel.cli import build_parser
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        surface = {name: {a.option_strings[-1]: a.default for a in p._actions
                          if a.option_strings and a.dest != "help"}
                   for name, p in sub.choices.items()}
        assert surface == OPTION_SURFACE
        assert sum(map(len, surface.values())) == 47

    @pytest.mark.parametrize("argv", [
        ["optimize", "--L", "1", "--sigma2", "0.5", "--format", "csv"],
        ["genbook", "--kind", "rcp", "--format", "json"],
        ["selftest", "--out", "x"],
    ])
    def test_flags_a_subcommand_does_not_read_exit_2(self, capsys, monkeypatch, tmp_path, argv):
        monkeypatch.chdir(tmp_path)   # a parser that accepted the flag would write here
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--seed", "0"])
        assert exc.value.code == 2


class TestFlagsAModeDoesNotRead:
    @pytest.mark.parametrize("argv, flag", [
        (["sweep", "--sigma2-grid", "1", "--sigma2", "1"], "--sigma2"),
        (["sweep", "--L-grid", "1", "--sigma2", "1", "--kinds", "rcp"], "--kinds"),
        (["sweep", "--L-grid", "1", "--sigma2", "1", "--gap", "9"], "--gap"),
        (["sweep", "--L-grid", "1", "--sigma2", "1", "--weight", "5"], "--weight"),
        (["sweep", "--L-grid", "1", "--sigma2", "1", "--trials", "5"], "--trials"),
        (["sweep", "--L-grid", "1", "--sigma2", "1", "--L", "2"], "--L"),
        (["genbook", "--kind", "rcp", "--source", "/nope.txt"], "--source"),
        (["genbook", "--kind", "cbp", "--source", "/nope.txt"], "--source"),
        (["genbook", "--kind", "mindist", "--source", "/nope.txt"], "--source"),
        (["genbook", "--kind", "mbc", "--source", "/nope.txt", "--L", "1"], "--L"),
        (["genbook", "--kind", "rcp", "--gap", "9"], "--gap"),
        (["genbook", "--kind", "mbc", "--L", "1", "--gap", "9"], "--gap"),
        (["genbook", "--kind", "mindist", "--gap", "9"], "--gap"),
        (["genbook", "--kind", "cbp", "--weight", "5"], "--weight"),
        (["genbook", "--kind", "rcp", "--trials", "5"], "--trials"),
        (["sweep", "--sigma2-grid", "1", "--kinds", "rcp,mindist", "--gap", "9"], "--gap"),
        (["sweep", "--sigma2-grid", "1", "--kinds", "mbc,cbp", "--weight", "5"], "--weight"),
        (["sweep", "--sigma2-grid", "1", "--kinds", "cbp", "--trials", "5"], "--trials"),
    ])
    def test_exit_3_naming_the_flag(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, *argv, "--seed", "0")
        assert code == 3 and out == ""
        assert f"does not read {flag}" in err

    @pytest.mark.parametrize("kind", ["rcp", "cbp", "mindist"])
    def test_genbook_still_accepts_L_for_every_kind(self, capsys, kind):
        # the benchmark's spell set-up passes --L 1 to every kind
        code, out, _ = run_cli(capsys, "genbook", "--kind", kind, "--L", "1", "--N", "24",
                               "--seed", "1")
        assert code == 0 and out.startswith(f"# W=36 N=24 kind={kind}")


class TestGenbookSimulate:
    def test_genbook_all_kinds(self, capsys, tmp_path):
        for kind, extra in (("mbc", ["--L", "1"]), ("rcp", []), ("cbp", []),
                            ("mindist", ["--trials", "5"])):
            out_file = tmp_path / f"{kind}.csv"
            code, out, _ = run_cli(capsys, "genbook", "--kind", kind, "--N", "60",
                                   "--seed", "3", "--out", str(out_file), *extra)
            assert code == 0
            assert out_file.exists()
            meta = json.loads(out)
            assert meta["W"] == 36 and meta["N"] == 60

    def test_genbook_stdout_when_no_out(self, capsys):
        code, out, _ = run_cli(capsys, "genbook", "--kind", "rcp", "--N", "12",
                               "--seed", "1")
        assert code == 0
        assert out.startswith("# W=36 N=12 kind=rcp seed=1")

    def test_mbc_needs_L_or_source(self, capsys):
        assert run_cli(capsys, "genbook", "--kind", "mbc", "--seed", "0")[0] == 3

    @pytest.mark.parametrize("text, message", [
        ("# order=1\n0,0.2\n1,0.5\n0,0.9\n", "got 3 (extra histories)"),
        ("# order=2\n00,0.2\n01,0.5\n01,0.9\n11,0.1\n", "history 01 listed twice"),
        # 2^30 probabilities would take 8 GiB; the line count is checked first
        ("# order=30\n0,0.2\n1,0.5\n", "got 2 (missing histories)"),
    ])
    def test_mbc_source_file_is_checked_before_use(self, capsys, tmp_path, text, message):
        path = tmp_path / "src.txt"
        path.write_text(text)
        code, out, err = run_cli(capsys, "genbook", "--kind", "mbc", "--source", str(path),
                                 "--seed", "0")
        assert code == 3 and out == "" and message in err

    @pytest.mark.parametrize("text, line, message", [
        ("# order=x\n0,0.2\n1,0.5\n", 1, "order must be an integer, got '# order=x'"),
        ("# order=1\n\n0\n1,0.5\n", 3, "got '0'"),
        ("# order=1\n0,0.2\n1,half\n", 3, "got '1,half'"),
    ])
    def test_mbc_source_parse_errors_name_file_and_line(self, capsys, tmp_path, text, line,
                                                        message):
        path = tmp_path / "src.txt"
        path.write_text(text)
        code, out, err = run_cli(capsys, "genbook", "--kind", "mbc", "--source", str(path),
                                 "--seed", "0")
        assert code == 3 and out == ""
        assert f"{path}:{line}: " in err and message in err

    def test_cbp_needs_the_6x6_grid(self, capsys):
        code, _, err = run_cli(capsys, "genbook", "--kind", "cbp", "--W", "35", "--seed", "0")
        assert code == 3 and "W=36" in err

    @pytest.mark.parametrize("kind, extra, expected", [
        ("mbc", ["--L", "2"], lambda: gen_mbc(maxentropic_source(2), 12, 36, 3)),
        ("rcp", [], lambda: gen_rcp(36, 36, 3)),
        ("cbp", ["--gap", "2"], lambda: gen_cbp(36, 2, 3)),
        ("mindist", ["--weight", "6", "--trials", "4"], lambda: gen_min_dist(12, 36, 6, 4, 3)),
    ])
    def test_genbook_passes_the_options_through(self, capsys, kind, extra, expected):
        W = "36" if kind in ("rcp", "cbp") else "12"
        code, out, _ = run_cli(capsys, "genbook", "--kind", kind, "--W", W, "--N", "36",
                               "--seed", "3", *extra)
        assert code == 0
        assert out == codebook_csv_text(expected())

    def test_generators_are_looked_up_when_called(self, capsys, monkeypatch):
        import p300channel.cli as cli
        calls = []

        def recording(*args):
            calls.append(args)
            return gen_min_dist(*args)

        monkeypatch.setattr(cli, "gen_min_dist", recording)
        run_cli(capsys, "genbook", "--kind", "mindist", "--N", "30", "--weight", "5",
                "--trials", "3", "--seed", "1")
        run_cli(capsys, "sweep", "--sigma2-grid", "1", "--kinds", "mindist", "--N", "30",
                "--weight", "5", "--trials", "2", "--runs", "10", "--seed", "1")
        assert [c[:4] for c in calls] == [(36, 30, 5, 3), (36, 30, 5, 2)]

    def test_simulate_near_noiseless_is_perfect(self, capsys, tmp_path):
        book = tmp_path / "rcp.csv"
        run_cli(capsys, "genbook", "--kind", "rcp", "--N", "60", "--seed", "7",
                "--out", str(book))
        code, out, _ = run_cli(capsys, "simulate", "--book", str(book), "--L", "1",
                               "--sigma2", "0.0001", "--runs", "300", "--seed", "5")
        assert code == 0
        payload = json.loads(out)
        assert payload["accuracy"] == 1.0
        assert payload["runs"] == 300
        assert payload["config"]["runs"] == 300

    def test_simulate_has_no_variance_floor(self, capsys, tmp_path):
        # MAP decoding does not need the noise to survive rounding
        book = tmp_path / "rcp.csv"
        run_cli(capsys, "genbook", "--kind", "rcp", "--N", "60", "--seed", "7",
                "--out", str(book))
        code, out, _ = run_cli(capsys, "simulate", "--book", str(book), "--L", "1",
                               "--sigma2", "1e-300", "--runs", "50", "--seed", "5")
        assert code == 0 and json.loads(out)["accuracy"] == 1.0

    def test_simulate_infinite_variance_exits_3(self, capsys, tmp_path):
        # an infinite variance used to exit 0 with the argmax of NaN scores
        # and write "sigma2": Infinity, which is not JSON
        book = tmp_path / "rcp.csv"
        run_cli(capsys, "genbook", "--kind", "rcp", "--N", "60", "--seed", "7",
                "--out", str(book))
        code, out, err = run_cli(capsys, "simulate", "--book", str(book), "--L", "1",
                                 "--sigma2", "inf", "--runs", "50", "--seed", "5")
        assert code == 3 and out == ""
        assert "AWGN variance must be positive and finite, got inf" in err

    def test_simulate_missing_book_reports_path(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--book", "/nope/missing.csv",
                               "--L", "1", "--seed", "0")
        assert code == 3
        assert "missing.csv" in err

    def test_simulate_csv_format(self, capsys, tmp_path):
        book = tmp_path / "b.csv"
        run_cli(capsys, "genbook", "--kind", "rcp", "--N", "12", "--seed", "2",
                "--out", str(book))
        argv = ["simulate", "--book", str(book), "--L", "1", "--sigma2", "2.0",
                "--runs", "100", "--seed", "4", "--format", "csv"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        header, row = (line.split(",") for line in out.split("\n")[:2])
        assert {"accuracy", "ci_lo", "ci_hi", "runs", "seed"} <= set(header)
        cells = dict(zip(header, row))
        assert cells["config.noise.kind"] == "awgn" and float(cells["config.noise.sigma2"]) == 2.0
        # the confusion matrix has no cell in a CSV row, so the pair is refused
        code, out, err = run_cli(capsys, *argv, "--confusion")
        assert code == 3 and out == "" and "--confusion" in err

    def test_simulate_confusion_flag(self, capsys, tmp_path):
        book = tmp_path / "b.csv"
        run_cli(capsys, "genbook", "--kind", "rcp", "--N", "12", "--seed", "2",
                "--out", str(book))
        code, out, _ = run_cli(capsys, "simulate", "--book", str(book), "--L", "1",
                               "--sigma2", "1.0", "--runs", "100", "--seed", "4",
                               "--confusion")
        payload = json.loads(out)
        conf = np.array(payload["per_char_confusion"])
        assert conf.shape == (36, 36) and conf.sum() == 100


class TestOptimize:
    def test_writes_source_and_trace(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "optimize", "--L", "1", "--sigma2", "0.5",
                               "--iters", "3", "--len", "2000", "--seed", "6",
                               "--out", str(tmp_path))
        assert code == 0
        payload = json.loads(out)
        source_file = tmp_path / "optimized_source.txt"
        trace_file = tmp_path / "rate_trace.csv"
        assert source_file.exists() and trace_file.exists()
        lines = trace_file.read_text().strip().split("\n")
        assert lines[0] == "iteration,rate"
        assert len(lines) - 1 <= 3
        assert float(lines[-1].split(",")[1]) == payload["final_rate"]
        from p300channel import load_source
        src = load_source(source_file)
        assert src.order == 1

    @pytest.mark.parametrize("length, eval_len", [(2000, 20_000), (26_000, 52_000)])
    def test_reports_the_rescore_length(self, capsys, tmp_path, length, eval_len):
        # rate and std_err come from the max(2 len, 2e4)-symbol re-score
        code, out, _ = run_cli(capsys, "optimize", "--L", "1", "--eps", "0.1",
                               "--iters", "1", "--len", str(length), "--seed", "2",
                               "--out", str(tmp_path))
        assert code == 0
        payload = json.loads(out)
        assert payload["sample_len"] == length and payload["eval_len"] == eval_len

    def test_variance_below_the_rate_floor_exits_3(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "optimize", "--L", "1", "--sigma2", "1e-300",
                                 "--iters", "1", "--len", "1000", "--seed", "0",
                                 "--out", str(tmp_path))
        assert code == 3 and out == "" and "below 2^-64" in err
        assert not (tmp_path / "rate_trace.csv").exists()

    def test_infinite_variance_exits_3(self, capsys, tmp_path):
        # it used to exit 4, "forward recursion collapsed at step 0"
        code, out, err = run_cli(capsys, "optimize", "--L", "1", "--sigma2", "inf",
                                 "--iters", "1", "--len", "1000", "--seed", "0",
                                 "--out", str(tmp_path))
        assert code == 3 and out == ""
        assert "AWGN variance must be positive and finite, got inf" in err
        assert not (tmp_path / "rate_trace.csv").exists()

    def test_requires_noise(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "optimize", "--L", "1", "--seed", "0",
                               "--out", str(tmp_path))
        assert code == 3

    def test_noiseless_limit_recovers_family_parameter(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "optimize", "--L", "1", "--sigma2", "0.0001",
                               "--iters", "12", "--len", "20000", "--seed", "1",
                               "--out", str(tmp_path))
        assert code == 0
        from p300channel import load_source
        src = load_source(tmp_path / "optimized_source.txt")
        assert abs(src.p1[0] - 0.381966) < 0.02


class TestSweep:
    def test_grid_cardinality(self, capsys, tmp_path):
        out_file = tmp_path / "sweep.csv"
        code, _, _ = run_cli(capsys, "sweep", "--L", "1", "--sigma2-grid",
                             "0.5,1,2,4", "--kinds", "mbc,rcp,cbp,mindist",
                             "--runs", "50", "--seed", "2", "--trials", "5",
                             "--out", str(out_file))
        assert code == 0
        lines = out_file.read_text().strip().split("\n")
        assert lines[0] == "sigma2,L,codebook,N,runs,accuracy,ci_lo,ci_hi,seed"
        assert len(lines) == 17   # header + 4 sigma2 x 4 kinds

    def test_L_grid(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--L-grid", "1,2", "--sigma2", "1.0",
                               "--runs", "50", "--seed", "3")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 3

    def test_cbp_needs_the_6x6_grid_as_in_genbook(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--sigma2-grid", "1", "--kinds", "cbp",
                                 "--W", "20", "--runs", "10", "--seed", "0")
        genbook = run_cli(capsys, "genbook", "--kind", "cbp", "--W", "20", "--seed", "0")
        assert code == genbook[0] == 3 and out == ""
        assert err == genbook[2] and "W=36" in err

    def test_unknown_kind_exits_3(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--sigma2-grid", "1", "--kinds", "foo",
                               "--seed", "0")
        assert code == 3 and "unknown codebook kind 'foo'" in err

    def test_infinite_sigma2_exits_3(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--L-grid", "1", "--sigma2", "inf",
                                 "--runs", "10", "--seed", "0")
        assert code == 3 and out == ""
        assert "AWGN variance must be positive and finite, got inf" in err

    def test_invalid_sigma2_exits_3(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--L-grid", "1", "--sigma2", "-1",
                                 "--runs", "10", "--seed", "0")
        assert code == 3 and out == "" and "AWGN variance must be positive" in err

    @pytest.mark.parametrize("grid", [["--sigma2-grid", "1", "--kinds", "rcp"],
                                      ["--L-grid", "1", "--sigma2", "1"]])
    def test_zero_runs_exits_3(self, capsys, grid):
        code, out, err = run_cli(capsys, "sweep", *grid, "--runs", "0", "--seed", "0")
        assert code == 3 and out == "" and "runs must be >= 1, got 0" in err

    def test_needs_exactly_one_grid(self, capsys):
        assert run_cli(capsys, "sweep", "--seed", "0")[0] == 3
        assert run_cli(capsys, "sweep", "--sigma2-grid", "1", "--L-grid", "1",
                       "--seed", "0")[0] == 3


class TestSelftest:
    def test_passes_and_prints_table(self, capsys):
        code, out, _ = run_cli(capsys, "selftest", "--seed", "0")
        assert code == 0
        assert "PASS" in out and "FAIL" not in out

    def test_injected_entropy_bug_is_caught(self, capsys, monkeypatch):
        import p300channel.rates as rates

        def broken(p):
            p = float(p)
            if p in (0.0, 1.0):
                return 0.0
            return float(p * np.log2(p) + (1 - p) * np.log2(1 - p))   # sign bug

        monkeypatch.setattr(rates, "binary_entropy", broken)
        code, out, _ = run_cli(capsys, "selftest", "--seed", "0")
        assert code != 0
        assert "FAIL" in out

    def test_rate_pass_fault_is_caught(self, capsys, monkeypatch):
        # the chunk boundary vectors seed the sweep inside every chunk, so a
        # fault there shows as a gap between the chunked scan and the step loop
        from p300channel import gbaa
        scan = gbaa._dense_scan

        def skewed(*args):
            out = scan(*args)
            out[1:, 0] += 1e-9
            return out

        monkeypatch.setattr(gbaa, "_dense_scan", skewed)
        code, out, _ = run_cli(capsys, "selftest", "--seed", "0")
        assert code != 0
        assert "FAIL  chunked scan vs step loop" in out

    @pytest.mark.parametrize("law", ["AwgnNoise", "BinarySymmetric"])
    def test_surprise_fault_is_caught(self, capsys, monkeypatch, law):
        # a mixture surprise off its mean by 1e-6 bit would bias R_q and R_h
        from p300channel import channel
        cls = getattr(channel, law)
        surprise = cls.mixture_surprise
        monkeypatch.setattr(cls, "mixture_surprise", lambda *a: surprise(*a) + 1e-6)
        code, out, _ = run_cli(capsys, "selftest", "--seed", "0")
        assert code != 0
        assert "FAIL  mixture surprise centring" in out

    @pytest.mark.parametrize("fault", ["observation term", "entropy means"])
    def test_control_variate_fault_is_caught(self, capsys, monkeypatch, fault):
        # B_t off by 0.1 bit a step (a misnormalized emission table) biases the
        # estimate away from the plain one; E[A] off by 1e-6 a block breaks the
        # noiseless exactness
        from p300channel import gbaa
        sums, means = gbaa._control_sums, gbaa._entropy_block_sums

        def offset_b(*args):
            out = sums(*args)   # rows A', S, B, V(q), V(pz1); the block ends come last
            out[2] += 0.1 * np.diff(args[-1])
            return out

        if fault == "observation term":
            monkeypatch.setattr(gbaa, "_control_sums", offset_b)
        else:
            monkeypatch.setattr(gbaa, "_entropy_block_sums", lambda *a: means(*a) + 1e-6)
        code, out, _ = run_cli(capsys, "selftest", "--seed", "0")
        assert code != 0
        assert "FAIL  control variates vs plain estimate" in out
        assert "PASS  chunked scan vs step loop" in out
