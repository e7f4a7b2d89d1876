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

    def test_simulate_missing_book_reports_path(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--book", "/nope/missing.csv",
                               "--L", "1", "--seed", "0")
        assert code == 3
        assert "missing.csv" in err

    def test_simulate_csv_format(self, capsys, tmp_path):
        book = tmp_path / "b.csv"
        run_cli(capsys, "genbook", "--kind", "rcp", "--N", "12", "--seed", "2",
                "--out", str(book))
        code, out, _ = run_cli(capsys, "simulate", "--book", str(book), "--L", "1",
                               "--sigma2", "2.0", "--runs", "100", "--seed", "4",
                               "--format", "csv")
        assert code == 0
        header = out.split("\n")[0].split(",")
        assert {"accuracy", "ci_lo", "ci_hi", "runs", "seed"} <= set(header)

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
