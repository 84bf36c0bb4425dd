import hashlib
import importlib.util
import math
from pathlib import Path

import pytest

from weakamp import GaussianMeter, gaussian_max_shifts, qubit_max_reading, run_verify
from weakamp import cli
from weakamp.cli import main

METER = GaussianMeter(1.0)


def _data_rows(text):
    lines = [l for l in text.strip().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return header, rows


class TestShift:
    def test_gaussian_symmetric_pair(self, capsys):
        code = main(["shift", "--meter", "gaussian", "--r", "1",
                     "--theta1", "1.5707963", "--theta2", "1.5707963",
                     "--phi0", "0", "--g-over-dp", "0.1", "--delta", "1"])
        assert code == 0
        header, rows = _data_rows(capsys.readouterr().out)
        assert header == ["dp_shift", "dq_shift", "prob"]
        assert rows[0][1] == 0.0  # no relative phase, no position shift

    def test_qubit_ground_pair(self, capsys):
        code = main(["shift", "--meter", "qubit", "--channel", "none",
                     "--theta1", "0", "--theta2", "0", "--g", "0.1"])
        assert code == 0
        header, rows = _data_rows(capsys.readouterr().out)
        assert header == ["reading", "prob"]
        assert rows[0][0] == pytest.approx(math.sin(0.1) ** 2, abs=1e-15)

    def test_zero_coupling(self, capsys):
        code = main(["shift", "--meter", "gaussian", "--theta1", "0.7",
                     "--theta2", "1.1", "--g-over-dp", "0"])
        assert code == 0
        _, rows = _data_rows(capsys.readouterr().out)
        assert rows[0][0] == 0.0 and rows[0][1] == 0.0

    def test_channel_composition(self, capsys):
        code = main(["shift", "--meter", "qubit", "--channel", "phase-damping",
                     "--gamma", "0.3", "--theta1", "1.2", "--theta2", "0.4",
                     "--g", "0.1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "# channel=phase-damping" in out
        assert "# gamma=0.29999999999999999" in out

    def test_vanishing_postselection_exit_code(self, capsys):
        code = main(["shift", "--meter", "qubit", "--theta1", "0",
                     "--theta2", "3.141592653589793", "--g", "0.1"])
        assert code == 3

    def test_usage_errors(self, capsys):
        # (arguments after "shift --theta1 1 --theta2 1", the whole stderr)
        for args, message in [
            (["--meter", "gaussian"], "weakamp: the gaussian meter requires --g-over-dp"),
            (["--meter", "gaussian", "--g-over-dp", "0.1", "--g", "0.1"],
             "weakamp: --g applies to the qubit meter; use --g-over-dp"),
            (["--meter", "qubit"], "weakamp: the qubit meter requires --g"),
            (["--meter", "qubit", "--g", "0.1", "--g-over-dp", "0.1"],
             "weakamp: --g-over-dp applies to the gaussian meter; use --g"),
            # Both coupling flags missing or misplaced: the missing one is named.
            (["--meter", "qubit", "--g-over-dp", "0.1"], "weakamp: the qubit meter requires --g"),
            (["--meter", "qubit", "--g", "0.1", "--r", "1.5"],
             "weakamp: --r must lie in [0, 1], got 1.5"),
            (["--meter", "qubit", "--g", "0.1", "--r", "-0.25"],
             "weakamp: --r must lie in [0, 1], got -0.25"),
            (["--meter", "qubit", "--g", "0.1", "--r", "nan"],
             "weakamp: --r must lie in [0, 1], got nan"),
            (["--meter", "qubit", "--g", "0.1", "--channel", "depolarizing", "--gamma", "1.5"],
             "weakamp: gamma must lie in [0, 1], got 1.5"),
        ]:
            assert main(["shift", "--theta1", "1", "--theta2", "1", *args]) == 2, args
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == message + "\n"
        # argparse's own errors: a bad choice, an unparseable value, no subcommand.
        assert main(["shift", "--meter", "laser", "--theta1", "1",
                     "--theta2", "1", "--g", "0.1"]) == 2
        assert "argument --meter: invalid choice: 'laser'" in capsys.readouterr().err
        assert main(["shift", "--meter", "qubit", "--theta1", "1",
                     "--theta2", "1", "--g", "zero"]) == 2
        assert "argument --g: invalid float value: 'zero'" in capsys.readouterr().err
        assert main(["bogus"]) == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err
        assert main([]) == 2
        assert "the following arguments are required: command" in capsys.readouterr().err

    def test_gamma_without_channel_is_usage_error(self, capsys):
        argv = ["shift", "--meter", "qubit", "--gamma", "5", "--theta1", "1.2",
                "--theta2", "0.4", "--g", "0.1"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--gamma applies to a noise channel" in captured.err
        assert main(argv[:3] + ["--channel", "none"] + argv[3:]) == 2
        # Zero, the default, is still accepted without a channel.
        assert main(argv[:4] + ["0"] + argv[5:]) == 0

    def test_delta_on_qubit_meter_is_usage_error(self, capsys, tmp_path):
        argv = ["shift", "--meter", "qubit", "--channel", "phase-damping", "--gamma", "0.3",
                "--theta1", "1.2", "--theta2", "0.4", "--g", "0.1"]
        config = tmp_path / "run.cfg"
        config.write_text("delta=7\n")
        for extra in (["--delta", "7"], ["--delta", "nan"], ["--config", str(config)]):
            assert main(argv + extra) == 2, extra
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "weakamp: --delta applies to the gaussian meter\n"
        # The default width, given or not, is still echoed.
        for extra in ([], ["--delta", "1"]):
            assert main(argv + extra) == 0
            assert "# delta=1\n" in capsys.readouterr().out

    def test_unrepresentable_delta_is_usage_error(self, capsys):
        argv = ["shift", "--meter", "gaussian", "--theta1", "1", "--theta2", "2",
                "--g-over-dp", "0.1", "--delta"]
        for delta in ("1e200", "1e-170"):
            assert main(argv + [delta]) == 2, delta
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("weakamp: delta^2 must be a normal float")
            assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("meter,coupling,value", [("gaussian", "--g-over-dp", "3e154"),
                                                      ("gaussian", "--g-over-dp", "1e308"),
                                                      ("qubit", "--g", "1e308")])
    def test_huge_coupling_prints_a_row(self, capsys, meter, coupling, value):
        # (delta g)^2 or 2g past the float range ended in a traceback or in a
        # bare "math domain error".
        assert main(["shift", "--meter", meter, "--theta1", "1", "--theta2", "2",
                     coupling, value]) == 0
        _, rows = _data_rows(capsys.readouterr().out)
        assert all(math.isfinite(v) for v in rows[0])
        assert meter == "qubit" or rows[0][1] == 0.0  # no position shift at E = 0

    @pytest.mark.parametrize("args,message", [
        (["--meter", "gaussian", "--g-over-dp", "-1"],
         "--g-over-dp must be finite and non-negative, got -1.0"),
        (["--meter", "gaussian", "--g-over-dp", "nan", "--delta", "0.1"],
         "--g-over-dp must be finite and non-negative, got nan"),
        (["--meter", "gaussian", "--g-over-dp", "1e308", "--delta", "0.1"],
         "the coupling --g-over-dp / (2 --delta) overflows at --g-over-dp 1e+308, --delta 0.1"),
        (["--meter", "qubit", "--g", "-1"], "--g must be finite and non-negative, got -1.0"),
        (["--meter", "qubit", "--g", "inf"], "--g must be finite and non-negative, got inf"),
    ], ids=["negative-g-over-dp", "nan-g-over-dp", "overflowing-g-over-dp", "negative-g",
            "infinite-g"])
    def test_bad_coupling_is_named_as_given(self, capsys, args, message):
        # The coupling flag is checked under its own name before dp scales it:
        # the message names the flags the user gave and their values.
        assert main(["shift", "--theta1", "1", "--theta2", "2", *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"weakamp: {message}\n"

    def test_help_exits_zero(self, capsys):
        assert main(["shift", "--help"]) == 0
        assert "--meter {gaussian,qubit}" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["shift", "fig"])
    def test_help_names_the_meter_of_delta(self, capsys, command):
        assert main([command, "--help"]) == 0
        help_text = " ".join(capsys.readouterr().out.split())
        assert "--delta DELTA pointer position spread (gaussian meter only)" in help_text

    def test_domain_error_exit_code(self, capsys):
        assert main(["shift", "--meter", "qubit", "--channel", "depolarizing",
                     "--gamma", "1.5", "--theta1", "1", "--theta2", "1",
                     "--g", "0.1"]) == 2


class TestConfig:
    def test_config_supplies_defaults_and_flags_override(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("# base configuration\nmeter=qubit\ntheta1=0\n"
                          "theta2=0\nphi0=-0.5\ng=0.1\n")
        assert main(["shift", "--config", str(config)]) == 0
        first = capsys.readouterr().out
        assert "# g=0.10000000000000001" in first
        assert "# phi0=-0.5" in first  # a value starting with '-' is a value

        assert main(["shift", "--config", str(config), "--g", "0.2"]) == 0
        second = capsys.readouterr().out
        assert "# g=0.20000000000000001" in second

    def test_unknown_key_rejected(self, capsys, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("coupling=0.1\n")
        assert main(["shift", "--config", str(config), "--meter", "qubit",
                     "--theta1", "0", "--theta2", "0", "--g", "0.1"]) == 2

    @pytest.mark.parametrize("key,value", [("meter", "laser"), ("g", "zero")])
    def test_bad_value_rejected_like_its_flag(self, capsys, tmp_path, key, value):
        # A bad choice or an unparseable value exits 2 with the same message
        # whether it comes from the config file or from the flag.
        flags = {"meter": "qubit", "theta1": "1", "theta2": "1", "g": "0.1", key: value}
        config = tmp_path / "bad.cfg"
        config.write_text("".join(f"{k}={v}\n" for k, v in flags.items()))
        assert main(["shift", "--config", str(config)]) == 2
        from_config = capsys.readouterr().err.splitlines()[-1]
        argv = [token for k, v in flags.items() for token in (f"--{k}", v)]
        assert main(["shift", *argv]) == 2
        assert capsys.readouterr().err.splitlines()[-1] == from_config
        assert f"argument --{key}: invalid" in from_config

    def test_malformed_line_rejected(self, capsys, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("just words\n")
        assert main(["shift", "--config", str(config), "--meter", "qubit",
                     "--theta1", "0", "--theta2", "0", "--g", "0.1"]) == 2

    def test_missing_config_is_io_error(self, capsys, tmp_path):
        assert main(["shift", "--config", str(tmp_path / "absent.cfg"),
                     "--meter", "qubit", "--theta1", "0", "--theta2", "0",
                     "--g", "0.1"]) == 4


class TestFig:
    def test_fig1_endpoints(self, tmp_path):
        out = tmp_path / "fig1.csv"
        assert main(["fig", "1", "--output", str(out), "--steps", "11"]) == 0
        header, rows = _data_rows(out.read_text())
        assert header[0] == "r"
        assert len(rows) == 11
        first = rows[0]  # r = 0: momentum maximum is the bare kick, no position shift
        assert first[1] == pytest.approx(0.05, abs=1e-15)
        assert first[2] == 0.0
        assert rows[-1][0] == 1.0

    def test_fig3_doubling_threshold(self, tmp_path):
        out = tmp_path / "fig3.csv"
        assert main(["fig", "3", "--output", str(out), "--start", "0.134",
                     "--stop", "0.2", "--steps", "2"]) == 0
        header, rows = _data_rows(out.read_text())
        g = 0.03 * 0.5
        column = header.index("dp_max_g0.03dp")
        assert rows[0][column] == pytest.approx(2 * g, rel=0.01)

    def test_fig4_full_noise_reduces_to_ordinary(self, tmp_path):
        out = tmp_path / "fig4.csv"
        assert main(["fig", "4", "--output", str(out), "--steps", "3"]) == 0
        header, rows = _data_rows(out.read_text())
        assert rows[-1][0] == 1.0
        assert rows[-1][1] == pytest.approx(math.sin(0.1) ** 2, abs=1e-12)

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert main(["fig", "2", "--output", str(path), "--steps", "21"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_csv_format(self, tmp_path):
        out = tmp_path / "fig2.csv"
        assert main(["fig", "2", "--output", str(out), "--steps", "5"]) == 0
        raw = out.read_bytes()
        assert b"\r" not in raw
        text = raw.decode()
        comments = [l for l in text.splitlines() if l.startswith("#")]
        assert any(l.startswith("# steps=") for l in comments)
        header, rows = _data_rows(text)
        assert rows[1][0] == 0.25
        # 17 significant digits survive on non-terminating values
        data_lines = [l for l in text.splitlines() if not l.startswith("#")][1:]
        assert any(len(v.split("e")[0].replace("-", "").replace(".", "")) >= 16
                   for v in data_lines[1].split(","))

    def test_fig5_and_fig6_flat_under_damping(self, tmp_path):
        # default range [0, 0.95] at reduced resolution: every row is the
        # noiseless closed-form maximum
        out5 = tmp_path / "fig5.csv"
        assert main(["fig", "5", "--output", str(out5), "--steps", "5"]) == 0
        _, rows = _data_rows(out5.read_text())
        assert rows[0][0] == 0.0 and rows[-1][0] == 0.95
        dp_max, dq_max = gaussian_max_shifts(1.0, 0.1 * METER.dp, METER)
        assert all(row[1:] == [dp_max.value, dq_max.value] for row in rows)

        out6 = tmp_path / "fig6.csv"
        assert main(["fig", "6", "--output", str(out6), "--steps", "3"]) == 0
        _, rows = _data_rows(out6.read_text())
        assert all(row[1] == qubit_max_reading(1.0, 0.1).value for row in rows)

    def test_bad_range_rejected(self, capsys, tmp_path):
        out = tmp_path / "fig.csv"
        for args, message in [
            (["1", "--start", "0.5", "--stop", "0.2"],
             "weakamp: need start < stop, got 0.5 and 0.2"),
            (["1", "--steps", "1"], "weakamp: --steps must be at least 2, got 1"),
            (["3", "--start", "-0.5"], "weakamp: sweep range must stay inside [0, 1]"),
            (["5", "--stop", "1.5"], "weakamp: sweep range must stay inside [0, 1]"),
        ]:
            assert main(["fig", *args, "--output", str(out)]) == 2, args
            assert capsys.readouterr().err == message + "\n"
            assert not out.exists()
        assert main(["fig", "7", "--output", str(out)]) == 2
        assert "argument n: invalid choice: 7" in capsys.readouterr().err

    # start + (stop - start) * i / (steps - 1) rounds one ulp past stop at the
    # last point of these sweeps, which took gamma or kappa out of [0, 1].
    @pytest.mark.parametrize("n, start, stop, steps", [
        (1, "0.0010530266755553463", "1", "21"),
        (3, "0.24771754354597048", "1", "7"),
        (5, "0.24771754354597048", "1", "7"),
        (5, "0.026", "0.95", "29"),
    ])
    def test_last_point_is_exactly_stop(self, tmp_path, n, start, stop, steps):
        out = tmp_path / "fig.csv"
        args = ["fig", str(n), "--output", str(out), "--start", start,
                "--stop", stop, "--steps", steps]
        if n == 5 and stop == "1":  # full amplitude damping collapses the maxima
            with pytest.warns(UserWarning, match="gamma = 1 maps every state"):
                assert main(args) == 0
        else:
            assert main(args) == 0
        _, rows = _data_rows(out.read_text())
        assert len(rows) == int(steps)
        assert rows[0][0] == float(start) and rows[-1][0] == float(stop)

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_delta_on_qubit_meter_is_usage_error(self, capsys, tmp_path, n):
        out = tmp_path / "fig.csv"
        config = tmp_path / "run.cfg"
        config.write_text("delta=5\n")
        for extra in (["--delta", "5"], ["--config", str(config)]):
            assert main(["fig", str(n), "--output", str(out), *extra]) == 2, extra
            assert capsys.readouterr().err == "weakamp: --delta applies to the gaussian meter\n"
            assert not out.exists()
        assert main(["fig", str(n), "--output", str(out), "--steps", "2", "--delta", "1"]) == 0
        assert "# delta=1\n" in out.read_text()

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_qubit_figures_build_no_gaussian_meter(self, monkeypatch, n):
        def no_meter(delta):
            raise AssertionError(f"fig {n} built a GaussianMeter")

        monkeypatch.setattr(cli, "GaussianMeter", no_meter)
        _, _, rows = cli.fig_table(n, 0.0, 0.5, 2, 1.0)
        assert len(rows) == 2

    @pytest.mark.parametrize("n, delta", [(1, "1e200"), (3, "1e-170"), (5, "1e200")])
    def test_unrepresentable_delta_is_usage_error(self, capsys, tmp_path, n, delta):
        out = tmp_path / "fig.csv"
        assert main(["fig", str(n), "--output", str(out), "--steps", "2", "--delta", delta]) == 2
        err = capsys.readouterr().err
        assert err.startswith("weakamp: delta^2 must be a normal float") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_delta_on_gaussian_figure_is_echoed(self, tmp_path, n):
        out = tmp_path / "fig.csv"
        assert main(["fig", str(n), "--output", str(out), "--steps", "2", "--delta", "2"]) == 0
        assert "# delta=2\n" in out.read_text()

    def test_make_figures_script_writes_each_figure_as_the_cli_does(self, tmp_path, monkeypatch):
        path = Path(__file__).resolve().parent.parent / "scripts" / "make_figures.py"
        spec = importlib.util.spec_from_file_location("make_figures", path)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        monkeypatch.setattr(script, "OUT_DIR", tmp_path)
        assert script.run() == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            f"fig{n}.csv" for n in cli.FIGURES)
        for n in cli.FIGURES:
            direct = tmp_path / "direct.csv"
            assert main(["fig", str(n), "--output", str(direct)]) == 0
            assert (tmp_path / f"fig{n}.csv").read_bytes() == direct.read_bytes(), n

    def test_unwritable_output(self):
        assert main(["fig", "1", "--steps", "3",
                     "--output", "/nonexistent-dir/fig.csv"]) == 4


#: SHA-256 of ``weakamp fig N --output F`` on the default sweep.  These CSVs
#: are specified output and must stay byte-identical; figs 5-6 are the
#: closed-form amplitude-damping suprema.
FIG_DIGESTS = {
    1: "e60d90d3ab5bf176cc2da3a638d412b495be5d53fe61992e4d664eeb4c3cce4f",
    2: "e0f1a7e2899ba0fdbde8f42b897e487323a7e2067f812da0edf59ff8b2df3163",
    3: "b3afe297e9760840fd2a61d517f7010d8da9bacf64d68356f5398c6476982af0",
    4: "0380c457763560985d3dad75c175adac3f2ba716dc0388265e9e14b31d16ffe8",
    5: "362326d03b01e75e1c256933860d87c8809136e9b8b09542cd375af7c95bd788",
    6: "3b927c7239d37278628e41ddf28d71ff30ee217ab4a11032fa2f2b2b7b7a613d",
}
#: ``weakamp shift`` invocations and the SHA-256 of their stdout.
SHIFT_DIGESTS = (
    (("shift", "--meter", "gaussian", "--r", "1", "--theta1", "1.5707963",
      "--theta2", "1.5707963", "--phi0", "0", "--g-over-dp", "0.1", "--delta", "1"),
     "58649c9a87908f3c2390876db50a28c83060cc2f44ad5fb6d5abbabcdacaebe4"),
    (("shift", "--meter", "qubit", "--channel", "phase-damping", "--gamma", "0.3",
      "--theta1", "1.2", "--theta2", "0.4", "--g", "0.1"),
     "14af54928e6e9b98156983f30d13f7ee614e8d0a6e31a2d60b4911fc1919d700"),
    (("shift", "--meter", "gaussian", "--channel", "amplitude-damping", "--gamma", "0.5",
      "--theta1", "2.0", "--theta2", "1.0", "--phi0", "3.0", "--g-over-dp", "0.05",
      "--delta", "1.5"),
     "ee22f706f90eadc17b9cfb4920aa9f0a35c3eb13b5bb19f4485ab87edbadbb87"),
    (("shift", "--meter", "qubit", "--channel", "depolarizing", "--gamma", "0.2",
      "--r", "0.9", "--theta1", "0.7", "--theta2", "2.5", "--phi0", "1.0", "--g", "0.03"),
     "d412afcaad91b62b029d8c859d699d6dbcfbf6c9a15414e7af0b5c5e5007572b"),
)


class TestPinnedOutput:
    @pytest.mark.parametrize("n", sorted(FIG_DIGESTS))
    def test_fig_csv_digest(self, tmp_path, n):
        out = tmp_path / f"fig{n}.csv"
        assert main(["fig", str(n), "--output", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == FIG_DIGESTS[n]

    @pytest.mark.parametrize("argv,digest", SHIFT_DIGESTS,
                             ids=[argv[2] + "-" + argv[4] for argv, _ in SHIFT_DIGESTS])
    def test_shift_digest(self, capsys, argv, digest):
        assert main(list(argv)) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestVerify:
    def test_passing_run(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(["verify", "--seed", "7", "--samples", "30"])
        out = capsys.readouterr().out
        assert code == 0
        assert "overall: PASS" in out
        assert (tmp_path / "adjudication.csv").exists()

    def test_injected_fault_is_caught(self, capsys, tmp_path):
        code = main(["verify", "--seed", "7", "--samples", "5",
                     "--adjudication-csv", str(tmp_path / "adj.csv"),
                     "--inject-fault", "dq-max"])
        out = capsys.readouterr().out
        assert code == 1
        assert "dq-max" in out
        assert "FAIL" in out

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_nonpositive_samples_is_usage_error(self, capsys, tmp_path, samples):
        code = main(["verify", "--samples", samples,
                     "--adjudication-csv", str(tmp_path / "adj.csv")])
        assert code == 2
        assert "overall" not in capsys.readouterr().out

    def test_negative_seed_is_usage_error(self, capsys, tmp_path):
        csv = tmp_path / "adj.csv"
        code = main(["verify", "--seed", "-1", "--adjudication-csv", str(csv)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "weakamp: seed must be non-negative, got -1\n"
        assert not csv.exists()

    def test_unwritable_csv_keeps_the_report(self, capsys, tmp_path):
        csv = tmp_path / "missing" / "adj.csv"
        code = main(["verify", "--seed", "7", "--samples", "5",
                     "--adjudication-csv", str(csv)])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out.endswith("overall: PASS\n")
        assert captured.err.startswith("weakamp: ")
        assert not csv.exists()

    def test_deterministic_report(self):
        first = run_verify(seed=11, samples=20)
        second = run_verify(seed=11, samples=20)
        assert first.to_text() == second.to_text()
