import csv
import dataclasses
import math
import shutil
import subprocess
import time

import numpy as np
import pytest

from cpsense import cli, experiment, recovery
from cpsense.experiment import (
    ExperimentConfig,
    PAPER_FIG1_PRESET,
    parse_config,
    run_experiment,
    run_trial,
    summarize,
    write_csv,
)

FAST = """
dims = 3,3,3
rank = 1
kappa_grid = 1.0,10.0
trials = 2
m = 30
restarts = 2
base_seed = 7
"""


class TestParseConfig:
    def test_basic(self):
        config = parse_config(FAST)
        assert config.dims == (3, 3, 3)
        assert config.rank == 1
        assert config.kappa_grid == (1.0, 10.0)
        assert config.trials == 2
        assert config.m == (30,)
        assert config.base_seed == 7

    def test_comments_and_blank_lines(self):
        config = parse_config("# header\n\ndims=4,4 # inline\nrank=2\n"
                              "kappa_grid=1\n")
        assert config.dims == (4, 4)

    def test_preset_fields(self):
        config = parse_config("preset = paper-fig1\ndims = 10,10,10\n"
                              "kappa_grid = 1,10\nrank = 3\n")
        assert config.trials == 100
        assert config.rank == 3
        assert config.success_mse_threshold == 1e-10
        assert config.distribution == "gaussian"
        assert config.alpha == 1.0
        assert PAPER_FIG1_PRESET["trials"] == 100

    def test_preset_can_be_overridden(self):
        # a key overrides the preset whether it comes after it or before it
        for text in ("preset = paper-fig1\ndims = 4,4,4\n"
                     "kappa_grid = 1\nrank = 2\ntrials = 5\n",
                     "trials = 5\nrank = 2\npreset = paper-fig1\n"
                     "dims = 4,4,4\nkappa_grid = 1\n"):
            config = parse_config(text)
            assert config.trials == 5 and config.rank == 2

    def test_unknown_key(self):
        with pytest.raises(ValueError, match="unknown config key"):
            parse_config("dims=4,4\nrank=1\nkappa_grid=1\nbogus=3\n")

    def test_missing_required(self):
        with pytest.raises(ValueError, match="missing required"):
            parse_config("dims=4,4\nrank=1\n")

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown preset"):
            parse_config("preset=nope\ndims=4,4\nrank=1\nkappa_grid=1\n")

    def test_bad_line(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_config("this is not a key value pair\n")

    def test_repeated_key_rejected(self):
        with pytest.raises(ValueError, match="line 4: key 'rank' is set twice"):
            parse_config("dims = 4,4,4\nrank = 3\nkappa_grid = 1\nrank = 2\n")

    # a value its converter cannot read is reported with its line and key
    def test_bad_int_names_line_and_key(self):
        with pytest.raises(ValueError, match=(
                r"^line 4: key 'trials': invalid literal for int\(\) "
                r"with base 10: 'ten'$")):
            parse_config("dims = 4,4\nrank = 1\nkappa_grid = 1\ntrials = ten\n")

    def test_bad_float_names_line_and_key(self):
        with pytest.raises(ValueError, match=(
                r"^line 2: key 'alpha': could not convert string to float: 'x'$")):
            parse_config("dims = 4,4\nalpha = x\nrank = 1\nkappa_grid = 1\n")

    def test_bad_list_names_line_and_key(self):
        with pytest.raises(ValueError, match=(
                r"^line 1: key 'dims': invalid literal for int\(\) "
                r"with base 10: '8.5'$")):
            parse_config("dims = 8,8.5,8\nrank = 1\nkappa_grid = 1\n")


class TestMeasurementCount:
    def test_default_uses_factor_times_params(self):
        config = ExperimentConfig(dims=(8, 8, 8), rank=3, kappa_grid=(1.0,))
        assert config.m_for(0) == math.ceil(1.5 * 24 * 3)  # 108

    def test_explicit_single_value_applies_everywhere(self):
        config = ExperimentConfig(dims=(4, 4, 4), rank=2,
                                  kappa_grid=(1.0, 10.0), m=(50,))
        assert config.m_for(0) == 50 and config.m_for(1) == 50

    def test_explicit_per_grid_point(self):
        config = ExperimentConfig(dims=(4, 4, 4), rank=2,
                                  kappa_grid=(1.0, 10.0), m=(40, 60))
        assert config.m_for(1) == 60

    def test_wrong_m_length_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(dims=(4, 4, 4), rank=2,
                             kappa_grid=(1.0, 10.0, 100.0), m=(40, 60))


class TestConfigValidation:
    @pytest.mark.parametrize("changes, message", [
        ({"rank": 0}, "rank must be >= 1"),
        ({"dims": (4, 2, 4)}, "every dimension must be >= rank"),
        ({"kappa_grid": (1.0, 10.0, 1.0)}, "repeats a value"),
        ({"m": (40, 0)}, "explicit m must be >= 1"),
        ({"kappa_grid": ()}, "kappa grid must be nonempty"),
        # the second grid point's operator, 10000 x 27000, is over the limit
        ({"dims": (30, 30, 30), "m": (100, 10000), "trials": 2},
         "operator would hold 270000000 entries"),
        # the second grid point's M is below I_N * F = 4 * 3, the unknowns
        # of the last factor's least-squares problem
        ({"m": (40, 11)}, r"M = 11 measurements is below I_N \* F = 12"),
        # a str or bytes grid is not read one character at a time, and a
        # bool is not taken as kappa_tilde = 1
        ({"kappa_grid": "25"}, "^kappa_grid must be a sequence of numbers, got '25'"),
        ({"kappa_grid": "10"}, "^kappa_grid must be a sequence of numbers, got '10'"),
        ({"kappa_grid": b"1"}, "^kappa_grid must be a sequence of numbers, got b'1'"),
        ({"kappa_grid": (1, True)}, "^kappa_grid value must be a number, got True$"),
        # a str is not a number, though float would read it; a bare number
        # is not a list
        ({"kappa_grid": ("1", "1e1")},
         "^kappa_grid value must be a number, got '1'$"),
        ({"alpha": "2"}, "^alpha must be a number, got '2'$"),
        ({"success_mse_threshold": "1e-10"},
         "^success_mse_threshold must be a number, got '1e-10'$"),
        ({"alpha": True}, "^alpha must be a number, got True$"),
        ({"m": 40}, "^explicit m must be a sequence of numbers, got 40$"),
        ({"m": "40"}, "^explicit m must be a sequence of numbers, got '40'$"),
        ({"m": ("40",)}, "^explicit m must be an integer, got 40$"),
    ])
    def test_bad_config_rejected(self, changes, message):
        fields = {"dims": (4, 4, 4), "rank": 3, "kappa_grid": (1.0, 10.0)}
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(**{**fields, **changes})

    def test_cli_rejects_rank_above_dims(self, tmp_path, capsys):
        config_path = tmp_path / "sweep.cfg"
        config_path.write_text("dims = 2,2,2\nrank = 3\nkappa_grid = 1\n"
                               "trials = 3\n")
        assert cli.main(["experiment", "--config", str(config_path),
                         "--out", str(tmp_path / "run")]) != 0
        assert "every dimension must be >= rank" in capsys.readouterr().err
        assert not (tmp_path / "run_rows.csv").exists()

    def test_bad_kappa_runs_no_trial(self, monkeypatch, tmp_path, capsys):
        calls = []

        def counted(*args):
            calls.append(args)
            return trial(*args)

        trial = experiment.run_trial
        monkeypatch.setattr(experiment, "run_trial", counted)
        text = FAST.replace("kappa_grid = 1.0,10.0", "kappa_grid = 1, 0.5")
        with pytest.raises(ValueError, match="kappa_grid value must be finite"):
            run_experiment(parse_config(text))
        config_path = tmp_path / "sweep.cfg"
        config_path.write_text(text)
        assert cli.main(["experiment", "--config", str(config_path),
                         "--out", str(tmp_path / "run")]) == 1
        assert "kappa_grid value must be finite and >= 1, got 0.5" in \
            capsys.readouterr().err
        assert not (tmp_path / "run_rows.csv").exists()
        assert calls == []

    @pytest.mark.parametrize("flag, path", [("--out", "missing/run"),
                                            ("--plot-script", "missing/plot.gp")])
    def test_missing_output_directory_runs_no_trial(self, monkeypatch, tmp_path,
                                                    capsys, flag, path):
        calls = []
        monkeypatch.setattr(experiment, "run_trial",
                            lambda *args: calls.append(args))
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sweep.cfg").write_text(FAST)
        argv = ["experiment", "--config", "sweep.cfg", "--out", "run",
                "--plot-script", "plot.gp"]
        argv[argv.index(flag) + 1] = path
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: {flag} {path}: directory missing does not exist\n")
        assert calls == []
        assert list(tmp_path.iterdir()) == [tmp_path / "sweep.cfg"]

    def test_fault_in_recovery_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("solver fault")

        monkeypatch.setattr(experiment, "recover", broken)
        with pytest.raises(RuntimeError, match="solver fault"):
            run_trial(parse_config(FAST), 0, 0)


class TestRunTrial:
    def test_deterministic_modulo_wall_time(self):
        config = parse_config(FAST)
        a = run_trial(config, 0, 0)
        b = run_trial(config, 0, 0)
        assert (a.kappa_tilde, a.m, a.trial_index, a.seed_used, a.mse,
                a.success, a.iterations) == \
               (b.kappa_tilde, b.m, b.trial_index, b.seed_used, b.mse,
                b.success, b.iterations)

    def test_distinct_trials_use_distinct_seeds(self):
        config = parse_config(FAST)
        seeds = {run_trial(config, gi, ti).seed_used
                 for gi in range(2) for ti in range(2)}
        assert len(seeds) == 4

    def test_easy_instance_succeeds(self):
        config = parse_config(FAST)
        row = run_trial(config, 0, 0)
        assert row.success and row.mse < config.success_mse_threshold

    def test_iterations_column_counts_every_lm_run(self, monkeypatch):
        runs = []

        def counted(*args, **kwargs):
            runs.append(lm_single(*args, **kwargs))
            return runs[-1]

        lm_single = recovery._lm_single
        monkeypatch.setattr(recovery, "_lm_single", counted)
        # a trial whose random start fails, so a ladder stage runs
        config = parse_config("dims = 4,4,4\nrank = 2\nkappa_grid = 100\n"
                              "trials = 1\nrestarts = 2\nbase_seed = 18\n")
        row = run_trial(config, 0, 0)
        assert any(r.model.rank == 3 for r in runs)
        assert row.iterations == sum(r.iterations for r in runs)


class TestSummaries:
    def test_counts_conserved(self):
        config = parse_config(FAST)
        rows, summary = run_experiment(config)
        assert len(rows) == len(config.kappa_grid) * config.trials
        for s in summary:
            assert s.trials == config.trials
            matching = [r for r in rows if r.kappa_tilde == s.kappa_tilde]
            assert s.success_count == sum(r.success for r in matching)
            assert s.success_rate == pytest.approx(s.success_count / s.trials)

    def test_summarize_median(self):
        config = parse_config(FAST)
        rows, _ = run_experiment(config)
        summary = summarize(config, rows)
        first = sorted(r.mse for r in rows if r.kappa_tilde == 1.0)
        assert summary[0].median_mse == pytest.approx(
            (first[0] + first[1]) / 2.0)


class TestCsv:
    def test_round_trip_and_format(self, tmp_path):
        config = parse_config(FAST)
        rows, summary = run_experiment(config)
        rows_path, summary_path = write_csv(rows, summary,
                                            str(tmp_path / "out"))
        lines = open(rows_path).read().splitlines()
        assert lines[0] == ",".join(experiment.ROWS_HEADER)
        assert len(lines) == 1 + len(rows)
        assert all(line.split(",")[5] in ("true", "false")
                   for line in lines[1:])
        with open(summary_path, newline="") as fh:
            records = list(csv.reader(fh))
        assert records[0] == experiment.SUMMARY_HEADER
        assert len(records) == 1 + len(config.kappa_grid)
        successes = experiment.SUMMARY_HEADER.index("successes")
        assert [int(rec[successes]) for rec in records[1:]] == \
               [s.success_count for s in summary]

    def test_lines_end_with_newline_alone(self, tmp_path):
        # as every other file the CLI writes, not the csv module's \r\n
        rows, summary = run_experiment(parse_config(FAST))
        for path in write_csv(rows, summary, str(tmp_path / "out")):
            data = open(path, "rb").read()
            assert b"\r" not in data
            assert data.endswith(b"\n")

    def test_empty_rows_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv([], [], str(tmp_path / "out"))


class TestPlotScript:
    def test_script_contents(self, tmp_path):
        config = parse_config(FAST)
        rows, summary = run_experiment(config)
        _, summary_path = write_csv(rows, summary, str(tmp_path / "out"))
        script = tmp_path / "plot.gp"
        experiment.emit_plot_script(summary_path, str(script))
        text = script.read_text()
        assert "set logscale x" in text
        assert summary_path in text
        assert "pngcairo" in text
        # a quote in the path is doubled, as gnuplot reads it back
        quoted = tmp_path / "it's_summary.csv"
        quoted.write_text("kappa_tilde,m,trials,success_count\n")
        experiment.emit_plot_script(str(quoted), str(script))
        plot_line, = [line for line in script.read_text().splitlines()
                      if line.startswith("plot ")]
        assert plot_line.startswith(f"plot '{tmp_path}/it''s_summary.csv' "
                                    "using 1:4 ")

    def test_missing_csv_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            experiment.emit_plot_script(str(tmp_path / "nope.csv"),
                                        str(tmp_path / "plot.gp"))

    @pytest.mark.skipif(shutil.which("gnuplot") is None,
                        reason="gnuplot not installed")
    def test_gnuplot_accepts_script(self, tmp_path):
        config = parse_config(FAST)
        rows, summary = run_experiment(config)
        _, summary_path = write_csv(rows, summary, str(tmp_path / "out"))
        script = tmp_path / "plot.gp"
        experiment.emit_plot_script(summary_path, str(script))
        proc = subprocess.run(["gnuplot", script.name], cwd=tmp_path,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "recovery_success.png").exists()


class TestSelftest:
    def test_all_checks_pass_quickly(self):
        start = time.perf_counter()
        results = experiment.selftest()
        elapsed = time.perf_counter() - start
        assert results and all(results.values())
        assert elapsed < 30.0

    # check -> (the function of `experiment` it relies on, a faulty wrapper)
    FAULTS = {
        "adjoint": ("adjoint_apply", lambda f: lambda op, y: -f(op, y)),
        "jacobian_fd": ("residual_jacobian",
                        lambda f: lambda *args: (f(*args)[0], 2.0 * f(*args)[1])),
        "vp_gradient_fd": ("_projected_normal_equations",
                           lambda f: lambda *args: (f(*args)[0],
                                                    2.0 * f(*args)[1])),
        "spectral_bound": ("spectral_norm", lambda f: lambda a: 0.5 * f(a)),
        "kappa_oracle": ("kappa", lambda f: lambda model: dataclasses.replace(
            f(model), kappa=2.0 * f(model).kappa)),
    }

    @pytest.mark.parametrize("check", list(FAULTS))
    def test_fault_injection_breaks_only_its_check(self, monkeypatch, capsys,
                                                   check):
        name, fault = self.FAULTS[check]
        monkeypatch.setattr(experiment, name, fault(getattr(experiment, name)))
        results = experiment.selftest()
        assert set(results) == set(self.FAULTS)
        assert [k for k, ok in results.items() if not ok] == [check]
        assert cli.main(["selftest"]) == 2
        assert f"{check}: FAIL" in capsys.readouterr().out


class TestCli:
    def test_gen_kappa_sense_recover_round_trip(self, tmp_path, capsys):
        model_path = tmp_path / "model.txt"
        y_path = tmp_path / "y.txt"
        out_path = tmp_path / "recovered.txt"
        assert cli.main(["gen", "--dims", "3,3,3", "--rank", "1",
                         "--kappa", "2.0", "--seed", "5",
                         "--out", str(model_path)]) == 0
        assert cli.main(["kappa", "--model", str(model_path)]) == 0
        out = capsys.readouterr().out
        assert "status=finite" in out
        assert cli.main(["sense", "--model", str(model_path), "--m", "30",
                         "--seed", "9", "--out", str(y_path)]) == 0
        assert cli.main(["recover", "--y", str(y_path), "--m", "30",
                         "--shape", "3,3,3", "--rank", "1", "--op-seed", "9",
                         "--seed", "3", "--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "objective=" in out and "trace=" in out
        fields = dict(line.split("=", 1) for line in out.splitlines()
                      if "=" in line)
        assert fields["status"] == "floor" and "converged" not in fields
        # one count of the LM iterations, every run's, before the status
        keys = list(fields)
        assert keys[keys.index("iterations") + 1] == "status"
        assert "total_iterations" not in fields
        # the winner's start stage, printed right after its restart
        assert keys[keys.index("restart_index") + 1] == "stage_index"
        assert int(fields["stage_index"]) in range(4)
        from cpsense.io_text import read_cpmodel
        from cpsense.tensor_core import mse, reconstruct
        truth = reconstruct(read_cpmodel(model_path))
        found = reconstruct(read_cpmodel(out_path))
        assert mse(truth, found) < 1e-10

    def test_recover_reports_mse_against_truth(self, tmp_path, capsys):
        from cpsense.io_text import read_cpmodel, write_tensor
        from cpsense.tensor_core import reconstruct
        model_path = tmp_path / "model.txt"
        y_path = tmp_path / "y.txt"
        truth_path = tmp_path / "truth.txt"
        cli.main(["gen", "--dims", "3,3,3", "--rank", "1", "--seed", "6",
                  "--out", str(model_path)])
        write_tensor(truth_path, reconstruct(read_cpmodel(model_path)))
        cli.main(["sense", "--model", str(model_path), "--m", "30",
                  "--seed", "2", "--out", str(y_path)])
        capsys.readouterr()
        report_path = tmp_path / "report.txt"
        assert cli.main(["recover", "--y", str(y_path), "--m", "30",
                         "--shape", "3,3,3", "--rank", "1", "--op-seed", "2",
                         "--truth", str(truth_path),
                         "--out", str(tmp_path / "rec.txt"),
                         "--report", str(report_path)]) == 0
        text = report_path.read_text()
        assert "mse=" in text
        mse_val = float([ln for ln in text.splitlines()
                         if ln.startswith("mse=")][0].split("=")[1])
        assert mse_val < 1e-10

    def test_bound_and_cover(self, capsys):
        assert cli.main(["bound", "--dims", "10,10,10", "--rank", "3",
                         "--tau", "8", "--eta", "0.01", "--delta", "0.5"]) == 0
        out = capsys.readouterr().out
        t1 = float([ln for ln in out.splitlines()
                    if ln.startswith("theorem1_bound=")][0].split("=")[1])
        assert t1 == pytest.approx(181.0 * math.log(96.0), rel=1e-12)
        assert "prop2_bound=" in out
        assert cli.main(["cover", "--dims", "4,5", "--rank", "2",
                         "--tau", "2", "--eps", "0.1"]) == 0
        out = capsys.readouterr().out
        val = float(out.split("=")[1])
        assert val == pytest.approx(19.0 * math.log(180.0), rel=1e-12)

    def test_non_finite_settings_exit_1(self, tmp_path, capsys):
        assert cli.main(["bound", "--dims", "3,3", "--rank", "1",
                         "--tau", "nan"]) == 1
        assert "tau must be finite and >= 1, got nan" in capsys.readouterr().err
        model_path = tmp_path / "model.txt"
        assert cli.main(["gen", "--dims", "3,3", "--rank", "1",
                         "--out", str(model_path)]) == 0
        assert cli.main(["sense", "--model", str(model_path), "--m", "5",
                         "--alpha", "nan", "--out", str(tmp_path / "y.txt")]) == 1
        assert "alpha must be > 0 and finite, got nan" in capsys.readouterr().err
        assert not (tmp_path / "y.txt").exists()

    def test_rip_probe(self, capsys):
        assert cli.main(["rip-probe", "--dims", "4,4,4", "--rank", "2",
                         "--m", "100", "--samples", "50", "--op-seed", "1",
                         "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "delta_hat=" in out and "mean_ratio=" in out

    def test_experiment_subcommand(self, tmp_path, capsys):
        config_path = tmp_path / "sweep.cfg"
        config_path.write_text(FAST)
        assert cli.main(["experiment", "--config", str(config_path),
                         "--out", str(tmp_path / "run"),
                         "--plot-script", str(tmp_path / "plot.gp")]) == 0
        captured = capsys.readouterr()
        assert "successes=" in captured.out
        # one progress line per finished trial: 2 grid points x 2 trials
        progress = captured.err.splitlines()
        assert len(progress) == 4
        assert progress[-1].startswith("kappa_tilde=10 trial=1 success=")
        assert all(" mse=" in ln and " seconds=" in ln for ln in progress)
        assert (tmp_path / "run_rows.csv").exists()
        assert (tmp_path / "run_summary.csv").exists()
        assert (tmp_path / "plot.gp").exists()

    def test_selftest_exit_code(self, capsys):
        assert cli.main(["selftest"]) == 0
        assert "pass" in capsys.readouterr().out

    def test_error_exit_code(self, tmp_path, capsys):
        assert cli.main(["kappa", "--model", str(tmp_path / "missing.txt")]) == 1
        assert "error:" in capsys.readouterr().err
