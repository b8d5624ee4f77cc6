import json
import os
import tracemalloc

import numpy as np
import pytest

from quantfunc import averaged_two_step_process, lorenz
from quantfunc import cli, simulation as sim
from quantfunc.cli import main, read_csv_dataset

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fx(name):
    return os.path.join(FIXTURES, name)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def count_calls(monkeypatch, module, name):
    """Replace ``module.name`` by a wrapper that records each call."""
    calls, real = [], getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestFit:
    def test_p0_process_is_sorted_y(self, capsys):
        code, out, _ = run(capsys, "--command", "fit", "--input", fx("p0.csv"),
                           "--response", "y", "--alpha", "0.5")
        assert code == 0
        report = json.loads(out)
        assert report["averaged_process"] == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert report["two_step_intercepts"]["0.5"] == 3.0
        assert report["p"] == 0

    def test_noiseless_line(self, capsys):
        code, out, _ = run(capsys, "--command", "fit", "--input", fx("line.csv"),
                           "--response", "y", "--covariates", "x",
                           "--alpha", "0.3,0.7")
        assert code == 0
        report = json.loads(out)
        assert report["slopes"][0] == pytest.approx(2.0, abs=1e-6)
        # flat adjusted process: 5 + 2 * mean(x) = 9
        assert np.ptp(report["averaged_process"]) < 1e-6
        assert report["averaged_process"][0] == pytest.approx(9.0, abs=1e-6)
        # advisory only: centered norm 2 exceeds n**0.25 for n = 5
        assert report["design_diagnostics"]["x1_suspect"] is True

    def test_golden_file_byte_identical(self, tmp_path, capsys):
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        args = ["--command", "fit", "--input", fx("n200.csv"),
                "--response", "y", "--covariates", "x1,x2",
                "--alpha", "0.25,0.5,0.75"]
        assert main(args + ["--output", str(out1)]) == 0
        assert main(args + ["--output", str(out2)]) == 0
        golden = open(fx("n200_fit_golden.json"), "rb").read()
        assert out1.read_bytes() == golden
        assert out2.read_bytes() == golden

    def test_csv_process_output(self, tmp_path, capsys):
        out = tmp_path / "proc.csv"
        code, _, _ = run(capsys, "--command", "fit", "--input", fx("p0.csv"),
                         "--response", "y", "--format", "csv",
                         "--output", str(out))
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "alpha_breakpoint,value"
        assert len(lines) == 6

    def test_csv_report_bytes(self, tmp_path):
        # The golden JSON report's process, one (k / n, value) row per step.
        out = tmp_path / "proc.csv"
        assert main(["--command", "fit", "--input", fx("n200.csv"), "--response", "y",
                     "--covariates", "x1,x2", "--format", "csv", "--output", str(out)]) == 0
        process = json.load(open(fx("n200_fit_golden.json")))["averaged_process"]
        want = "alpha_breakpoint,value\n" + "".join(
            f"{k / len(process)!r},{v!r}\n" for k, v in enumerate(process, 1))
        assert out.read_bytes() == want.encode()


def plain(v):
    """``v`` with every ndarray made a list, as ``json.dumps`` takes it."""
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, dict):
        return {k: plain(w) for k, w in v.items()}
    if isinstance(v, list):
        return [plain(w) for w in v]
    return v


SPECIAL = np.array([-0.0, float("nan"), 5e-324, 0.1, -2.5e-300])


class TestReportText:
    """The streamed report writer gives the bytes of the indenting encoder for
    the payloads the reports pass: a dict with top-level arrays among its
    other values (fit), a list of dicts (simulate) and a dict of scalars
    (functional)."""

    @pytest.mark.parametrize("payload", [
        # Arrays about the encoder's slice length, between other values.
        pytest.param({"a": 0.5, "m": {"suspect": True, "leverage": None}, "s": [0.1, -0.0],
                      "z": "\u00e9\n\"", **{f"len {n}": np.resize(SPECIAL, n) for n in
                      (0, 1, cli._SLICE - 1, cli._SLICE, cli._SLICE + 1, 2 * cli._SLICE + 1)}},
                     id="arrays_about_the_slice_length"),
        pytest.param([{"metric": "two_step_rmse", "n_grid": [30, 60], "rmse": [0.1, 5e-324],
                       "fitted_slope": -0.5}, {"mean_error": []}], id="list_of_dicts"),
        pytest.param({"kind": "cvar", "level": 0.9, "value": -2.5e-300, "n": 200,
                      "lambda": 0.5, "process_source": "centered_two_step"}, id="scalars"),
        "plain",
    ])
    def test_equal_to_json_dumps(self, tmp_path, capsys, payload):
        want = json.dumps(plain(payload), sort_keys=True, indent=2) + "\n"
        path = tmp_path / "report.json"
        cli._dump(payload, str(path))
        assert path.read_bytes() == want.encode()
        cli._dump(payload, None)
        assert capsys.readouterr().out == want


class TestMemory:
    """Ingest and report writing hold a few n-vectors, never the text."""

    N = 200_000

    def write_csv(self, path, text_column=False):
        y = np.random.default_rng(31).standard_normal(self.N).tolist()
        if text_column:  # a blank outside the used cells: each used cell goes to _cell
            path.write_text("y,city\n" + "".join(f"{v!r},New York\n" for v in y))
        else:
            path.write_text("y\n" + "".join(f"{v!r}\n" for v in y))
        return str(path)

    @staticmethod
    def traced_peak(call, *args):
        tracemalloc.start()
        try:
            call(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("text_column", [False, True])
    def test_ingest_peak(self, tmp_path, text_column):
        path = self.write_csv(tmp_path / "big.csv", text_column)
        assert self.traced_peak(read_csv_dataset, path, "y", []) <= 4 * 8 * self.N

    def test_report_write_peak(self, tmp_path, monkeypatch):
        reports = []
        monkeypatch.setattr(cli, "_dump", lambda payload, output: reports.append(payload))
        assert main(["--command", "fit", "--input", self.write_csv(tmp_path / "big.csv"),
                     "--response", "y", "--alpha", "0.05,0.5,0.95"]) == 0
        monkeypatch.undo()
        report, out = reports[0], tmp_path / "report.json"
        assert len(report["averaged_process"]) == self.N
        assert self.traced_peak(cli._dump, report, str(out)) <= 8 * self.N
        assert out.read_bytes() == (json.dumps(plain(report), sort_keys=True, indent=2)
                                    + "\n").encode()


class TestFunctional:
    def test_cvar_p0(self, capsys):
        code, out, _ = run(capsys, "--command", "functional",
                           "--input", fx("p0.csv"), "--response", "y",
                           "--functional", "cvar", "--level", "0.6")
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == 4.5
        assert payload["process_source"] == "empirical"
        assert set(payload) == {"kind", "level", "value", "n", "lambda",
                                "process_source"}

    def test_lorenz_equal_values(self, tmp_path, capsys):
        path = tmp_path / "equal.csv"
        path.write_text("y\n" + "2.0\n" * 6)
        code, out, _ = run(capsys, "--command", "functional", "--input", str(path),
                           "--response", "y", "--functional", "lorenz",
                           "--level", "0.5")
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(0.5)

    def test_staudte_scale_invariance(self, tmp_path, capsys):
        vals = [1.0, 3.0, 4.5, 7.0, 9.0, 11.0]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        p1.write_text("y\n" + "".join(f"{v!r}\n" for v in vals))
        p2.write_text("y\n" + "".join(f"{3.0 * v!r}\n" for v in vals))
        outs = []
        for path in (p1, p2):
            code, out, _ = run(capsys, "--command", "functional", "--input",
                               str(path), "--response", "y", "--functional",
                               "staudte_r", "--level", "0.4")
            assert code == 0
            outs.append(json.loads(out)["value"])
        assert outs[0] == outs[1]

    def test_lorenz_with_covariates_reads_the_uncentred_process(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        x = rng.uniform(0.0, 1.0, (80, 2))
        y = 5.0 + x @ [1.0, -0.5] + rng.uniform(0.0, 1.0, 80)
        path = tmp_path / "positive.csv"
        path.write_text("x1,x2,y\n" + "".join(",".join(map(repr, row)) + "\n"
                                              for row in np.c_[x, y].tolist()))
        for functional in ("lorenz", "gastwirth_j"):
            code, out, _ = run(capsys, "--command", "functional", "--input",
                               str(path), "--response", "y", "--covariates",
                               "x1,x2", "--functional", functional, "--level", "0.3")
            assert code == 0
            payload = json.loads(out)
            assert payload["process_source"] == "averaged_two_step"
            assert 0.0 < payload["value"] < 1.0
        ds = read_csv_dataset(str(path), "y", ["x1", "x2"])
        proc = averaged_two_step_process(ds, 0.5)
        want = lorenz(proc, 0.3).value
        code, out, _ = run(capsys, "--command", "functional", "--input", str(path),
                           "--response", "y", "--covariates", "x1,x2",
                           "--functional", "lorenz", "--level", "0.3")
        assert json.loads(out)["value"] == want
        code, out, _ = run(capsys, "--command", "functional", "--input", str(path),
                           "--response", "y", "--covariates", "x1,x2",
                           "--functional", "cvar", "--level", "0.9")
        assert json.loads(out)["process_source"] == "centered_two_step"

    @pytest.mark.parametrize("functional,message", [
        ("gastwirth_j", "1 - L(1 - alpha) rounds to 0"),
        ("staudte_r", "1 - alpha/2 rounds to 1"),
    ])
    def test_a_level_that_rounds_away_is_a_domain_error(self, capsys, functional, message):
        code, out, err = run(capsys, "--command", "functional", "--input", fx("p0.csv"),
                             "--response", "y", "--functional", functional, "--level", "1e-17")
        assert (code, out, err) == (2, "", f"error:domain: alpha=1e-17 is too small: {message}\n")

    def test_lorenz_of_a_process_with_negative_values_is_a_domain_error(self, capsys):
        code, _, err = run(capsys, "--command", "functional", "--input",
                           fx("n200.csv"), "--response", "y", "--covariates",
                           "x1,x2", "--functional", "lorenz", "--level", "0.5")
        assert code == 2
        assert err.startswith("error:domain: Lorenz curve needs nonnegative")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("level", ["-inf", "-1e308"])
    def test_infinite_value_is_a_domain_error(self, capsys, level):
        code, out, err = run(capsys, "--command", "functional", "--input", fx("p0.csv"),
                             "--response", "y", "--functional", "mean_excess",
                             f"--level={level}")
        assert (code, out) == (2, "")
        assert err.startswith("error:domain: mean_excess at level") and err.count("\n") == 1

    @pytest.mark.parametrize("functional,level", [("cvar", "0.9"), ("mean_excess", "-0.25")])
    def test_csv_report_bytes(self, tmp_path, capsys, functional, level):
        args = ["--command", "functional", "--input", fx("n200.csv"), "--response", "y",
                "--covariates", "x1,x2", "--functional", functional, "--level", level,
                "--lambda", "0.375"]
        code, out, _ = run(capsys, *args)
        assert code == 0
        r = json.loads(out)
        path = tmp_path / "functional.csv"
        assert main(args + ["--format", "csv", "--output", str(path)]) == 0
        assert path.read_bytes() == (
            "kind,level,value,n,lambda,process_source\n"
            f"{r['kind']},{r['level']!r},{r['value']!r},{r['n']},{r['lambda']!r},"
            f"{r['process_source']}\n").encode()

    def test_negative_values_lorenz_error(self, tmp_path, capsys):
        path = tmp_path / "neg.csv"
        path.write_text("y\n-1.0\n2.0\n3.0\n")
        code, _, err = run(capsys, "--command", "functional", "--input", str(path),
                           "--response", "y", "--functional", "lorenz",
                           "--level", "0.5")
        assert code != 0
        assert err.startswith("error:")
        assert err.count("\n") == 1


class TestSimulate:
    def write_config(self, tmp_path, **overrides):
        cfg = {
            "study": "r_estimator_rate",
            "n_grid": [30, 60],
            "p": 1,
            "beta0": 0.5,
            "beta": [1.5],
            "error_dist": "standard_normal",
            "design": "equispaced",
            "lambda": 0.5,
            "replications": 2,
            "seed": 9,
        }
        cfg.update(overrides)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_smoke_one_row(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, n_grid=[50, 100])
        code, out, _ = run(capsys, "--command", "simulate", "--config", str(cfg))
        assert code == 0
        payload = json.loads(out)
        assert payload[0]["n_grid"] == [50, 100]

    def test_same_seed_identical_files(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        o1, o2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["--command", "simulate", "--config", str(cfg),
                     "--output", str(o1)]) == 0
        assert main(["--command", "simulate", "--config", str(cfg),
                     "--output", str(o2)]) == 0
        assert o1.read_bytes() == o2.read_bytes()

    def test_seed_flag_overrides(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        code, out1, _ = run(capsys, "--command", "simulate", "--config", str(cfg))
        code, out2, _ = run(capsys, "--command", "simulate", "--config", str(cfg),
                            "--seed", "77")
        assert out1 != out2

    @pytest.mark.parametrize("study", ["two_step_rate", "r_estimator_rate"])
    def test_csv_report_bytes(self, tmp_path, capsys, study):
        cfg = self.write_config(tmp_path, study=study, n_grid=[30, 60, 90],
                                alphas=[0.25, 0.5, 0.75])
        code, out, _ = run(capsys, "--command", "simulate", "--config", str(cfg))
        assert code == 0
        want = "metric,n,rmse,coverage,fitted_slope\n" + "".join(
            f"{r['metric']},{n},{rmse!r},{coverage!r},{r['fitted_slope']!r}\n"
            for r in json.loads(out)
            for n, rmse, coverage in zip(r["n_grid"], r["rmse"], r["coverage"]))
        assert want.count("\n") == (7 if study == "two_step_rate" else 4)
        path = tmp_path / "report.csv"
        assert main(["--command", "simulate", "--config", str(cfg), "--format", "csv",
                     "--output", str(path)]) == 0
        assert path.read_bytes() == want.encode()

    def test_invalid_config_all_problems_reported(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"study": "bogus",
                                    "functional": None}))
        code, _, err = run(capsys, "--command", "simulate", "--config", str(path))
        assert code != 0
        assert "n_grid" in err and "bogus" in err


    def test_omitted_defaults_are_those_of_simulation_config(self, tmp_path, capsys):
        keys = {"lambda": 0.5, "replications": 100, "seed": 0,
                "alphas": [round(0.05 * k, 3) for k in range(1, 20)]}
        outs = []
        for cfg in ({k: None for k in keys}, keys):
            path = self.write_config(tmp_path, study="two_step_rate", n_grid=[20, 40],
                                     **cfg)
            raw = json.loads(path.read_text())
            path.write_text(json.dumps({k: v for k, v in raw.items() if v is not None}))
            code, out, _ = run(capsys, "--command", "simulate", "--config", str(path))
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("replications", [2.0, "2"])
    def test_whole_numbers_in_any_json_form(self, tmp_path, capsys, replications):
        outs = []
        for value in (2, replications):
            path = self.write_config(tmp_path, replications=value)
            code, out, _ = run(capsys, "--command", "simulate", "--config", str(path))
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("config,message", [
        (5, "must be a JSON object"),
        ({"study": "functional_consistency", "functional": "cvar", "level": "abc"},
         "could not convert string to float: 'abc'"),
        ({"replications": float("inf")}, "cannot convert float infinity to integer"),
        ({"seed": 1.5}, "1.5 is not a whole number"),
        ({"seed": -1}, "seed must be >= 0"),
        ({"n_grid": [30.5, 60]}, "30.5 is not a whole number"),
        # A string where a list belongs used to be read character by
        # character: n_grid "58" ran a study at n = 5 and n = 8.
        ({"study": "two_step_rate", "n_grid": "58", "p": 0, "replications": 3},
         "'n_grid' must be a list, got '58'"),
        ({"beta": "12"}, "'beta' must be a list, got '12'"),
        ({"study": "two_step_rate", "alphas": "0.5"}, "'alphas' must be a list, got '0.5'"),
        ({"study": "functional_consistency", "functional": "lorenz", "level": 0.5},
         "functional_consistency takes a functional in ['cvar', 'mean_excess'], got 'lorenz'"),
        # JSON's true once read as 1: p = 1, one replication, seed 0, exit 0.
        ({"p": True}, "true is not a whole number"),
        ({"replications": True}, "true is not a whole number"),
        ({"seed": False}, "false is not a whole number"),
        ({"n_grid": [True, 400]}, "true is not a whole number"),
        ({"beta": [True]}, "true is not a number"),
        ({"beta0": True}, "true is not a number"),
        ({"error_param": True}, "true is not a number"),
        ({"lambda": True}, "true is not a number"),
        ({"study": "two_step_rate", "alphas": [0.5, True]}, "true is not a number"),
        ({"study": "functional_consistency", "functional": "cvar", "level": True},
         "true is not a number"),
        # A rate study over one size, or one size twice, fitted a meaningless
        # log-log slope and exited 0; an empty alpha grid ended in a traceback.
        ({"study": "two_step_rate", "n_grid": [40, 40]},
         "need at least two distinct sample sizes"),
        ({"n_grid": [40]}, "need at least two distinct sample sizes"),
        ({"study": "functional_consistency", "functional": "cvar", "level": 0.8,
          "n_grid": [40]}, "need at least two distinct sample sizes"),
        ({"study": "two_step_rate", "alphas": []}, "alpha grid must be nonempty"),
        # JSON's NaN and Infinity: a NaN error parameter or intercept once ran
        # the study into "error:domain: non-finite entries in y or x".
        ({"error_dist": "shifted_exponential", "error_param": float("nan")},
         "shifted_exponential needs a finite parameter, got nan"),
        ({"error_param": float("inf")}, "standard_normal needs a finite parameter, got inf"),
        ({"beta0": float("nan")}, "beta0 must be finite, got nan"),
        ({"beta": [float("inf")]}, "beta must be finite, got (inf,)"),
        # A config the study cannot run once exited error:domain: equispaced
        # at p = 2 from the first draw, the others before it.
        ({"p": 2, "beta": [1.0, 1.0]}, "equispaced design is defined for p <= 1, got p = 2"),
        ({"p": 0, "beta": []}, "slope rate study needs p >= 1"),
        ({"study": "functional_consistency", "functional": "cvar", "level": 1.5},
         "cvar level must be in (0, 1), got 1.5"),
        ({"study": "functional_consistency", "functional": "mean_excess", "level": 0.6,
          "error_dist": "uniform_centered", "error_param": 1.0}, "threshold beyond the support"),
    ])
    def test_bad_config_exits_with_one_config_error(self, tmp_path, capsys, monkeypatch,
                                                    config, message):
        if isinstance(config, dict):
            path = self.write_config(tmp_path, **config)
        else:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(config))
        calls = count_calls(monkeypatch, sim, "generate")
        code, out, err = run(capsys, "--command", "simulate", "--config", str(path))
        assert (code, out, calls) == (2, "", [])
        assert err.startswith("error:config: ") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize("text,message", [
        (None, "error:config: simulate requires --config with a JSON config file\n"),
        ("{", "error:config: cannot parse config {path}: "),
    ], ids=["no_config", "unparsable"])
    def test_a_missing_or_unparsable_config(self, tmp_path, capsys, text, message):
        path = tmp_path / "cfg.json"
        flags = []
        if text is not None:
            path.write_text(text)
            flags = ["--config", str(path)]
        code, out, err = run(capsys, "--command", "simulate", *flags)
        assert (code, out) == (2, "")
        assert err.startswith(message.format(path=path)) and err.count("\n") == 1

    @pytest.mark.parametrize("p", [1, 0])
    def test_functional_consistency_study_report(self, tmp_path, capsys, p):
        path = self.write_config(tmp_path, study="functional_consistency", functional="cvar",
                                 level=0.8, p=p, beta=[1.5] * p)
        config = sim.SimulationConfig(
            n_grid=(30, 60), p=p, beta0=0.5, beta=(1.5,) * p,
            error_dist=sim.ErrorDistribution("standard_normal"), design="equispaced",
            lam=0.5, replications=2, seed=9)
        report = sim.functional_consistency_study(config, "cvar", 0.8)
        code, out, _ = run(capsys, "--command", "simulate", "--config", str(path))
        assert (code, json.loads(out)) == (0, [json.loads(report.to_json())])
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        assert main(["--command", "simulate", "--config", str(path), "--format", "csv",
                     "--output", str(got)]) == 0
        sim.reports_to_csv([report], want)
        assert got.read_bytes() == want.read_bytes()

    def test_csv_without_output_runs_no_study(self, tmp_path, capsys, monkeypatch):
        path = self.write_config(tmp_path)
        calls = count_calls(monkeypatch, sim, "generate")
        code, out, err = run(capsys, "--command", "simulate", "--config", str(path),
                             "--format", "csv")
        assert (code, out, err, calls) == (
            2, "", "error:config: csv format requires --output\n", [])

    def test_negative_seed_flag(self, tmp_path, capsys):
        path = self.write_config(tmp_path)
        code, _, err = run(capsys, "--command", "simulate", "--config", str(path),
                           "--seed", "-1")
        assert code == 2
        assert err == "error:config: seed must be >= 0, got -1\n"


class TestParserErrors:
    """A flag argparse itself refuses ends in one error:config line too."""

    @pytest.mark.parametrize("argv,message", [
        (["--command", "simulate", "--seed", "1.5"], "argument --seed: invalid int value: '1.5'"),
        (["--command", "fit", "--lambda", "abc"], "argument --lambda: invalid float value: 'abc'"),
        ([], "the following arguments are required: --command"),
        (["--command", "fit", "--bogus"], "unrecognized arguments: --bogus"),
    ])
    def test_one_config_line(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error:config: {message}\n")

    def test_help_keeps_its_text(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--help"])
        out = capsys.readouterr().out
        assert info.value.code == 0
        assert out.startswith("usage: quantfunc") and "--command" in out


class TestFlagsBeforeWork:
    """Every flag is checked before the CSV is read."""

    @pytest.mark.parametrize("argv,message", [
        (["--command", "fit", "--input", fx("p0.csv"), "--response", "y",
          "--format", "csv"], "error:config: csv format requires --output\n"),
        (["--command", "fit", "--input", fx("p0.csv"), "--response", "y",
          "--alpha", "0.5,1.5"], "error:config: --alpha levels must be in (0, 1), got 1.5\n"),
        (["--command", "functional", "--input", fx("p0.csv"), "--response", "y",
          "--functional", "cvar", "--level", "0.5", "--format", "csv"],
         "error:config: csv format requires --output\n"),
        (["--command", "functional", "--input", fx("p0.csv"), "--response", "y",
          "--functional", "cvar"], "error:config: --level is required for a functional run\n"),
        (["--command", "fit", "--input", fx("p0.csv"), "--response", "y",
          "--alpha", "0.5,abc"],
         "error:config: bad --alpha list: could not convert string to float: 'abc'\n"),
        # A flag the command does not read was once ignored: simulate ran at
        # the config's lambda whatever --lambda said.
        (["--command", "fit", "--input", fx("p0.csv"), "--response", "y",
          "--functional", "cvar", "--level", "0.9"],
         "error:config: fit does not read --functional, --level\n"),
        (["--command", "fit", "--input", fx("p0.csv"), "--response", "y",
          "--seed", "1", "--config", "study.json"],
         "error:config: fit does not read --seed, --config\n"),
        (["--command", "functional", "--input", fx("p0.csv"), "--response", "y",
          "--functional", "cvar", "--level", "0.5", "--alpha", "0.5"],
         "error:config: functional does not read --alpha\n"),
        (["--command", "simulate", "--config", "study.json", "--lambda", "0.2"],
         "error:config: simulate does not read --lambda; set 'lambda' in the config\n"),
        (["--command", "simulate", "--config", "study.json", "--alpha", "0.5",
          "--lambda", "0.2"], "error:config: simulate does not read --alpha, --lambda; "
                              "set 'alphas' and 'lambda' in the config\n"),
        (["--command", "simulate", "--config", "study.json", "--input", fx("p0.csv"),
          "--covariates", ""], "error:config: simulate does not read --input, --covariates\n"),
        # A level outside its functional's domain was found after the fit.
        *[(["--command", "functional", "--input", fx("p0.csv"), "--response", "y",
            "--functional", functional, "--level", level], f"error:config: {message}\n")
          for functional, level, message in [
              ("cvar", "1.5", "alpha must be in (0, 1), got 1.5"),
              ("lorenz", "1.5", "alpha must be in (0, 1], got 1.5"),
              ("gastwirth_j", "0", "alpha must be in (0, 1), got 0.0"),
              ("staudte_r", "1", "alpha must be in (0, 1), got 1.0"),
              ("mean_excess", "nan", "mean_excess threshold must be a number, got nan")]],
        # A list with no level once fitted and reported no intercept, exit 0.
        *[(["--command", "fit", "--input", fx("p0.csv"), "--response", "y", "--alpha", alpha],
           f"error:config: --alpha lists no level: {alpha!r}\n") for alpha in ("", ",", " ")],
    ])
    def test_input_is_not_read(self, capsys, monkeypatch, argv, message):
        calls = count_calls(monkeypatch, cli, "read_csv_dataset")
        code, out, err = run(capsys, *argv)
        assert (code, out, err, calls) == (2, "", message, [])


# Every whitespace character but the two line breaks of universal newlines.
PADS = [c for c in map(chr, range(0x110000)) if c.isspace() and c not in "\n\r"]


class TestErrors:
    @pytest.mark.parametrize("response,covariates,column", [
        ("y", "x1,x1", "x1"),
        ("y", "y", "y"),
        ("x2", "x1,x2", "x2"),
    ])
    def test_a_column_named_twice_is_refused(self, capsys, monkeypatch, response,
                                             covariates, column):
        # --covariates x1,x1 exited error:identifiability, and --response y
        # --covariates y fitted y on itself with exit 0.
        calls = count_calls(monkeypatch, cli, "read_csv_dataset")
        for command in (["--command", "fit"],
                        ["--command", "functional", "--functional", "cvar", "--level", "0.9"]):
            code, out, err = run(capsys, *command, "--input", fx("n200.csv"),
                                 "--response", response, "--covariates", covariates)
            assert (code, out, calls) == (2, "", [])
            assert err == (f"error:config: column {column!r} is named twice "
                           "in --response and --covariates\n")

    @pytest.mark.parametrize("text,covariates,message", [
        ("y,x\n1,5\n2,5\n3,5\n4,5\n", "x",
         "error:identifiability: centered scatter matrix V_n is singular\n"),
        ("y,x\n1,2\n3,4\n", "x", "error:data: need n >= p + 2 observations, got n=2, p=1\n"),
        ("", "", "error:input: {path}: empty file, header row required\n"),
    ], ids=["constant_covariate", "too_few_rows", "empty_file"])
    def test_a_file_the_fit_refuses(self, tmp_path, capsys, text, covariates, message):
        path = tmp_path / "d.csv"
        path.write_text(text)
        code, out, err = run(capsys, "--command", "fit", "--input", str(path),
                             "--response", "y", "--covariates", covariates)
        assert (code, out, err) == (2, "", message.format(path=path))

    def test_a_directory_as_input_cannot_be_read(self, tmp_path, capsys):
        code, out, err = run(capsys, "--command", "fit", "--input", str(tmp_path),
                             "--response", "y")
        assert (code, out) == (2, "")
        assert err.startswith(f"error:input: cannot read {tmp_path}: ") and err.count("\n") == 1

    def test_bad_cell_row_localized(self, capsys):
        code, _, err = run(capsys, "--command", "fit", "--input", fx("bad_cell.csv"),
                           "--response", "y", "--covariates", "x")
        assert code != 0
        assert err.startswith("error:input:")
        assert "row 3" in err

    @pytest.mark.parametrize("cells,row", [
        (["1_000", "2", "3", "4"], 2),
        (["1", " 2 ", "3", "4"], 3),
        (["1", "2", "3", "4 "], 5),
        (["1", "2", "", "4"], 4),
    ])
    def test_strict_cells_rejected_with_row(self, tmp_path, capsys, cells, row):
        path = tmp_path / "d.csv"
        path.write_text("y,x\n" + "".join(f"{c},{i}\n" for i, c in enumerate(cells)))
        code, _, err = run(capsys, "--command", "fit", "--input", str(path),
                           "--response", "y")
        assert code != 0
        assert err.startswith(f"error:input: {path}: row {row}: bad numeric cell")

    @pytest.mark.parametrize("text", ["y\n   \n\n", "y\n\t\n", "y\n\n\n", "y\n", "y"])
    def test_blank_or_absent_body_has_no_data_rows(self, tmp_path, capsys, text):
        path = tmp_path / "d.csv"
        path.write_text(text)
        code, out, err = run(capsys, "--command", "fit", "--input", str(path),
                             "--response", "y")
        assert (code, out, err) == (2, "", f"error:input: {path}: no data rows\n")

    @pytest.mark.parametrize("response", ["y", "nope"])
    def test_undecodable_byte_deep_in_the_body(self, tmp_path, capsys, response):
        path = tmp_path / "d.csv"
        path.write_bytes(b"y\n" + b"1.25\n" * 300_000 + b"2.5\xff\n3\n")
        with pytest.raises(UnicodeDecodeError) as reason:  # reading the body whole
            with open(path, encoding="utf-8") as fh:
                fh.readline()
                fh.read()
        code, out, err = run(capsys, "--command", "fit", "--input", str(path),
                             "--response", response)
        assert (code, out, err) == (2, "", f"error:input: cannot read {path}: {reason.value}\n")

    def test_padded_cell_in_the_last_of_many_rows(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        path.write_text("y\n" + "0.5\n" * 199_999 + " 0.5\n")
        code, out, err = run(capsys, "--command", "fit", "--input", str(path),
                             "--response", "y")
        assert (code, out) == (2, "")
        assert err == (f"error:input: {path}: row 200001: bad numeric cell "
                       "(could not convert string to float: ' 0.5')\n")

    @pytest.mark.parametrize("place", ["leading", "trailing", "quoted"])
    @pytest.mark.parametrize("pad", PADS, ids=[f"U+{ord(c):04X}" for c in PADS])
    def test_every_whitespace_pad_of_a_used_cell_refused(self, tmp_path, capsys,
                                                          pad, place):
        cell = {"leading": pad + "2", "trailing": "2" + pad,
                "quoted": f'"{pad}2"'}[place]
        path = tmp_path / "d.csv"
        path.write_text(f"y,city\n1,a\n{cell},b\n3,c\n", encoding="utf-8")
        code, out, err = run(capsys, "--command", "fit", "--input", str(path),
                             "--response", "y")
        assert (code, out) == (2, "")
        assert err.startswith(f"error:input: {path}: row 3: bad numeric cell")

    @pytest.mark.parametrize("pad", PADS, ids=[f"U+{ord(c):04X}" for c in PADS])
    def test_whitespace_in_an_unused_column_accepted(self, tmp_path, capsys, pad):
        reports = []
        for city in ("New" + pad + "York", "NewYork"):
            path = tmp_path / "d.csv"
            path.write_text(f"y,city\n1,a\n2,{city}\n3,c\n", encoding="utf-8")
            reports.append(run(capsys, "--command", "fit", "--input", str(path),
                               "--response", "y"))
        assert reports[0] == reports[1] and reports[0][0] == 0

    @pytest.mark.parametrize("body,row", [
        ('1,a\n"2\n",b\n3,c\n', 3),
        ('1,"a\nb"\n"2\n",c\n3,d\n', 4),
    ])
    def test_line_break_in_a_quoted_used_cell_refused(self, tmp_path, capsys, body, row):
        path = tmp_path / "d.csv"
        path.write_text("y,city\n" + body)
        code, out, err = run(capsys, "--command", "fit", "--input", str(path),
                             "--response", "y")
        assert (code, out) == (2, "")
        assert err == (f"error:input: {path}: row {row}: bad numeric cell "
                       "(could not convert string to float: '2\\n')\n")

    @pytest.mark.parametrize("text,covariates,row", [
        ("y\n1\n\n\n2\ninf\n3\n", "", 6),
        ("y,x\n1,2\n\n3,nan\n4,5\n", "x", 4),
    ])
    def test_non_finite_row_counts_physical_lines(self, tmp_path, capsys, text,
                                                  covariates, row):
        path = tmp_path / "d.csv"
        path.write_text(text)
        code, out, err = run(capsys, "--command", "fit", "--input", str(path),
                             "--response", "y", "--covariates", covariates)
        assert (code, out, err) == (2, "", f"error:input: {path}: row {row}: non-finite value\n")

    @pytest.mark.parametrize("argv", [
        ["--command", "fit", "--input", fx("p0.csv"), "--response", "y"],
        ["--command", "fit", "--input", fx("p0.csv"), "--response", "y", "--format", "csv"],
        ["--command", "functional", "--input", fx("p0.csv"), "--response", "y",
         "--functional", "cvar", "--level", "0.5", "--format", "csv"],
        ["--command", "simulate", "--config", "CONFIG", "--format", "csv"],
    ])
    def test_unwritable_output_is_one_output_line(self, tmp_path, capsys, argv):
        config, target = tmp_path / "cfg.json", tmp_path / "missing" / "r.out"
        config.write_text(json.dumps({"study": "two_step_rate", "n_grid": [20, 40], "p": 0,
                                      "replications": 2}))
        argv = [str(config) if a == "CONFIG" else a for a in argv]
        code, out, err = run(capsys, *argv, "--output", str(target))
        assert (code, out, err) == (
            2, "", f"error:output: [Errno 2] No such file or directory: '{target}'\n")

    def test_unused_text_column_quotes_and_crlf_accepted(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        path.write_bytes(b'y,city\r\n1.5,New York\r\n"2.5","a, b"\r\n\r\n-3e-1,c\r\n')
        code, out, _ = run(capsys, "--command", "fit", "--input", str(path),
                           "--response", "y")
        assert code == 0
        assert json.loads(out)["averaged_process"] == [-0.3, 1.5, 2.5]

    def test_cells_reach_the_strict_parse_as_text(self, tmp_path, capsys, monkeypatch):
        # numpy 1.x's loadtxt defaults to encoding="bytes" and then hands
        # converters bytes; ingest must ask for text on every version.
        real = np.loadtxt

        def numpy1_default(*args, **kwargs):
            kwargs.setdefault("encoding", "bytes")
            return real(*args, **kwargs)

        monkeypatch.setattr(cli.np, "loadtxt", numpy1_default)
        self.test_unused_text_column_quotes_and_crlf_accepted(tmp_path, capsys)

    @pytest.mark.parametrize("body,code", [
        ("y\n1\n2\n3\n", 0),
        ("y,city\n1,New York\n2,b\n3,c\n", 0),
        ("y\n1\n2\ninf\n", 2),
    ], ids=["plain", "text_column", "non_finite"])
    def test_byte_order_mark_is_skipped(self, tmp_path, capsys, body, code):
        reports = []
        for mark in (b"\xef\xbb\xbf", b""):
            path = tmp_path / "d.csv"
            path.write_bytes(mark + body.encode())
            reports.append(run(capsys, "--command", "fit", "--input", str(path),
                               "--response", "y"))
        assert reports[0] == reports[1] and reports[0][0] == code

    def test_body_scan_starts_after_a_byte_order_mark(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"\xef\xbb\xbfy,a b\n1,2\n3,4\n")
        assert not cli._needs_cell_check(str(path), len(b"y,a b\n"))

    def test_missing_column(self, capsys):
        code, _, err = run(capsys, "--command", "fit", "--input", fx("p0.csv"),
                           "--response", "nope")
        assert code != 0
        assert err.startswith("error:input:")

    @pytest.mark.parametrize("header,name", [
        ("y,x1,x1", "x1"), ("y,x1,y", "y"), ("x1,y,x1", "x1"),
    ])
    def test_a_repeated_used_column_is_refused(self, tmp_path, capsys, header, name):
        path = tmp_path / "d.csv"
        path.write_text(header + "\n" + "".join(f"{i},{i * i % 7},{i % 3}\n"
                                                for i in range(8)))
        code, out, err = run(capsys, "--command", "fit", "--input", str(path),
                             "--response", "y", "--covariates", "x1")
        assert (code, out, err) == (2, "", f"error:input: {path}: column {name!r} "
                                           f"appears 2 times in header {header.split(',')}\n")

    def test_a_repeated_unused_column_is_accepted(self, tmp_path, capsys):
        reports = []
        for header in ("y,x1,z,z", "y,x1,z,w"):
            path = tmp_path / "d.csv"
            path.write_text(header + "\n" + "".join(f"{i},{i * i % 7},a,b\n"
                                                    for i in range(8)))
            reports.append(run(capsys, "--command", "fit", "--input", str(path),
                               "--response", "y", "--covariates", "x1"))
        assert reports[0] == reports[1] and reports[0][0] == 0

    @pytest.mark.parametrize("response,covariates", [
        (" y", "x1, x2"), ("y ", " x1 ,x2\t"),
    ])
    def test_flag_names_are_stripped_as_header_cells_are(self, capsys, response, covariates):
        reports = [run(capsys, "--command", "fit", "--input", fx("n200.csv"),
                       "--response", r, "--covariates", c)
                   for r, c in ((response, covariates), ("y", "x1,x2"))]
        assert reports[0] == reports[1] and reports[0][0] == 0

    def test_missing_input_flag(self, capsys):
        code, _, err = run(capsys, "--command", "fit", "--response", "y")
        assert code != 0
        assert err.startswith("error:config:")

    def test_bad_lambda(self, capsys):
        code, _, err = run(capsys, "--command", "fit", "--input", fx("p0.csv"),
                           "--response", "y", "--lambda", "1.5")
        assert code != 0
        assert err.startswith("error:config:")

    def test_unknown_functional(self, capsys):
        code, _, err = run(capsys, "--command", "functional", "--input",
                           fx("p0.csv"), "--response", "y",
                           "--functional", "gini", "--level", "0.5")
        assert code != 0
        assert err.startswith("error:config:")
