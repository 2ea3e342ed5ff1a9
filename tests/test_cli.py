import csv
import json

import numpy as np
import pytest

from warpski.cli import main
from warpski.serialize import (grid_from_dict, grid_to_dict, kernel_from_dict,
                               kernel_to_dict, model_from_json, model_to_json,
                               warp_from_dict, warp_to_dict)
from warpski.csvio import load_events_csv, load_series_csv, save_columns_csv
from warpski import validate
from warpski.exceptions import (ConfigError, CsvFormatError,
                                NotPositiveDefiniteError)
from warpski.experiments import ExperimentConfig, separation_model
from warpski.grids import (InducingGrid, grid_covering_box,
                           interpolation_weights, warped_grid)
from warpski.kernels import Periodic, Product, QuasiPeriodic, SquaredExponential
from warpski.metrics import rmse, snr_improvement
from warpski.model import GpComponent, GpModel
from warpski.warping import (ElementwiseWarp, Identity, Polynomial1D,
                             phase_from_events)


class TestMetrics:
    def test_rmse_known_value(self):
        assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(np.sqrt(12.5))

    def test_snr_improvement_known_value(self):
        truth = np.zeros(4)
        raw = np.full(4, 10.0)
        cleaned = np.full(4, 1.0)
        assert snr_improvement(raw, cleaned, truth) == pytest.approx(20.0)

    def test_snr_positive_when_cleaning_helps(self):
        rng = np.random.default_rng(0)
        truth = np.sin(np.linspace(0, 10, 200))
        raw = truth + rng.normal(0, 1.0, 200)
        cleaned = truth + rng.normal(0, 0.1, 200)
        assert snr_improvement(raw, cleaned, truth) > 10.0


class TestCsvIo:
    def test_round_trip_full_precision(self, tmp_path):
        path = tmp_path / "t.csv"
        cols = {"a": np.array([1.0, np.pi, 1e-17]),
                "b": np.array([-1.5, 2.0, 3.0])}
        save_columns_csv(str(path), cols)
        back = load_series_csv(str(path))
        np.testing.assert_array_equal(back["a"], cols["a"])
        np.testing.assert_array_equal(back["b"], cols["b"])

    def test_malformed_row_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        for loader, text, match in [
                (load_series_csv, "a,b\n1.0,2.0\n3.0,oops\n", "line 3"),
                (load_series_csv, "a,b\n1.0,2.0\n3.0,nan\n",
                 "line 3: column 'b'"),
                (load_series_csv, "a,b\n1.0,2.0\n-inf,4.0\n",
                 "line 3: column 'a'"),
                (load_series_csv, "a,b\n1.0,2.0\n3.0\n",
                 "line 3: expected 2 fields, found 1"),
                (load_series_csv, "", "empty file"),
                (load_events_csv, "time\n0.5\ninf\n", "line 3: column 1"),
                (load_events_csv, "time\n0.5,1.0\n",
                 "line 2: expected a single column"),
                (load_events_csv, "time\n0.5\nabc\n",
                 "line 3: not a number: 'abc'")]:
            path.write_text(text)
            with pytest.raises(CsvFormatError, match=match):
                loader(str(path))

    def test_repeated_header_name_raises(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("time,value,value\n0.0,1.0,2.0\n0.5,3.0,4.0\n")
        with pytest.raises(CsvFormatError, match="'value' appears twice"):
            load_series_csv(str(path))

    def test_events_csv_with_optional_header(self, tmp_path):
        path = tmp_path / "ev.csv"
        path.write_text("time\n0.5\n1.25\n2.0\n")
        np.testing.assert_array_equal(load_events_csv(str(path)),
                                      [0.5, 1.25, 2.0])

    @pytest.mark.parametrize("loader", [load_series_csv, load_events_csv])
    def test_missing_file_raises(self, tmp_path, loader):
        with pytest.raises(CsvFormatError, match="no such file"):
            loader(str(tmp_path / "missing.csv"))


class TestConfigRoundTrip:
    @pytest.mark.parametrize("kernel", [
        SquaredExponential(1.5, 0.4),
        Periodic(0.9, 1.1, 2.3),
        QuasiPeriodic(1.2, 5.0, 0.6, 2.0),
        Product([SquaredExponential(1.0, 0.5),
                 SquaredExponential(2.0, 0.7)], dims=[0, 1]),
    ])
    def test_kernel_round_trip(self, kernel):
        back = kernel_from_dict(kernel_to_dict(kernel))
        assert type(back) is type(kernel)
        np.testing.assert_allclose(back.log_params, kernel.log_params,
                                   atol=1e-14)

    @pytest.mark.parametrize("warp", [
        Identity(),
        Polynomial1D([2.0, 0.0, 1.0], domain=(-1.5, 1.0)),
        phase_from_events([0.1, 0.9, 1.7, 2.6]),
        ElementwiseWarp([Polynomial1D([1.0, 1.0], domain=(0.0, 2.0)),
                         Identity()]),
    ])
    def test_warp_round_trip(self, warp):
        back = warp_from_dict(warp_to_dict(warp))
        assert type(back) is type(warp)
        if warp.dim == 1:
            x = np.linspace(*getattr(warp, "domain", (-1.0, 1.0)), 7)
            np.testing.assert_array_equal(back.forward(x), warp.forward(x))

    def test_grid_round_trip(self):
        g = grid_covering_box([(-1.0, 1.0), (0.0, 2.0)], [16, 20])
        spec = grid_to_dict(g)
        assert list(spec) == ["bounds", "counts"]
        assert spec["counts"] == [16, 20]
        back = grid_from_dict(spec)
        for a, b in zip(back.axes, g.axes):
            np.testing.assert_array_equal(a, b)

    def test_warped_grid_round_trip(self):
        poly = Polynomial1D([2.0, 0.0, 1.0], domain=(-1.5, 1.0))
        g = warped_grid(InducingGrid(
            [(poly.forward(-1.4), poly.forward(0.9))], [32]), poly)
        back = grid_from_dict(json.loads(json.dumps(grid_to_dict(g))))
        for got, want in ((back.axes, g.axes),
                          (back.warped_axes, g.warped_axes)):
            np.testing.assert_array_equal(got[0], want[0])
        x = np.linspace(-1.0, 0.8, 50)
        diff = abs(interpolation_weights(back, x).matrix
                   - interpolation_weights(g, x).matrix).max()
        assert diff == 0.0

    def test_model_json_round_trip(self):
        grid = grid_covering_box([(-1.0, 1.0)], [32])
        model = GpModel(
            [GpComponent(SquaredExponential(1.2, 0.4), Identity(), grid)],
            noise=0.25)
        model.fixed[1] = True
        back = model_from_json(model_to_json(model))
        np.testing.assert_allclose(back.theta, model.theta, atol=1e-14)
        np.testing.assert_array_equal(back.fixed, model.fixed)

    @pytest.mark.parametrize("load, spec, field", [
        (kernel_from_dict, {"kind": "se", "amplitude": 1.0}, "lengthscale"),
        (kernel_from_dict, {"kind": "product"}, "children"),
        (kernel_from_dict, {"amplitude": 1.0}, "kind"),
        (warp_from_dict, {"kind": "polynomial", "domain": [0, 1]}, "coeffs"),
        (warp_from_dict, {"kind": "phase", "knot_phases": [0, 1]},
         "knot_times"),
        (grid_from_dict, {}, "bounds"),
        (grid_from_dict, {"bounds": [[0.0, 1.0]]}, "counts"),
        (grid_from_dict, {"counts": [8]}, "bounds"),
        (model_from_json, '{"components": []}', "noise"),
        (model_from_json, '{"components": [{}], "noise": 0.1}', "kernel"),
    ])
    def test_missing_field_raises_config_error_naming_it(self, load, spec,
                                                         field):
        with pytest.raises(ConfigError, match=f"'{field}'"):
            load(spec)

    def test_separation_model_json_round_trip(self):
        config = ExperimentConfig(kind="separation1d", n=200)
        t = np.arange(config.n) * config.dt
        warps = [phase_from_events(np.arange(-1.0, 1.5, period))
                 for period in (0.85, 0.3)]
        model = separation_model(config, warps, float(t[-1]))
        spec = json.loads(model_to_json(model))
        for comp in spec["components"]:
            assert comp["kernel"]["kind"] == "product"
            assert comp["kernel"]["dims"] == [0, 0]
            assert [c["kind"] for c in comp["kernel"]["children"]] == \
                ["se", "periodic"]
        back = model_from_json(model_to_json(model))
        assert np.array_equal(back.theta, model.theta)
        assert back.param_names == model.param_names
        np.testing.assert_array_equal(back.fixed, model.fixed)

    def test_unknown_kind_raises(self):
        with pytest.raises(ConfigError):
            kernel_from_dict({"kind": "matern"})
        with pytest.raises(ConfigError, match="'quasiperiodic'"):
            kernel_from_dict({"kind": "quasiperiodic", "children": [
                kernel_to_dict(c) for c in
                QuasiPeriodic(1.2, 5.0, 0.6, 2.0).children]})
        with pytest.raises(ConfigError):
            warp_from_dict({"kind": "sigmoid"})


class TestExperimentConfig:
    def test_unknown_field_raises_with_name(self):
        from warpski.experiments import ExperimentConfig
        for name in ("typo_field", "compare_oracle", "fit_lengthscales"):
            with pytest.raises(ConfigError, match=name):
                ExperimentConfig.from_dict({name: 3})

    def test_invalid_values_rejected(self):
        from warpski.experiments import ExperimentConfig
        for data, match in [
                ({"kind": "custom"}, "kind:"),
                ({"seed": 2.5}, "seed:"),
                ({"seed": -1}, "seed:"),
                ({"noise": -1.0}, "noise"),
                ({"noise": float("nan")}, "noise"),
                ({"n": 0}, "n:"),
                ({"n": float("nan")}, "n:"),
                ({"cg_tol_inference": float("nan")}, "cg_tol_inference:"),
                ({"cg_tol_separation": float("nan")}, "cg_tol_separation:"),
                ({"n_probes": float("nan")}, "n_probes:"),
                ({"lanczos_steps": float("nan")}, "lanczos_steps:"),
                ({"max_steps": float("nan")}, "max_steps:"),
                ({"dt": 0.0}, "dt:"),
                ({"env_lengthscale": 0.0}, "env_lengthscale:"),
                ({"per_lengthscale": float("nan")}, "per_lengthscale:"),
                ({"grid_per_cycle": 0}, "grid_per_cycle:"),
                ({"noise": "0.5"}, "noise:"),
                ({"amplitudes": [1.0]}, "amplitudes:"),
                ({"amplitudes": [1.0, 0.4, 0.2]}, "amplitudes:"),
                ({"amplitudes": [1.0, -0.4]}, "amplitudes:"),
                ({"grid_counts": [100]}, "grid_counts:"),
                ({"grid_counts": [100, 7]}, "grid_counts:"),
                ({"sample_grid_counts": [4, 160]}, "sample_grid_counts:"),
                ({"n_probes": 2.5}, "n_probes:"),
                ({"noise": float("inf")}, "noise:"),
                ({"dt": float("inf")}, "dt:"),
                ({"n": float("inf")}, "n:"),
                ({"cg_tol_inference": float("inf")}, "cg_tol_inference:"),
                ({"cg_tol_inference": 1.0}, "cg_tol_inference:"),
                ({"cg_tol_separation": 2.0}, "cg_tol_separation:"),
                ({"amplitudes": [float("inf"), 0.4]}, "amplitudes:"),
                ({"amplitudes": [1.0, float("nan")]}, "amplitudes:"),
                ({"grid_counts": [8.5, 20]}, "grid_counts:"),
                ({"sample_grid_counts": [200, 160.0]},
                 "sample_grid_counts:")]:
            with pytest.raises(ConfigError, match=match):
                ExperimentConfig.from_dict(data)


class TestCliSmoke:
    def test_numeric2d_writes_artifacts(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["numeric2d", "--n", "150", "--max-steps", "2",
                     "--config", self._small_config(tmp_path),
                     "--out", str(out)])
        assert code == 0
        assert (out / "config_echo.json").exists()
        assert (out / "report.csv").exists()
        assert (out / "curves" / "posterior.csv").exists()
        text = capsys.readouterr().out
        assert "rmse" in text
        self._check_convergence_rows(out, text)

    def test_numeric2d_is_deterministic(self, tmp_path, capsys):
        args = ["numeric2d", "--n", "120", "--max-steps", "2",
                "--config", self._small_config(tmp_path)]
        def stable(text):
            return [line for line in text.splitlines()
                    if not line.startswith("time_")]
        main(args)
        first = stable(capsys.readouterr().out)
        main(args)
        second = stable(capsys.readouterr().out)
        assert first == second

    def test_validate_subcommand_runs_named_checks(self, capsys):
        code = main(["validate", "--checks", "kernels"])
        assert code == 0
        text = capsys.readouterr().out
        assert "PASS kernels.stationary_symmetry" in text

    def test_validate_without_a_matching_check_exits_2(self, capsys):
        assert main(["validate", "--checks", "nosuch"]) == 2
        assert "error: --checks: " in capsys.readouterr().err

    def test_validate_lists_checks(self, capsys):
        assert main(["validate", "--list"]) == 0
        assert "kernels.stationary_symmetry" in capsys.readouterr().out

    def test_validate_goes_on_after_a_raising_check(self, monkeypatch):
        def breaks():
            raise NotPositiveDefiniteError("nonpositive Ritz value")

        monkeypatch.setattr(validate, "_CHECKS",
                            [("a.breaks", breaks), ("b.holds", lambda: None)])
        lines = []
        assert validate.run_validation(out=lines.append) == 1
        assert lines[0].startswith("FAIL a.breaks (")
        assert lines[0].endswith(
            "s): NotPositiveDefiniteError: nonpositive Ritz value")
        assert lines[1].startswith("PASS b.holds (")
        assert lines[2] == "1/2 checks passed"

    def test_bad_config_reports_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"not_a_field\": 1}")
        code = main(["numeric2d", "--config", str(bad)])
        assert code == 2
        assert "not_a_field" in capsys.readouterr().err

    @pytest.mark.parametrize("command,field,value", [
        ("numeric2d", "n", 2.5),
        ("numeric2d", "n_probes", 2.5),
        ("numeric2d", "lanczos_steps", 2.5),
        ("numeric2d", "max_steps", 2.5),
        ("separate", "grid_per_cycle", 2.5),
        ("numeric2d", "n", True),
        ("numeric2d", "n_probes", True),
        ("separate", "grid_per_cycle", True),
        ("numeric2d", "seed", True),
        ("separate", "amplitudes", [True, 0.4]),
        ("numeric2d", "grid_counts", 5),
        ("numeric2d", "sample_grid_counts", None),
        ("separate", "amplitudes", 2.0)])
    def test_bad_scalar_in_config_exits_2(self, tmp_path, capsys, command,
                                          field, value):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({field: value}))
        assert main([command, "--config", str(bad)]) == 2
        assert f"{field}:" in capsys.readouterr().err

    @pytest.mark.parametrize("command, name, value", [
        ("numeric2d", "data_box", ((-1.2, 0.75), (-2.5, 2.5))),
        ("numeric2d", "warp_coeffs", (2.0, 0.0, 1.0)),
        ("numeric2d", "amplitude", 1.5),
        ("numeric2d", "lengthscale", 0.4),
        ("numeric2d", "start_noise", 1.0),
        ("numeric2d", "start_amplitude", 1.0),
        ("numeric2d", "start_lengthscale", 0.6),
        ("separate", "maternal_period", 0.85),
        ("separate", "period_ratio", 2.8),
        ("separate", "period_jitter", 0.03)])
    def test_fixed_definition_is_not_a_field(self, tmp_path, capsys, command,
                                             name, value):
        # an experiment's fixed definition is a class constant: no
        # constructor keyword, config key or file sets it
        assert getattr(ExperimentConfig, name) == value
        with pytest.raises(TypeError, match=f"'{name}'"):
            ExperimentConfig(**{name: value})
        with pytest.raises(ConfigError,
                           match=f"unknown config fields: .*'{name}'"):
            ExperimentConfig.from_dict({name: value})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({name: value}))
        assert main([command, "--config", str(path)]) == 2
        assert f"'{name}'" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        (None, "config file not found: "), ("{not json", ": invalid JSON"),
        ("[1, 2]", ": top level must be an object")])
    def test_unreadable_config_file_exits_2(self, tmp_path, capsys, text,
                                            message):
        path = tmp_path / "cfg.json"
        if text is not None:
            path.write_text(text)
        assert main(["numeric2d", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and message in err

    @pytest.mark.parametrize("command, flag", [
        ("numeric2d", "--cg-tol-separation"), ("sweep", "--max-steps"),
        ("sweep", "--cg-tol-separation")])
    def test_flag_the_subcommand_never_reads_exits_2(self, command, flag):
        with pytest.raises(SystemExit, match="^2$"):
            main([command, flag, "1"])

    def test_config_of_another_kind_exits_2(self, tmp_path, capsys):
        path = tmp_path / "config_echo.json"
        path.write_text(json.dumps({"kind": "separation1d", "n": 50}))
        assert main(["numeric2d", "--config", str(path)]) == 2
        assert "kind: config is 'separation1d'" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, field", [
        ("--maternal-events", "maternal_events_csv"),
        ("--fetal-events", "fetal_events_csv")])
    @pytest.mark.parametrize("text, count", [("time\n", 0),
                                             ("time\n0.4\n", 1)])
    def test_events_csv_with_fewer_than_2_events_exits_2(
            self, tmp_path, capsys, flag, field, text, count):
        events = tmp_path / "events.csv"
        events.write_text(text)
        assert main(["separate", "--n", "200", "--max-steps", "1",
                     flag, str(events)]) == 2
        err = capsys.readouterr().err
        assert f"error: {field}: need at least 2 events, got {count}" in err

    def test_infinite_noise_flag_exits_2(self, capsys):
        assert main(["numeric2d", "--n", "100", "--max-steps", "1",
                     "--noise", "inf"]) == 2
        assert "noise:" in capsys.readouterr().err

    def test_negative_seed_flag_exits_2(self, capsys):
        assert main(["numeric2d", "--n", "100", "--max-steps", "1",
                     "--seed", "-1"]) == 2
        assert "seed:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--n-values", "1000,abc"),
                                             ("--m-counts", "32xq")])
    def test_unreadable_sweep_list_exits_2(self, capsys, flag, value):
        assert main(["sweep", flag, value]) == 2
        assert f"error: {flag}: cannot read" in capsys.readouterr().err

    def test_sweep_smoke(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = main(["sweep", "--n-values", "200,300",
                     "--m-counts", "16x16,20x20", "--n-probes", "4",
                     "--out", str(out)])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "scaling vs n:"
        assert [line.split(":")[0] for line in lines[1:3]] == \
            ["  n=200", "  n=300"]
        assert lines[3] == "scaling vs m:"
        assert [line.split(":")[0] for line in lines[4:]] == \
            ["  m=256", "  m=400"]
        assert (out / "config_echo.json").exists()
        by_n = load_series_csv(str(out / "curves" / "scaling_vs_n.csv"))
        np.testing.assert_array_equal(by_n["n"], [200, 300])
        # the posterior mean is closer to the latent truth than the data
        assert np.all(by_n["rmse"] < 0.5)
        by_m = load_series_csv(str(out / "curves" / "scaling_vs_m.csv"))
        np.testing.assert_array_equal(by_m["m_total"], [256, 400])
        assert np.all(by_m["mvm_time_s"] > 0)

    def test_separate_smoke(self, tmp_path, capsys):
        out = tmp_path / "sep"
        code = main(["separate", "--n", "800", "--noise", "0.1",
                     "--max-steps", "2", "--out", str(out)])
        assert code == 0
        assert (out / "separated" / "sources.csv").exists()
        cols = load_series_csv(str(out / "separated" / "sources.csv"))
        assert {"time", "y", "mean_maternal", "mean_fetal"} <= set(cols)
        self._check_convergence_rows(out, capsys.readouterr().out)

    @staticmethod
    def _check_convergence_rows(out, printed):
        """The report ends with the fit's record and whether the final
        solve converged, in report.csv and on stdout alike."""
        with open(out / "report.csv", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["name", "value"]
        assert all(len(row) == 2 for row in rows)
        assert [name for name, _ in rows[-4:]] == [
            "fit_flag", "fit_evaluations", "fit_cg_unconverged",
            "cg_converged"]
        values = dict(rows)
        assert values["kind"] in ("numeric2d", "separation1d")
        flag = values["fit_flag"]
        assert flag == "converged" or flag.startswith("stopped: ")
        assert 0 <= int(values["fit_cg_unconverged"]) <= int(
            values["fit_evaluations"]) and int(values["fit_evaluations"]) > 0
        assert values["cg_converged"] in ("True", "False")
        assert printed.splitlines()[-4:] == [
            f"fit_flag: {flag}", *(f"{name}: {values[name]}" for name in (
                "fit_evaluations", "fit_cg_unconverged", "cg_converged"))]

    @staticmethod
    def _event_flags(tmp_path, lo, hi):
        """Event CSVs for both sources, beating over [lo, hi]."""
        flags = []
        for flag, period in (("--maternal-events", 0.85),
                             ("--fetal-events", 0.85 / 2.8)):
            path = tmp_path / f"{flag.strip('-')}.csv"
            save_columns_csv(str(path),
                             {"time": np.arange(lo - period, hi + period,
                                                period)})
            flags += [flag, str(path)]
        return flags

    def test_separate_sizes_from_data(self, tmp_path, capsys):
        # a 10 s series starting before 0, far longer than the configured
        # n * dt = 0.4 s
        t = np.linspace(-2.0, 8.0, 400)
        data = tmp_path / "series.csv"
        save_columns_csv(str(data), {"time": t, "value": np.sin(7.4 * t)})
        events = self._event_flags(tmp_path, -2.0, 8.0)
        out = tmp_path / "sep"
        code = main(["separate", "--data", str(data), "--n", "200",
                     "--max-steps", "1", "--n-probes", "2",
                     "--out", str(out), *events])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert "n: 400" in captured.out.splitlines()
        cols = load_series_csv(str(out / "separated" / "sources.csv"))
        np.testing.assert_array_equal(cols["time"], t)
        assert np.all(np.isfinite(cols["mean_fetal"]))

        data.write_text("time,value\n0.0,1.0\n0.5,2.0\n0.4,0.0\n")
        assert main(["separate", "--data", str(data), "--max-steps", "1",
                     "--n-probes", "2", *events]) == 2
        assert "strictly increasing" in capsys.readouterr().err

        data.write_text("t,value\n0.0,1.0\n0.5,2.0\n")
        assert main(["separate", "--data", str(data), "--max-steps", "1",
                     "--n-probes", "2", *events]) == 2
        assert "'time' and 'value'" in capsys.readouterr().err

    @pytest.mark.parametrize("keep, missing", [
        (slice(0, 0), "maternal_events_csv"),
        (slice(0, 2), "fetal_events_csv"),
        (slice(2, 4), "maternal_events_csv")])
    def test_separate_data_without_both_event_files_exits_2(
            self, tmp_path, capsys, keep, missing):
        # random beats unrelated to the data would set both warps
        t = np.linspace(-10.0, -5.0, 300)
        data = tmp_path / "series.csv"
        save_columns_csv(str(data), {"time": t, "value": np.sin(7.4 * t)})
        events = self._event_flags(tmp_path, -10.0, -5.0)[keep]
        assert main(["separate", "--data", str(data), "--max-steps", "1",
                     "--n-probes", "2", *events]) == 2
        assert f"error: {missing}: data_csv needs" in capsys.readouterr().err

    @staticmethod
    def _small_config(tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "grid_counts": [24, 24],
            "sample_grid_counts": [32, 32],
        }))
        return str(path)
