import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from mipt_qfi import experiments
from mipt_qfi.cli import main
from mipt_qfi.experiments import load_config, run_experiment, validate_config
from mipt_qfi.errors import ConfigError
from mipt_qfi.spectral import ModelParams, critical_gamma, spectrum_table


def write_config(path: Path, payload: dict) -> str:
    path.write_text(json.dumps(payload))
    return str(path)


def read_masked_json(path: Path) -> dict:
    data = json.loads(path.read_text())
    data.pop("wall_time_s", None)
    return data


SPECTRUM = {"experiment": "spectrum", "params": {"n_sites": 8, "h": 0.3, "gamma": 2.0}}
QUENCH = {
    "experiment": "quench-series",
    "params": {"n_sites": 16, "h": 0.3, "gamma": 2.0, "times": list(np.linspace(0.1, 1.2, 12))},
}
FBAR = {
    "experiment": "fbar-sweep",
    "params": {"h": 0.6, "n_sites": 32, "gammas": [2.0, 2.8, 3.19, 3.4, 4.0]},
}
WITNESS = {
    "experiment": "witness-scaling",
    "params": {"sizes": [4, 6, 8], "gamma": 0.75, "measure_time": 0.5, "dt": 0.1},
}
ORACLE = {
    "experiment": "oracle-check",
    "params": {
        "quench_sizes": [4],
        "hs": [0.3],
        "gammas": [0.5],
        "times": [0.8],
        "witness_sizes": [4],
        "witness_gammas": [0.75],
        "witness_times": [0.5],
    },
}


SHIPPED_CONFIGS = Path(__file__).parents[1] / "docs" / "configs"


class TestConfigValidation:
    @pytest.mark.parametrize("name", experiments.EXPERIMENTS)
    def test_shipped_config_is_valid(self, name):
        config = validate_config(load_config(SHIPPED_CONFIGS / f"{name}.json"))
        assert config["experiment"] == name

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            validate_config({**SPECTRUM, "seed": 42})

    def test_unknown_param_rejected(self):
        cfg = {"experiment": "spectrum", "params": {**SPECTRUM["params"], "disorder": 1.0}}
        with pytest.raises(ConfigError, match="disorder"):
            validate_config(cfg)

    def test_missing_field_names_the_path(self):
        with pytest.raises(ConfigError, match="params"):
            validate_config({"experiment": "spectrum", "params": {"n_sites": 8, "h": 0.1}})

    def test_non_increasing_grid_rejected(self):
        cfg = {
            "experiment": "quench-series",
            "params": {"n_sites": 8, "h": 0.3, "gamma": 1.0, "times": [0.5, 0.4, 0.6]},
        }
        with pytest.raises(ConfigError, match="strictly increasing"):
            validate_config(cfg)

    def test_witness_sizes_must_be_even(self):
        cfg = {"experiment": "witness-scaling", "params": {"sizes": [8, 11, 16], "gamma": 0.75}}
        with pytest.raises(ConfigError, match="even"):
            validate_config(cfg)

    def test_criticality_experiments_need_small_field(self):
        cfg = {"experiment": "critical-exponent", "params": {"h": 1.3}}
        with pytest.raises(ConfigError, match="h"):
            validate_config(cfg)

    @pytest.mark.parametrize(
        "log_offsets,message",
        [
            ({"max": 2.0}, "log\\(gamma_c\\)"),  # gamma_c - e^2 < 0 at h = 0.6
            ({"max": 800.0}, "log\\(gamma_c\\)"),  # e^800 overflows
            ({"max": float(np.log(critical_gamma(0.6)))}, "log\\(gamma_c\\)"),  # gamma = 0
            ({"min": -40.0}, "gamma_c in double precision"),
        ],
        ids=["max=2", "max=800", "max=log_gamma_c", "min=-40"],
    )
    def test_critical_offsets_keep_gamma_positive_and_off_gamma_c(self, log_offsets, message):
        cfg = {"experiment": "critical-exponent", "params": {"h": 0.6, "log_offsets": log_offsets}}
        with pytest.raises(ConfigError, match=f"params/log_offsets: .*{message}"):
            validate_config(cfg)

    def test_schema_checked_once_per_process(self, monkeypatch):
        from jsonschema import Draft202012Validator

        checks = []
        original = Draft202012Validator.check_schema

        def counting(cls, schema, *args, **kwargs):
            checks.append(schema)
            return original(schema, *args, **kwargs)

        experiments._validator.cache_clear()
        monkeypatch.setattr(Draft202012Validator, "check_schema", classmethod(counting))
        validate_config(json.loads(json.dumps(SPECTRUM)))
        validate_config(json.loads(json.dumps(QUENCH)))
        assert len(checks) == 1

    @pytest.mark.parametrize(
        "payload,field",
        [
            ({**SPECTRUM, "params": {**SPECTRUM["params"], "h": float("nan")}}, "params/h"),
            ({**QUENCH, "params": {**QUENCH["params"], "gamma": float("inf")}}, "params/gamma"),
            ({**QUENCH, "params": {**QUENCH["params"], "times": [0.1, 0.2, float("inf")]}}, "params/times/2"),
            ({**SPECTRUM, "params": {**SPECTRUM["params"], "gamma": float("inf")}}, "params/gamma"),
        ],
    )
    def test_non_finite_numbers_rejected(self, tmp_path, payload, field):
        # json writes and reads the NaN / Infinity literals
        cfg = write_config(tmp_path / "c.json", payload)
        result = CliRunner().invoke(main, [payload["experiment"], "--config", cfg, "--out", str(tmp_path)])
        assert result.exit_code == 2, result.output
        assert f"'{field}'" in result.output


class TestCliContract:
    def test_config_error_exit_code(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {**SPECTRUM, "bogus": 1})
        result = CliRunner().invoke(main, ["spectrum", "--config", cfg, "--out", str(tmp_path)])
        assert result.exit_code == 2
        assert "config error" in result.output

    def test_subcommand_config_mismatch(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", SPECTRUM)
        result = CliRunner().invoke(main, ["quench-series", "--config", cfg, "--out", str(tmp_path)])
        assert result.exit_code == 2

    def test_missing_config_file(self, tmp_path):
        result = CliRunner().invoke(
            main, ["spectrum", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]
        )
        assert result.exit_code == 2

    def test_numerical_fault_exit_code(self, tmp_path, monkeypatch):
        from mipt_qfi import cli
        from mipt_qfi.errors import NumericalFault

        def boom(*args, **kwargs):
            raise NumericalFault("synthetic rank collapse at step 3")

        monkeypatch.setattr(cli, "run_experiment", boom)
        cfg = write_config(tmp_path / "c.json", SPECTRUM)
        result = CliRunner().invoke(main, ["spectrum", "--config", cfg, "--out", str(tmp_path)])
        assert result.exit_code == 4
        assert "numerical fault" in result.output

    def test_nan_string_table_exits_with_numerical_fault(self, tmp_path, monkeypatch):
        from mipt_qfi import realspace

        monkeypatch.setattr(realspace, "xx_table", lambda g: np.full((g.shape[0] // 2,) * 2, np.nan))
        cfg = write_config(tmp_path / "c.json", WITNESS)
        result = CliRunner().invoke(main, ["witness-scaling", "--config", cfg, "--out", str(tmp_path)])
        assert result.exit_code == 4, result.output
        assert "numerical fault" in result.output

    def test_non_finite_quench_qfi_exits_with_numerical_fault(self, tmp_path):
        # past the round-off floor F overflows to inf at t = 100 and nan at t = 200
        params = {"n_sites": 16, "h": 0.3, "gamma": 6.0, "times": [1, 2, 3, 100, 150, 200]}
        cfg = write_config(tmp_path / "c.json", {"experiment": "quench-series", "params": params})
        with np.errstate(all="ignore"):
            result = CliRunner().invoke(main, ["quench-series", "--config", cfg, "--out", str(tmp_path)])
        assert result.exit_code == 4, result.output
        assert "numerical fault" in result.output
        assert not (tmp_path / "quench-series.csv").exists()

    def test_threads_option_is_gone(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", QUENCH)
        result = CliRunner().invoke(
            main, ["quench-series", "--config", cfg, "--out", str(tmp_path), "--threads", "2"]
        )
        assert result.exit_code == 2
        assert "No such option" in result.output and "--threads" in result.output

    def test_threads_environment_variable_is_ignored(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MIPT_QFI_THREADS", "abc")
        cfg = write_config(tmp_path / "c.json", QUENCH)
        result = CliRunner().invoke(main, ["quench-series", "--config", cfg, "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output

    def test_tolerance_failure_exit_code(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            {**ORACLE, "params": {**ORACLE["params"], "tol_quench": 1e-30, "tol_ed": 1e-30}},
        )
        result = CliRunner().invoke(main, ["oracle-check", "--config", cfg, "--out", str(tmp_path)])
        assert result.exit_code == 3
        assert "tolerance" in result.output

    def test_spectrum_output_matches_library(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", SPECTRUM)
        result = CliRunner().invoke(main, ["spectrum", "--config", cfg, "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        lines = (tmp_path / "spectrum.csv").read_text().splitlines()
        assert lines[0] == "k,E,Gamma"
        table = spectrum_table(ModelParams(8, 0.3, 2.0))
        got = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        np.testing.assert_allclose(got, table, rtol=1e-15)

    def test_oracle_check_passes_and_reports(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", ORACLE)
        result = CliRunner().invoke(main, ["oracle-check", "--config", cfg, "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        summary = json.loads((tmp_path / "oracle-check.json").read_text())
        checks = summary["results"]["checks"]
        assert checks and all(c["ok"] for c in checks)
        csv_lines = (tmp_path / "oracle-check.csv").read_text().splitlines()
        assert csv_lines[0] == "check,delta,tolerance,ok"

    def test_quench_series_reports_growth_rate(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", QUENCH)
        result = CliRunner().invoke(main, ["quench-series", "--config", cfg, "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        lines = (tmp_path / "quench-series.csv").read_text().splitlines()
        assert lines[0] == "t,F"
        summary = json.loads((tmp_path / "quench-series.json").read_text())
        names = [f["name"] for f in summary["results"]["fits"]]
        assert "growth_rate" in names


class TestDeterminism:
    def test_reruns_are_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            run_experiment(json.loads(json.dumps(FBAR)), out_dir=out)
        assert (out_a / "fbar-sweep.csv").read_bytes() == (out_b / "fbar-sweep.csv").read_bytes()
        assert read_masked_json(out_a / "fbar-sweep.json") == read_masked_json(out_b / "fbar-sweep.json")
