import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mipt_qfi
from mipt_qfi import ed, experiments
from mipt_qfi.cli import main
from mipt_qfi.experiments import load_config, run_experiment, validate_config
from mipt_qfi.errors import ConfigError
from mipt_qfi.fitting import fit_power_law
from mipt_qfi.spectral import ModelParams, critical_gamma, spectrum_table


def write_config(path: Path, payload) -> str:
    path.write_text(json.dumps(payload))
    return str(path)


def run_cli(args: list[str]) -> tuple[int, str]:
    """Exit code and combined stdout and stderr of `mipt-qfi ARGS`."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            main(args)
        except SystemExit as exc:
            return exc.code, out.getvalue()
    return 0, out.getvalue()


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
WORKLOADS = Path(__file__).parents[1] / "perfbench" / "workloads.json"

# each experiment with its required fields only, and the same config with
# every default of docs/configuration.md written out
REQUIRED_ONLY = {
    "spectrum": SPECTRUM["params"],
    "witness-scaling": {"sizes": [4, 6, 8], "gamma": 0.75},
    "quench-series": QUENCH["params"],
    "fbar-sweep": {"h": 0.6},
    "critical-exponent": {"h": 0.6},
    "oracle-check": {},
}
DEFAULTS = {
    "spectrum": {},
    "witness-scaling": {"measure_time": 7.5, "dt": 0.05, "initial_kind": "hermitian-ground",
                        "initial_h": 0.0, "time_sensitivity": True},
    "quench-series": {"fit_window": 0.3},
    "fbar-sweep": {"n_sites": 512, "gammas": experiments.default_fbar_gammas(0.6, 40),
                   "points_per_side": 40},
    "critical-exponent": {"log_offsets": {"min": -6.0, "max": -2.0, "num": 40}},
    "oracle-check": {"quench_sizes": [4, 6], "hs": [0.3], "gammas": [0.5, 2.0], "times": [0.5, 1.5],
                     "witness_sizes": [4, 6], "witness_gammas": [0.75, 4.5], "witness_times": [0.5, 2.0],
                     "tol_quench": 1e-5, "tol_ed": 1e-6, "tol_witness": 1e-6},
}


class TestConfigValidation:
    @pytest.mark.parametrize("name", experiments.EXPERIMENTS)
    def test_shipped_config_is_valid(self, name):
        config = validate_config(load_config(SHIPPED_CONFIGS / f"{name}.json"))
        assert config["experiment"] == name

    @pytest.mark.parametrize("config", [c for cs in json.loads(WORKLOADS.read_text()).values() for c in cs],
                             ids=lambda c: c["experiment"])
    def test_benchmark_workload_config_is_valid(self, config):
        # the benchmark's setup probe validates these
        assert validate_config(json.loads(json.dumps(config)))["experiment"] == config["experiment"]

    @pytest.mark.parametrize("name", experiments.EXPERIMENTS)
    def test_written_out_defaults_change_nothing(self, tmp_path, name):
        given = {"experiment": name, "params": REQUIRED_ONLY[name]}
        written = {"experiment": name, "params": {**REQUIRED_ONLY[name], **DEFAULTS[name]}}
        a = run_experiment(json.loads(json.dumps(given)), out_dir=tmp_path / "a")
        b = run_experiment(json.loads(json.dumps(written)), out_dir=tmp_path / "b")
        assert a.csv_path.read_bytes() == b.csv_path.read_bytes()
        assert a.summary["results"] == b.summary["results"]
        # the run JSON keeps the config as given
        assert read_masked_json(a.json_path)["config"] == given

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

    @pytest.mark.parametrize(
        "payload,field",
        [
            ({**SPECTRUM, "params": {**SPECTRUM["params"], "h": float("nan")}}, "params/h"),
            ({**QUENCH, "params": {**QUENCH["params"], "gamma": float("inf")}}, "params/gamma"),
            ({**QUENCH, "params": {**QUENCH["params"], "times": [0.1, 0.2, float("inf")]}}, "params/times/2"),
            ({**SPECTRUM, "params": {**SPECTRUM["params"], "gamma": float("inf")}}, "params/gamma"),
            ({**SPECTRUM, "params": {**SPECTRUM["params"], "h": 10**400}}, "params/h"),
            ({"experiment": "oracle-check", "params": {"times": [10**400]}}, "params/times/0"),
        ],
    )
    def test_non_finite_numbers_rejected(self, tmp_path, payload, field):
        # json writes and reads the NaN / Infinity literals, and integers of
        # any size, whose float would be infinite
        cfg = write_config(tmp_path / "c.json", payload)
        code, output = run_cli([payload["experiment"], "--config", cfg, "--out", str(tmp_path)])
        assert code == 2, output
        assert f"'{field}'" in output

    @pytest.mark.parametrize("field", ["quench_sizes", "witness_sizes"])
    def test_oracle_sizes_stop_at_the_dense_cap(self, field):
        cap = ed.MAX_DENSE_SITES
        validate_config({"experiment": "oracle-check", "params": {field: [cap]}})
        with pytest.raises(ConfigError, match=f"params/{field}/0.*greater than the maximum of {cap}"):
            validate_config({"experiment": "oracle-check", "params": {field: [cap + 2]}})

    @pytest.mark.parametrize("size,code", [(12, 0), (14, 2)])
    def test_oracle_quench_rows_run_up_to_the_dense_cap(self, tmp_path, size, code):
        # every dense route takes the one cap; at N = 12 the periodic ground
        # state's even sector has 122 orbits
        params = {"quench_sizes": [size], "witness_sizes": []}
        cfg = write_config(tmp_path / "c.json", {"experiment": "oracle-check", "params": params})
        got, output = run_cli(["oracle-check", "--config", cfg, "--out", str(tmp_path)])
        assert got == code, output

    @pytest.mark.parametrize("name", [e for e in experiments.EXPERIMENTS if e != "oracle-check"])
    def test_missing_params_is_a_config_error(self, tmp_path, name):
        # every runner but oracle-check reads required params
        cfg = write_config(tmp_path / "c.json", {"experiment": name})
        code, output = run_cli([name, "--config", cfg, "--out", str(tmp_path)])
        assert code == 2, output
        assert "'params' is a required property" in output

    @pytest.mark.parametrize(
        "payload,field",
        [
            ({**WITNESS, "params": {**WITNESS["params"], "sizes": [4.0, 6.0, 8.0]}}, "params/sizes/"),
            ({"experiment": "critical-exponent", "params": {"h": 0.3, "log_offsets": {"num": 8.0}}},
             "params/log_offsets/num"),
            ({"experiment": "oracle-check", "params": {"quench_sizes": [4.0]}}, "params/quench_sizes/0"),
            ({**SPECTRUM, "params": {**SPECTRUM["params"], "n_sites": 8.0}}, "params/n_sites"),
            ({**QUENCH, "params": {**QUENCH["params"], "n_sites": 8.0}}, "params/n_sites"),
        ],
        ids=["witness-sizes", "critical-num", "oracle-sizes", "spectrum-n_sites", "quench-n_sites"],
    )
    def test_integral_floats_rejected(self, tmp_path, payload, field):
        # 8.0 is no integer: the runners cannot use it as a size
        cfg = write_config(tmp_path / "c.json", payload)
        code, output = run_cli([payload["experiment"], "--config", cfg, "--out", str(tmp_path)])
        assert code == 2, output
        assert f"'{field}" in output and "is not of type 'integer'" in output

    @pytest.mark.parametrize("field", ["quench_sizes", "witness_sizes"])
    def test_odd_oracle_size_rejected(self, tmp_path, field):
        # the chains are even; an odd size used to end in a ValueError traceback
        cfg = write_config(tmp_path / "c.json", {"experiment": "oracle-check", "params": {field: [5]}})
        code, output = run_cli(["oracle-check", "--config", cfg, "--out", str(tmp_path)])
        assert code == 2, output
        assert f"'params/{field}/0'" in output and "even" in output


class TestCliContract:
    def test_config_error_exit_code(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {**SPECTRUM, "bogus": 1})
        code, output = run_cli(["spectrum", "--config", cfg, "--out", str(tmp_path)])
        assert code == 2
        assert "config error" in output

    @pytest.mark.parametrize("payload", [[], 3, "x", None])
    def test_config_that_is_no_object_is_a_config_error(self, tmp_path, payload):
        cfg = write_config(tmp_path / "c.json", payload)
        code, output = run_cli(["spectrum", "--config", cfg, "--out", str(tmp_path)])
        assert code == 2, output
        assert f"config field '<root>': {payload!r} is not of type 'object'" in output

    def test_subcommand_config_mismatch(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", SPECTRUM)
        code, output = run_cli(["quench-series", "--config", cfg, "--out", str(tmp_path)])
        assert code == 2

    def test_missing_config_file(self, tmp_path):
        code, output = run_cli(["spectrum", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
        assert code == 2

    def test_config_that_is_no_utf8_is_a_config_error(self, tmp_path):
        # a UTF-16 byte order mark used to end in a UnicodeDecodeError traceback
        cfg = tmp_path / "c.json"
        cfg.write_bytes(b"\xff\xfe" + json.dumps(SPECTRUM).encode("utf-16-le"))
        code, output = run_cli(["spectrum", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2, output
        assert "config error" in output and "not UTF-8" in output

    def test_out_dir_that_cannot_be_made_is_a_config_error(self, tmp_path):
        # a regular file in the path used to end in a NotADirectoryError traceback
        blocker = tmp_path / "file"
        blocker.write_text("")
        cfg = write_config(tmp_path / "c.json", SPECTRUM)
        out = str(blocker / "x")
        code, output = run_cli(["spectrum", "--config", cfg, "--out", out])
        assert code == 2, output
        assert f"cannot create output directory {out}" in output

    def test_output_path_that_cannot_be_made_is_a_config_error(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = str(blocker / "x")
        cfg = write_config(tmp_path / "c.json", {**SPECTRUM, "output_path": out})
        code, output = run_cli(["spectrum", "--config", cfg])
        assert code == 2, output
        assert f"cannot create output directory {out}" in output

    @pytest.mark.parametrize("suffix", ["csv", "json"])
    def test_result_path_that_is_no_file_is_refused_before_the_run(self, tmp_path, monkeypatch, suffix):
        # a directory in the result's place used to end in an IsADirectoryError
        # traceback, after the whole experiment had run
        monkeypatch.setitem(experiments._RUNNERS, "spectrum", lambda params: pytest.fail("the run started"))
        path = tmp_path / f"spectrum.{suffix}"
        path.mkdir()
        cfg = write_config(tmp_path / "c.json", SPECTRUM)
        code, output = run_cli(["spectrum", "--config", cfg, "--out", str(tmp_path)])
        assert code == 2, output
        assert f"result path {path} exists and is not a writable regular file" in output
        assert not (tmp_path / "spectrum.csv").is_file()

    @pytest.mark.parametrize("target,message", [
        ("out", "output directory {} is not writable"),
        ("out/spectrum.csv", "result path {} exists and is not a writable regular file"),
    ], ids=["directory", "file"])
    def test_path_that_is_not_writable_is_refused_before_the_run(self, tmp_path, monkeypatch, target, message):
        # permission bits cannot show it to a process run as root, which may
        # write anywhere; the check asks os.access, so the test answers for it
        out, locked = tmp_path / "out", tmp_path / target
        out.mkdir()
        (out / "spectrum.csv").write_text("old\n")
        access = os.access
        monkeypatch.setattr(experiments.os, "access",
                            lambda path, mode: access(path, mode) and (Path(path), mode) != (locked, os.W_OK))
        monkeypatch.setitem(experiments._RUNNERS, "spectrum", lambda params: pytest.fail("the run started"))
        cfg = write_config(tmp_path / "c.json", SPECTRUM)
        code, output = run_cli(["spectrum", "--config", cfg, "--out", str(out)])
        assert code == 2, output
        assert message.format(locked) in output
        assert (out / "spectrum.csv").read_text() == "old\n"

    def test_numerical_fault_exit_code(self, tmp_path, monkeypatch):
        from mipt_qfi import cli
        from mipt_qfi.errors import NumericalFault

        def boom(*args, **kwargs):
            raise NumericalFault("synthetic rank collapse at step 3")

        monkeypatch.setattr(cli, "run_experiment", boom)
        cfg = write_config(tmp_path / "c.json", SPECTRUM)
        code, output = run_cli(["spectrum", "--config", cfg, "--out", str(tmp_path)])
        assert code == 4
        assert "numerical fault" in output

    def test_nan_string_table_exits_with_numerical_fault(self, tmp_path, monkeypatch):
        from mipt_qfi import realspace

        monkeypatch.setattr(realspace, "xx_table", lambda g: np.full((len(g),) + (g.shape[1] // 2,) * 2, np.nan))
        cfg = write_config(tmp_path / "c.json", WITNESS)
        code, output = run_cli(["witness-scaling", "--config", cfg, "--out", str(tmp_path)])
        assert code == 4, output
        assert "numerical fault" in output

    def test_non_finite_quench_qfi_exits_with_numerical_fault(self, tmp_path):
        # past the round-off floor F overflows to inf at t = 100 and nan at t = 200
        params = {"n_sites": 16, "h": 0.3, "gamma": 6.0, "times": [1, 2, 3, 100, 150, 200]}
        cfg = write_config(tmp_path / "c.json", {"experiment": "quench-series", "params": params})
        with np.errstate(all="ignore"):
            code, output = run_cli(["quench-series", "--config", cfg, "--out", str(tmp_path)])
        assert code == 4, output
        assert "numerical fault" in output
        assert not (tmp_path / "quench-series.csv").exists()

    def test_non_finite_spectrum_exits_with_numerical_fault(self, tmp_path):
        # 2 h overflows: the run used to write rows of -inf and exit 0
        params = {"n_sites": 8, "h": 1e308, "gamma": 2.0}
        cfg = write_config(tmp_path / "c.json", {"experiment": "spectrum", "params": params})
        code, output = run_cli(["spectrum", "--config", cfg, "--out", str(tmp_path)])
        assert code == 4, output
        assert "numerical fault" in output
        assert not (tmp_path / "spectrum.csv").exists()

    def test_underflowed_quench_qfi_exits_with_numerical_fault(self, tmp_path):
        # F underflows to 0 at t = 1e-170, and the growth-rate fit takes log F
        params = {"n_sites": 8, "h": 0.3, "gamma": 2.0, "times": [1e-170, 1e-160, 1e-150]}
        cfg = write_config(tmp_path / "c.json", {"experiment": "quench-series", "params": params})
        code, output = run_cli(["quench-series", "--config", cfg, "--out", str(tmp_path)])
        assert code == 4, output
        assert "numerical fault" in output and "t = 1e-170" in output
        assert not (tmp_path / "quench-series.csv").exists()

    def test_oracle_rate_below_the_difference_step_is_a_config_error(self, tmp_path):
        # the exact-derivative oracle takes no difference step, so the zero
        # rate that finite differences had to reject now runs and passes
        params = {"quench_sizes": [4], "gammas": [0.0], "witness_sizes": []}
        cfg = write_config(tmp_path / "c.json", {"experiment": "oracle-check", "params": params})
        code, output = run_cli(["oracle-check", "--config", cfg, "--out", str(tmp_path)])
        assert code == 0, output
        checks = json.loads((tmp_path / "oracle-check.json").read_text())["results"]["checks"]
        assert len(checks) == 4 and all(c["ok"] for c in checks)

    def test_threads_option_is_gone(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", QUENCH)
        code, output = run_cli(["quench-series", "--config", cfg, "--out", str(tmp_path), "--threads", "2"])
        assert code == 2
        assert "unrecognized arguments" in output and "--threads" in output

    @pytest.mark.parametrize("args", [[], ["nope"], ["spectrum"], ["spectrum", "--conf", "c.json"]],
                             ids=["no-experiment", "unknown-experiment", "no-config", "abbreviated-config"])
    def test_usage_error_exits_2(self, args):
        code, output = run_cli(args)
        assert code == 2, output
        assert "usage: mipt-qfi" in output

    def test_help_names_every_experiment(self):
        code, output = run_cli(["--help"])
        assert code == 0, output
        assert all(name in output for name in experiments.EXPERIMENTS)

    def test_threads_environment_variable_is_ignored(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MIPT_QFI_THREADS", "abc")
        cfg = write_config(tmp_path / "c.json", QUENCH)
        code, output = run_cli(["quench-series", "--config", cfg, "--out", str(tmp_path)])
        assert code == 0, output

    def test_tolerance_failure_exit_code(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            {**ORACLE, "params": {**ORACLE["params"], "tol_quench": 1e-30, "tol_ed": 1e-30}},
        )
        code, output = run_cli(["oracle-check", "--config", cfg, "--out", str(tmp_path)])
        assert code == 3
        assert "tolerance" in output

    def test_spectrum_output_matches_library(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", SPECTRUM)
        code, output = run_cli(["spectrum", "--config", cfg, "--out", str(tmp_path)])
        assert code == 0, output
        lines = (tmp_path / "spectrum.csv").read_text().splitlines()
        assert lines[0] == "k,E,Gamma"
        table = spectrum_table(ModelParams(8, 0.3, 2.0))
        got = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        np.testing.assert_allclose(got, table, rtol=1e-15)

    def test_oracle_check_passes_and_reports(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", ORACLE)
        code, output = run_cli(["oracle-check", "--config", cfg, "--out", str(tmp_path)])
        assert code == 0, output
        summary = json.loads((tmp_path / "oracle-check.json").read_text())
        checks = summary["results"]["checks"]
        assert checks and all(c["ok"] for c in checks)
        csv_lines = (tmp_path / "oracle-check.csv").read_text().splitlines()
        assert csv_lines[0] == "check,delta,tolerance,ok"

    def test_oracle_takes_one_ground_state_per_size_and_field(self, tmp_path, monkeypatch):
        calls = []
        ground = ed.dense_ground_state

        def counted(params):
            calls.append(params)
            return ground(params)

        monkeypatch.setattr(ed, "dense_ground_state", counted)
        params = {"quench_sizes": [4, 6], "hs": [0.3, 0.5], "gammas": [0.5, 2.0],
                  "times": [0.5, 1.5], "witness_sizes": []}
        run_experiment({"experiment": "oracle-check", "params": params}, out_dir=tmp_path)
        assert calls == [ModelParams(n, h, 0.0, "periodic") for n in (4, 6) for h in (0.3, 0.5)]

    def test_oracle_witness_off_the_time_grid(self, tmp_path):
        # neither time is a multiple of 0.05; both sides must evolve to exactly t
        params = {"quench_sizes": [], "witness_sizes": [4], "witness_gammas": [0.75],
                  "witness_times": [0.03, 0.52]}
        cfg = write_config(tmp_path / "c.json", {"experiment": "oracle-check", "params": params})
        code, output = run_cli(["oracle-check", "--config", cfg, "--out", str(tmp_path)])
        assert code == 0, output
        checks = json.loads((tmp_path / "oracle-check.json").read_text())["results"]["checks"]
        assert [c["name"] for c in checks] == [
            "witness[N=4,gamma=0.75,t=0.03]", "witness[N=4,gamma=0.75,t=0.52]"
        ]
        assert all(c["delta"] <= 1e-12 for c in checks)

    def test_quench_series_reports_growth_rate(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", QUENCH)
        code, output = run_cli(["quench-series", "--config", cfg, "--out", str(tmp_path)])
        assert code == 0, output
        lines = (tmp_path / "quench-series.csv").read_text().splitlines()
        assert lines[0] == "t,F"
        summary = json.loads((tmp_path / "quench-series.json").read_text())
        names = [f["name"] for f in summary["results"]["fits"]]
        assert "growth_rate" in names


# configs at the edges of what validation lets through; each must end in a
# documented exit code, never in a Python traceback
EDGE_CONFIGS = {
    "quench-underflow": {"experiment": "quench-series", "params": {
        "n_sites": 8, "h": 0.3, "gamma": 2.0, "times": [1e-170, 1e-160, 1e-150]}},
    "oracle-zero-rate": {"experiment": "oracle-check", "params": {
        "quench_sizes": [4], "gammas": [0.0], "witness_sizes": []}},
    "oracle-degenerate-hermitian": {"experiment": "oracle-check", "params": {
        "quench_sizes": [4], "hs": [0.0], "gammas": [0.0], "witness_sizes": []}},
    "spectrum-huge-rate": {"experiment": "spectrum", "params": {"n_sites": 8, "h": 0.3, "gamma": 1e308}},
    "fbar-zero-rate": {"experiment": "fbar-sweep", "params": {"h": 0.3, "gammas": [0.0]}},
    "critical-field-near-one": {"experiment": "critical-exponent", "params": {"h": 0.999999999999}},
    "quench-huge-time": {"experiment": "quench-series", "params": {
        "n_sites": 8, "h": 0.3, "gamma": 2.0, "times": [1e300, 2e300, 3e300]}},
    "oracle-huge-time": {"experiment": "oracle-check", "params": {
        "quench_sizes": [4], "times": [1e300], "witness_sizes": []}},
    "oracle-huge-time-zero-rate": {"experiment": "oracle-check", "params": {
        "quench_sizes": [4], "gammas": [0.0], "times": [1e300], "witness_sizes": []}},
    "spectrum-integer-field-beyond-float": {"experiment": "spectrum", "params": {
        "n_sites": 8, "h": 10**400, "gamma": 1.0}},
    "oracle-integer-time-beyond-float": {"experiment": "oracle-check", "params": {
        "quench_sizes": [4], "times": [10**400], "witness_sizes": []}},
    "witness-huge-initial-field": {"experiment": "witness-scaling", "params": {
        "sizes": [4, 6, 8], "gamma": 0.75, "initial_h": 1e308}},
    "witness-huge-time": {"experiment": "witness-scaling", "params": {
        "sizes": [4, 6, 8], "gamma": 0.75, "measure_time": 1e7}},
    "witness-huge-rate": {"experiment": "witness-scaling", "params": {
        "sizes": [4, 6, 8], "gamma": 1e308, "measure_time": 1.0}},
    "oracle-long-time": {"experiment": "oracle-check", "params": {
        "witness_sizes": [4], "witness_gammas": [0.75], "witness_times": [1000]}},
    "oracle-huge-rate": {"experiment": "oracle-check", "params": {
        "quench_sizes": [4], "gammas": [1e308], "witness_sizes": []}},
    "oracle-huge-field": {"experiment": "oracle-check", "params": {
        "quench_sizes": [4], "hs": [1e308], "witness_sizes": []}},
    "quench-overflowing-rate": {"experiment": "quench-series", "params": {
        "n_sites": 8, "h": 0.3, "gamma": 1e200, "times": [0.1, 0.2, 0.3]}},
    "oracle-overflowing-rate": {"experiment": "oracle-check", "params": {
        "quench_sizes": [4], "gammas": [1e200], "witness_sizes": []}},
    "oracle-overflowing-field": {"experiment": "oracle-check", "params": {
        "quench_sizes": [4], "hs": [1e200], "witness_sizes": []}},
}

# edge configs that must end in a numerical fault, with what the message
# names: the frame evolution would take more than MAX_CHUNKS chunks, and
# used to run without end; the dense H_eff overflows, and used to reach
# np.linalg.eig with inf entries; the mode spectrum overflows, and used to
# warn and then be reported as a round-off floor of nan
FAULTING_EDGE_CONFIGS = {
    "witness-huge-time": "MAX_CHUNKS",
    "witness-huge-rate": "MAX_CHUNKS",
    "oracle-huge-rate": "H_eff is not finite at gamma = 1e+308, h = 0.3",
    "oracle-huge-field": "H_eff is not finite at gamma = 0.0, h = 1e+308",
    "quench-overflowing-rate": "mode spectrum is not finite at gamma = 1e+200, h = 0.3",
    "oracle-overflowing-rate": "mode spectrum is not finite at gamma = 1e+200, h = 0.3",
    "oracle-overflowing-field": "mode spectrum is not finite at gamma = 0.5, h = 1e+200",
}
# edge configs that must pass every check: the dense vacuum's norm used to
# underflow at t = 1000, where the answer is finite
PASSING_EDGE_CONFIGS = ("oracle-long-time",)


class TestNoTraceback:
    @pytest.mark.parametrize("name", sorted(EDGE_CONFIGS))
    def test_edge_config_exits_with_a_documented_code(self, tmp_path, name):
        config = EDGE_CONFIGS[name]
        cfg = write_config(tmp_path / "c.json", config)
        src = str(Path(mipt_qfi.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "mipt_qfi.cli", config["experiment"], "--config", cfg,
             "--out", str(tmp_path)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
            timeout=60,
        )
        assert proc.returncode in (0, 2, 3, 4), proc.stderr
        assert "Traceback" not in proc.stderr
        assert "RuntimeWarning" not in proc.stderr, proc.stderr
        if name in FAULTING_EDGE_CONFIGS:
            assert proc.returncode == 4 and FAULTING_EDGE_CONFIGS[name] in proc.stderr, proc.stderr
        if name in PASSING_EDGE_CONFIGS:
            assert proc.returncode == 0, proc.stderr
            checks = json.loads((tmp_path / f"{config['experiment']}.json").read_text())["results"]["checks"]
            assert checks and all(c["ok"] for c in checks)

    @pytest.mark.parametrize("params", [
        EDGE_CONFIGS["oracle-degenerate-hermitian"]["params"],
        {"quench_sizes": [4, 6, 8], "hs": [0.0], "gammas": [0.0, 2.0], "witness_sizes": []},
    ])
    def test_oracle_passes_at_the_degenerate_hermitian_point(self, tmp_path, params):
        # at h = gamma = 0 the whole even sector's H_eff has exactly degenerate
        # eigenvalues and eig returned a singular eigenbasis (cond 1.5e17 at
        # N = 4); the orbit block of the symmetric ground state does not
        cfg = write_config(tmp_path / "c.json", {"experiment": "oracle-check", "params": params})
        code, output = run_cli(["oracle-check", "--config", cfg, "--out", str(tmp_path)])
        assert code == 0, output
        checks = json.loads((tmp_path / "oracle-check.json").read_text())["results"]["checks"]
        assert checks and all(c["ok"] for c in checks)
        assert max(c["delta"] for c in checks) <= 1e-11


class TestWitnessSeries:
    def test_one_exponential_per_size(self, tmp_path, monkeypatch):
        from mipt_qfi import _kernels, realspace

        dims = []
        monkeypatch.setattr(realspace, "expm", lambda a: dims.append(a.shape[0]) or _kernels.expm(a))
        for sensitive in (True, False):
            dims.clear()
            params = {"sizes": [4, 6, 8], "gamma": 0.75, "time_sensitivity": sensitive}
            with pytest.warns(UserWarning, match="degenerate"):
                run_experiment({"experiment": "witness-scaling", "params": params}, out_dir=tmp_path)
            assert dims == [8, 12, 16]

    def test_measure_time_off_the_dt_grid_is_exact(self, tmp_path):
        # 7.53 is no multiple of dt = 0.05: the run used to report F at 7.55
        from mipt_qfi.realspace import evolve, init_state, witness_qfi

        params = {"sizes": [16, 24, 32], "gamma": 0.75, "measure_time": 7.53, "initial_kind": "vacuum"}
        result = run_experiment({"experiment": "witness-scaling", "params": params}, out_dir=tmp_path)
        rows = [line.split(",") for line in (tmp_path / "witness-scaling.csv").read_text().splitlines()[1:]]
        for n, f, *_ in rows:
            n = int(n)
            p = ModelParams(n, 0.0, 0.75, "open")
            want = witness_qfi(evolve(init_state(n), p, 7.53, 1))
            assert float(f) == pytest.approx(want, rel=1e-12, abs=0)
        names = [fit["name"] for fit in result.summary["results"]["fits"]]
        assert names == ["eta_at_t=6.024", "eta", "eta_at_t=9.036"]

    def test_witness_long_workload_is_unchanged(self, tmp_path):
        # its times 48, 60 and 72 are multiples of dt = 0.01 and of 12, so
        # the series reproduces the separate evolutions on the dt grid to the bit
        from mipt_qfi.realspace import evolve, init_state, witness_qfi

        (config,) = json.loads(WORKLOADS.read_text())["witness-long"]
        result = run_experiment(config, out_dir=tmp_path)
        params = validate_config(config)["params"]
        dt, series = params["dt"], []
        for n in params["sizes"]:
            p = ModelParams(n, 0.0, params["gamma"], "open")
            state, done, values = init_state(n), 0.0, []
            for t in (48.0, 60.0, 72.0):
                steps = int(round((t - done) / dt))
                state = evolve(state, p, dt, steps)
                done += steps * dt
                values.append(witness_qfi(state))
            series.append(values)
        rows = [line.split(",") for line in (tmp_path / "witness-scaling.csv").read_text().splitlines()[1:]]
        assert [float(f) for _, f, *_ in rows] == [values[1] for values in series]
        fits = [fit["value"] for fit in result.summary["results"]["fits"]]
        assert fits == [fit_power_law(params["sizes"], [v[i] for v in series]).value for i in range(3)]


class TestRuntimeDependencies:
    def test_shipped_configs_run_without_scipy(self, tmp_path):
        # numpy and scipy each bundle a BLAS with its own thread pool; a run
        # that loads both makes the pools compete for the cores.  The config
        # checks need no jsonschema, and the standard library parses the
        # command line, so click is never loaded either
        script = (
            "import json, sys\n"
            "from pathlib import Path\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "from mipt_qfi.cli import main\n"
            "for path in sorted(Path(sys.argv[2]).glob('*.json')):\n"
            "    name = json.loads(path.read_text())['experiment']\n"
            "    main([name, '--config', str(path), '--out', sys.argv[3]])\n"
            "loaded = sorted(m for m in sys.modules if m.partition('.')[0] in ('scipy', 'jsonschema', 'click'))\n"
            "assert not loaded, loaded\n"
        )
        src = Path(mipt_qfi.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-c", script, str(src), str(SHIPPED_CONFIGS), str(tmp_path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert len(list(tmp_path.glob("*.csv"))) == len(experiments.EXPERIMENTS)
        assert proc.stdout.count("wrote ") == len(experiments.EXPERIMENTS), proc.stdout


class TestDeterminism:
    def test_reruns_are_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            run_experiment(json.loads(json.dumps(FBAR)), out_dir=out)
        assert (out_a / "fbar-sweep.csv").read_bytes() == (out_b / "fbar-sweep.csv").read_bytes()
        assert read_masked_json(out_a / "fbar-sweep.json") == read_masked_json(out_b / "fbar-sweep.json")
