import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mipt_qfi.experiments import _run_quench_series
from mipt_qfi.fitting import fit_exponential_rate, fit_power_law, stable_window_start

QUENCH_SERIES = Path(__file__).resolve().parents[1] / "docs" / "configs" / "quench-series.json"


class TestPowerLaw:
    def test_exact_power_law(self):
        xs = np.array([2.0, 4.0, 8.0, 16.0])
        fit = fit_power_law(xs, 3.0 * xs**1.5)
        assert fit.value == pytest.approx(1.5, abs=1e-12)
        assert fit.residual < 1e-12

    def test_constant_data(self):
        fit = fit_power_law([1.0, 2.0, 4.0], [5.0, 5.0, 5.0])
        assert fit.value == pytest.approx(0.0, abs=1e-14)

    def test_recovers_intercept(self):
        xs = np.array([1.0, 3.0, 9.0, 27.0])
        fit = fit_power_law(xs, 7.0 * xs**-2.0)
        assert fit.value == pytest.approx(-2.0, abs=1e-10)
        assert np.exp(fit.intercept) == pytest.approx(7.0, rel=1e-10)

    def test_rejects_nonpositive_and_short_input(self):
        with pytest.raises(ValueError):
            fit_power_law([1.0, 2.0, 3.0], [1.0, -2.0, 3.0])
        with pytest.raises(ValueError):
            fit_power_law([0.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            fit_power_law([1.0, 2.0], [1.0, 2.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_rejects_non_finite_data(self, bad, axis):
        # a NaN abscissa used to reach LAPACK, and a bad ordinate a NaN fit
        xs, ys = [1.0, 2.0, 4.0, 8.0], [1.0, 2.0, 3.0, 4.0]
        (xs if axis == "x" else ys)[2] = bad
        with pytest.raises(ValueError, match="finite"):
            fit_power_law(xs, ys)

    @given(
        st.floats(min_value=-3.0, max_value=3.0),
        st.floats(min_value=0.1, max_value=10.0),
    )
    @settings(max_examples=50, deadline=None, derandomize=True)
    def test_noiseless_recovery(self, exponent, amplitude):
        xs = np.array([1.0, 2.0, 5.0, 11.0, 23.0])
        fit = fit_power_law(xs, amplitude * xs**exponent)
        assert fit.value == pytest.approx(exponent, abs=1e-10)
        assert fit.residual < 1e-10


class TestExponentialRate:
    def test_exact_exponential(self):
        ts = np.linspace(0.0, 3.0, 20)
        fit = fit_exponential_rate(ts, np.exp(4.0 * ts))
        assert fit.value == pytest.approx(4.0, abs=1e-10)
        assert fit.window == tuple(ts)

    def test_window_restricts_to_late_samples(self):
        # quench-series applies fit_window before the fit: the growth-rate
        # window is a trailing run of the times that starts no earlier than
        # the trailing fit_window fraction
        params = dict(json.loads(QUENCH_SERIES.read_text())["params"], n_sites=16)
        ts = params["times"]
        n = len(ts)
        for fit_window in (0.1, 0.3, 0.6, 1.0):
            _, _, fits, _ = _run_quench_series(dict(params, fit_window=fit_window))
            window = next(f for f in fits if f["name"] == "growth_rate")["window"]
            assert window == ts[n - len(window):]
            assert window[0] >= ts[n - max(3, int(np.ceil(fit_window * n)))]

    def test_rejects_bad_data(self):
        ts = np.linspace(0.0, 1.0, 10)
        with pytest.raises(ValueError):
            fit_exponential_rate(ts, -np.exp(ts))
        with pytest.raises(ValueError):
            fit_exponential_rate([0.0, 1.0], [1.0, 2.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("axis", ["t", "f"])
    def test_rejects_non_finite_data(self, bad, axis):
        ts, fs = [0.0, 1.0, 2.0, 3.0], [1.0, 2.0, 4.0, 8.0]
        (ts if axis == "t" else fs)[2] = bad
        with pytest.raises(ValueError, match="finite"):
            fit_exponential_rate(ts, fs)


class TestStableWindow:
    def test_finds_post_transient_start(self):
        ts = np.linspace(0.0, 10.0, 41)
        fs = np.where(ts < 4.0, np.exp(ts**2 / 4.0), np.exp(ts + 0.0))
        idx = stable_window_start(ts, fs)
        assert ts[idx] >= 3.0

    def test_steady_curve_starts_immediately(self):
        ts = np.linspace(0.0, 5.0, 20)
        assert stable_window_start(ts, np.exp(2.0 * ts)) == 0

    def test_falls_back_to_zero_when_never_stable(self):
        ts = np.linspace(0.1, 2.0, 12)
        fs = np.exp(np.sin(7.0 * ts) * 3.0 + 0.2 * ts)
        assert stable_window_start(ts, fs) >= 0
