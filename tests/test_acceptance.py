"""Acceptance suite: one test per shipped criterion, each printing a
PASS/FAIL line (run with -s to see them during the run).
"""

import json
import time
import warnings

import numpy as np
import pytest
from _reference import quadrature_entries

from mipt_qfi import ed
from mipt_qfi._kernels import pfaffian
from mipt_qfi.experiments import run_experiment
from mipt_qfi.qfi import fbar, qfi_quench, r_matrix
from mipt_qfi.quench import evolve_amplitudes, ising_ground_amplitudes
from mipt_qfi.realspace import _kernel, evolve, init_state, witness_qfi
from mipt_qfi.spectral import ModelParams, critical_gamma, mode_system


def report(n: int, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")


class TestCriterion1WitnessScaling:
    def test_witness_scaling_exponents(self, tmp_path):
        budget_s = 600.0
        start = time.perf_counter()
        etas = {}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for gamma in (0.75, 4.5):
                cfg = {
                    "experiment": "witness-scaling",
                    "params": {
                        "sizes": [16, 24, 32, 48, 64, 96, 128],
                        "gamma": gamma,
                        "time_sensitivity": True,
                    },
                }
                result = run_experiment(cfg, out_dir=tmp_path / f"wit{gamma}")
                fits = {f["name"]: f for f in result.summary["results"]["fits"]}
                etas[gamma] = fits["eta"]["value"]
        elapsed = time.perf_counter() - start
        ok = (
            abs(etas[0.75] - 1.5) <= 0.15
            and abs(etas[4.5] - 1.0) <= 0.1
            and elapsed < budget_s
        )
        report(
            1,
            ok,
            f"eta(0.75)={etas[0.75]:.3f} (1.5+-0.15), eta(4.5)={etas[4.5]:.3f} "
            f"(1.0+-0.1), {elapsed:.0f}s < {budget_s:.0f}s",
        )
        assert abs(etas[0.75] - 1.5) <= 0.15
        assert abs(etas[4.5] - 1.0) <= 0.1
        assert elapsed < budget_s


class TestCriterion2QuenchRate:
    def test_quench_growth_rates(self, tmp_path):
        budget_s = 60.0
        start = time.perf_counter()
        rates = {}
        for gamma, times in ((2.0, np.linspace(0.05, 1.2, 40)), (0.2, np.linspace(0.5, 16.0, 40))):
            cfg = {
                "experiment": "quench-series",
                "params": {
                    "n_sites": 64,
                    "h": 0.3,
                    "gamma": gamma,
                    "times": [float(t) for t in times],
                },
            }
            result = run_experiment(cfg, out_dir=tmp_path / f"q{gamma}")
            fits = {f["name"]: f for f in result.summary["results"]["fits"]}
            rates[gamma] = fits["growth_rate"]["value"]
        elapsed = time.perf_counter() - start
        dev2 = abs(rates[2.0] - 4.0) / 4.0
        dev02 = abs(rates[0.2] - 0.4) / 0.4
        ok = dev2 <= 0.10 and dev02 <= 0.15 and elapsed < budget_s
        report(
            2,
            ok,
            f"rate(gamma=2)={rates[2.0]:.3f} ({100*dev2:.1f}% of 2*gamma), "
            f"rate(gamma=0.2)={rates[0.2]:.3f} ({100*dev02:.1f}%), {elapsed:.0f}s",
        )
        assert dev2 <= 0.10
        assert dev02 <= 0.15
        assert elapsed < budget_s


class TestCriterion3FbarPeak:
    def test_fbar_peak_and_asymmetry(self, tmp_path):
        budget_s = 60.0
        start = time.perf_counter()
        cfg = {"experiment": "fbar-sweep", "params": {"h": 0.6, "n_sites": 512}}
        result = run_experiment(cfg, out_dir=tmp_path)
        info = result.summary["results"]["checks"][0]
        gc = critical_gamma(0.6)
        lo = fbar(ModelParams(512, 0.6, gc - 0.4))
        hi = fbar(ModelParams(512, 0.6, gc + 0.4))
        flank = abs(hi - lo) / max(hi, lo)
        elapsed = time.perf_counter() - start
        at_peak = info["peak_gamma"] == info["grid_point_nearest_gamma_c"]
        ok = at_peak and flank > 0.2 and elapsed < budget_s
        report(
            3,
            ok,
            f"peak at gamma={info['peak_gamma']:.4f} (gamma_c={gc}), "
            f"flank asymmetry {100*flank:.0f}% > 20%, {elapsed:.0f}s",
        )
        assert at_peak
        assert flank > 0.2
        assert elapsed < budget_s


class TestCriterion4CriticalExponents:
    def test_divergence_slopes(self, tmp_path):
        budget_s = 60.0
        start = time.perf_counter()
        cfg = {"experiment": "critical-exponent", "params": {"h": 0.6}}
        result = run_experiment(cfg, out_dir=tmp_path)
        fits = {f["name"]: f for f in result.summary["results"]["fits"]}
        above = fits["slope_above"]["value"]
        below = fits["slope_below"]["value"]
        elapsed = time.perf_counter() - start
        ok = abs(above + 3.0) <= 0.3 and abs(below + 2.0) <= 0.3 and elapsed < budget_s
        report(4, ok, f"slope_above={above:.3f} (-3+-0.3), slope_below={below:.3f} (-2+-0.3), {elapsed:.0f}s")
        assert abs(above + 3.0) <= 0.3
        assert abs(below + 2.0) <= 0.3
        assert elapsed < budget_s


class TestCriterion5QuenchOracle:
    def test_three_way_equivalence(self):
        budget_s = 300.0
        start = time.perf_counter()
        worst_modes = 0.0
        worst_ed = 0.0
        for n in (4, 6, 8):
            for h in (0.1, 0.3, 0.6):
                for gamma in (0.5, 2.0, 4.5):
                    p = ModelParams(n, h, gamma)
                    gs, _ = ed.dense_ground_state(p)
                    for t in (0.3, 1.0, 3.0):
                        f_modes = qfi_quench(p, t)
                        f_fd = ed.qfi_finite_difference(p, t, gs)
                        f_sn = ed.o_covariance_qfi(p, t, gs)
                        scale = max(abs(f_fd), 1e-12)
                        worst_modes = max(worst_modes, abs(f_modes - f_fd) / scale)
                        worst_ed = max(worst_ed, abs(f_sn - f_fd) / scale)
        elapsed = time.perf_counter() - start
        ok = worst_modes <= 1e-5 and worst_ed <= 1e-6 and elapsed < budget_s
        report(
            5,
            ok,
            f"max |modes - fd|/fd = {worst_modes:.2e} <= 1e-5, "
            f"max |sneddon - fd|/fd = {worst_ed:.2e} <= 1e-6, {elapsed:.0f}s",
        )
        assert worst_modes <= 1e-5
        assert worst_ed <= 1e-6
        assert elapsed < budget_s


class TestCriterion6WitnessOracle:
    def test_pfaffian_pipeline_vs_dense_variance(self):
        budget_s = 300.0
        start = time.perf_counter()
        worst = 0.0
        times = (0.5, 2.0, 5.0)
        for n in (4, 6, 8, 10):
            for gamma in (0.75, 4.5):
                p = ModelParams(n, 0.0, gamma, "open")
                state = init_state(n)
                dense = ed.dense_vacuum(n)
                done = 0.0
                for t in times:
                    state = evolve(state, p, 0.05, int(round((t - done) / 0.05)))
                    dense = ed.evolve_dense(p, t - done, dense)
                    done = t
                    f_gauss = witness_qfi(state)
                    f_dense = 4.0 * ed.sx_variance_dense(dense)
                    worst = max(worst, abs(f_gauss - f_dense) / max(abs(f_dense), 1e-12))
        elapsed = time.perf_counter() - start
        ok = worst <= 1e-6 and elapsed < budget_s
        report(6, ok, f"max relative deviation {worst:.2e} <= 1e-6, {elapsed:.0f}s")
        assert worst <= 1e-6
        assert elapsed < budget_s


class TestCriterion7StructuralInvariants:
    def test_r_matrix_closed_form_vs_quadrature_200_points(self):
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(200):
            h = rng.uniform(-0.95, 0.95)
            gamma = rng.uniform(0.0, 6.0)
            k = rng.uniform(0.05, np.pi - 0.05)
            t = rng.uniform(0.0, 4.0)
            p = ModelParams(8, h, gamma)
            mode = mode_system(p, k)
            r = r_matrix(mode, t)
            rc = (r[0, 0], r[0, 1], r[1, 0])
            rq = quadrature_entries(mode, t)
            scale = max(1.0, *(abs(x) for x in rc))
            delta = max(abs(a - b) for a, b in zip(rc, rq)) / scale
            worst = max(worst, delta)
        report(7, worst <= 1e-8, f"(a) closed-form vs quadrature over 200 samples: {worst:.2e} <= 1e-8")
        assert worst <= 1e-8

    def test_pfaffian_squares_to_determinant_up_to_16(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for n in range(2, 17, 2):
            for _ in range(8):
                x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
                a = x - x.T
                det = np.linalg.det(a)
                worst = max(worst, abs(pfaffian(a) ** 2 - det) / max(abs(det), 1e-30))
        report(7, worst <= 1e-10, f"(b) Pf^2 = det up to 16x16: {worst:.2e} <= 1e-10")
        assert worst <= 1e-10

    def test_frame_orthonormality_every_step(self):
        p = ModelParams(16, 0.0, 2.0, "open")
        state = init_state(16)
        worst = 0.0
        for _ in range(40):
            state = evolve(state, p, 0.05, 1)
            worst = max(worst, state.orthonormality_defect())
        report(7, worst <= 1e-10, f"(c) U+U + V+V = I after every step: {worst:.2e} <= 1e-10")
        assert worst <= 1e-10

    def test_rate_qfi_vanishes_at_time_zero_both_scenarios(self):
        f_quench = qfi_quench(ModelParams(16, 0.3, 1.5), 0.0)
        p_open = ModelParams(6, 0.0, 1.5, "open")
        f_witness_scenario = ed.qfi_finite_difference(p_open, 0.0, ed.dense_vacuum(6))
        ok = f_quench == 0.0 and abs(f_witness_scenario) < 1e-8
        report(7, ok, f"(d) F(0): quench {f_quench}, witness-scenario {f_witness_scenario:.1e}")
        assert f_quench == 0.0
        assert abs(f_witness_scenario) < 1e-8

    def test_norm_conservation_at_zero_rate(self):
        p = ModelParams(32, 0.6, 0.0)
        amps = ising_ground_amplitudes(p)
        worst = 0.0
        for t in np.linspace(0.0, 50.0, 11):
            out = evolve_amplitudes(amps, p, float(t))
            norms = np.abs(out.u) ** 2 + np.abs(out.v) ** 2
            worst = max(worst, float(np.max(np.abs(norms - 1.0))))
        report(7, worst <= 1e-12, f"(e) gamma=0 norm conservation: {worst:.2e} <= 1e-12")
        assert worst <= 1e-12

    def test_longtime_decomposition_converges_above_gamma_c(self):
        p = ModelParams(32, 0.3, 4.0)
        plateau = fbar(p)
        errs = [
            abs(qfi_quench(p, t) - plateau) / qfi_quench(p, t) for t in (2.0, 3.0, 4.0, 5.0, 6.0)
        ]
        decreasing = all(b <= a * 1.001 for a, b in zip(errs, errs[1:]))
        ok = decreasing and errs[-1] < 0.05
        report(7, ok, f"(f) decomposition error decreasing {['%.1e' % e for e in errs]}")
        assert decreasing
        assert errs[-1] < 0.05


class TestCriterion8Determinism:
    def test_reruns_are_byte_identical(self, tmp_path):
        configs = {
            "fbar-sweep": {
                "experiment": "fbar-sweep",
                "params": {"h": 0.6, "n_sites": 64, "points_per_side": 10},
            },
            "quench-series": {
                "experiment": "quench-series",
                "params": {
                    "n_sites": 32,
                    "h": 0.3,
                    "gamma": 2.0,
                    "times": [float(t) for t in np.linspace(0.1, 1.2, 12)],
                },
            },
            "witness-scaling": {
                "experiment": "witness-scaling",
                "params": {"sizes": [8, 12, 16], "gamma": 0.75, "measure_time": 1.0},
            },
            "spectrum": {"experiment": "spectrum", "params": {"n_sites": 32, "h": 0.3, "gamma": 2.0}},
        }
        all_ok = True
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for name, cfg in configs.items():
                outs = []
                for tag in ("a", "b", "c"):
                    out = tmp_path / f"{name}-{tag}"
                    run_experiment(json.loads(json.dumps(cfg)), out_dir=out)
                    outs.append(out)
                csv_blobs = [(o / f"{name}.csv").read_bytes() for o in outs]
                jsons = []
                for o in outs:
                    data = json.loads((o / f"{name}.json").read_text())
                    data.pop("wall_time_s")
                    jsons.append(data)
                same = csv_blobs[0] == csv_blobs[1] == csv_blobs[2] and jsons[0] == jsons[1] == jsons[2]
                all_ok = all_ok and same
        report(8, all_ok, "reruns byte-identical (wall time aside)")
        assert all_ok
