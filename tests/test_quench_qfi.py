import re
import warnings

import numpy as np
import pytest

from mipt_qfi import qfi
from mipt_qfi.ed import dense_ground_state, qfi_finite_difference
from mipt_qfi.errors import NumericalFault
from mipt_qfi.qfi import (
    critical_mode_coefficient,
    fbar,
    mode_qfi_coefficients,
    qfi_quench,
    r_matrix,
)
from mipt_qfi.spectral import (
    ModelParams,
    critical_gamma,
    critical_mode_system,
    mode_system,
    momentum_grid,
)
from mipt_qfi.quench import evolve_amplitudes, ising_ground_amplitudes


class TestRMatrix:
    def test_time_zero_vanishes(self):
        p = ModelParams(8, 0.3, 2.0)
        mode, spec = mode_system(p, 3 * np.pi / 8)
        r = r_matrix(mode, spec, 0.0)
        assert r.A == 0 and r.B == 0 and r.C == 0

    def test_vanishing_pairing_commutes(self):
        # analytic continuation k -> 0: beta -> 0 and the generator
        # commutes with the mode matrix, so R = diag(t, -t)
        p = ModelParams(8, 0.3, 2.0)
        mode, spec = mode_system(p, 1e-9)
        r = r_matrix(mode, spec, 1.3)
        assert r.A == pytest.approx(1.3, rel=1e-12)
        # off-diagonal entries vanish linearly with the pairing strength
        bound = 10.0 * mode.beta * (1.3**2) * (1.0 + abs(mode.alpha) * 1.3)
        assert abs(r.B) < bound and abs(r.C) < bound
        assert abs(r.B) < 1e-7 and abs(r.C) < 1e-7

    def test_closed_form_equals_quadrature_at_reference_point(self):
        p = ModelParams(8, 0.3, 2.0)
        mode, spec = mode_system(p, 3 * np.pi / 8)
        rc = r_matrix(mode, spec, 1.3, "closed-form")
        rq = r_matrix(mode, spec, 1.3, "quadrature")
        for a, b in ((rc.A, rq.A), (rc.B, rq.B), (rc.C, rq.C)):
            assert abs(a - b) < 1e-9

    def test_traceless_layout(self):
        p = ModelParams(8, 0.5, 1.0)
        mode, spec = mode_system(p, np.pi / 8)
        arr = r_matrix(mode, spec, 0.7).as_array()
        assert arr[1, 1] == -arr[0, 0]

    def test_rejects_negative_time_and_unknown_method(self):
        p = ModelParams(8, 0.3, 2.0)
        mode, spec = mode_system(p, np.pi / 8)
        with pytest.raises(ValueError):
            r_matrix(mode, spec, -1.0)
        with pytest.raises(ValueError):
            r_matrix(mode, spec, 1.0, "monte-carlo")

    def test_quadrature_stall_reports_achieved_tolerance(self):
        from mipt_qfi.errors import QuadratureError
        from mipt_qfi.qfi import _quadrature_entries

        p = ModelParams(8, 0.3, 2.0)
        mode, spec = mode_system(p, np.pi / 8)
        with pytest.raises(QuadratureError) as err:
            _quadrature_entries(mode, spec, 2.0, rel_tol=1e-30)
        assert err.value.achieved > 0.0


class TestQuenchQfi:
    def test_time_zero_is_exactly_zero(self):
        assert qfi_quench(ModelParams(16, 0.3, 1.0), 0.0) == 0.0

    def test_matches_finite_difference_oracle(self):
        p = ModelParams(4, 0.3, 0.5)
        gs, _ = dense_ground_state(p)
        expected = qfi_finite_difference(p, 1.0, gs)
        assert qfi_quench(p, 1.0) == pytest.approx(expected, rel=1e-6)

    def test_nonnegative_over_parameter_sweep(self):
        for h, gamma, t in [(0.0, 0.5, 0.3), (0.3, 2.0, 1.5), (0.6, 4.0, 2.0), (0.9, 0.1, 5.0)]:
            assert qfi_quench(ModelParams(16, h, gamma), t) >= 0.0

    def test_requires_periodic_boundary(self):
        with pytest.raises(ValueError):
            qfi_quench(ModelParams(8, 0.3, 1.0, "open"), 1.0)

    @pytest.mark.parametrize("n", [6, 10])
    @pytest.mark.parametrize("h", [-0.5, 0.0, 0.3, 0.6])
    @pytest.mark.parametrize("gamma", [0.0, 0.5, 2.0, 4.0])
    def test_equals_ascending_sum_of_per_mode_covariances(self, n, h, gamma):
        # h = 0, gamma = 4 puts the exceptional point eps = 0 on k = pi/2
        p = ModelParams(n, h, gamma)
        for t in (0.7, 2.5):
            amps = evolve_amplitudes(ising_ground_amplitudes(p), p, t)
            expected = 0.0
            for i, k in enumerate(amps.k):
                r = r_matrix(*mode_system(p, float(k)), t).as_array()
                w = np.array([amps.u[i], amps.v[i]])
                w = w / np.linalg.norm(w)
                rw = r @ w
                expected += abs(-w[1] * rw[0] + w[0] * rw[1]) ** 2
            assert qfi_quench(p, t) == pytest.approx(expected, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("t", [8.0, 100.0, 200.0, 1e4])
    def test_raises_beyond_roundoff_floor(self, t):
        # above gamma_c the plateau is fbar = 0.054; round-off of the evolved
        # pairs, amplified by the growing R+ term, used to give 8.1e6 at t = 8,
        # and overflow gave inf at t = 100 and nan from t = 200 on
        with np.errstate(all="ignore"), pytest.raises(NumericalFault, match="round-off"):
            qfi_quench(ModelParams(16, 0.3, 6.0), t)

    def test_fault_beyond_the_floor_is_quiet(self):
        # the overflow on the way to inf used to print RuntimeWarnings first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalFault, match="round-off"):
                qfi_quench(ModelParams(16, 0.3, 6.0), 100.0)


class TestModeCoefficients:
    def test_limit_matches_full_qfi_above_transition(self):
        # gamma above gamma_c: every mode saturates, the sum of the
        # time-free coefficients is the late-time plateau
        p = ModelParams(32, 0.3, 4.0)
        plateau = fbar(p)
        ratio = qfi_quench(p, 6.0) / plateau
        assert ratio == pytest.approx(1.0, abs=0.05)

    def test_deviation_decreases_with_time_above_transition(self):
        p = ModelParams(32, 0.3, 4.0)
        plateau = fbar(p)
        errs = [abs(qfi_quench(p, t) - plateau) / qfi_quench(p, t) for t in (2.0, 3.0, 4.0, 5.0, 6.0)]
        assert all(b <= a * 1.001 for a, b in zip(errs, errs[1:]))

    def test_hermitian_limit_degenerates(self):
        coeffs = mode_qfi_coefficients(ModelParams(8, 0.3, 0.0))
        assert all(c.degenerate for c in coeffs)
        assert all(c.Gamma == 0.0 for c in coeffs)

    def test_generic_modes_not_degenerate(self):
        coeffs = mode_qfi_coefficients(ModelParams(16, 0.3, 2.0))
        assert not any(c.degenerate for c in coeffs)
        assert all(c.F_k >= 0 for c in coeffs)
        assert all(c.Gamma < 0 for c in coeffs)

    def test_coefficients_ascending_in_k(self):
        coeffs = mode_qfi_coefficients(ModelParams(16, 0.5, 1.0))
        ks = [c.k for c in coeffs]
        assert ks == sorted(ks)

    def test_tilde_entries_time_independent(self):
        # two independent builds agree identically
        p = ModelParams(16, 0.3, 2.0)
        a = mode_qfi_coefficients(p)
        b = mode_qfi_coefficients(p)
        for ca, cb in zip(a, b):
            assert ca.tilde_A == cb.tilde_A
            assert ca.tilde_B == cb.tilde_B
            assert ca.tilde_C == cb.tilde_C

    def test_corrupted_tilde_coefficient_raises(self, monkeypatch):
        p = ModelParams(16, 0.3, 2.0)
        k_bad = momentum_grid(16)[5]
        clean = qfi._tilde_entries

        def corrupted(mode, spec):
            ta, tb, tc = clean(mode, spec)
            return ta, np.where(mode.k == k_bad, tb * (1.0 + 1e-6), tb), tc

        monkeypatch.setattr(qfi, "_tilde_entries", corrupted)
        with pytest.raises(NumericalFault, match=f"k = {k_bad:.6f}"):
            mode_qfi_coefficients(p)

    def test_growing_entry_reconstructs_closed_form(self):
        # At e^{2 i eps t} + (linear and decaying pieces) must reproduce
        # the closed-form A(t) on every mode
        p = ModelParams(12, 0.4, 3.0)
        coeffs = mode_qfi_coefficients(p)
        for c in coeffs:
            mode, spec = mode_system(p, c.k)
            t = 1.1
            r = r_matrix(mode, spec, t)
            eps = spec.epsilon
            lin = mode.alpha**2 / eps**2 * t
            rebuilt = lin + c.tilde_A * (np.exp(2j * eps * t) - np.exp(-2j * eps * t))
            assert r.A == pytest.approx(rebuilt, rel=1e-9, abs=1e-9)


class TestFbar:
    def test_dominates_every_mode(self):
        p = ModelParams(32, 0.6, 2.0)
        coeffs = mode_qfi_coefficients(p)
        assert fbar(p) >= max(c.F_k for c in coeffs)

    def test_peaks_at_critical_rate(self):
        h = 0.6
        gc = critical_gamma(h)
        gammas = np.linspace(0.5 * gc, 1.5 * gc, 17)
        vals = [fbar(ModelParams(64, h, float(g))) for g in gammas]
        assert gammas[int(np.argmax(vals))] == pytest.approx(gc, abs=1e-12)

    @pytest.mark.parametrize("n", [6, 10])
    def test_exceptional_point_on_the_grid_is_named(self, n):
        # h = 0 puts k_c = pi/2 on the grid when N/2 is odd, and gamma = 4
        # is gamma_c there; eps = 0 then holds up to round-off only
        message = (
            r"exceptional point on the grid at k = 1\.570796: "
            r"gamma = gamma_c = 4, where the QFI plateau diverges"
        )
        p = ModelParams(n, 0.0, 4.0)
        with pytest.raises(NumericalFault, match=message):
            fbar(p)
        with pytest.raises(NumericalFault, match=message):
            mode_qfi_coefficients(p)

    def test_exceptional_point_between_grid_momenta_stays_finite(self):
        assert fbar(ModelParams(8, 0.0, 4.0)) == pytest.approx(0.10597, rel=1e-4)

    def test_non_finite_sum_raises(self, monkeypatch):
        coeffs = qfi._grid_coefficients(ModelParams(8, 0.6, 2.0))
        coeffs.F_k[1] = np.nan
        monkeypatch.setattr(qfi, "_grid_coefficients", lambda params: coeffs)
        with pytest.raises(NumericalFault, match="Fbar is not finite"):
            fbar(ModelParams(8, 0.6, 2.0))

    @pytest.mark.parametrize("gamma", [1e160, 1e308])
    def test_overflow_is_not_read_as_the_exceptional_point(self, gamma):
        # |eps|^2 = inf is within any share of |alpha|^2 + beta^2 = inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalFault, match=re.escape(f"not finite at gamma = {gamma!r}")):
                fbar(ModelParams(8, 0.3, gamma))

    def test_density_converges_with_grid_refinement(self):
        h, gamma = 0.6, 1.6
        a = fbar(ModelParams(64, h, gamma)) / 64
        b = fbar(ModelParams(128, h, gamma)) / 128
        assert abs(a - b) / b < 0.02


class TestCriticalModeCoefficient:
    def test_slope_above_is_minus_three(self):
        h = 0.6
        gc = critical_gamma(h)
        offsets = np.exp(np.linspace(-6, -2, 20))
        vals = [critical_mode_coefficient(h, gc + d) for d in offsets]
        slope = np.polyfit(np.log(offsets), np.log(vals), 1)[0]
        assert slope == pytest.approx(-3.0, abs=0.3)

    def test_slope_below_is_minus_two(self):
        h = 0.6
        gc = critical_gamma(h)
        offsets = np.exp(np.linspace(-6, -2, 20))
        vals = [critical_mode_coefficient(h, gc - d) for d in offsets]
        slope = np.polyfit(np.log(offsets), np.log(vals), 1)[0]
        assert slope == pytest.approx(-2.0, abs=0.3)

    def test_field_sign_symmetry(self):
        assert critical_mode_coefficient(0.6, 2.0) == critical_mode_coefficient(-0.6, 2.0)
        assert critical_mode_coefficient(0.3, 4.2) == critical_mode_coefficient(-0.3, 4.2)

    def test_diverges_at_critical_rate(self):
        with pytest.raises(ValueError):
            critical_mode_coefficient(0.6, critical_gamma(0.6))

    def test_overflow_raises(self):
        # alpha^2 overflows; the coefficient used to come back as nan
        with pytest.raises(NumericalFault, match="not finite"):
            critical_mode_coefficient(0.3, 1e160)

    def test_power_overflow_raises_typed_error(self):
        # eps**3 overflows, which Python complex arithmetic raises as OverflowError
        with pytest.raises(NumericalFault, match="not finite"):
            critical_mode_coefficient(0.3, 1e120)

    def test_finite_with_negative_decay_above(self):
        _, spec = critical_mode_system(0.6, 4.0)
        assert spec.Gamma < 0
        assert np.isfinite(critical_mode_coefficient(0.6, 4.0))
