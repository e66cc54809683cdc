import re
import warnings

import numpy as np
import pytest
from _reference import quadrature_entries

from mipt_qfi import qfi
from mipt_qfi._entire import phi3
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
    spectrum_table,
)
from mipt_qfi.quench import evolve_amplitudes, ising_ground_amplitudes


class TestRMatrix:
    def test_time_zero_vanishes(self):
        p = ModelParams(8, 0.3, 2.0)
        mode = mode_system(p, 3 * np.pi / 8)
        r = r_matrix(mode, 0.0)
        assert r.shape == (2, 2) and not np.any(r)

    def test_vanishing_pairing_commutes(self):
        # analytic continuation k -> 0: beta -> 0 and the generator
        # commutes with the mode matrix, so R = diag(t, -t)
        p = ModelParams(8, 0.3, 2.0)
        mode = mode_system(p, 1e-9)
        r = r_matrix(mode, 1.3)
        assert r[0, 0] == pytest.approx(1.3, rel=1e-12)
        # off-diagonal entries vanish linearly with the pairing strength
        bound = 10.0 * mode.beta * (1.3**2) * (1.0 + abs(mode.alpha) * 1.3)
        assert abs(r[0, 1]) < bound and abs(r[1, 0]) < bound
        assert abs(r[0, 1]) < 1e-7 and abs(r[1, 0]) < 1e-7

    def test_closed_form_equals_quadrature_at_reference_point(self):
        p = ModelParams(8, 0.3, 2.0)
        mode = mode_system(p, 3 * np.pi / 8)
        r = r_matrix(mode, 1.3)
        quad = quadrature_entries(mode, 1.3)
        for a, b in zip((r[0, 0], r[0, 1], r[1, 0]), quad):
            assert abs(a - b) < 1e-9

    def test_traceless_layout(self):
        p = ModelParams(8, 0.5, 1.0)
        mode = mode_system(p, np.pi / 8)
        arr = r_matrix(mode, 0.7)
        assert arr[1, 1] == -arr[0, 0]

    def test_grid_call_stacks_the_per_mode_matrices(self):
        p = ModelParams(12, 0.5, 1.0)
        ks = momentum_grid(12)
        grid = r_matrix(mode_system(p, ks), 0.7)
        assert grid.shape == (ks.size, 2, 2)
        for k, r in zip(ks, grid):
            np.testing.assert_allclose(r, r_matrix(mode_system(p, float(k)), 0.7), rtol=1e-14)

    def test_rejects_negative_time(self):
        p = ModelParams(8, 0.3, 2.0)
        mode = mode_system(p, np.pi / 8)
        with pytest.raises(ValueError):
            r_matrix(mode, -1.0)

    def test_quadrature_stall_reports_achieved_tolerance(self):
        from mipt_qfi.errors import QuadratureError

        p = ModelParams(8, 0.3, 2.0)
        mode = mode_system(p, np.pi / 8)
        with pytest.raises(QuadratureError) as err:
            quadrature_entries(mode, 2.0, rel_tol=1e-30)
        assert err.value.achieved > 0.0


class TestQuenchQfi:
    def test_time_zero_is_exactly_zero(self):
        assert qfi_quench(ModelParams(16, 0.3, 1.0), 0.0) == 0.0

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError, match="time must be >= 0"):
            qfi_quench(ModelParams(8, 0.3, 1.0), -1.0)

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

    @pytest.mark.parametrize("pair", [np.zeros(2), np.full(2, np.nan)], ids=["zero", "nan"])
    def test_collapsed_pair_is_a_numerical_fault(self, monkeypatch, pair):
        # the covariance divides by the pair's norm, so a collapsed pair
        # leaves a non-finite F
        monkeypatch.setattr(qfi, "ising_ground_amplitudes", lambda mode: (pair, pair))
        with pytest.raises(NumericalFault, match="round-off"):
            qfi_quench(ModelParams(4, 0.3, 1.0), 0.7)

    @pytest.mark.parametrize("n", [6, 10])
    @pytest.mark.parametrize("h", [-0.5, 0.0, 0.3, 0.6])
    @pytest.mark.parametrize("gamma", [0.0, 0.5, 2.0, 4.0])
    def test_equals_ascending_sum_of_per_mode_covariances(self, n, h, gamma):
        # h = 0, gamma = 4 puts the exceptional point eps = 0 on k = pi/2
        p = ModelParams(n, h, gamma)
        for t in (0.7, 2.5):
            mode = mode_system(p, momentum_grid(n))
            u, v = evolve_amplitudes(mode, *ising_ground_amplitudes(mode), t)
            expected = 0.0
            for i, k in enumerate(mode.k):
                r = r_matrix(mode_system(p, float(k)), t)
                w = np.array([u[i], v[i]])
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

    def test_time_past_the_float_cube_raises_typed_error(self):
        # t**3 on a Python float raised OverflowError from t ~ 5.6e102 on
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalFault):
                qfi_quench(ModelParams(8, 0.3, 2.0), 1e300)

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
        # no mode decays at gamma = 0, so each F_k is the t^2-law coefficient,
        # which vanishes on the quench initial state: an eigenvector of M_k
        p = ModelParams(8, 0.3, 0.0)
        assert np.all(mode_system(p, momentum_grid(8)).Gamma == 0.0)
        np.testing.assert_allclose(mode_qfi_coefficients(p), 0.0, rtol=0, atol=1e-30)

    def test_critical_grid_mode_carries_its_t2_coefficient(self):
        # h = 0 puts k_c = pi/2 on the N = 6 grid; below gamma_c its pair is
        # real and F_k is the t^2-law coefficient of the off-grid formula
        p = ModelParams(6, 0.0, 2.0)
        f_k = mode_qfi_coefficients(p)
        assert f_k[1] == pytest.approx(critical_mode_coefficient(0.0, 2.0), rel=1e-12)

    def test_generic_modes_not_degenerate(self):
        p = ModelParams(16, 0.3, 2.0)
        mode = mode_system(p, momentum_grid(16))
        assert np.all(np.abs(mode.Gamma) > qfi.DEGENERATE_GAMMA_TOL * np.maximum(1.0, np.abs(mode.eps)))
        assert np.all(mode_qfi_coefficients(p) >= 0)
        assert np.all(mode.Gamma < 0)

    def test_coefficients_ascending_in_k(self):
        # F_k = beta^2 |u~^2 + v~^2|^2 / (4 |eps^2|^2) on the dominant
        # eigenvector (u~, v~) of M_k, one entry per grid momentum in order
        p = ModelParams(16, 0.5, 1.0)
        ks = momentum_grid(16)
        assert np.all(np.diff(ks) > 0)
        mode = mode_system(p, ks)
        blocks = np.stack([np.stack([mode.alpha, mode.beta + 0j], axis=-1),
                           np.stack([mode.beta + 0j, -mode.alpha], axis=-1)], axis=-2)
        vals, vecs = np.linalg.eig(blocks)
        dominant = vecs[np.arange(ks.size), :, np.argmax(vals.imag, axis=-1)]
        expected = mode.beta**2 * np.abs(np.sum(dominant**2, axis=-1)) ** 2 / (4.0 * np.abs(mode.eps) ** 4)
        f_k = mode_qfi_coefficients(p)
        assert f_k.shape == ks.shape
        np.testing.assert_allclose(f_k, expected, rtol=1e-12)

    def test_tilde_entries_time_independent(self):
        # two independent builds agree identically
        p = ModelParams(16, 0.3, 2.0)
        a = qfi._tilde_entries(mode_system(p, momentum_grid(16)))
        b = qfi._tilde_entries(mode_system(p, momentum_grid(16)))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_corrupted_tilde_coefficient_raises(self, monkeypatch):
        p = ModelParams(16, 0.3, 2.0)
        k_bad = momentum_grid(16)[5]
        clean = qfi._tilde_entries

        def corrupted(mode):
            ta, tb, tc = clean(mode)
            return ta, np.where(mode.k == k_bad, tb * (1.0 + 1e-6), tb), tc

        monkeypatch.setattr(qfi, "_tilde_entries", corrupted)
        with pytest.raises(NumericalFault, match=f"k = {k_bad:.6f}"):
            mode_qfi_coefficients(p)

    def test_growing_entry_reconstructs_closed_form(self):
        # At e^{2 i eps t} + (linear and decaying pieces) must reproduce
        # the closed-form A(t) on every mode
        p = ModelParams(12, 0.4, 3.0)
        mode = mode_system(p, momentum_grid(12))
        tilde_a, _, _ = qfi._tilde_entries(mode)
        t = 1.1
        r = r_matrix(mode, t)
        eps = mode.eps
        lin = mode.alpha**2 / eps**2 * t
        rebuilt = lin + tilde_a * (np.exp(2j * eps * t) - np.exp(-2j * eps * t))
        np.testing.assert_allclose(r[:, 0, 0], rebuilt, rtol=1e-9, atol=1e-9)


class TestFbar:
    def test_dominates_every_mode(self):
        p = ModelParams(32, 0.6, 2.0)
        f_k = mode_qfi_coefficients(p)
        assert fbar(p) == pytest.approx(float(np.sum(f_k)), rel=1e-15)
        assert fbar(p) >= np.max(f_k)

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

    @pytest.mark.parametrize("n", [6, 10])
    def test_just_below_the_grid_exceptional_point_is_right_or_refused(self, n):
        # the 50-digit plateau is 4.00000001862e16; without the tilde
        # factorization check the float evaluation returned 1.25e7
        try:
            value = fbar(ModelParams(n, 0.0, 4.0 - 1e-8))
        except NumericalFault:
            return
        assert value == pytest.approx(4.00000001862e16, rel=1e-6)

    def test_exceptional_point_between_grid_momenta_stays_finite(self):
        assert fbar(ModelParams(8, 0.0, 4.0)) == pytest.approx(0.10597, rel=1e-4)

    def test_non_finite_sum_raises(self, monkeypatch):
        f_k = qfi.mode_qfi_coefficients(ModelParams(8, 0.6, 2.0))
        f_k[1] = np.nan
        monkeypatch.setattr(qfi, "mode_qfi_coefficients", lambda params: f_k)
        with pytest.raises(NumericalFault, match="Fbar is not finite"):
            fbar(ModelParams(8, 0.6, 2.0))

    @pytest.mark.parametrize("gamma", [1e160, 1e308])
    def test_overflow_is_not_read_as_the_exceptional_point(self, gamma):
        # |eps|^2 = inf is within any share of |alpha|^2 + beta^2 = inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalFault, match=re.escape(f"not finite at gamma = {gamma!r}")):
                fbar(ModelParams(8, 0.3, gamma))

    @pytest.mark.parametrize("gamma", [1e3, 1e10, 1e50])
    def test_large_rate_approaches_the_strong_monitoring_limit(self, gamma):
        # F_k needs no exponential; the factorization probe used to evaluate
        # exp(2 |Gamma| t) at fixed t and fail with a nan residual from
        # gamma ~ 373 on.  gamma^4 Fbar tends to 32 at N = 8, h = 0.3
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = fbar(ModelParams(8, 0.3, gamma))
        assert gamma**4 * value == pytest.approx(32.0, rel=2e-6)

    @pytest.mark.parametrize("gamma", [1e103, 1e150])
    def test_extreme_rate_is_finite_or_a_quiet_fault(self, gamma):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                value = fbar(ModelParams(8, 0.3, gamma))
            except NumericalFault:
                return
        assert np.isfinite(value)

    @pytest.mark.parametrize("gamma", [1e150, 1e154])
    def test_rate_overflow_is_named(self, gamma):
        # eps^3 overflows while the mode spectrum is still finite; the
        # message used to read "tilde factorization failed ... (relative residual nan)"
        message = re.escape(f"rate gamma = {gamma!r} is too large: eps^3 overflows")
        with pytest.raises(NumericalFault, match=message):
            fbar(ModelParams(8, 0.3, gamma))

    def test_density_converges_with_grid_refinement(self):
        h, gamma = 0.6, 1.6
        a = fbar(ModelParams(64, h, gamma)) / 64
        b = fbar(ModelParams(128, h, gamma)) / 128
        assert abs(a - b) / b < 0.02


class TestPeriodicRule:
    @pytest.mark.parametrize(
        "entry",
        [
            lambda p: mode_system(p, momentum_grid(p.n_sites)),
            spectrum_table,
            mode_qfi_coefficients,
            fbar,
        ],
        ids=["mode_system", "spectrum_table", "mode_qfi_coefficients", "fbar"],
    )
    def test_open_chain_is_refused(self, entry):
        # an open chain has no momentum blocks; the periodic answer used to
        # come back for it
        with pytest.raises(ValueError, match="periodic chain"):
            entry(ModelParams(8, 0.3, 1.0, "open"))


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
        # eps**3 overflows to inf, which leaves a non-finite coefficient
        with pytest.raises(NumericalFault, match="not finite"):
            critical_mode_coefficient(0.3, 1e120)

    def test_finite_with_negative_decay_above(self):
        mode = critical_mode_system(0.6, 4.0)
        assert mode.Gamma < 0
        assert np.isfinite(critical_mode_coefficient(0.6, 4.0))


class TestPhi3:
    def test_matches_high_precision_over_every_angle(self):
        mp = pytest.importorskip("mpmath")
        radii = np.geomspace(1e-8, 4.0, 61)
        angles = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
        z = (radii[:, None] * np.exp(1j * angles)).ravel()
        with mp.workdps(40):
            expected = np.array([complex((mp.sin(x) - x) / x**3) for x in map(mp.mpc, z)])
        np.testing.assert_allclose(phi3(z), expected, rtol=1e-14, atol=0.0)

    def test_keeps_the_shape_of_its_argument(self):
        assert phi3(0.3).shape == ()
        assert phi3(np.full((2, 3), 2.0)).shape == (2, 3)
