import re
import warnings

import numpy as np
import pytest

from mipt_qfi.errors import NoCriticalPointError, NumericalFault
from mipt_qfi.spectral import (
    ModelParams,
    critical_gamma,
    critical_mode_system,
    critical_momentum,
    mode_system,
    momentum_grid,
    spectrum_table,
)


def gap_character(params, atol=1e-9):
    """Phase of the critical mode: 'real-gapped', 'critical' or 'imaginary-gapped'.

    Classifies by the sign of eps^2 at k_c, which equals
    4 (1 - h^2) - gamma^2 / 4 = (gamma_c^2 - gamma^2) / 4.
    """
    gc = critical_gamma(params.h)
    eps2 = (gc * gc - params.gamma * params.gamma) / 4.0
    if abs(eps2) <= atol:
        return "critical"
    return "real-gapped" if eps2 > 0 else "imaginary-gapped"


class TestMomentumGrid:
    def test_four_sites(self):
        np.testing.assert_allclose(momentum_grid(4), [np.pi / 4, 3 * np.pi / 4], rtol=1e-15)

    def test_two_sites_single_mode(self):
        np.testing.assert_allclose(momentum_grid(2), [np.pi / 2], rtol=1e-15)

    def test_eight_sites_uniform_spacing(self):
        ks = momentum_grid(8)
        assert ks.size == 4
        np.testing.assert_allclose(np.diff(ks), 2 * np.pi / 8, rtol=1e-15)

    @pytest.mark.parametrize("n", [32, 64, 126])
    def test_strictly_increasing_in_open_interval(self, n):
        ks = momentum_grid(n)
        assert np.all(np.diff(ks) > 0)
        assert ks[0] > 0 and ks[-1] < np.pi

    @pytest.mark.parametrize("n", [3, 7, 0, -4])
    def test_rejects_odd_or_tiny(self, n):
        with pytest.raises(ValueError):
            momentum_grid(n)


class TestModeSystem:
    def test_free_point(self):
        p = ModelParams(8, 0.0, 0.0)
        mode = mode_system(p, np.pi / 2)
        assert mode.alpha == pytest.approx(0.0)
        assert mode.beta == pytest.approx(2.0)
        assert mode.eps == pytest.approx(-2.0)

    @pytest.mark.parametrize("h,gamma", [(0.3, 1.0), (0.6, 3.0), (-0.5, 0.7)])
    def test_critical_momentum_entries(self, h, gamma):
        mode = critical_mode_system(h, gamma)
        assert mode.alpha == pytest.approx(-0.5j * gamma)
        assert mode.beta == pytest.approx(2.0 * np.sqrt(1 - h * h))
        eps2 = 4.0 * (1 - h * h) - gamma * gamma / 4.0
        assert mode.eps**2 == pytest.approx(eps2, rel=1e-12)

    def test_against_dense_eigensolver(self):
        p = ModelParams(8, 0.3, 2.0)
        mode = mode_system(p, np.pi / 4)
        m = np.array([[mode.alpha, mode.beta], [mode.beta, -mode.alpha]])
        eigs = np.linalg.eigvals(m)
        chosen = min(eigs, key=lambda e: (e.imag, e.real))
        assert mode.eps == pytest.approx(chosen, rel=1e-12)

    @pytest.mark.parametrize(
        "h,gamma", [(0.3, 1e200), (1e200, 0.5), (1e308, 0.0)], ids=["rate", "field", "largest-field"]
    )
    def test_overflowing_spectrum_names_both_parameters(self, h, gamma):
        # alpha^2 overflows; eps used to come back non-finite with a
        # RuntimeWarning, and the quench QFI then reported it as round-off
        p = ModelParams(8, h, gamma)
        message = re.escape(f"mode spectrum is not finite at gamma = {gamma!r}, h = {h!r}")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k in (momentum_grid(8), np.pi / 4):
                with pytest.raises(NumericalFault, match=message):
                    mode_system(p, k)

    def test_rejects_momentum_outside_domain(self):
        p = ModelParams(8, 0.3, 1.0)
        for k in (0.0, np.pi, -0.2, 4.0):
            with pytest.raises(ValueError):
                mode_system(p, k)

    # this field puts k_c exactly on a grid momentum: Re(alpha) = 0 there
    H_KC_ON_GRID = float(-np.cos(momentum_grid(64)[20]))

    @pytest.mark.parametrize("h", [-0.7, 0.0, 0.45, H_KC_ON_GRID])
    @pytest.mark.parametrize("gamma", [0.0, 1.3, 5.0])
    def test_eigenvalue_identity_on_grid(self, h, gamma):
        p = ModelParams(64, h, gamma)
        ks = momentum_grid(64)
        modes = mode_system(p, ks)
        on_kc = modes.alpha.real == 0.0
        assert on_kc.any() == (h == self.H_KC_ON_GRID)
        if gamma < critical_gamma(h):
            assert np.all(modes.Gamma[on_kc] == 0.0)
        assert np.all(modes.Gamma <= 0.0)
        assert np.all(modes.E[modes.Gamma == 0.0] <= 0.0)
        for i, k in enumerate(ks):
            mode = mode_system(p, float(k))
            assert (mode.k, mode.alpha, mode.beta) == (modes.k[i], modes.alpha[i], modes.beta[i])
            assert mode.eps == modes.eps[i]
            assert np.signbit([mode.E, mode.Gamma]).tolist() == np.signbit(
                [modes.E[i], modes.Gamma[i]]).tolist()
            lhs = mode.eps**2
            rhs = mode.alpha**2 + mode.beta**2
            assert abs(lhs - rhs) <= 1e-12 * abs(rhs)

    def test_branch_gamma_nonpositive(self):
        for h in (-0.5, 0.2, 0.9):
            for gamma in (0.0, 0.5, 2.0, 6.0):
                p = ModelParams(32, h, gamma)
                table = spectrum_table(p)
                assert np.all(table[:, 2] <= 0.0)

    def test_branch_continuity_along_gamma_sweep(self):
        # away from k_c the chosen branch must not jump between samples
        p0 = ModelParams(16, 0.3, 0.0)
        gammas = np.linspace(0.05, 2.5 * critical_gamma(0.3), 400)
        for k in momentum_grid(16):
            eps = np.array(
                [mode_system(p0.with_gamma(float(g)), float(k)).eps for g in gammas]
            )
            jumps = np.abs(np.diff(eps))
            assert np.max(jumps) < 12.0 * (np.median(jumps) + 1e-9)


class TestCriticality:
    def test_critical_gamma_values(self):
        assert critical_gamma(0.0) == pytest.approx(4.0)
        assert critical_gamma(0.6) == pytest.approx(3.2)
        assert critical_gamma(1 - 1e-12) == pytest.approx(0.0, abs=1e-5)

    @pytest.mark.parametrize("h", [1.0, -1.0, 1.5, float("nan")])
    def test_no_critical_point_signal(self, h):
        with pytest.raises(NoCriticalPointError):
            critical_gamma(h)
        with pytest.raises(NoCriticalPointError):
            critical_momentum(h)

    def test_gap_character_examples(self):
        assert gap_character(ModelParams(8, 0.0, 2.0)) == "real-gapped"
        assert gap_character(ModelParams(8, 0.0, 4.0)) == "critical"
        assert gap_character(ModelParams(8, 0.6, 4.0)) == "imaginary-gapped"

    def test_gap_character_rejects_large_field(self):
        with pytest.raises(NoCriticalPointError):
            gap_character(ModelParams(8, 1.2, 1.0))

    def test_gamma_at_critical_momentum_exact_zero_below_gamma_c(self):
        for h in (0.0, 0.3, 0.6):
            gc = critical_gamma(h)
            for gamma in (0.0, 0.4 * gc, 0.95 * gc):
                mode = critical_mode_system(h, gamma)
                assert mode.Gamma == 0.0
                assert mode.E <= 0.0

    def test_spectrum_shape_across_transition(self):
        # below gamma_c: real gap at k_c, Gamma vanishes there;
        # above: real part closes at k_c while Gamma stays negative
        h = 0.3
        gc = critical_gamma(h)
        below = critical_mode_system(h, 0.5 * gc)
        assert abs(below.E) > 0.1 and below.Gamma == 0.0
        above = critical_mode_system(h, 1.5 * gc)
        assert above.E == pytest.approx(0.0, abs=1e-12) and above.Gamma < 0.0

    def test_spectrum_table_raises_on_overflow(self):
        # 2 h overflows to inf, so every E_k and Gamma_k used to be -inf
        with pytest.raises(NumericalFault, match="spectrum is not finite"):
            spectrum_table(ModelParams(8, 1e308, 2.0))


class TestModelParams:
    def test_rejects_bad_sizes(self):
        for n in (2, 5, 0):
            with pytest.raises(ValueError):
                ModelParams(n, 0.0, 1.0)

    def test_rejects_negative_gamma(self):
        with pytest.raises(ValueError):
            ModelParams(8, 0.0, -0.1)

    def test_rejects_nan_gamma(self):
        with pytest.raises(ValueError, match="gamma must be >= 0"):
            ModelParams(4, 0.3, float("nan"))

    def test_rejects_nan_field(self):
        with pytest.raises(ValueError, match="h must be a number"):
            ModelParams(4, float("nan"), 1.0)

    def test_rejects_unknown_boundary(self):
        with pytest.raises(ValueError):
            ModelParams(8, 0.0, 1.0, "twisted")
