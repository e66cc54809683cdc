import numpy as np
import pytest
from _reference import mode_occupations, site_occupation
from scipy.integrate import solve_ivp

from mipt_qfi.quench import BogoliubovAmplitudes, evolve_amplitudes, ising_ground_amplitudes
from mipt_qfi.spectral import ModelParams, mode_system, momentum_grid


def mode_matrix(params, k):
    mode = mode_system(params, k)
    return np.array([[mode.alpha, mode.beta], [mode.beta, -mode.alpha]])


class TestGroundAmplitudes:
    def test_phase_convention_and_normalization(self):
        amps = ising_ground_amplitudes(ModelParams(32, 0.4, 0.0))
        assert np.all(amps.u.real > 0)
        assert np.all(np.abs(amps.u.imag) == 0)
        np.testing.assert_allclose(np.abs(amps.u) ** 2 + np.abs(amps.v) ** 2, 1.0, atol=1e-14)

    def test_large_field_is_fully_occupied(self):
        amps = ising_ground_amplitudes(ModelParams(16, 1e3, 0.0))
        assert np.all(np.abs(amps.u) > 1 - 1e-5)
        assert np.all(np.abs(amps.v) < 1e-2)
        assert np.all(mode_occupations(amps) > 1 - 1e-4)

    def test_free_point_symmetric_pair(self):
        # k = pi/2 sits on the N = 6 grid; there M(h=0) = [[0,2],[2,0]]
        amps = ising_ground_amplitudes(ModelParams(6, 0.0, 0.0))
        i = int(np.argmin(np.abs(amps.k - np.pi / 2)))
        assert amps.k[i] == pytest.approx(np.pi / 2)
        assert amps.u[i] == pytest.approx(1 / np.sqrt(2))
        assert amps.v[i] == pytest.approx(-1 / np.sqrt(2))

    def test_matches_dense_eigensolver(self):
        # k = pi/4 is on the N = 4 grid
        p = ModelParams(4, 0.3, 0.0)
        amps = ising_ground_amplitudes(p)
        m = mode_matrix(p, float(amps.k[0])).real
        vals, vecs = np.linalg.eigh(m)
        vec = vecs[:, 0] * np.sign(vecs[0, 0])
        assert amps.u[0] == pytest.approx(vec[0], rel=1e-12)
        assert amps.v[0] == pytest.approx(vec[1], rel=1e-12)

    @pytest.mark.parametrize("h", [-0.6, 0.0, 0.3, 2.0])
    def test_eigenvector_residual(self, h):
        p = ModelParams(64, h, 0.0)
        amps = ising_ground_amplitudes(p)
        for i, k in enumerate(amps.k):
            m = mode_matrix(p, float(k))
            eps = -np.sqrt((m[0, 0].real) ** 2 + (m[0, 1].real) ** 2)
            w = np.array([amps.u[i], amps.v[i]])
            assert np.linalg.norm(m @ w - eps * w) <= 1e-12

    def test_requires_periodic_boundary(self):
        with pytest.raises(ValueError):
            ising_ground_amplitudes(ModelParams(8, 0.3, 0.0, "open"))


class TestEvolution:
    def test_time_zero_is_identity(self):
        p = ModelParams(16, 0.3, 1.5)
        amps = ising_ground_amplitudes(p)
        out = evolve_amplitudes(amps, p, 0.0)
        np.testing.assert_array_equal(out.u, amps.u)
        np.testing.assert_array_equal(out.v, amps.v)

    def test_unitary_at_gamma_zero(self):
        p = ModelParams(16, 0.7, 0.0)
        amps = ising_ground_amplitudes(p)
        for t in (0.5, 5.0, 17.0, 50.0):
            out = evolve_amplitudes(amps, p, t)
            norms = np.abs(out.u) ** 2 + np.abs(out.v) ** 2
            np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_against_ode_integrator(self):
        # high-order adaptive integration of the mode equation of motion
        p = ModelParams(8, 0.3, 2.0)
        amps = ising_ground_amplitudes(p)
        k = 3 * np.pi / 8
        i = int(np.argmin(np.abs(amps.k - k)))
        assert amps.k[i] == pytest.approx(k)
        m = mode_matrix(p, k)

        def rhs(_, y):
            w = np.array([y[0] + 1j * y[1], y[2] + 1j * y[3]])
            dw = -1j * (m @ w)
            return [dw[0].real, dw[0].imag, dw[1].real, dw[1].imag]

        y0 = [amps.u[i].real, amps.u[i].imag, amps.v[i].real, amps.v[i].imag]
        sol = solve_ivp(rhs, (0.0, 1.7), y0, method="DOP853", rtol=1e-12, atol=1e-12)
        ref = np.array([sol.y[0, -1] + 1j * sol.y[1, -1], sol.y[2, -1] + 1j * sol.y[3, -1]])
        out = evolve_amplitudes(amps, p, 1.7)
        got = np.array([out.u[i], out.v[i]])
        assert np.max(np.abs(got - ref)) < 1e-9

    @pytest.mark.parametrize("h,gamma", [(0.3, 0.0), (0.3, 2.0), (0.6, 3.2), (0.0, 4.0)])
    def test_semigroup(self, h, gamma):
        p = ModelParams(16, h, gamma)
        amps = ising_ground_amplitudes(p)
        t1, t2 = 0.8, 1.9
        once = evolve_amplitudes(amps, p, t1 + t2)
        twice = evolve_amplitudes(evolve_amplitudes(amps, p, t1), p, t2)
        scale = np.max(np.abs(once.u)) + np.max(np.abs(once.v))
        assert np.max(np.abs(once.u - twice.u)) <= 1e-10 * scale
        assert np.max(np.abs(once.v - twice.v)) <= 1e-10 * scale

    def test_exceptional_point_is_smooth(self):
        # at gamma_c the critical mode matrix is defective; the closed form
        # must reduce to the Jordan expansion instead of blowing up
        h = 0.0
        p = ModelParams(6, h, 4.0)  # k = pi/2 on grid, gamma = gamma_c
        amps = ising_ground_amplitudes(ModelParams(6, h, 0.0))
        i = int(np.argmin(np.abs(amps.k - np.pi / 2)))
        out = evolve_amplitudes(amps, p, 2.3)
        m = mode_matrix(p, float(amps.k[i]))
        w0 = np.array([amps.u[i], amps.v[i]])
        # defective matrix with eps = 0: exp(-iMt) = I - iMt exactly
        expected = w0 - 1j * 2.3 * (m @ w0)
        got = np.array([out.u[i], out.v[i]])
        np.testing.assert_allclose(got, expected, atol=1e-10)

    def test_long_time_dominant_eigenvector(self):
        p = ModelParams(8, 0.3, 3.0)
        amps = ising_ground_amplitudes(p)
        out = evolve_amplitudes(amps, p, 14.0)
        i = amps.k.size - 1  # largest k has the strongest decay contrast
        mode = mode_system(p, float(amps.k[i]))
        wt = np.array([mode.beta, -mode.eps - mode.alpha])
        wt /= np.linalg.norm(wt)
        got = np.array([out.u[i], out.v[i]])
        overlap = abs(np.vdot(wt, got)) / np.linalg.norm(got)
        assert overlap > 1 - 1e-8

    def test_alternate_component_ordering_consistency(self):
        # the same dynamics written for the swapped component order
        # (u <-> v) must reproduce the closed form after swapping back
        p = ModelParams(8, 0.3, 2.0)
        amps = ising_ground_amplitudes(p)
        t = 1.3
        out = evolve_amplitudes(amps, p, t)
        for i, k in enumerate(amps.k):
            mode = mode_system(p, float(k))
            alpha, beta = mode.alpha, mode.beta
            eps = np.sqrt(alpha * alpha + beta * beta)
            # swapped-order solution: u' = v, v' = u
            u0, v0 = amps.v[i], amps.u[i]
            c, s = np.cos(eps * t), np.sin(eps * t) / eps
            ut = u0 * c - 1j * (beta * v0 - alpha * u0) * s
            vt = v0 * c - 1j * (beta * u0 + alpha * v0) * s
            assert out.u[i] == pytest.approx(vt, rel=1e-12, abs=1e-12)
            assert out.v[i] == pytest.approx(ut, rel=1e-12, abs=1e-12)

    def test_rejects_nonfinite_time(self):
        p = ModelParams(8, 0.3, 1.0)
        amps = ising_ground_amplitudes(p)
        with pytest.raises(ValueError):
            evolve_amplitudes(amps, p, np.inf)


class TestAmplitudeContainer:
    def test_rejects_collapsed_modes(self):
        k = momentum_grid(4)
        with pytest.raises(ValueError):
            BogoliubovAmplitudes(k, np.zeros(2, complex), np.zeros(2, complex))

    def test_rejects_shape_mismatch(self):
        k = momentum_grid(4)
        with pytest.raises(ValueError):
            BogoliubovAmplitudes(k, np.ones(3, complex), np.ones(2, complex))

    def test_site_occupation_half_filling_at_free_point(self):
        amps = ising_ground_amplitudes(ModelParams(8, 0.0, 0.0))
        assert site_occupation(amps) == pytest.approx(0.5, abs=1e-12)
