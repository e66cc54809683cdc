import numpy as np
import pytest
from _reference import mode_occupations, site_occupation
from scipy.integrate import solve_ivp

from mipt_qfi.quench import evolve_amplitudes, ising_ground_amplitudes
from mipt_qfi.spectral import ModelParams, mode_system, momentum_grid


def mode_matrix(params, k):
    mode = mode_system(params, k)
    return np.array([[mode.alpha, mode.beta], [mode.beta, -mode.alpha]])


def grid_ground(params):
    """The grid Mode of params and its ground pair (u, v)."""
    mode = mode_system(params, momentum_grid(params.n_sites))
    return (mode, *ising_ground_amplitudes(mode))


class TestGroundAmplitudes:
    def test_phase_convention_and_normalization(self):
        _, u, v = grid_ground(ModelParams(32, 0.4, 0.0))
        assert np.all(u.real > 0)
        assert np.all(np.abs(u.imag) == 0)
        np.testing.assert_allclose(np.abs(u) ** 2 + np.abs(v) ** 2, 1.0, atol=1e-14)

    def test_large_field_is_fully_occupied(self):
        _, u, v = grid_ground(ModelParams(16, 1e3, 0.0))
        assert np.all(np.abs(u) > 1 - 1e-5)
        assert np.all(np.abs(v) < 1e-2)
        assert np.all(mode_occupations(u, v) > 1 - 1e-4)

    def test_free_point_symmetric_pair(self):
        # k = pi/2 sits on the N = 6 grid; there M(h=0) = [[0,2],[2,0]]
        mode, u, v = grid_ground(ModelParams(6, 0.0, 0.0))
        i = int(np.argmin(np.abs(mode.k - np.pi / 2)))
        assert mode.k[i] == pytest.approx(np.pi / 2)
        assert u[i] == pytest.approx(1 / np.sqrt(2))
        assert v[i] == pytest.approx(-1 / np.sqrt(2))

    def test_matches_dense_eigensolver(self):
        # k = pi/4 is on the N = 4 grid
        p = ModelParams(4, 0.3, 0.0)
        mode, u, v = grid_ground(p)
        m = mode_matrix(p, float(mode.k[0])).real
        vals, vecs = np.linalg.eigh(m)
        vec = vecs[:, 0] * np.sign(vecs[0, 0])
        assert u[0] == pytest.approx(vec[0], rel=1e-12)
        assert v[0] == pytest.approx(vec[1], rel=1e-12)

    @pytest.mark.parametrize("h", [-0.6, 0.0, 0.3, 2.0])
    def test_eigenvector_residual(self, h):
        p = ModelParams(64, h, 0.0)
        mode, u, v = grid_ground(p)
        for i, k in enumerate(mode.k):
            m = mode_matrix(p, float(k))
            eps = -np.sqrt((m[0, 0].real) ** 2 + (m[0, 1].real) ** 2)
            w = np.array([u[i], v[i]])
            assert np.linalg.norm(m @ w - eps * w) <= 1e-12

    def test_monitored_mode_gives_the_unmonitored_pair(self):
        # only Re(alpha) and beta enter, so the rate of the mode is irrelevant
        _, u, v = grid_ground(ModelParams(16, 0.3, 2.5))
        _, u0, v0 = grid_ground(ModelParams(16, 0.3, 0.0))
        np.testing.assert_array_equal(u, u0)
        np.testing.assert_array_equal(v, v0)

    def test_site_occupation_half_filling_at_free_point(self):
        _, u, v = grid_ground(ModelParams(8, 0.0, 0.0))
        assert site_occupation(u, v) == pytest.approx(0.5, abs=1e-12)


class TestEvolution:
    def test_time_zero_is_identity(self):
        p = ModelParams(16, 0.3, 1.5)
        mode, u0, v0 = grid_ground(p)
        u, v = evolve_amplitudes(mode, u0, v0, 0.0)
        np.testing.assert_array_equal(u, u0)
        np.testing.assert_array_equal(v, v0)

    def test_unitary_at_gamma_zero(self):
        p = ModelParams(16, 0.7, 0.0)
        mode, u0, v0 = grid_ground(p)
        for t in (0.5, 5.0, 17.0, 50.0):
            u, v = evolve_amplitudes(mode, u0, v0, t)
            norms = np.abs(u) ** 2 + np.abs(v) ** 2
            np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_against_ode_integrator(self):
        # high-order adaptive integration of the mode equation of motion
        p = ModelParams(8, 0.3, 2.0)
        mode, u0, v0 = grid_ground(p)
        k = 3 * np.pi / 8
        i = int(np.argmin(np.abs(mode.k - k)))
        assert mode.k[i] == pytest.approx(k)
        m = mode_matrix(p, k)

        def rhs(_, y):
            w = np.array([y[0] + 1j * y[1], y[2] + 1j * y[3]])
            dw = -1j * (m @ w)
            return [dw[0].real, dw[0].imag, dw[1].real, dw[1].imag]

        y0 = [u0[i].real, u0[i].imag, v0[i].real, v0[i].imag]
        sol = solve_ivp(rhs, (0.0, 1.7), y0, method="DOP853", rtol=1e-12, atol=1e-12)
        ref = np.array([sol.y[0, -1] + 1j * sol.y[1, -1], sol.y[2, -1] + 1j * sol.y[3, -1]])
        u, v = evolve_amplitudes(mode, u0, v0, 1.7)
        got = np.array([u[i], v[i]])
        assert np.max(np.abs(got - ref)) < 1e-9

    @pytest.mark.parametrize("h,gamma", [(0.3, 0.0), (0.3, 2.0), (0.6, 3.2), (0.0, 4.0)])
    def test_semigroup(self, h, gamma):
        p = ModelParams(16, h, gamma)
        mode, u0, v0 = grid_ground(p)
        t1, t2 = 0.8, 1.9
        once = evolve_amplitudes(mode, u0, v0, t1 + t2)
        twice = evolve_amplitudes(mode, *evolve_amplitudes(mode, u0, v0, t1), t2)
        scale = np.max(np.abs(once[0])) + np.max(np.abs(once[1]))
        assert np.max(np.abs(once[0] - twice[0])) <= 1e-10 * scale
        assert np.max(np.abs(once[1] - twice[1])) <= 1e-10 * scale

    def test_exceptional_point_is_smooth(self):
        # at gamma_c the critical mode matrix is defective; the closed form
        # must reduce to the Jordan expansion instead of blowing up
        h = 0.0
        p = ModelParams(6, h, 4.0)  # k = pi/2 on grid, gamma = gamma_c
        _, u0, v0 = grid_ground(ModelParams(6, h, 0.0))
        mode = mode_system(p, momentum_grid(6))
        i = int(np.argmin(np.abs(mode.k - np.pi / 2)))
        u, v = evolve_amplitudes(mode, u0, v0, 2.3)
        m = mode_matrix(p, float(mode.k[i]))
        w0 = np.array([u0[i], v0[i]])
        # defective matrix with eps = 0: exp(-iMt) = I - iMt exactly
        expected = w0 - 1j * 2.3 * (m @ w0)
        got = np.array([u[i], v[i]])
        np.testing.assert_allclose(got, expected, atol=1e-10)

    def test_long_time_dominant_eigenvector(self):
        p = ModelParams(8, 0.3, 3.0)
        grid, u0, v0 = grid_ground(p)
        u, v = evolve_amplitudes(grid, u0, v0, 14.0)
        i = grid.k.size - 1  # largest k has the strongest decay contrast
        mode = mode_system(p, float(grid.k[i]))
        wt = np.array([mode.beta, -mode.eps - mode.alpha])
        wt /= np.linalg.norm(wt)
        got = np.array([u[i], v[i]])
        overlap = abs(np.vdot(wt, got)) / np.linalg.norm(got)
        assert overlap > 1 - 1e-8

    def test_alternate_component_ordering_consistency(self):
        # the same dynamics written for the swapped component order
        # (u <-> v) must reproduce the closed form after swapping back
        p = ModelParams(8, 0.3, 2.0)
        grid, u, v = grid_ground(p)
        t = 1.3
        out_u, out_v = evolve_amplitudes(grid, u, v, t)
        for i, k in enumerate(grid.k):
            mode = mode_system(p, float(k))
            alpha, beta = mode.alpha, mode.beta
            eps = np.sqrt(alpha * alpha + beta * beta)
            # swapped-order solution: u' = v, v' = u
            u0, v0 = v[i], u[i]
            c, s = np.cos(eps * t), np.sin(eps * t) / eps
            ut = u0 * c - 1j * (beta * v0 - alpha * u0) * s
            vt = v0 * c - 1j * (beta * u0 + alpha * v0) * s
            assert out_u[i] == pytest.approx(vt, rel=1e-12, abs=1e-12)
            assert out_v[i] == pytest.approx(ut, rel=1e-12, abs=1e-12)

    def test_rejects_nonfinite_time(self):
        p = ModelParams(8, 0.3, 1.0)
        mode, u0, v0 = grid_ground(p)
        with pytest.raises(ValueError):
            evolve_amplitudes(mode, u0, v0, np.inf)
