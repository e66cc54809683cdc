import dataclasses
import time
import warnings

import numpy as np
import pytest
import scipy.linalg as sla

from mipt_qfi.ed import (
    DenseState,
    build_h_eff,
    build_hamiltonian,
    dense_ground_state,
    dense_vacuum,
    evolve_dense,
    o_covariance_qfi,
    occupation_profile,
    qfi_finite_difference,
    sx_expectation,
    sx_variance_dense,
    xx_correlator_dense,
)
from mipt_qfi.spectral import ModelParams

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def kron_site(op, site, n):
    """op on one site of the Kronecker product (site 0 leftmost), identity elsewhere."""
    out = np.array([[1.0 + 0j]])
    for j in range(n):
        out = np.kron(out, op if j == site else np.eye(2, dtype=complex))
    return out


def kron_operators(params):
    """Reference H and H_eff, built term by term from Kronecker products."""
    n = params.n_sites
    h_mat = np.zeros((2**n, 2**n), dtype=complex)
    for i in range(n if params.boundary == "periodic" else n - 1):
        h_mat -= kron_site(SX, i, n) @ kron_site(SX, (i + 1) % n, n)
    eye = np.eye(2**n, dtype=complex)
    h_mat -= params.h * sum(kron_site(SZ, i, n) for i in range(n))
    number = sum(0.5 * (eye + kron_site(SZ, i, n)) for i in range(n))
    return h_mat, h_mat - 0.5j * params.gamma * number


def occupations(n):
    """sum_i n_i of each basis state, bit 0 meaning n_i = 1."""
    return np.array([n - bin(x).count("1") for x in range(2**n)])


def parity_masks(n):
    """Even and odd fermion parity of each basis state."""
    occupied = occupations(n)
    return occupied % 2 == 0, occupied % 2 == 1


def random_state(n, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return DenseState(amps / np.linalg.norm(amps), n)


def simpson_sneddon_qfi(params, t, initial, wrt):
    """4 Var(O) with O = int_0^t e^{-i H_eff s} G e^{i H_eff s} ds by adaptive Simpson.

    Per parity sector in the eigenbasis of H_eff, the panel count doubling
    from 16 until two sums agree to 1e-10 of their largest entry.
    """
    n = params.n_sites
    gen = -0.5 * occupations(n) if wrt == "gamma" else 1j * (2 * occupations(n) - n)
    h_eff = build_h_eff(params)
    psi = evolve_dense(params, t, initial).amplitudes
    o_psi = np.zeros_like(psi)
    for mask in parity_masks(n):
        if not np.any(initial.amplitudes[mask]):
            continue
        vals, vecs = np.linalg.eig(h_eff[np.ix_(mask, mask)])
        vecs_inv = np.linalg.inv(vecs)
        gen_tilde = (vecs_inv * gen[mask]) @ vecs

        def composite(panels):
            nodes = np.linspace(0.0, t, 2 * panels + 1)
            w = np.ones(2 * panels + 1)
            w[1:-1:2] = 4.0
            w[2:-1:2] = 2.0
            w *= t / (2 * panels) / 3.0
            ea = np.exp(-1j * np.outer(nodes, vals))
            eb = np.exp(1j * np.outer(nodes, vals))
            return gen_tilde * ((ea * w[:, None]).T @ eb)

        prev = composite(16)
        for doubling in range(1, 13):
            cur = composite(16 * 2**doubling)
            if np.max(np.abs(cur - prev)) <= 1e-10 * np.max(np.abs(cur)):
                break
            prev = cur
        else:
            raise AssertionError("reference quadrature did not converge")
        o_psi[mask] = vecs @ (cur @ (vecs_inv @ psi[mask]))
    return 4.0 * (np.vdot(o_psi, o_psi).real - abs(np.vdot(psi, o_psi)) ** 2)


@dataclasses.dataclass(frozen=True)
class Chain:
    """ModelParams without its even-N >= 4 rule: the operators hold at any N."""

    n_sites: int
    h: float
    gamma: float
    boundary: str

    def with_gamma(self, gamma):
        return dataclasses.replace(self, gamma=gamma)


def ghz_x(n):
    """(|+...+> + |-...->)/sqrt(2) in the z basis."""
    plus = np.ones(2**n) / 2 ** (n / 2)
    signs = np.array([(-1) ** bin(i).count("1") for i in range(2**n)])
    minus = signs / 2 ** (n / 2)
    amps = (plus + minus) / np.sqrt(2)
    return DenseState(amps.astype(complex), n)


class TestEvolveDense:
    def test_time_zero_returns_normalized_initial(self):
        p = ModelParams(4, 0.3, 1.0)
        st = evolve_dense(p, 0.0, dense_vacuum(4))
        expected = dense_vacuum(4).amplitudes
        np.testing.assert_allclose(st.amplitudes, expected, atol=1e-14)

    def test_hermitian_evolution_preserves_norm(self):
        import scipy.linalg as sla

        p = ModelParams(6, 0.3, 0.0)
        h = build_hamiltonian(p)
        psi = sla.expm(-1j * 2.0 * h) @ dense_vacuum(6).amplitudes
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-12

    def test_size_cap(self):
        with pytest.raises(ValueError):
            dense_vacuum(14)


class TestQfiOracles:
    def test_time_zero_vanishes(self):
        p = ModelParams(4, 0.3, 0.5)
        gs, _ = dense_ground_state(p)
        assert qfi_finite_difference(p, 0.0, gs) == pytest.approx(0.0, abs=1e-8)
        assert o_covariance_qfi(p, 0.0, gs) == pytest.approx(0.0, abs=1e-12)

    def test_double_oracle_identity(self):
        # the two independent QFI routes agree over a parameter grid
        for h in (0.2, 0.5, 0.8):
            for gamma in (0.3, 1.0, 3.0):
                p = ModelParams(4, h, gamma)
                gs, _ = dense_ground_state(p)
                for t in (0.4, 1.1, 2.0):
                    f_fd = qfi_finite_difference(p, t, gs)
                    f_cov = o_covariance_qfi(p, t, gs)
                    assert f_fd == pytest.approx(f_cov, rel=1e-6, abs=1e-9)

    def test_stable_under_delta_halving(self):
        p = ModelParams(4, 0.3, 0.5)
        gs, _ = dense_ground_state(p)
        a = qfi_finite_difference(p, 1.0, gs, delta=1e-5)
        b = qfi_finite_difference(p, 1.0, gs, delta=5e-6)
        assert a == pytest.approx(b, rel=1e-6)

    def test_hermitian_field_estimation_from_eigenbasis(self):
        # at gamma = 0 both routes must match the closed eigenbasis form
        # O_mn = dH_mn (1 - e^{-i (E_m - E_n) t}) / (E_m - E_n) (diag: t)
        # for the generator of field translations
        p = ModelParams(4, 0.7, 0.0)
        t = 1.3
        initial = dense_vacuum(4)
        h = build_hamiltonian(p)
        vals, vecs = np.linalg.eigh(h)
        sz_total = np.diag(2.0 * occupations(4) - 4.0)

        gen = vecs.conj().T @ (1j * sz_total) @ vecs
        diff = np.subtract.outer(vals, vals)
        with np.errstate(divide="ignore", invalid="ignore"):
            phase = np.where(
                np.abs(diff) > 1e-12,
                (1.0 - np.exp(-1j * diff * t)) / (1j * diff),
                t,
            )
        o_mat = vecs @ (gen * phase) @ vecs.conj().T
        psi = evolve_dense(p, t, initial).amplitudes
        o_psi = o_mat @ psi
        expected = 4.0 * (np.vdot(o_psi, o_psi).real - abs(np.vdot(psi, o_psi)) ** 2)

        assert o_covariance_qfi(p, t, initial, wrt="h") == pytest.approx(expected, rel=1e-8)
        assert qfi_finite_difference(p, t, initial, wrt="h") == pytest.approx(expected, rel=1e-6)

    def test_zero_step_raises_instead_of_nan(self):
        from mipt_qfi.errors import NumericalFault

        p = ModelParams(4, 0.3, 0.5)
        gs, _ = dense_ground_state(p)
        with np.errstate(invalid="ignore"), pytest.raises(NumericalFault, match="did not converge"):
            qfi_finite_difference(p, 1.0, gs, delta=0.0)

    def test_quadrature_size_cap(self):
        p = ModelParams(12, 0.3, 1.0)
        with pytest.raises(ValueError):
            o_covariance_qfi(p, 1.0, dense_vacuum(12))

    @pytest.mark.parametrize("wrt", ["gamma", "h"])
    @pytest.mark.parametrize("start", ["vacuum", "ground"])
    @pytest.mark.parametrize("n", [4, 6])
    def test_closed_form_matches_simpson_reference(self, n, start, wrt):
        p = ModelParams(n, 0.3, 2.0)
        initial = dense_vacuum(n) if start == "vacuum" else dense_ground_state(p)[0]
        for t in (0.5, 1.5):
            expected = simpson_sneddon_qfi(p, t, initial, wrt)
            assert o_covariance_qfi(p, t, initial, wrt=wrt) == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("gamma,t", [(2.0, 50.0), (4.0, 20.0)])
    def test_long_times_match_finite_difference(self, gamma, t):
        # exp(+i H_eff s) alone overflows at these times; the closed form
        # never forms it
        p = ModelParams(4, 0.3, gamma)
        f_fd = qfi_finite_difference(p, t, dense_vacuum(4))
        assert o_covariance_qfi(p, t, dense_vacuum(4)) == pytest.approx(f_fd, rel=1e-6)

    def test_large_decay_gap_matches_finite_difference(self):
        # e^{-i d t/2} sinc(d t/2) on the evolved coefficients used to
        # overflow for decay-rate gaps d ~ 100 at t = 30
        p = ModelParams(4, 0.3, 100.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = o_covariance_qfi(p, 30.0, dense_vacuum(4))
        assert value == pytest.approx(qfi_finite_difference(p, 30.0, dense_vacuum(4)), rel=1e-6)

    def test_non_finite_result_raises(self):
        from mipt_qfi.errors import NumericalFault

        # without decay the time integral grows like t, and t^2 = 1e400 overflows
        p = ModelParams(4, 0.3, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalFault, match="not finite"):
                o_covariance_qfi(p, 1e200, dense_vacuum(4))


class TestSxObservables:
    def test_product_state_variance(self):
        assert sx_variance_dense(dense_vacuum(4)) == pytest.approx(1.0, abs=1e-12)

    def test_ghz_ceiling(self):
        st = ghz_x(4)
        assert sx_variance_dense(st) == pytest.approx(4.0, abs=1e-12)

    def test_parity_keeps_sx_zero_along_evolution(self):
        for gamma in (0.75, 4.5):
            p = ModelParams(6, 0.0, gamma, "open")
            for t in (0.5, 2.0, 5.0):
                st = evolve_dense(p, t, dense_vacuum(6))
                assert abs(sx_expectation(st)) <= 1e-10

    def test_occupation_profile_vacuum(self):
        np.testing.assert_allclose(occupation_profile(dense_vacuum(4)), 0.0, atol=1e-14)


class TestCrossModuleOccupations:
    def test_periodic_occupation_profile_matches_mode_pipeline(self):
        from mipt_qfi.quench import evolve_amplitudes, ising_ground_amplitudes, site_occupation

        p = ModelParams(6, 0.3, 1.0)
        amps = evolve_amplitudes(ising_ground_amplitudes(p), p, 2.0)
        gs, _ = dense_ground_state(p)
        profile = occupation_profile(evolve_dense(p, 2.0, gs))
        # translation invariance: flat profile equal to the mode-side value
        np.testing.assert_allclose(profile, site_occupation(amps), atol=1e-10)


class TestGroundState:
    def test_even_sector_energy_matches_mode_sum(self):
        from mipt_qfi.spectral import mode_system, momentum_grid

        for n, h in [(4, 0.3), (8, 0.7)]:
            p = ModelParams(n, h, 0.0)
            _, e_dense = dense_ground_state(p)
            e_modes = sum(mode_system(p, float(k))[1].E for k in momentum_grid(n))
            assert e_dense == pytest.approx(e_modes, rel=1e-12)

    def test_open_chain_ground_is_global_minimum(self):
        p = ModelParams(6, 0.5, 0.0, "open")
        state, energy = dense_ground_state(p)
        vals, vecs = np.linalg.eigh(build_hamiltonian(p))
        assert energy == pytest.approx(vals[0], rel=1e-12)
        np.testing.assert_array_equal(state.amplitudes, vecs[:, 0])


class TestBitConvention:
    @pytest.mark.parametrize("boundary", ["periodic", "open"])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_operators_equal_kron_reference(self, n, boundary):
        # N = 2 periodic counts its one bond twice; odd N wraps across parities
        params = Chain(n, 0.3, 1.1, boundary)
        h_ref, h_eff_ref = kron_operators(params)
        np.testing.assert_array_equal(build_hamiltonian(params), h_ref)
        np.testing.assert_array_equal(build_h_eff(params), h_eff_ref)

    def test_observables_equal_kron_reference(self):
        n = 6
        st = random_state(n, 3)
        psi = st.amplitudes
        sx_psi = 0.5 * sum(kron_site(SX, i, n) for i in range(n)) @ psi
        mean = np.vdot(psi, sx_psi).real
        assert sx_expectation(st) == pytest.approx(mean, abs=1e-13)
        assert sx_variance_dense(st) == pytest.approx(np.vdot(sx_psi, sx_psi).real - mean**2, abs=1e-13)
        eye = np.eye(2**n, dtype=complex)
        occupations = [np.vdot(psi, 0.5 * (eye + kron_site(SZ, i, n)) @ psi).real for i in range(n)]
        np.testing.assert_allclose(occupation_profile(st), occupations, rtol=0, atol=1e-13)
        for i in range(n):
            assert xx_correlator_dense(st, i, i) == pytest.approx(1.0, abs=1e-13)
            for j in range(n):
                ref = np.vdot(psi, kron_site(SX, i, n) @ kron_site(SX, j, n) @ psi)
                assert abs(xx_correlator_dense(st, i, j) - ref) <= 1e-13


class TestParitySectors:
    # periodic N = 6, h = 0.3, gamma = 2, t = 1.5
    params = ModelParams(6, 0.3, 2.0)
    t = 1.5

    def test_h_eff_has_no_block_between_parities(self):
        even, odd = parity_masks(6)
        h_eff = build_h_eff(self.params)
        assert np.all(h_eff[np.ix_(even, odd)] == 0)
        assert np.all(h_eff[np.ix_(odd, even)] == 0)

    def test_mixed_parity_evolution_matches_full_matrix(self):
        initial = random_state(6, 5)
        full = sla.expm(-1j * self.t * kron_operators(self.params)[1]) @ initial.amplitudes
        full /= np.linalg.norm(full)
        evolved = evolve_dense(self.params, self.t, initial).amplitudes
        np.testing.assert_allclose(evolved, full, rtol=0, atol=1e-12)

    def test_mixed_parity_qfi_matches_full_space_eigenbasis(self):
        # F = 4 Var(O) with O = int_0^t e^{-i H_eff s} G e^{i H_eff s} ds in
        # closed form over the full-space eigenbasis of H_eff, G = -(1/2) sum n_i
        initial = random_state(6, 5)
        _, h_eff = kron_operators(self.params)
        vals, vecs = np.linalg.eig(h_eff)
        vecs_inv = np.linalg.inv(vecs)
        gen = vecs_inv @ np.diag(-0.5 * occupations(6)) @ vecs
        diff = np.subtract.outer(vals, vals)
        small = np.abs(diff) < 1e-12
        phase = np.where(
            small, self.t, (1.0 - np.exp(-1j * diff * self.t)) / (1j * np.where(small, 1.0, diff))
        )
        psi = sla.expm(-1j * self.t * h_eff) @ initial.amplitudes
        psi /= np.linalg.norm(psi)
        o_psi = vecs @ ((gen * phase) @ (vecs_inv @ psi))
        expected = 4.0 * (np.vdot(o_psi, o_psi).real - abs(np.vdot(psi, o_psi)) ** 2)
        assert o_covariance_qfi(self.params, self.t, initial) == pytest.approx(expected, rel=1e-9)
        assert qfi_finite_difference(self.params, self.t, initial) == pytest.approx(expected, rel=1e-9)

    def test_vacuum_start_leaves_odd_sector_exactly_zero(self):
        _, odd = parity_masks(6)
        evolved = evolve_dense(self.params, self.t, dense_vacuum(6)).amplitudes
        assert np.all(evolved[odd] == 0)
        assert np.linalg.norm(evolved) == pytest.approx(1.0, abs=1e-14)


class TestCostEnvelope:
    def test_ten_site_oracle_fits_budget(self):
        # parity-sector evolution and the generator integral take ~1.6 s here; full-space
        # exponentials of Kronecker-built operators took ~25 s
        p = ModelParams(10, 0.3, 2.0)
        start = time.perf_counter()
        gs, _ = dense_ground_state(p)
        f_fd = qfi_finite_difference(p, 1.0, gs)
        f_cov = o_covariance_qfi(p, 1.0, gs)
        elapsed = time.perf_counter() - start
        assert f_fd == pytest.approx(f_cov, rel=1e-6)
        assert elapsed < 10.0
