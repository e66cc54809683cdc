import dataclasses
import re
import time
import warnings

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sparse
from _reference import adaptive_simpson, occupation_profile, site_occupation, xx_correlator_dense
from scipy.sparse.linalg import expm_multiply

import mipt_qfi.ed as ed
from mipt_qfi._kernels import expm
from mipt_qfi.ed import (
    DenseState,
    build_h_eff,
    build_hamiltonian,
    dense_ground_state,
    dense_vacuum,
    evolve_dense,
    o_covariance_qfi,
    qfi_finite_difference,
    qfi_frechet,
    sx_variance_dense,
)
from mipt_qfi.errors import NumericalFault
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


def generator_diagonal(n):
    """G = d(-i H_eff)/d gamma = -(1/2) sum_i n_i on every basis state."""
    return -0.5 * occupations(n)


def occupied_blocks(params, initial):
    """(mask, H_eff block, amplitudes) of each parity sector the state occupies."""
    h_eff = build_h_eff(params)
    for mask in parity_masks(params.n_sites):
        if np.any(initial.amplitudes[mask]):
            yield mask, h_eff[np.ix_(mask, mask)], initial.amplitudes[mask]


def unreduced_evolve(params, t, initial):
    """Normalized e^{-i H_eff t} psi0 by the Pade exponential of each whole parity sector."""
    psi = np.zeros(2**params.n_sites, dtype=complex)
    for mask, block, amps in occupied_blocks(params, initial):
        psi[mask] = expm(-1j * t * block) @ amps
    return psi / np.linalg.norm(psi)


def unreduced_frechet_qfi(params, t, initial):
    """qfi_frechet on whole parity sectors, by scipy's truncated Taylor action.

    With X = -i t H_eff on a sector, the action of exp([[X, t G], [0, X]])
    on [0; psi0] is [L(X, t G) psi0; e^X psi0], L the Frechet derivative;
    `expm_multiply` (Al-Mohy and Higham 2011) forms it from sparse products.
    """
    gen = generator_diagonal(params.n_sites)
    psi = np.zeros(2**params.n_sites, dtype=complex)
    dpsi = np.zeros_like(psi)
    for mask, block, amps in occupied_blocks(params, initial):
        x = sparse.csr_matrix(-1j * t * block)
        pair = sparse.bmat([[x, sparse.diags(t * gen[mask])], [None, x]], format="csr")
        dpsi[mask], psi[mask] = np.split(expm_multiply(pair, np.concatenate([0 * amps, amps])), 2)
    return derivative_qfi(psi, dpsi)


def derivative_qfi(psi, dpsi):
    """F = 4 (|du|^2 - |<u, du>|^2) of u = psi/|psi|, from the derivative dpsi of psi."""
    norm = np.linalg.norm(psi)
    u, du = psi / norm, dpsi / norm
    du -= u * np.vdot(u, du).real
    return 4.0 * (np.vdot(du, du).real - abs(np.vdot(u, du)) ** 2)


def unreduced_covariance_qfi(params, times, initial):
    """o_covariance_qfi on whole parity sectors: F at each time.

    One eigendecomposition of each sector serves every time.
    """
    n = params.n_sites
    gen = generator_diagonal(n)
    blocks = []
    for mask, block, amps in occupied_blocks(params, initial):
        vals, vecs = np.linalg.eig(block)
        vecs_inv = np.linalg.inv(vecs)
        blocks.append((mask, vals, vecs, vecs_inv, vecs_inv @ amps))
    out = []
    for t in times:
        psi = np.zeros(2**n, dtype=complex)
        o_psi = np.zeros_like(psi)
        for mask, vals, vecs, vecs_inv, coeffs in blocks:
            phase = np.exp(-1j * t * vals)
            kernel = ed._integral_kernel(np.subtract.outer(vals, vals), phase, t)
            psi[mask] = vecs @ (phase * coeffs)
            o_psi[mask] = vecs @ ((((vecs_inv * gen[mask]) @ vecs) * kernel) @ coeffs)
        norm = np.linalg.norm(psi)
        psi, o_psi = psi / norm, o_psi / norm
        out.append(4.0 * (np.vdot(o_psi, o_psi).real - abs(np.vdot(psi, o_psi)) ** 2))
    return out


def sx_expectation(state):
    """<S_x> of a dense state, with S_x applied as in `ed.sx_variance_dense`."""
    return float(np.vdot(state.amplitudes, ed._sx_apply(state)).real)


def uniform_state(n):
    """Equal amplitudes on every basis state: both parity sectors, every orbit."""
    return DenseState(np.full(2**n, 2.0 ** (-n / 2), dtype=complex), n)


def simpson_sneddon_qfi(params, t, initial):
    """4 Var(O) with O = int_0^t e^{-i H_eff s} G e^{i H_eff s} ds by adaptive Simpson.

    Per parity sector in the eigenbasis of H_eff, by `adaptive_simpson`
    from 16 panels, up to 12 doublings, to 1e-10 of the largest entry.
    """
    n = params.n_sites
    gen = generator_diagonal(n)
    h_eff = build_h_eff(params)
    psi = evolve_dense(params, t, initial).amplitudes
    o_psi = np.zeros_like(psi)
    for mask in parity_masks(n):
        if not np.any(initial.amplitudes[mask]):
            continue
        vals, vecs = np.linalg.eig(h_eff[np.ix_(mask, mask)])
        vecs_inv = np.linalg.inv(vecs)
        gen_tilde = (vecs_inv * gen[mask]) @ vecs

        def weighted_sum(nodes, w):
            ea = np.exp(-1j * np.outer(nodes, vals))
            eb = np.exp(1j * np.outer(nodes, vals))
            return gen_tilde * ((ea * w[:, None]).T @ eb)

        integral = adaptive_simpson(weighted_sum, t, 16, 12, 1e-10, "generator")
        o_psi[mask] = vecs @ (integral @ (vecs_inv @ psi[mask]))
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
    @pytest.mark.parametrize("route, t", [
        (qfi_frechet, -1.0), (o_covariance_qfi, -1.0), (o_covariance_qfi, np.array([0.5, -1.0])),
    ])
    def test_negative_time_raises(self, route, t):
        with pytest.raises(ValueError, match="must be >= 0"):
            route(ModelParams(4, 0.3, 1.0, "open"), t, dense_vacuum(4))

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

    def test_stable_under_delta_halving(self, monkeypatch):
        p = ModelParams(4, 0.3, 0.5)
        gs, _ = dense_ground_state(p)
        values = []
        for step in (1e-5, 5e-6):
            monkeypatch.setattr(ed, "FD_STEP", step)
            values.append(qfi_finite_difference(p, 1.0, gs))
        assert values[0] == pytest.approx(values[1], rel=1e-6)

    def test_hermitian_rate_estimation_from_eigenbasis(self):
        # at gamma = 0, the smallest rate, both exact routes must match the
        # closed eigenbasis form
        # O_mn = G_mn (1 - e^{-i (E_m - E_n) t}) / (i (E_m - E_n)) (diag: t)
        # for the rate generator G = -(1/2) sum_i n_i; finite differences
        # cannot step below gamma = 0
        p = ModelParams(4, 0.7, 0.0)
        t = 1.3
        initial = dense_vacuum(4)
        h = build_hamiltonian(p)
        vals, vecs = np.linalg.eigh(h)

        gen = vecs.conj().T @ np.diag(generator_diagonal(4)) @ vecs
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

        assert expected > 0.0
        assert o_covariance_qfi(p, t, initial) == pytest.approx(expected, rel=1e-8)
        assert qfi_frechet(p, t, initial) == pytest.approx(expected, rel=1e-8)

    def test_zero_step_raises_instead_of_nan(self, monkeypatch):
        from mipt_qfi.errors import NumericalFault

        p = ModelParams(4, 0.3, 0.5)
        gs, _ = dense_ground_state(p)
        monkeypatch.setattr(ed, "FD_STEP", 0.0)
        with np.errstate(invalid="ignore"), pytest.raises(NumericalFault, match="did not converge"):
            qfi_finite_difference(p, 1.0, gs)

    def test_covariance_reaches_the_dense_cap(self):
        # one cap for every route: at N = 12 the vacuum sits on the periodic
        # even sector's 122 orbits
        p = ModelParams(ed.MAX_DENSE_SITES, 0.3, 1.0)
        vacuum = dense_vacuum(ed.MAX_DENSE_SITES)
        assert o_covariance_qfi(p, 1.0, vacuum) == pytest.approx(qfi_frechet(p, 1.0, vacuum), rel=1e-11)

    @pytest.mark.parametrize("start", ["vacuum", "ground"])
    @pytest.mark.parametrize("n", [4, 6])
    def test_closed_form_matches_simpson_reference(self, n, start):
        p = ModelParams(n, 0.3, 2.0)
        initial = dense_vacuum(n) if start == "vacuum" else dense_ground_state(p)[0]
        for t in (0.5, 1.5):
            expected = simpson_sneddon_qfi(p, t, initial)
            assert o_covariance_qfi(p, t, initial) == pytest.approx(expected, rel=1e-9)

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


class TestQfiFrechet:
    def test_matches_covariance_on_the_criterion_5_grid(self):
        times = (0.3, 1.0, 3.0)
        for n in (4, 6, 8):
            for h in (0.1, 0.3, 0.6):
                for gamma in (0.5, 2.0, 4.5):
                    p = ModelParams(n, h, gamma)
                    gs, _ = dense_ground_state(p)
                    covariance = o_covariance_qfi(p, np.array(times), gs)
                    for t, expected in zip(times, covariance):
                        assert qfi_frechet(p, t, gs) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("n", [4, 6])
    def test_whole_sectors_match_scipy_frechet(self, n):
        # a state without symmetry takes both whole sectors; the reference
        # takes (e^X, L(X, t G)) of each from scipy (N = 8 whole sectors are
        # checked against the unreduced reference in TestOrbitReduction)
        p, t = ModelParams(n, 0.3, 2.0), 1.5
        initial = random_state(n, 3)
        gen = generator_diagonal(n)
        psi = np.zeros(2**n, dtype=complex)
        dpsi = np.zeros_like(psi)
        for mask, block, amps in occupied_blocks(p, initial):
            exp_a, frechet = sla.expm_frechet(-1j * t * block, np.diag(t * gen[mask]))
            psi[mask], dpsi[mask] = exp_a @ amps, frechet @ amps
        expected = derivative_qfi(psi, dpsi)
        assert qfi_frechet(p, t, initial) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("start", ["orbits", "sectors"])
    def test_time_zero_is_exactly_zero(self, start):
        p = ModelParams(6, 0.3, 2.0)
        initial = dense_ground_state(p)[0] if start == "orbits" else random_state(6, 3)
        assert qfi_frechet(p, 0.0, initial) == 0.0

    def test_vacuum_start_never_touches_the_odd_sector(self, monkeypatch):
        blocks = []

        def recorded(a):
            blocks.append(a.copy())
            return expm(a)

        monkeypatch.setattr(ed, "expm", recorded)
        p = ModelParams(6, 0.3, 2.0)
        value = qfi_frechet(p, 1.5, dense_vacuum(6))
        # one block [[X, t G], [0, X]], X on the even sector's 8 orbits, of
        # which the vacuum is one
        assert [a.shape for a in blocks] == [(16, 16)]
        x = -1j * 1.5 * ed._orbit_generator(p, ed._sector_orbits(6, "periodic")[0])
        np.testing.assert_array_equal(blocks[0][:8, :8], x)
        np.testing.assert_array_equal(blocks[0][8:, 8:], x)
        assert value == pytest.approx(o_covariance_qfi(p, 1.5, dense_vacuum(6)), rel=1e-12)

    def test_exceptional_point_matches_finite_difference(self):
        # at h = 0, gamma = 4 the H_eff eigenbasis of N = 6 is defective
        # (cond 1.08e8 on the ground state's 8-orbit block, against the 1e8
        # limit), so the covariance route refuses; the block exponential
        # needs no eigenbasis
        p = ModelParams(6, 0.0, 4.0)
        gs, _ = dense_ground_state(p)
        with pytest.raises(NumericalFault, match="ill-conditioned"):
            o_covariance_qfi(p, 1.0, gs)
        for initial in (gs, dense_vacuum(6)):
            f_fd = qfi_finite_difference(p, 1.0, initial)
            assert qfi_frechet(p, 1.0, initial) == pytest.approx(f_fd, rel=1e-8)

    def test_degenerate_hermitian_point_without_orbit_symmetry(self):
        # h = gamma = 0: eig returned a singular eigenbasis of the whole
        # degenerate sector (cond 1.47e17); the Hermitian block takes eigh
        p = ModelParams(4, 0.0, 0.0)
        initial = random_state(4, 11)
        for t in (0.5, 1.0, 3.0):
            expected = qfi_frechet(p, t, initial)
            assert o_covariance_qfi(p, t, initial) == pytest.approx(expected, rel=1e-11)

    @pytest.mark.parametrize("n,initial", [(4, dense_vacuum(4)), (8, random_state(8, 3))])
    def test_huge_time_raises_naming_it(self, n, initial):
        # the N = 8 state takes both whole sectors, 256 x 256 blocks; the
        # squarings overflow about 60 in, of nearly 1000
        p = ModelParams(n, 0.3, 0.0)
        with pytest.raises(NumericalFault, match=r"overflowed at squaring .* at t = 1e\+300"):
            qfi_frechet(p, 1e300, initial)


class TestLongTimes:
    # the unnormalized state's norm underflowed by t = 1000, and every route
    # faulted with "dense evolution lost normalization"; the shift by the
    # slowest decay rate keeps the normalized answer
    @pytest.mark.parametrize("n,gamma", [(4, 0.75), (6, 4.5)])
    def test_evolve_dense_matches_the_gaussian_frame(self, n, gamma):
        from mipt_qfi.realspace import evolve, init_state, witness_qfi

        p = ModelParams(n, 0.0, gamma, "open")
        assert ed._shifts(p, 1000.0)
        dense = 4.0 * sx_variance_dense(evolve_dense(p, 1000.0, dense_vacuum(n)))
        assert dense == pytest.approx(witness_qfi(evolve(init_state(n), p, 1000.0, 1)), rel=1e-12)

    @pytest.mark.parametrize("route", [qfi_frechet, o_covariance_qfi])
    def test_qfi_keeps_its_converged_value(self, route):
        # the state has converged by t = 50, which takes no shift; at
        # t = 1000 both routes lose about 7 digits to the cancellation of
        # the t-growing phase derivative in F
        p = ModelParams(4, 0.3, 2.0)
        gs, _ = dense_ground_state(p)
        assert not ed._shifts(p, 50.0) and ed._shifts(p, 1000.0)
        assert route(p, 1000.0, gs) == pytest.approx(route(p, 50.0, gs), rel=1e-7)

    @pytest.mark.parametrize("initial", [dense_vacuum(6), random_state(6, 5)], ids=["orbits", "sectors"])
    def test_a_shift_at_an_ordinary_time_changes_no_route(self, monkeypatch, initial):
        p, t = ModelParams(6, 0.3, 2.0), 1.5

        def routes():
            psi = evolve_dense(p, t, initial).amplitudes
            return psi, qfi_frechet(p, t, initial), o_covariance_qfi(p, t, initial)

        psi0, f_exact0, f_cov0 = routes()
        monkeypatch.setattr(ed, "SHIFT_FROM", 0.0)
        psi, f_exact, f_cov = routes()
        np.testing.assert_allclose(psi, psi0, rtol=0, atol=1e-13)
        assert f_exact == pytest.approx(f_exact0, rel=1e-12)
        assert f_cov == pytest.approx(f_cov0, rel=1e-12)


class TestCovarianceTimeArray:
    TIMES = [0.0, 0.5, 1.5, 4.0]

    @pytest.mark.parametrize("start", ["orbits", "sectors"])
    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_array_equals_scalar_calls(self, n, start):
        p = ModelParams(n, 0.3, 2.0)
        initial = dense_ground_state(p)[0] if start == "orbits" else random_state(n, 7)
        scalars = [o_covariance_qfi(p, t, initial) for t in self.TIMES]
        assert all(type(f) is float for f in scalars)
        got = o_covariance_qfi(p, np.array(self.TIMES).reshape(2, 2), initial)
        assert got.shape == (2, 2)
        assert np.array_equal(got.ravel(), scalars)

    @pytest.mark.parametrize("times", [[1.0], TIMES])
    def test_one_eig_per_occupied_sector(self, monkeypatch, times):
        calls = []
        eig = np.linalg.eig

        def counted(a):
            calls.append(a.shape)
            return eig(a)

        monkeypatch.setattr(np.linalg, "eig", counted)
        p = ModelParams(6, 0.3, 2.0)
        # symmetric states take the orbit blocks (8 even, 5 odd orbits), any
        # other state the whole 32-state sectors
        for initial, shapes in (
            (dense_vacuum(6), [(8, 8)]),
            (uniform_state(6), [(8, 8), (5, 5)]),
            (random_state(6, 5), [(32, 32), (32, 32)]),
        ):
            calls.clear()
            o_covariance_qfi(p, np.array(times), initial)
            assert calls == shapes

    def test_fault_at_the_last_time_raises(self):
        from mipt_qfi.errors import NumericalFault

        p = ModelParams(4, 0.3, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalFault, match="not finite"):
                o_covariance_qfi(p, np.array([0.5, 1.0, 1e200]), dense_vacuum(4))


class TestOrbitReduction:
    # orbits of the even and odd sector under the site symmetries, N = 4..10
    ORBITS = {
        "periodic": {4: (4, 2), 6: (8, 5), 8: (18, 12), 10: (44, 34)},
        "open": {4: (6, 4), 6: (20, 16), 8: (72, 64), 10: (272, 256)},
    }

    @pytest.mark.parametrize("boundary", ["periodic", "open"])
    @pytest.mark.parametrize("n", [4, 6, 8, 10])
    def test_orbit_basis_is_orthonormal_and_invariant(self, n, boundary):
        p = ModelParams(n, 0.3, 2.0, boundary)
        h_eff = build_h_eff(p)
        counts = []
        for orbits in ed._sector_orbits(n, boundary):
            basis = np.zeros((orbits.rows.size, orbits.weight.size))
            basis[np.arange(orbits.rows.size), orbits.label] = orbits.weight[orbits.label]
            np.testing.assert_allclose(basis.T @ basis, np.eye(orbits.weight.size), rtol=0, atol=1e-15)
            # H_eff maps the orbit span to itself: H B = B H_orbit
            block = h_eff[np.ix_(orbits.rows, orbits.rows)]
            np.testing.assert_allclose(
                block @ basis, basis @ ed._orbit_generator(p, orbits), rtol=0, atol=1e-13
            )
            counts.append(orbits.weight.size)
        assert tuple(counts) == self.ORBITS[boundary][n]

    @pytest.mark.parametrize("boundary", ["periodic", "open"])
    def test_zero_rate_blocks_are_real(self, boundary):
        p = ModelParams(6, 0.3, 0.0, boundary)
        assert build_hamiltonian(p).dtype == np.float64
        for orbits in ed._sector_orbits(6, boundary):
            assert ed._orbit_generator(p, orbits).dtype == np.float64
        assert ed._orbit_generator(p.with_gamma(0.5), orbits).dtype == np.complex128

    @pytest.mark.parametrize(
        "n,boundary,start",
        [
            (n, boundary, start)
            for n in (4, 6, 8)
            for boundary in ("periodic", "open")
            for start in ("ground", "vacuum", "evolved")
        ]
        # each start once at N = 10, where the reference's eig of a 512-state
        # sector takes ~0.7 s
        + [(10, "periodic", "ground"), (10, "periodic", "evolved"), (10, "open", "vacuum")],
    )
    def test_routes_match_the_unreduced_reference(self, n, boundary, start):
        p = ModelParams(n, 0.3, 2.0, boundary)
        if start == "ground":
            initial = dense_ground_state(p.with_gamma(0.0))[0]
        elif start == "vacuum":
            initial = dense_vacuum(n)
        else:
            initial = evolve_dense(p, 0.7, uniform_state(n))
        expected = unreduced_evolve(p, 1.5, initial)
        got = evolve_dense(p, 1.5, initial).amplitudes
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))
        times = (0.5, 1.5)
        got = o_covariance_qfi(p, np.array(times), initial)
        np.testing.assert_allclose(got, unreduced_covariance_qfi(p, times, initial), rtol=1e-12, atol=0)
        f_exact = qfi_frechet(p, 1.5, initial)
        assert f_exact == pytest.approx(unreduced_frechet_qfi(p, 1.5, initial), rel=1e-12)

    @pytest.mark.parametrize("n", [4, 6, 8, 10])
    def test_periodic_ground_state_is_exactly_orbit_constant(self, n):
        p = ModelParams(n, 0.3, 0.0)
        state, energy = dense_ground_state(p)
        even, _ = parity_masks(n)
        vals, vecs = np.linalg.eigh(build_hamiltonian(p)[np.ix_(even, even)])
        assert energy == pytest.approx(vals[0], rel=1e-12)
        assert abs(np.vdot(vecs[:, 0], state.amplitudes[even])) == pytest.approx(1.0, abs=1e-12)
        orbits = ed._sector_orbits(n, "periodic")[0]
        amps = state.amplitudes[orbits.rows]
        assert np.array_equal(amps, state.amplitudes[orbits.reps][orbits.label])

    def test_one_amplitude_off_by_one_ulp_takes_the_whole_sector(self, monkeypatch):
        shapes = []

        def recorded(a):
            shapes.append(a.shape)
            return expm(a)

        monkeypatch.setattr(ed, "expm", recorded)
        p = ModelParams(6, 0.3, 2.0)
        gs, _ = dense_ground_state(p.with_gamma(0.0))
        amps = gs.amplitudes.copy()
        even, _ = parity_masks(6)
        x = np.flatnonzero(even)[3]
        amps[x] = np.nextafter(amps[x].real, np.inf) + 1j * amps[x].imag
        evolve_dense(p, 1.5, gs)
        assert shapes == [(8, 8)]
        shapes.clear()
        got = evolve_dense(p, 1.5, DenseState(amps, 6)).amplitudes
        assert shapes == [(32, 32)]
        expected = sla.expm(-1j * 1.5 * kron_operators(p)[1]) @ amps
        np.testing.assert_allclose(got, expected / np.linalg.norm(expected), rtol=0, atol=1e-12)


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
        from mipt_qfi.quench import evolve_amplitudes, ising_ground_amplitudes
        from mipt_qfi.spectral import mode_system, momentum_grid

        p = ModelParams(6, 0.3, 1.0)
        mode = mode_system(p, momentum_grid(6))
        u, v = evolve_amplitudes(mode, *ising_ground_amplitudes(mode), 2.0)
        gs, _ = dense_ground_state(p)
        profile = occupation_profile(evolve_dense(p, 2.0, gs))
        # translation invariance: flat profile equal to the mode-side value
        np.testing.assert_allclose(profile, site_occupation(u, v), atol=1e-10)


class TestGroundState:
    def test_even_sector_energy_matches_mode_sum(self):
        from mipt_qfi.spectral import mode_system, momentum_grid

        for n, h in [(4, 0.3), (8, 0.7)]:
            p = ModelParams(n, h, 0.0)
            _, e_dense = dense_ground_state(p)
            e_modes = sum(mode_system(p, float(k)).E for k in momentum_grid(n))
            assert e_dense == pytest.approx(e_modes, rel=1e-12)

    def test_open_chain_ground_is_global_minimum(self):
        # at h = 0.5 the global ground state is non-degenerate, so the even
        # sector's is the same state up to a phase
        p = ModelParams(6, 0.5, 0.0, "open")
        state, energy = dense_ground_state(p)
        vals, vecs = np.linalg.eigh(build_hamiltonian(p))
        assert energy == pytest.approx(vals[0], rel=1e-12)
        assert abs(np.vdot(vecs[:, 0], state.amplitudes)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("h", [0.0, 0.02, 0.3])
    @pytest.mark.parametrize("n", [6, 8, 10])
    def test_open_chain_ground_is_even_and_orbit_constant(self, n, h):
        # where the splitting from the odd sector is below round-off (h = 0,
        # and h = 0.02 from N = 8 on) a full-space eigh returns either parity
        # or a mixture; the even sector's ground state is the h -> 0+ limit
        p = ModelParams(n, h, 0.0, "open")
        state, energy = dense_ground_state(p)
        _, odd = parity_masks(n)
        assert np.all(state.amplitudes[odd] == 0)
        orbits = ed._sector_orbits(n, "open")[0]
        amps = state.amplitudes[orbits.rows]
        assert np.array_equal(amps, state.amplitudes[orbits.reps][orbits.label])
        assert energy == pytest.approx(np.linalg.eigvalsh(build_hamiltonian(p))[0], rel=1e-12)


# every dense route at t = 0.5, by name
ROUTES = {
    "evolve_dense": lambda p, psi0: evolve_dense(p, 0.5, psi0),
    "qfi_frechet": lambda p, psi0: qfi_frechet(p, 0.5, psi0),
    "o_covariance_qfi": lambda p, psi0: o_covariance_qfi(p, 0.5, psi0),
    "qfi_finite_difference": lambda p, psi0: qfi_finite_difference(p, 0.5, psi0),
}


class TestStateSize:
    # every route takes its sectors from one place, which checks the size
    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_route_rejects_a_state_of_another_size(self, route):
        with pytest.raises(ValueError, match="state size does not match params"):
            ROUTES[route](ModelParams(4, 0.3, 2.0), dense_vacuum(6))


class TestNonFiniteGenerator:
    # gamma or |h| near the largest double overflows the diagonal of H_eff;
    # every route builds its blocks in one place, which names both
    @pytest.mark.parametrize("route", sorted(ROUTES))
    @pytest.mark.parametrize("h,gamma", [(0.3, 1e308), (1e308, 0.5)], ids=["rate", "field"])
    def test_route_names_the_overflowing_parameter(self, route, h, gamma):
        p = ModelParams(4, h, gamma)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            message = f"H_eff is not finite at gamma = {gamma!r}, h = {h!r}"
            with pytest.raises(NumericalFault, match=re.escape(message)):
                ROUTES[route](p, dense_vacuum(4))

    def test_ground_state_names_the_overflowing_field(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalFault, match=re.escape("H_eff is not finite at gamma = 0.0, h = 1e+308")):
                dense_ground_state(ModelParams(4, 1e308, 0.0))


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
        assert qfi_frechet(self.params, self.t, initial) == pytest.approx(expected, rel=1e-12)

    def test_vacuum_start_leaves_odd_sector_exactly_zero(self):
        _, odd = parity_masks(6)
        evolved = evolve_dense(self.params, self.t, dense_vacuum(6)).amplitudes
        assert np.all(evolved[odd] == 0)
        assert np.linalg.norm(evolved) == pytest.approx(1.0, abs=1e-14)


class TestCostEnvelope:
    def test_ten_site_oracle_fits_budget(self):
        # the exact derivative and the generator integral on one parity sector
        # take ~1 s here; full-space exponentials of Kronecker-built operators
        # took ~25 s.  CPU time of this process, so that other processes on the
        # same cores do not count
        p = ModelParams(10, 0.3, 2.0)
        start = time.process_time()
        gs, _ = dense_ground_state(p)
        f_exact = qfi_frechet(p, 1.0, gs)
        f_cov = o_covariance_qfi(p, 1.0, gs)
        elapsed = time.process_time() - start
        assert f_exact == pytest.approx(f_cov, rel=1e-11)
        assert elapsed < 10.0
