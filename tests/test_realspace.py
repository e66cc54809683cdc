import math
import time
import warnings

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from mipt_qfi import ed
from mipt_qfi.errors import NumericalFault
from mipt_qfi.pfaffian import pfaffian
from mipt_qfi.realspace import (
    GaussianState,
    _kernel,
    energy_expectation,
    entanglement_depth,
    evolve,
    init_state,
    majorana_correlations,
    witness_qfi,
    xx_correlator,
)
from mipt_qfi.spectral import ModelParams


def evolved(n, gamma, t, dt=0.05, kind="vacuum", h0=0.0):
    p = ModelParams(n, 0.0, gamma, "open")
    return evolve(init_state(n, kind, h=h0), p, dt, int(round(t / dt)))


def quiet_init(n, kind):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return init_state(n, kind)


def wick_majorana_correlations(state):
    """Reference path: the four Majorana blocks assembled from the Wick contractions."""
    u, v = state.U, state.V
    cdag = v @ v.conj().T  # <c+_i c_j>
    ccd = u @ u.conj().T  # <c_i c+_j>
    fcc = u @ v.conj().T  # <c_i c_j>
    fdd = fcc.conj().T  # <c+_i c+_j>
    n = state.n_sites
    g = np.empty((2 * n, 2 * n), dtype=complex)
    g[0::2, 0::2] = fcc + ccd + cdag + fdd
    g[1::2, 1::2] = -fdd + cdag + ccd - fcc
    g[0::2, 1::2] = 1j * (ccd - fcc + fdd - cdag)
    g[1::2, 0::2] = 1j * (cdag + fdd - fcc - ccd)
    np.fill_diagonal(g, 0.0)
    return 0.5 * (g - g.T)


def per_step_evolution(state, params, dt, n_steps):
    """Reference path: one exact exponential step of size dt and one QR per step."""
    step = sla.expm(-1j * dt * _kernel(params))
    w = state.frame()
    for _ in range(n_steps):
        w, _ = np.linalg.qr(step @ w)
    n = state.n_sites
    return GaussianState(w[:n], w[n:])


@pytest.fixture
def qr_frames(monkeypatch):
    """Record every frame `evolve` hands to numpy's QR."""
    frames = []
    qr = np.linalg.qr

    def recording_qr(a, *args, **kwargs):
        frames.append(a.copy())
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", recording_qr)
    return frames


class TestPfaffian:
    def test_two_by_two(self):
        assert pfaffian(np.array([[0.0, 2.5], [-2.5, 0.0]])) == pytest.approx(2.5)

    def test_block_multiplicativity(self):
        m = np.zeros((4, 4))
        m[0, 1], m[1, 0] = 2.0, -2.0
        m[2, 3], m[3, 2] = 3.0, -3.0
        assert pfaffian(m) == pytest.approx(6.0)

    def test_squares_to_determinant(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        a = x - x.T
        assert pfaffian(a) ** 2 == pytest.approx(np.linalg.det(a), rel=1e-10)

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_squares_to_determinant_random(self, half, seed):
        rng = np.random.default_rng(seed)
        n = 2 * half
        x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        a = x - x.T
        det = np.linalg.det(a)
        assert pfaffian(a) ** 2 == pytest.approx(det, rel=1e-8)

    def test_rejects_odd_dimension(self):
        with pytest.raises(ValueError):
            pfaffian(np.zeros((3, 3)))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            pfaffian(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_rejects_nan_entry(self):
        a = np.array([[0.0, 1.0], [-1.0, 0.0]])
        a[0, 1] = np.nan
        with pytest.raises(ValueError, match="antisymmetric"):
            pfaffian(a)

    def test_singular_matrix_gives_zero(self):
        assert pfaffian(np.zeros((4, 4))) == 0


class TestInitState:
    def test_vacuum_has_no_occupation(self):
        st_ = init_state(6)
        np.testing.assert_allclose(np.diag(st_.V @ st_.V.conj().T), 0.0, atol=1e-14)

    def test_vacuum_witness_is_separable_bound(self):
        assert witness_qfi(init_state(4)) == pytest.approx(4.0, abs=1e-12)

    def test_ground_energy_matches_dense(self):
        st_ = init_state(8, "hermitian-ground", h=0.5)
        p = ModelParams(8, 0.5, 0.0, "open")
        _, e_dense = ed.dense_ground_state(p)
        assert energy_expectation(st_, p) == pytest.approx(e_dense, abs=1e-8)

    @pytest.mark.parametrize("kind, h0", [("vacuum", 0.0), ("hermitian-ground", 0.3)])
    @pytest.mark.parametrize("h", [0.0, 0.4])
    @pytest.mark.parametrize("gamma", [0.75, 4.5])
    def test_evolved_energy_matches_dense(self, kind, h0, h, gamma):
        n, t = 8, 1.5
        p = ModelParams(n, h, gamma, "open")
        state = evolve(init_state(n, kind, h=h0), p, t / 30, 30)
        if kind == "vacuum":
            start = ed.dense_vacuum(n)
        else:
            start, _ = ed.dense_ground_state(ModelParams(n, h0, 0.0, "open"))
        psi = ed.evolve_dense(p, t, start).amplitudes
        e_dense = np.vdot(psi, ed.build_hamiltonian(p) @ psi).real
        assert energy_expectation(state, p) == pytest.approx(e_dense, abs=1e-10)

    def test_degenerate_ground_is_signaled(self):
        with pytest.warns(UserWarning):
            init_state(8, "hermitian-ground", h=0.0)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            init_state(8, "thermal")

    def test_frame_is_orthonormal(self):
        st_ = init_state(10, "hermitian-ground", h=0.7)
        assert st_.orthonormality_defect() < 1e-12


class TestEvolve:
    def test_unitary_step_before_renormalization(self):
        p = ModelParams(8, 0.0, 0.0, "open")
        step = sla.expm(-1j * 0.05 * _kernel(p))
        w = init_state(8, "hermitian-ground", h=0.5).frame()
        for _ in range(40):
            w = step @ w
        defect = np.max(np.abs(w.conj().T @ w - np.eye(8)))
        assert defect < 1e-10

    def test_occupations_match_dense(self):
        st_ = evolved(6, 1.5, 2.0)
        n_gauss = np.real(np.diag(st_.V @ st_.V.conj().T))
        p = ModelParams(6, 0.0, 1.5, "open")
        n_dense = ed.occupation_profile(ed.evolve_dense(p, 2.0, ed.dense_vacuum(6)))
        np.testing.assert_allclose(n_gauss, n_dense, atol=1e-7)

    def test_invariants_hold_after_every_step(self):
        p = ModelParams(6, 2.0, 3.0, "open")
        state = init_state(6)
        for _ in range(25):
            state = evolve(state, p, 0.1, 1)
            assert state.orthonormality_defect() < 1e-10
            z = state.pairing_matrix()
            assert np.max(np.abs(z + z.T)) < 1e-10

    def test_step_size_only_sets_renormalization_cadence(self):
        a = evolved(8, 1.5, 2.0, dt=0.05)
        b = evolved(8, 1.5, 2.0, dt=0.025)
        fa, fb = witness_qfi(a), witness_qfi(b)
        assert abs(fa - fb) < 1e-10
        na = np.diag(a.V @ a.V.conj().T)
        nb = np.diag(b.V @ b.V.conj().T)
        assert np.max(np.abs(na - nb)) < 1e-10

    def test_rejects_periodic_boundary_and_bad_dt(self):
        state = init_state(6)
        with pytest.raises(ValueError):
            evolve(state, ModelParams(6, 0.0, 1.0, "periodic"), 0.05, 10)
        with pytest.raises(ValueError):
            evolve(state, ModelParams(6, 0.0, 1.0, "open"), -0.1, 10)
        with pytest.raises(ValueError):
            evolve(init_state(8), ModelParams(6, 0.0, 1.0, "open"), 0.05, 10)


class TestChunkedEvolve:
    def test_zero_steps_return_a_copy_without_qr(self, qr_frames):
        state = init_state(6, "hermitian-ground", h=0.4)
        out = evolve(state, ModelParams(6, 0.0, 0.0, "open"), 0.05, 0)
        assert qr_frames == []
        assert out.U is not state.U and out.V is not state.V
        np.testing.assert_array_equal(out.frame(), state.frame())

    @pytest.mark.parametrize("n_steps", [-1, 2.5, 3.0, "4"])
    def test_rejects_negative_or_non_integer_step_count(self, n_steps):
        with pytest.raises(ValueError, match="n_steps"):
            evolve(init_state(6), ModelParams(6, 0.0, 1.0, "open"), 0.05, n_steps)

    def test_zero_rate_evolves_in_one_chunk(self, qr_frames):
        state = evolve(quiet_init(8, "hermitian-ground"), ModelParams(8, 0.0, 0.0, "open"), 0.01, 7200)
        assert len(qr_frames) == 1
        assert state.orthonormality_defect() < 1e-12

    @pytest.mark.parametrize("gamma", [0.3, 0.75, 4.5])
    def test_chunk_count_bounds_frame_condition(self, gamma, qr_frames):
        state = evolve(init_state(8), ModelParams(8, 0.0, gamma, "open"), 0.05, 1200)
        assert len(qr_frames) == math.ceil(gamma * 60.0 / math.log(1e4))
        assert max(np.linalg.cond(w) for w in qr_frames) <= 1e4
        assert state.orthonormality_defect() < 1e-12

    def test_rank_collapse_raises(self):
        frame = init_state(8, "hermitian-ground", h=0.5).frame()
        frame[:, 1] = frame[:, 0]
        state = GaussianState(frame[:8], frame[8:])
        with pytest.raises(NumericalFault, match="numerical rank"):
            evolve(state, ModelParams(8, 0.0, 0.75, "open"), 0.05, 10)

    @pytest.mark.parametrize("kind", ["vacuum", "hermitian-ground"])
    @pytest.mark.parametrize("gamma", [0.3, 2.0])
    def test_matches_high_precision_evolution(self, kind, gamma):
        mp = pytest.importorskip("mpmath")
        n, t, pieces = 8, 60.0, 20
        p = ModelParams(n, 0.0, gamma, "open")
        start = quiet_init(n, kind)
        with mp.workdps(50):
            step = mp.expm(mp.mpc(0, -t / pieces) * mp.matrix(_kernel(p).tolist()))
            w = mp.matrix(start.frame().tolist())
            for _ in range(pieces):
                w, _ = mp.qr(step * w, mode="skinny")
            w = np.array(w.tolist(), dtype=complex)
        reference = majorana_correlations(GaussianState(w[:n], w[n:]))
        got = majorana_correlations(evolve(start, p, 0.05, 1200))
        np.testing.assert_allclose(got, reference, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "n, kind, t, dt",
        [(32, "vacuum", 72.0, 0.01), (64, "hermitian-ground", 9.0, 0.05)],
    )
    def test_matches_per_step_evolution_at_witness_shapes(self, n, kind, t, dt):
        p = ModelParams(n, 0.0, 0.75, "open")
        start = quiet_init(n, kind)
        n_steps = int(round(t / dt))
        got = majorana_correlations(evolve(start, p, dt, n_steps))
        want = majorana_correlations(per_step_evolution(start, p, dt, n_steps))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


class TestCorrelators:
    def test_vacuum_xx_vanishes(self):
        st_ = init_state(6)
        for i in range(5):
            for j in range(i + 1, 6):
                assert abs(xx_correlator(st_, i, j)) < 1e-14

    def test_near_critical_ground_nearest_neighbor_matches_dense(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            st_ = init_state(8, "hermitian-ground", h=1e-3)
        p = ModelParams(8, 1e-3, 0.0, "open")
        dst, _ = ed.dense_ground_state(p)
        for i in range(7):
            a = xx_correlator(st_, i, i + 1)
            b = ed.xx_correlator_dense(dst, i, i + 1)
            assert abs(a - b) < 1e-7

    def test_reflection_symmetry(self):
        st_ = evolved(8, 1.2, 1.5)
        n = 8
        for i, j in [(0, 3), (1, 5), (2, 6)]:
            a = xx_correlator(st_, i, j)
            b = xx_correlator(st_, n - 1 - j, n - 1 - i)
            assert a == pytest.approx(b, abs=1e-10)

    def test_values_are_physical(self):
        st_ = evolved(8, 0.75, 3.0)
        for i in range(7):
            for j in range(i + 1, 8):
                val = xx_correlator(st_, i, j)
                assert abs(val.imag) <= 1e-8
                assert abs(val.real) <= 1 + 1e-8

    def test_index_validation(self):
        st_ = init_state(6)
        for i, j in [(3, 3), (4, 2), (-1, 2), (0, 6)]:
            with pytest.raises(ValueError):
                xx_correlator(st_, i, j)

    @pytest.mark.parametrize("n", [8, 32])
    @pytest.mark.parametrize("kind", ["vacuum", "hermitian-ground"])
    @pytest.mark.filterwarnings("ignore:open-chain ground state is degenerate")
    def test_majorana_product_matches_wick_blocks(self, n, kind):
        p = ModelParams(n, 0.3, 0.75, "open")
        state = evolve(init_state(n, kind, h=0.3), p, 0.05, 60)
        np.testing.assert_allclose(
            majorana_correlations(state), wick_majorana_correlations(state), rtol=0, atol=1e-14
        )

    def test_majorana_matrix_antisymmetric_with_pfaffian_determinant_pairs(self):
        st_ = evolved(6, 2.0, 1.0)
        g = majorana_correlations(st_)
        assert np.max(np.abs(g + g.T)) < 1e-10
        rng = np.random.default_rng(3)
        for _ in range(4):
            sub = np.sort(rng.choice(12, size=6, replace=False))
            block = g[np.ix_(sub, sub)]
            det = np.linalg.det(block)
            assert pfaffian(block) ** 2 == pytest.approx(det, rel=1e-8, abs=1e-12)


class TestWitnessQfi:
    @pytest.mark.parametrize("gamma", [0.75, 4.5])
    def test_matches_dense_variance(self, gamma):
        p = ModelParams(8, 0.0, gamma, "open")
        st_ = evolved(8, gamma, 2.0)
        dense = 4.0 * ed.sx_variance_dense(ed.evolve_dense(p, 2.0, ed.dense_vacuum(8)))
        assert witness_qfi(st_) == pytest.approx(dense, rel=1e-6)

    def test_bounded_by_heisenberg_ceiling(self):
        for gamma, t in [(0.75, 1.0), (4.5, 3.0)]:
            st_ = evolved(8, gamma, t)
            f = witness_qfi(st_)
            assert 0.0 <= f <= 64.0 + 1e-9

    def test_ground_start_is_ghz_ceiling(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            st_ = init_state(8, "hermitian-ground", h=0.0)
        assert witness_qfi(st_) == pytest.approx(64.0, rel=1e-10)


class TestCostEnvelope:
    def test_large_chain_witness_fits_single_core_budget(self):
        # the nested O(N^4) string table takes well under a second here; the
        # per-pair O(N^5) evaluation it replaced takes ~30 s
        p = ModelParams(128, 0.0, 0.75, "open")
        state = evolve(init_state(128), p, 0.05, 20)
        start = time.perf_counter()
        f = witness_qfi(state)
        elapsed = time.perf_counter() - start
        assert f > 0
        assert elapsed < 5.0

    def test_long_frame_evolution_fits_budget(self):
        # a few chunked exponentials take well under a second here; one
        # exponential step and QR per dt takes 10-22 s
        p = ModelParams(256, 0.0, 0.75, "open")
        state = init_state(256)
        start = time.perf_counter()
        state = evolve(state, p, 0.05, 150)
        elapsed = time.perf_counter() - start
        assert state.orthonormality_defect() < 1e-12
        assert elapsed < 3.0


class TestEntanglementDepth:
    def test_separable_bound_certifies_nothing(self):
        assert entanglement_depth(16.0, 16) == 1

    def test_fractional_ratio(self):
        assert entanglement_depth(3.5 * 16, 16) == 4

    def test_ghz_ceiling_certifies_full_depth(self):
        assert entanglement_depth(16.0**2, 16) == 16

    def test_integer_ratio_boundary(self):
        assert entanglement_depth(2.0 * 16, 16) == 2

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            entanglement_depth(-1.0, 8)

    @given(st.floats(min_value=0.0, max_value=1e4), st.integers(min_value=2, max_value=64).map(lambda x: 2 * x))
    @settings(max_examples=60, deadline=None)
    def test_certified_bound_always_consistent(self, f, n):
        depth = entanglement_depth(f, n)
        m = depth - 1
        assert 1 <= depth <= n
        if m >= 1:
            assert f / n > m - 1e-9
