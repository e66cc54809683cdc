import math
import re
import time
import warnings

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from _reference import occupation_profile, xx_correlator_dense
from hypothesis import strategies as st

from mipt_qfi import _kernels, ed
from mipt_qfi._kernels import pfaffian
from mipt_qfi.errors import NumericalFault
from mipt_qfi.realspace import (
    MAX_CHUNKS,
    GaussianState,
    _kernel,
    entanglement_depth,
    evolve,
    evolve_series,
    init_state,
    majorana_correlations,
    witness_qfi,
)
from mipt_qfi.spectral import ModelParams


def evolved(n, gamma, t, dt=0.05, kind="vacuum", h0=0.0):
    p = ModelParams(n, 0.0, gamma, "open")
    return evolve(init_state(n, kind, h=h0), p, dt, int(round(t / dt)))


def xx_correlator(state, i, j):
    """<x_i x_j> via the Pfaffian of the Jordan-Wigner string block (0-based).

    The string i^d (b_i a_{i+1} b_{i+1} ... a_j), d = j - i, Wick-contracts
    to (-1)^d Pf of the contiguous block Gamma[2i+1:2j+1, 2i+1:2j+1] of the
    Majorana matrix (interleaved a_0, b_0, a_1, ...).
    """
    n = state.n_sites
    if not (0 <= i < j < n):
        raise ValueError(f"need 0 <= i < j < N, got i={i}, j={j}, N={n}")
    sub = majorana_correlations(state)[2 * i + 1 : 2 * j + 1, 2 * i + 1 : 2 * j + 1]
    return (-1) ** (j - i) * pfaffian(sub)


def energy_expectation(state, params):
    """<H> of the open-chain Hermitian part on this Gaussian state.

    H = -sum_i x_i x_{i+1} - h sum_i s^z_i with <x_i x_{i+1}> = -Gamma[2i+1, 2i+2]
    and <s^z_i> = -Gamma[2i, 2i+1], Gamma the Majorana matrix.
    """
    bonds = np.diagonal(majorana_correlations(state), offset=1)
    return float(np.sum(bonds[1::2]) + params.h * np.sum(bonds[0::2]))


def pairing_matrix(state):
    """Z = -(U+)^{-1} V+, antisymmetric for a valid fermionic frame."""
    return -np.linalg.solve(state.U.conj().T, state.V.conj().T)


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
    w = state.W
    for _ in range(n_steps):
        w, _ = np.linalg.qr(step @ w)
    return GaussianState(w)


def chunk_loop_evolution(state, params, dt, n_steps):
    """Reference path: the chunk loop `evolve` ran before the series, as it was."""
    total = dt * n_steps
    chunks = max(1, math.ceil(params.gamma * total / math.log(1e4)))
    step = _kernels.expm(-1j * (total / chunks) * _kernel(params))
    w = state.W
    for _ in range(chunks):
        w, _ = np.linalg.qr(step @ w)
    return GaussianState(w)


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

    def test_non_finite_kernel_raises_before_the_eigensolver(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalFault, match="not finite"):
                init_state(4, "hermitian-ground", h=1e308)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            init_state(8, "thermal")

    def test_frame_is_orthonormal(self):
        st_ = init_state(10, "hermitian-ground", h=0.7)
        assert st_.orthonormality_defect() < 1e-12


# At h = 0, at h = 0.02 from N = 10 and at h = 0.3 from N = 64 on, the pair
# of end zero modes of the open-chain kernel is degenerate to round-off, and
# `init_state` takes a Majorana vector of the pair, which annihilates no
# fermion state.  ROADMAP lists the fix (U, V = (Phi +- Psi) / 2 from the SVD
# A - P = Phi Lambda Psi^T); until it lands these cases fail, and strictly so.
ZERO_MODE_DEFECT = pytest.mark.xfail(
    strict=True, reason="the h = 0 ground frame holds a Majorana zero mode (ROADMAP)"
)


@pytest.mark.filterwarnings("ignore:open-chain ground state is degenerate")
class TestZeroFieldGroundFrame:
    @pytest.mark.parametrize("n,h", [
        pytest.param(8, 0.0, marks=ZERO_MODE_DEFECT),
        pytest.param(16, 0.0, marks=ZERO_MODE_DEFECT),
        pytest.param(64, 0.0, marks=ZERO_MODE_DEFECT),
        pytest.param(64, 0.3, marks=ZERO_MODE_DEFECT),
        (8, 0.3),
        (8, 0.5),
        (10, 0.7),
    ])
    def test_frame_is_a_fermionic_vacuum(self, n, h):
        # the columns anticommute, {chi_m, chi_n} = 0, and the state is pure
        state = init_state(n, "hermitian-ground", h=h)
        assert np.max(np.abs(state.U.T @ state.V + state.V.T @ state.U)) <= 1e-10
        gamma = majorana_correlations(state)
        assert np.max(np.abs(gamma @ gamma + np.eye(2 * n))) <= 1e-10

    @pytest.mark.parametrize("n,h0", [
        pytest.param(6, 0.0, marks=ZERO_MODE_DEFECT),
        pytest.param(8, 0.0, marks=ZERO_MODE_DEFECT),
        pytest.param(10, 0.0, marks=ZERO_MODE_DEFECT),
        pytest.param(10, 0.02, marks=ZERO_MODE_DEFECT),
        (8, 0.3),
        (8, 0.5),
        (10, 0.3),
        (10, 0.5),
    ])
    def test_evolves_like_the_dense_even_ground_state(self, n, h0):
        # the dense reference is the open chain's even-parity ground state,
        # the h0 -> 0+ limit; at h0 = 0 it gives F = 11.414238476643632
        # (N = 6), 15.421061141374661 (N = 8) and 20.7406 (N = 10), where the
        # frame gives 12.1254, 16.5154 and 22.2925; at N = 10, h0 = 0.02 the
        # frame is 4.5% off
        p = ModelParams(n, 0.0, 0.75, "open")
        start, _ = ed.dense_ground_state(ModelParams(n, h0, 0.0, "open"))
        dense = 4.0 * ed.sx_variance_dense(ed.evolve_dense(p, 7.5, start))
        frame = witness_qfi(evolve(init_state(n, "hermitian-ground", h=h0), p, 7.5, 1))
        assert frame == pytest.approx(dense, rel=1e-12)


class TestEvolve:
    def test_unitary_step_before_renormalization(self):
        p = ModelParams(8, 0.0, 0.0, "open")
        step = sla.expm(-1j * 0.05 * _kernel(p))
        w = init_state(8, "hermitian-ground", h=0.5).W
        for _ in range(40):
            w = step @ w
        defect = np.max(np.abs(w.conj().T @ w - np.eye(8)))
        assert defect < 1e-10

    def test_occupations_match_dense(self):
        st_ = evolved(6, 1.5, 2.0)
        n_gauss = np.real(np.diag(st_.V @ st_.V.conj().T))
        p = ModelParams(6, 0.0, 1.5, "open")
        n_dense = occupation_profile(ed.evolve_dense(p, 2.0, ed.dense_vacuum(6)))
        np.testing.assert_allclose(n_gauss, n_dense, atol=1e-7)

    def test_invariants_hold_after_every_step(self):
        p = ModelParams(6, 2.0, 3.0, "open")
        state = init_state(6)
        for _ in range(25):
            state = evolve(state, p, 0.1, 1)
            assert state.orthonormality_defect() < 1e-10
            z = pairing_matrix(state)
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
        assert not np.shares_memory(out.W, state.W)
        np.testing.assert_array_equal(out.W, state.W)

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
        frame = init_state(8, "hermitian-ground", h=0.5).W
        frame[:, 1] = frame[:, 0]
        state = GaussianState(frame)
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
            w = mp.matrix(start.W.tolist())
            for _ in range(pieces):
                w, _ = mp.qr(step * w, mode="skinny")
            w = np.array(w.tolist(), dtype=complex)
        reference = majorana_correlations(GaussianState(w))
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

    @pytest.mark.parametrize(
        "n, kind, gamma, t, dt",
        [(8, kind, gamma, 60.0, 0.05) for kind in ("vacuum", "hermitian-ground")
         for gamma in (0.0, 0.3, 0.75, 2.0, 4.5)]
        + [(32, "vacuum", 0.75, 72.0, 0.01), (64, "hermitian-ground", 0.75, 9.0, 0.05)],
    )
    def test_equals_the_chunk_loop_bit_for_bit(self, n, kind, gamma, t, dt):
        p = ModelParams(n, 0.0, gamma, "open")
        start = quiet_init(n, kind)
        n_steps = int(round(t / dt))
        got = evolve(start, p, dt, n_steps).W
        np.testing.assert_array_equal(got, chunk_loop_evolution(start, p, dt, n_steps).W)


class TestEvolveSeries:
    @pytest.mark.parametrize("kind, gamma, step", [
        ("hermitian-ground", 0.75, 1.5), ("vacuum", 0.75, 12.0), ("vacuum", 4.5, 1.6), ("vacuum", 0.0, 3.0),
    ])
    def test_frames_match_separate_evolutions(self, kind, gamma, step, qr_frames):
        n, counts = 16, [4, 5, 6]
        p = ModelParams(n, 0.0, gamma, "open")
        start = quiet_init(n, kind)
        frames = evolve_series(start, p, step, counts)
        assert max(np.linalg.cond(w) for w in qr_frames) <= 1e4
        for k, state in zip(counts, frames):
            assert state.orthonormality_defect() < 1e-12
            want = majorana_correlations(evolve(start, p, k * step, 1))
            np.testing.assert_allclose(majorana_correlations(state), want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("gamma, step, qrs", [(0.0, 3.0, 3), (0.75, 1.5, 3), (0.75, 12.0, 6), (4.5, 1.6, 6)])
    def test_qr_only_at_returned_frames_or_at_the_growth_bound(self, gamma, step, qrs, qr_frames, monkeypatch):
        exponentials = []
        monkeypatch.setattr("mipt_qfi.realspace.expm", lambda a: exponentials.append(a) or _kernels.expm(a))
        evolve_series(init_state(8), ModelParams(8, 0.0, gamma, "open"), step, [4, 5, 6])
        assert len(exponentials) == 1
        assert len(qr_frames) == qrs

    @pytest.mark.parametrize("counts", [[4, 5, 6], [1]])
    def test_frames_share_no_memory(self, counts):
        start = init_state(8, "hermitian-ground", h=0.5)
        series = evolve_series(start, ModelParams(8, 0.0, 0.75, "open"), 1.5, counts)
        frames = [start.W] + [state.W for state in series]
        for i, a in enumerate(frames):
            for b in frames[i + 1 :]:
                assert not np.shares_memory(a, b)

    @pytest.mark.parametrize("counts", [[], [0, 1], [2, 2], [3, 1], [1.0]])
    def test_rejects_counts_that_are_not_increasing_positive_integers(self, counts):
        with pytest.raises(ValueError, match="counts"):
            evolve_series(init_state(6), ModelParams(6, 0.0, 1.0, "open"), 0.5, counts)

    @pytest.mark.parametrize("gamma, step, counts", [
        (0.75, 2e6, [4, 5, 6]), (1e308, 0.2, [4, 5, 6]), (0.0, 0.1, [MAX_CHUNKS + 1]),
    ])
    def test_series_past_the_chunk_cap_raises_naming_its_time(self, gamma, step, counts, qr_frames):
        p = ModelParams(6, 0.0, gamma, "open")
        with pytest.raises(NumericalFault, match=re.escape(f"T = {counts[-1] * step:g} ") + ".* MAX_CHUNKS"):
            evolve_series(init_state(6), p, step, counts)
        assert qr_frames == []

    def test_largest_series_under_the_cap_is_accepted(self):
        p = ModelParams(4, 0.0, 0.75, "open")
        # the most whole chunks per step that six steps may take
        step = (1 - 1e-12) * (MAX_CHUNKS // 6) * math.log(1e4) / 0.75
        evolve_series(init_state(4), p, step, [4, 5, 6])
        with pytest.raises(NumericalFault, match="MAX_CHUNKS"):
            evolve_series(init_state(4), p, 1.001 * step, [4, 5, 6])


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
            b = xx_correlator_dense(dst, i, i + 1)
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
                assert isinstance(val, float)
                assert abs(val) <= 1 + 1e-8

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
        wick = wick_majorana_correlations(state)
        np.testing.assert_allclose(majorana_correlations(state), wick.imag, rtol=0, atol=1e-14)
        assert np.max(np.abs(wick.real)) <= 1e-14

    def test_majorana_matrix_antisymmetric_with_pfaffian_determinant_pairs(self):
        st_ = evolved(6, 2.0, 1.0)
        g = majorana_correlations(st_)
        assert g.dtype == np.float64 and np.array_equal(g, -g.T)
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
        # per-pair O(N^5) evaluation it replaced takes ~30 s.  Budgets are CPU
        # time of this process, so that other processes on the same cores do
        # not count
        p = ModelParams(128, 0.0, 0.75, "open")
        state = evolve(init_state(128), p, 0.05, 20)
        start = time.process_time()
        f = witness_qfi(state)
        elapsed = time.process_time() - start
        assert f > 0
        assert elapsed < 5.0

    def test_long_frame_evolution_fits_budget(self):
        # a few chunked exponentials take well under a second here; one
        # exponential step and QR per dt takes 10-22 s (CPU time, as above)
        p = ModelParams(256, 0.0, 0.75, "open")
        state = init_state(256)
        start = time.process_time()
        state = evolve(state, p, 0.05, 150)
        elapsed = time.process_time() - start
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
