import math
import warnings

import numpy as np
import pytest
import scipy.linalg as sla

from mipt_qfi import _kernels, ed, realspace
from mipt_qfi.errors import NumericalFault
from mipt_qfi.pfaffian import pfaffian
from mipt_qfi.realspace import evolve, init_state, majorana_correlations
from mipt_qfi.spectral import ModelParams

# (start kind, gamma, t); h = 0 throughout, so the ground start at t = 0 is
# the GHZ-like F = N^2 ceiling and the vacuum starts have exactly singular
# odd-distance strings
STATES = [
    ("hermitian-ground", 0.75, 0.0),
    ("hermitian-ground", 0.75, 7.5),
    ("hermitian-ground", 4.5, 7.5),
    ("vacuum", 0.75, 2.0),
    ("vacuum", 0.75, 60.0),
]


def majorana_matrix(n, kind, gamma, t, dt=0.05):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # degenerate h = 0 ground start
        state = init_state(n, kind)
    state = evolve(state, ModelParams(n, 0.0, gamma, "open"), dt, int(round(t / dt)))
    return majorana_correlations(state)


def pairwise_table(g):
    """<x_i x_j> = i^d Pf(g_block), one pivoted complex Pfaffian per pair."""
    n = g.shape[0] // 2
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            block = g[2 * i + 1 : 2 * j + 1, 2 * i + 1 : 2 * j + 1]
            out[i, j] = ((1j) ** (j - i) * pfaffian(block)).real
    return out


def row_steps(g):
    """Branch counts of the nested elimination, summed over the table rows."""
    gamma = g.imag
    last = gamma.shape[0] - 1
    total = {"2x2": 0, "4x4": 0, "pivoted": 0}
    for r in range(1, last, 2):
        _, steps = _kernels.leading_pfaffians(gamma[r:last, r:last])
        for key in total:
            total[key] += steps[key]
    return total


def random_real_antisymmetric(n, seed):
    x = np.random.default_rng(seed).normal(size=(n, n))
    return x - x.T


class TestNestedStringTable:
    @pytest.mark.parametrize("n", [8, 16, 32])
    @pytest.mark.parametrize("kind,gamma,t", STATES)
    def test_matches_pairwise_pivoted_pfaffians(self, n, kind, gamma, t):
        g = majorana_matrix(n, kind, gamma, t)
        np.testing.assert_allclose(_kernels.xx_table(g), pairwise_table(g), rtol=0, atol=1e-12)

    def test_ghz_start_reaches_the_ceiling_by_2x2_steps(self):
        g = majorana_matrix(16, "hermitian-ground", 0.75, 0.0)
        table = _kernels.xx_table(g)
        assert 16 + 2 * table.sum() == pytest.approx(16.0**2, rel=1e-12)
        assert row_steps(g) == {"2x2": 15 * 16 // 2, "4x4": 0, "pivoted": 0}

    @pytest.mark.parametrize("t", [2.0, 60.0])
    def test_vacuum_start_takes_only_4x4_steps(self, t):
        g = majorana_matrix(16, "vacuum", 0.75, t)
        steps = row_steps(g)
        assert steps["2x2"] == 0 and steps["pivoted"] == 0
        # rows of length 2m take floor(m / 2) 4x4 steps
        assert steps["4x4"] == sum(m // 2 for m in range(1, 16))
        i, j = np.triu_indices(16, 1)
        odd = (j - i) % 2 == 1
        assert np.max(np.abs(_kernels.xx_table(g)[i[odd], j[odd]])) < 1e-14


class TestLeadingPfaffians:
    @pytest.mark.parametrize("n", [2, 6, 12, 20])
    def test_generic_matrix_matches_pivoted(self, n):
        a = random_real_antisymmetric(n, n)
        pf, steps = _kernels.leading_pfaffians(a)
        ref = [_kernels.pfaffian_numpy(a[:k, :k]).real for k in range(2, n + 1, 2)]
        np.testing.assert_allclose(pf, ref, rtol=1e-10)
        assert steps == {"2x2": n // 2, "4x4": 0, "pivoted": 0}

    def test_singular_2x2_pivot_takes_a_4x4_step(self):
        a = random_real_antisymmetric(10, 3)
        a[0, 1] = a[1, 0] = 0.0
        pf, steps = _kernels.leading_pfaffians(a)
        ref = [_kernels.pfaffian_numpy(a[:k, :k]).real for k in range(2, 11, 2)]
        np.testing.assert_allclose(pf, ref, rtol=1e-10, atol=1e-15)
        assert steps["4x4"] == 1 and steps["pivoted"] == 0

    @pytest.mark.parametrize("lead", [0, 2])
    def test_singular_2x2_and_4x4_blocks_fall_back_to_pivoting(self, lead):
        # a regular 2x2 lead (or none), then a block whose leading 4x4 is zero
        n = lead + 12
        a = np.zeros((n, n))
        a[lead:, lead:] = random_real_antisymmetric(12, 7)
        a[lead : lead + 4, lead : lead + 4] = 0.0
        if lead:
            a[0, 1], a[1, 0] = 0.5, -0.5
        pf, steps = _kernels.leading_pfaffians(a)
        ref = [_kernels.pfaffian_numpy(a[:k, :k]).real for k in range(2, n + 1, 2)]
        np.testing.assert_allclose(pf, ref, rtol=1e-10, atol=1e-15)
        assert steps == {"2x2": lead // 2, "4x4": 0, "pivoted": n // 2 - lead // 2 - 2}
        assert np.all(pf[lead // 2 : lead // 2 + 2] == 0.0)


class TestMajoranaMatrixChecks:
    def test_real_part_raises(self):
        g = majorana_matrix(8, "hermitian-ground", 0.75, 1.0)
        g = g + 1e-3 * random_real_antisymmetric(16, 1)
        with pytest.raises(NumericalFault, match="real part"):
            _kernels.xx_table(g)

    def test_non_finite_entry_raises(self):
        g = majorana_matrix(8, "vacuum", 0.75, 1.0)
        g[3, 4], g[4, 3] = np.nan, np.nan
        with pytest.raises(NumericalFault, match="non-finite"):
            _kernels.xx_table(g)


def rel_dev(a, ref):
    return np.max(np.abs(a - ref)) / np.max(np.abs(ref))


# (N, h, gamma) of the frame kernels; h = 0, gamma = 4 is the exceptional
# point gamma = gamma_c
FRAME_KERNELS = [
    (n, h, g) for n in (4, 16, 64) for h in (0.0, 0.3, -0.7) for g in (0.0, 0.3, 0.75, 4.0, 4.5, 9.0)
] + [(128, 0.0, 0.0), (128, 0.0, 4.0)]


class TestExpm:
    # chunk lengths tau as in `evolve`, where gamma tau is capped at ln 1e4
    @pytest.mark.parametrize("n,h,gamma", FRAME_KERNELS)
    def test_frame_kernel_matches_scipy(self, n, h, gamma):
        kernel = realspace._kernel(ModelParams(n, h, gamma, "open"))
        for tau in (0.05, 1.5, 6.0, 12.0):
            if gamma > 0:
                tau = min(tau, math.log(1e4) / gamma)
            a = -1j * tau * kernel
            assert rel_dev(_kernels.expm(a), sla.expm(a)) < 1e-13

    @pytest.mark.parametrize("n", [6, 8])
    @pytest.mark.parametrize("boundary", ["periodic", "open"])
    def test_dense_sector_blocks_match_scipy(self, n, boundary):
        for h, gamma in ((0.3, 0.5), (0.3, 2.0), (0.0, 4.5)):
            p = ModelParams(n, h, gamma, boundary)
            for rows in ed._parity_sectors(n):
                for t in (0.5, 2.0):
                    a = -1j * t * ed._generator(p, rows)
                    assert rel_dev(_kernels.expm(a), sla.expm(a)) < 1e-13

    def test_zero_matrix_gives_identity_exactly(self):
        np.testing.assert_array_equal(_kernels.expm(np.zeros((6, 6), complex)), np.eye(6))

    @pytest.mark.parametrize("factor", [0.999, 1.001])
    def test_either_side_of_the_scaling_threshold(self, factor):
        # 1-norm just below theta_13 takes no squaring, just above takes one
        rng = np.random.default_rng(5)
        x = rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10))
        a = factor * _kernels._THETA_13 * x / np.linalg.norm(x, 1)
        assert rel_dev(_kernels.expm(a), sla.expm(a)) < 1e-13

    def test_non_finite_input_raises(self):
        a = np.eye(4, dtype=complex)
        a[1, 2] = np.nan
        with pytest.raises(NumericalFault, match="non-finite"):
            _kernels.expm(a)
