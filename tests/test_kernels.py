import functools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg as sla

from mipt_qfi import _kernels, ed, realspace
from mipt_qfi._kernels import pfaffian
from mipt_qfi.errors import NumericalFault
from mipt_qfi.realspace import evolve, evolve_series, init_state, majorana_correlations
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


@functools.lru_cache(maxsize=None)
def evolved_state(n, kind, gamma, t, dt=0.05):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # degenerate h = 0 ground start
        state = init_state(n, kind)
    return evolve(state, ModelParams(n, 0.0, gamma, "open"), dt, int(round(t / dt)))


@functools.lru_cache(maxsize=None)
def _majorana_matrix(n, kind, gamma, t):
    return majorana_correlations(evolved_state(n, kind, gamma, t))


def majorana_matrix(n, kind, gamma, t):
    return _majorana_matrix(n, kind, gamma, t).copy()


def pairwise_table(gamma):
    """<x_i x_j> = (-1)^d Pf(Gamma_block), one pivoted Pfaffian per pair."""
    n = gamma.shape[0] // 2
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            block = gamma[2 * i + 1 : 2 * j + 1, 2 * i + 1 : 2 * j + 1]
            out[i, j] = (-1) ** (j - i) * pfaffian(block)
    return out


def row_by_row_pfaffians(a):
    """Leading Pfaffians of one row by its own elimination, step by step.

    The unbatched form of the table kernel, with its branch rule: a 2x2
    step while |s01| > PIVOT_TOL * scale, else a 4x4 step with S4^-1 from
    the adjugate, else pivoted Pfaffians for the rest of the row.
    """
    s = np.array(a, dtype=float)
    n = s.shape[0]
    out = np.empty(n // 2)
    steps = {"2x2": 0, "4x4": 0, "pivoted": 0}
    scale = float(np.max(np.abs(s), initial=0.0))
    tol = _kernels.PIVOT_TOL
    pf, k = 1.0, 0
    while k < n:
        s01 = s[k, k + 1]
        if abs(s01) > tol * scale:
            pf *= s01
            out[k // 2] = pf
            u = np.outer(s[k + 1, k + 2 :], s[k, k + 2 :] / s01)
            s[k + 2 :, k + 2 :] += u - u.T
            steps["2x2"] += 1
            k += 2
            continue
        out[k // 2] = pf * s01
        if k + 2 == n:
            break
        p = s[k : k + 4, k : k + 4]
        pf4 = p[0, 1] * p[2, 3] - p[0, 2] * p[1, 3] + p[0, 3] * p[1, 2]
        out[k // 2 + 1] = pf * pf4
        if abs(pf4) <= tol * scale**2:
            for m in range(k // 2 + 2, n // 2):
                out[m] = pfaffian(a[: 2 * m + 2, : 2 * m + 2])
                steps["pivoted"] += 1
            break
        pf *= pf4
        q = np.array(
            [
                [0.0, -p[2, 3], p[1, 3], -p[1, 2]],
                [0.0, 0.0, -p[0, 3], p[0, 2]],
                [0.0, 0.0, 0.0, -p[0, 1]],
                [0.0, 0.0, 0.0, 0.0],
            ]
        ) / pf4
        b = s[k : k + 4, k + 4 :]
        u = b.T @ (q @ b)
        s[k + 4 :, k + 4 :] += u - u.T
        steps["4x4"] += 1
        k += 4
    return out, steps


def row_by_row_table(gamma):
    """xx_table and its branch counts, one row elimination at a time."""
    n = gamma.shape[0] // 2
    out = np.zeros((n, n))
    total = {"2x2": 0, "4x4": 0, "pivoted": 0}
    for i in range(n - 1):
        pf, steps = row_by_row_pfaffians(gamma[2 * i + 1 : 2 * n - 1, 2 * i + 1 : 2 * n - 1])
        pf[0::2] *= -1.0  # (-1)^d for d = 1, 2, ...
        out[i, i + 1 :] = pf
        for key in total:
            total[key] += steps[key]
    return out, total


def table_steps(gamma):
    steps = {}
    table = _kernels.xx_table(gamma[None], steps)[0]
    return table, steps


def random_real_antisymmetric(n, seed):
    x = np.random.default_rng(seed).normal(size=(n, n))
    return x - x.T


class TestNestedStringTable:
    @pytest.mark.parametrize("n", [8, 16, 32])
    @pytest.mark.parametrize("kind,gamma,t", STATES)
    def test_matches_pairwise_pivoted_pfaffians(self, n, kind, gamma, t):
        g = majorana_matrix(n, kind, gamma, t)
        np.testing.assert_allclose(_kernels.xx_table(g[None])[0], pairwise_table(g), rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "n,kind,gamma,t",
        [(n, *state) for n in (8, 16, 32) for state in STATES]
        + [(n, "hermitian-ground", 0.75, 7.5) for n in (48, 64, 72, 128)],
    )
    def test_matches_row_by_row_elimination(self, n, kind, gamma, t):
        # the batched kernel takes the same branches as one elimination per row
        g = majorana_matrix(n, kind, gamma, t)
        table, steps = table_steps(g)
        ref, ref_steps = row_by_row_table(g)
        np.testing.assert_allclose(table, ref, rtol=0, atol=1e-12)
        assert steps == ref_steps

    def test_one_row_group_matches_pairwise_pfaffians(self):
        # at N = 72 all 71 rows of the table are in flight at once
        g = majorana_matrix(72, "hermitian-ground", 0.75, 7.5)
        np.testing.assert_allclose(table_steps(g)[0], pairwise_table(g), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n,groups", [
        (64, [63]), (72, [71]), (80, [23, 56]), (96, [22, 73]), (128, [20, 107]),
    ])
    def test_row_groups_of_one_table(self, n, groups, monkeypatch):
        # the rows in flight at once fit FLIGHT_COPIES copies of M0
        seen = []
        monkeypatch.setattr(_kernels, "_eliminate", lambda a, out, scale, steps: seen.append(len(out)))
        _kernels.xx_table(np.zeros((1, 2 * n, 2 * n)))
        assert seen == groups

    def test_ghz_start_reaches_the_ceiling_by_2x2_steps(self):
        g = majorana_matrix(16, "hermitian-ground", 0.75, 0.0)
        table, steps = table_steps(g)
        assert 16 + 2 * table.sum() == pytest.approx(16.0**2, rel=1e-12)
        assert steps == {"2x2": 15 * 16 // 2, "4x4": 0, "pivoted": 0}

    @pytest.mark.parametrize("t", [2.0, 60.0])
    def test_vacuum_start_takes_only_4x4_steps(self, t):
        g = majorana_matrix(16, "vacuum", 0.75, t)
        table, steps = table_steps(g)
        assert steps["2x2"] == 0 and steps["pivoted"] == 0
        # rows of length 2m take floor(m / 2) 4x4 steps
        assert steps["4x4"] == sum(m // 2 for m in range(1, 16))
        i, j = np.triu_indices(16, 1)
        odd = (j - i) % 2 == 1
        assert np.max(np.abs(table[i[odd], j[odd]])) < 1e-14

    @pytest.mark.parametrize(
        "n,kind,counts",
        [
            (64, "hermitian-ground", (1934, 41, 0)),
            (128, "hermitian-ground", (7914, 107, 0)),
            (128, "vacuum", (0, 4032, 0)),
        ],
    )
    def test_branch_counts_of_the_witness_states(self, n, kind, counts):
        _, steps = table_steps(majorana_matrix(n, kind, 0.75, 7.5))
        assert (steps["2x2"], steps["4x4"], steps["pivoted"]) == counts

    def test_steps_accumulate_across_calls(self):
        g = majorana_matrix(8, "hermitian-ground", 0.75, 0.0)
        steps = {}
        _kernels.xx_table(g[None], steps)
        _kernels.xx_table(g[None], steps)
        assert steps == {"2x2": 2 * 7 * 8 // 2, "4x4": 0, "pivoted": 0}


# the table is one group of rows at this size, so row r joins the
# elimination at position r: MID joins inside the first panel, and a 4x4
# step of row STRADDLE at its first position covers the panel's last
# position and the next panel's first
TABLE_SITES = 20
MID, STRADDLE = _kernels.PANEL // 2 - 1, _kernels.PANEL - 1


def planted_gamma(row, block, seed):
    """Random antisymmetric Gamma whose row `row` matrix M_row starts with block."""
    n = TABLE_SITES
    gamma = 0.2 * random_real_antisymmetric(2 * n, seed)
    lo = 2 * row + 1
    gamma[lo : lo + len(block), lo : lo + len(block)] = block
    return gamma


class TestStringTableBranches:
    """Each branch of the elimination, planted in one row of the table."""

    def test_one_group(self):
        n = 2 * TABLE_SITES - 2
        rows = _kernels._rows_in_flight(n, TABLE_SITES - 1, _kernels.FLIGHT_COPIES * n * n)
        assert rows == TABLE_SITES - 1

    def check(self, gamma, row):
        table, steps = table_steps(gamma)
        np.testing.assert_allclose(table, pairwise_table(gamma), rtol=1e-10, atol=1e-15)
        ref, ref_steps = row_by_row_table(gamma)
        np.testing.assert_allclose(table, ref, rtol=1e-10, atol=1e-15)
        assert steps == ref_steps
        m = 2 * TABLE_SITES - 1
        return row_by_row_pfaffians(gamma[2 * row + 1 : m, 2 * row + 1 : m])[1], table

    @pytest.mark.parametrize("row", [MID, STRADDLE])
    def test_generic_matrix(self, row):
        row_steps, _ = self.check(planted_gamma(row, np.zeros((0, 0)), 11), row)
        assert row_steps == {"2x2": TABLE_SITES - 1 - row, "4x4": 0, "pivoted": 0}

    @pytest.mark.parametrize("row", [MID, STRADDLE])
    def test_singular_2x2_pivot_takes_a_4x4_step(self, row):
        gamma = planted_gamma(row, np.zeros((0, 0)), 3)
        lo = 2 * row + 1
        gamma[lo, lo + 1] = gamma[lo + 1, lo] = 0.0
        row_steps, _ = self.check(gamma, row)
        assert row_steps["4x4"] >= 1 and row_steps["pivoted"] == 0

    @pytest.mark.parametrize("row", [MID, STRADDLE])
    @pytest.mark.parametrize("lead", [0, 2])
    def test_singular_2x2_and_4x4_blocks_fall_back_to_pivoting(self, row, lead):
        # a regular 2x2 lead (or none), then a block whose leading 4x4 is zero
        block = np.zeros((lead + 12, lead + 12))
        block[lead:, lead:] = 0.2 * random_real_antisymmetric(12, 7)
        block[lead : lead + 4, lead : lead + 4] = 0.0
        if lead:
            block[0, 1], block[1, 0] = 0.5, -0.5
        gamma = planted_gamma(row, block, 5)
        lo = 2 * row + 1
        gamma[lo : lo + lead, lo + len(block) :] = 0.0
        gamma[lo + len(block) :, lo : lo + lead] = 0.0
        row_steps, table = self.check(gamma, row)
        m = TABLE_SITES - 1 - row  # Pfaffians in the row
        assert row_steps == {"2x2": lead // 2, "4x4": 0, "pivoted": m - lead // 2 - 2}
        # the blocks that end in the zero 2x2 and 4x4 pivots are exactly singular
        assert np.all(table[row, row + lead // 2 + 1 : row + lead // 2 + 3] == 0.0)

    def test_4x4_step_with_a_decoupled_first_row(self):
        # S4[0, 2] = S4[0, 3] = 0: a small pivot s01 whose 4x4 block only
        # passes the Pf(S4) test because an earlier small 2x2 pivot grew
        # S4[2, 3] to about 67
        block = np.zeros((6, 6))
        block[0, 1], block[0, 4], block[1, 5] = 0.015, 1.0, 1.0
        block[2, 3] = 1e-3
        block = block - block.T
        gamma = planted_gamma(MID, block, 9)
        lo = 2 * MID + 1
        for r in (lo, lo + 1, lo + 2):  # the planted rows stay as written
            keep = gamma[r, lo : lo + 6].copy()
            gamma[r, :], gamma[:, r] = 0.0, 0.0
            gamma[r, lo : lo + 6], gamma[lo : lo + 6, r] = keep, -keep
        row_steps, _ = self.check(gamma, MID)
        assert row_steps["4x4"] >= 1 and row_steps["pivoted"] == 0


def witness_frames(n, kind, t=7.5, gamma=0.75):
    """Start, parameters and step of a witness-scaling series at h = 0.

    Its frames at 4, 5 and 6 steps are the times 0.8 t, t and 1.2 t.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # degenerate h = 0 ground start
        state = init_state(n, kind)
    return state, ModelParams(n, 0.0, gamma, "open"), t / 5


def stacked_and_single(gammas):
    """xx_table of the stack and of each matrix alone, with their branch counts."""
    stacked, single = {}, {}
    table = _kernels.xx_table(gammas, stacked)
    tables = np.stack([_kernels.xx_table(g[None], single)[0] for g in gammas])
    return table, stacked, tables, single


class TestStackedStringTable:
    """A stack of K Majorana matrices gives each matrix's own table, bit for bit."""

    @pytest.mark.parametrize("n,kind,gamma,t", [(n, *state) for n in (8, 16, 32) for state in STATES])
    def test_stack_equals_single_tables(self, n, kind, gamma, t):
        gammas = np.stack([majorana_matrix(n, kind, gamma, f * t) for f in (0.8, 1.0, 1.2)])
        table, stacked, tables, single = stacked_and_single(gammas)
        np.testing.assert_array_equal(table, tables)
        assert stacked == single

    @pytest.mark.parametrize("n,kind,groups", [
        (16, "hermitian-ground", [3]),
        (32, "vacuum", [3]),
        (42, "hermitian-ground", [3]),
        (42, "vacuum", [3]),
        (48, "hermitian-ground", [2, 1]),
        (48, "vacuum", [2, 1]),
        (50, "hermitian-ground", [2, 1]),
        (50, "vacuum", [2, 1]),
        (64, "hermitian-ground", [1, 1, 1]),
        (64, "vacuum", [1, 1, 1]),
    ])
    def test_witness_frames_split_by_matrices(self, n, kind, groups, monkeypatch):
        state, params, step = witness_frames(n, kind)
        gammas = np.stack([majorana_correlations(f) for f in evolve_series(state, params, step, (4, 5, 6))])
        seen = []
        eliminate = _kernels._eliminate

        def counted(a, out, scale, steps):
            seen.append(len(a))
            eliminate(a, out, scale, steps)

        monkeypatch.setattr(_kernels, "_eliminate", counted)
        table, stacked, tables, single = stacked_and_single(gammas)
        # whole matrices per group, then the three single tables
        assert seen == groups + [1, 1, 1]
        np.testing.assert_array_equal(table, tables)
        assert stacked == single

    def test_pivoted_fallback_reads_its_own_matrix(self):
        # the middle matrix's row MID has a zero 2x2 and a zero 4x4 pivot
        block = 0.2 * random_real_antisymmetric(12, 7)
        block[:4, :4] = 0.0
        gammas = np.stack([planted_gamma(MID, np.zeros((0, 0)), seed) for seed in (11, 5, 3)])
        gammas[1] = planted_gamma(MID, block, 5)
        table, stacked, tables, single = stacked_and_single(gammas)
        np.testing.assert_array_equal(table, tables)
        assert stacked == single and stacked["pivoted"] == TABLE_SITES - 1 - MID - 2
        np.testing.assert_allclose(table[1], pairwise_table(gammas[1]), rtol=1e-10, atol=1e-15)

    def test_rejects_a_single_matrix(self):
        g = majorana_matrix(8, "vacuum", 0.75, 2.0)
        with pytest.raises(ValueError, match="stack"):
            _kernels.xx_table(g)

    @pytest.mark.parametrize("shape", [(1, 7, 7), (0, 8, 8)], ids=["odd-dimension", "empty-stack"])
    def test_rejects_an_odd_dimension_or_an_empty_stack(self, shape):
        # (1, 7, 7) returned a (1, 3, 3) table, and (0, 8, 8) died in np.concatenate
        with pytest.raises(ValueError, match="non-empty stack"):
            _kernels.xx_table(np.zeros(shape))

    def test_witness_of_no_frames_is_rejected(self):
        # it used to raise IndexError on states[0]
        with pytest.raises(ValueError, match="non-empty stack"):
            realspace.witness_qfis([])


def traced_peak(f, *args):
    """Peak traced memory of f(*args) above what was allocated before, and its result."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = f(*args)
        return tracemalloc.get_traced_memory()[1] - base, out
    finally:
        tracemalloc.stop()


class TestStringTableMemory:
    @pytest.mark.parametrize("n", [16, 64, 80, 96, 128])
    def test_table_peak_is_at_most_the_evolution_peak(self, n):
        # tracemalloc counts numpy's buffers exactly, so this is deterministic;
        # at N = 96 and 128 two more copies in FLIGHT_COPIES would pass the bound
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            state = init_state(n, "hermitian-ground")
        params = ModelParams(n, 0.0, 0.75, "open")
        evolve_peak, state = traced_peak(evolve, state, params, 0.05, 150)
        table_peak, _ = traced_peak(_kernels.xx_table, majorana_correlations(state)[None])
        assert table_peak <= evolve_peak

    @pytest.mark.parametrize("n", [16, 32, 48, 64])
    @pytest.mark.parametrize("kind", ["hermitian-ground", "vacuum"])
    def test_stack_peak_is_at_most_the_series_peak_or_the_floor(self, n, kind):
        # the three witness tables of one size: up to N = 48 the floor bounds
        # them, at N = 64 (one table at a time) the evolution does
        state, params, step = witness_frames(n, kind)
        series_peak, frames = traced_peak(evolve_series, state, params, step, (4, 5, 6))
        gammas = np.stack([majorana_correlations(f) for f in frames])
        stack_peak, _ = traced_peak(_kernels.xx_table, gammas)
        assert stack_peak <= max(series_peak, 8 * _kernels.FLIGHT_FLOOR)


class TestMajoranaMatrixChecks:
    @pytest.mark.parametrize("kind,gamma,t", STATES)
    def test_real_and_exactly_antisymmetric(self, kind, gamma, t):
        # the imaginary part of the complex product (G - G^T) / 2, G = M M+,
        # is the same matrix, and its real part is round-off
        gam = majorana_matrix(16, kind, gamma, t)
        assert gam.dtype == np.float64
        assert np.array_equal(gam, -gam.T)
        st_ = evolved_state(16, kind, gamma, t)
        m = np.empty((32, 16), dtype=complex)
        m[0::2] = st_.U + st_.V
        m[1::2] = 1j * (st_.V - st_.U)
        g = m @ m.conj().T
        g = 0.5 * (g - g.T)
        np.testing.assert_allclose(gam, g.imag, rtol=0, atol=1e-15)
        assert np.max(np.abs(g.real)) <= 1e-15

    def test_non_finite_entry_raises(self):
        g = majorana_matrix(8, "vacuum", 0.75, 1.0)
        g[3, 4], g[4, 3] = np.nan, np.nan
        with pytest.raises(NumericalFault, match="non-finite"):
            _kernels.xx_table(g[None])


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

    def test_overflowing_squaring_raises_without_warning(self):
        # e^{-i 1e300 H} is unitary, but its 997 squarings blow up the
        # round-off of the scaled approximant long before the last
        a = -1e300j * ed._generator(ModelParams(4, 0.3, 0.0), ed._parity_sectors(4)[0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalFault, match=r"overflowed at squaring \d+ of 997"):
                _kernels.expm(a)

    def test_underflow_gives_zeros(self):
        # e^{-1e5} is below the smallest double
        np.testing.assert_array_equal(_kernels.expm(-1e5 * np.eye(3)), np.zeros((3, 3)))


class TestExpmFrechetBlock:
    """exp([[A, diag(e)], [0, A]]) = [[e^A, L(A, diag(e))], [0, e^A]], L the Frechet derivative."""

    @staticmethod
    def parts(a, e):
        d = a.shape[0]
        full = _kernels.expm(np.block([[a, np.diag(e)], [np.zeros_like(a), a]]))
        return full[:d, :d], full[:d, d:], full[d:, :d], full[d:, d:]

    @pytest.mark.parametrize("parity", [0, 1], ids=["even", "odd"])
    @pytest.mark.parametrize("n", [4, 6])
    def test_sector_block_matches_scipy(self, n, parity):
        # X = -i t H_eff and e = t G, G = -(1/2) sum_i n_i the rate generator,
        # on either parity sector, across scalings of zero to six squarings
        p = ModelParams(n, 0.3, 2.0)
        rows = ed._parity_sectors(n)[parity]
        for t in (0.05, 1.5, 12.0):
            a = -1j * t * ed._generator(p, rows)
            e = t * (-0.5 * ed._occupations(n)[rows])
            exp_a, frechet = sla.expm_frechet(a, np.diag(e))
            top, derivative, corner, bottom = self.parts(a, e)
            assert rel_dev(top, exp_a) < 1e-13
            assert rel_dev(bottom, exp_a) < 1e-13
            assert rel_dev(derivative, frechet) < 1e-13
            assert not corner.any()

    def test_scalar_matrix_still_differentiates(self):
        # exp([[mu, e], [0, mu]]) = e^mu [[1, e], [0, 1]] entry by entry
        mu = 0.3 - 0.2j
        e = np.array([1.0, -2.0, 0.5, 3.0])
        v = np.array([1.0, 2.0j, -1.0, 0.5])
        top, derivative, _, _ = self.parts(mu * np.eye(4), e)
        assert rel_dev(top @ v, np.exp(mu) * v) < 1e-15
        assert rel_dev(derivative @ v, np.exp(mu) * e * v) < 1e-15

    def test_non_finite_input_raises(self):
        a = np.eye(4, dtype=complex)
        a[1, 2] = np.inf
        with pytest.raises(NumericalFault, match="non-finite"):
            self.parts(a, np.ones(4))
