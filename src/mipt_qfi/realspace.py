"""Real-space Gaussian-state evolution for the witness scenario.

The no-click state of the open chain stays Gaussian at all times and is
held as the one 2N x N frame array W = [[U], [V]] of `GaussianState`,
whose U and V are views of it: its columns are the
quasiparticle operators chi_m = sum_i (conj(U_im) c_i + conj(V_im) c_i+)
that annihilate the state.  The frame obeys i dW/dt = K W with the
single-particle kernel

    K = [[conj(A), P], [-P, -conj(A)]],
    A = A_hop - (2 h + i gamma / 2) I,   A_hop[i, i+1] = A_hop[i+1, i] = 1,
    P[i, i+1] = -P[i+1, i] = 1,

where the fermionization dictionary is s^z = 2 n - 1 with string factors
(2 n_j - 1), so the monitored number n_i is the fermion number.  The
kernel is time independent, so `evolve_series` gives the frames at a
series of multiples of one step from a single exponential of one chunk
(the degree-13 Pade approximant with scaling and squaring,
`_kernels.expm`), short enough that its non-unitary growth stays within
e^{gamma tau} <= 1e4.  The chunk is applied cumulatively, and the frame
columns are re-orthonormalized by QR at each returned time and whenever
the growth since the last QR would pass 1e4; QR restores U+U + V+V = I
without changing the physical state.  `evolve` is the series of one time.

Every two-point function follows from the frame: with psi = (c; c+),
<psi psi+> = W W+.  The Majorana operators a_i = c_i + c_i+ and
b_i = i (c_i+ - c_i) therefore have the rows M[2i] = U_i + V_i and
M[2i+1] = i (V_i - U_i), and <g_p g_q> = (M M+)_pq = delta_pq + i Gamma_pq
with the real antisymmetric Majorana matrix Gamma = Im(M M+).  Spin-spin
correlators <x_i x_j> reduce to Pfaffians of string blocks of Gamma,
all of them at once in O(N^4) by the nested real kernel
`_kernels.xx_table`, and the witness QFI is F = 4 Var(S_x) =
N + 2 sum_{i<j} <x_i x_j> (the mean <S_x> vanishes by fermion parity of
the evolved state).  `witness_qfis` gives F of every frame of one size,
such as a series' three times, from one stacked table, whose frames
share the kernel's loop over positions; `witness_qfi` is its one-frame
case.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ._kernels import expm, xx_table
from .errors import NumericalFault
from .spectral import ModelParams

__all__ = [
    "init_state",
    "evolve",
    "evolve_series",
    "majorana_correlations",
    "witness_qfi",
    "witness_qfis",
    "entanglement_depth",
]

# largest log condition number of a frame entering a QR in `evolve_series`
_LOG_COND = math.log(1e4)

# Most chunk products one `evolve_series` call may take before it raises.
# Its cost is linear in gamma T (one chunk per ln 1e4 of growth), so an
# unbounded time or rate would never end.  At N = 64 a chunk with its QR
# takes 1.1 ms with one OpenBLAS thread and 2.1 ms with two on 2 vCPUs, so
# the largest accepted series takes 2.3-4.2 s there.
MAX_CHUNKS = 2000


@dataclass
class GaussianState:
    """The 2N x N complex frame W = [[U], [V]] with orthonormal columns."""

    W: np.ndarray

    @property
    def n_sites(self) -> int:
        return self.W.shape[1]

    @property
    def U(self) -> np.ndarray:
        return self.W[: self.n_sites]

    @property
    def V(self) -> np.ndarray:
        return self.W[self.n_sites :]

    def orthonormality_defect(self) -> float:
        w = self.W
        return float(np.max(np.abs(w.conj().T @ w - np.eye(self.n_sites))))


def _hermitian_kernel(n: int, h: float) -> np.ndarray:
    """Real K_herm = [[A, P], [-P, -A]] with A = A_hop - 2 h I."""
    bond = np.eye(n, k=1)
    # np.diag, not h * eye: an infinite h leaves the zeros zero, not 0 * inf
    a = bond + bond.T - np.diag(np.full(n, 2.0 * h))
    p = bond - bond.T
    return np.block([[a, p], [-p, -a]])


def _kernel(params: ModelParams) -> np.ndarray:
    """K = K_herm + (i gamma / 2) diag(I, -I)."""
    n = params.n_sites
    rate = np.repeat([0.5j * params.gamma, -0.5j * params.gamma], n)
    return _hermitian_kernel(n, params.h) + np.diag(rate)


def init_state(n_sites: int, kind: str = "vacuum", h: float = 0.0) -> GaussianState:
    """Initial Gaussian frame: monitored-number vacuum or gamma = 0 ground.

    "vacuum" is U = I, V = 0 (every <n_i> = 0).  "hermitian-ground" fills
    the negative-eigenvalue single-particle modes of the open-chain kernel
    at rate zero and field h; at h = 0 the end zero-mode makes the choice
    degenerate, which is warned about and lifted by the eigensolver's
    deterministic negative-branch pair.  A field too large for float64
    leaves the kernel non-finite and raises NumericalFault.
    """
    if n_sites < 2 or n_sites % 2 != 0:
        raise ValueError(f"n_sites must be even and >= 2, got {n_sites}")
    if kind == "vacuum":
        return GaussianState(np.eye(2 * n_sites, n_sites, dtype=complex))
    if kind != "hermitian-ground":
        raise ValueError(f"unknown initial state kind {kind!r}")
    kernel = _hermitian_kernel(n_sites, h)
    if not np.all(np.isfinite(kernel)):
        raise NumericalFault(f"open-chain kernel is not finite at field h = {h}")
    vals, vecs = np.linalg.eigh(kernel)
    if np.min(np.abs(vals)) < 1e-12:
        warnings.warn(
            "open-chain ground state is degenerate (zero mode); "
            "filling the eigensolver's deterministic branch of the pair",
            stacklevel=2,
        )
    # annihilators of the filled Fermi sea are the positive-eigenvalue
    # frame vectors (filling the negative-energy physical modes)
    return GaussianState(vecs[:, np.argsort(vals)[::-1][:n_sites]].astype(complex))


def evolve(state: GaussianState, params: ModelParams, dt: float, n_steps: int) -> GaussianState:
    """Evolve the frame to T = dt * n_steps: `evolve_series` with one step of T.

    dt only sets T.  n_steps = 0 returns a copy of the input frame.
    """
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    if not isinstance(n_steps, (int, np.integer)) or n_steps < 0:
        raise ValueError(f"n_steps must be an integer >= 0, got {n_steps!r}")
    if n_steps == 0:
        _check_evolution(state, params)
        return GaussianState(state.W.copy())
    return evolve_series(state, params, dt * n_steps, [1])[0]


def evolve_series(
    state: GaussianState, params: ModelParams, step: float, counts: Sequence[int]
) -> list[GaussianState]:
    """The frames at the times k * step for each k of counts, from one exponential.

    The kernel is time independent, so e^{-iK k step} is the k-th power
    of e^{-iK step}, and each step may be split further into m equal
    chunks of length tau = step / m.  -iK = -iK_herm + (gamma/2)
    diag(I, -I), so j chunks have condition number at most e^{gamma tau j};
    m = ceil(gamma step / _LOG_COND) keeps one chunk within cond 1e4.  The
    chunk's exponential (the Pade approximant `_kernels.expm`) is built
    once and applied cumulatively.  The frame is re-orthonormalized by QR
    at each returned time, and before a further chunk would take the
    growth since the last QR past _LOG_COND, so every frame entering a QR
    has cond <= 1e4 (gamma = 0 needs a QR only at the returned times).

    counts must be strictly increasing positive integers.  Raises
    NumericalFault when the series would take more than MAX_CHUNKS chunk
    products, naming its last time T, and when a frame loses numerical
    rank.
    """
    _check_evolution(state, params)
    if not step > 0:
        raise ValueError(f"step must be > 0, got {step}")
    counts = list(counts)
    if not (
        counts
        and all(isinstance(k, (int, np.integer)) for k in counts)
        and 0 < counts[0]
        and all(a < b for a, b in zip(counts, counts[1:]))
    ):
        raise ValueError(f"counts must be strictly increasing integers >= 1, got {counts!r}")
    pieces = params.gamma * step / _LOG_COND
    # in float first, so that an overflowing rate or time never reaches ceil
    if not counts[-1] * pieces <= MAX_CHUNKS or counts[-1] * max(1, math.ceil(pieces)) > MAX_CHUNKS:
        raise NumericalFault(
            f"evolution to T = {counts[-1] * step:g} at gamma = {params.gamma:g} needs more "
            f"chunks than MAX_CHUNKS = {MAX_CHUNKS}"
        )
    per_step = max(1, math.ceil(pieces))
    tau = step / per_step
    chunk = expm(-1j * tau * _kernel(params))
    growth = params.gamma * tau  # log condition number that one chunk adds
    w = state.W
    frames = []
    done = grown = 0
    for k in counts:
        while done < k * per_step:
            w = chunk @ w
            done += 1
            grown += growth
            if done == k * per_step or grown + growth > _LOG_COND:
                q, r = np.linalg.qr(w)
                small = np.min(np.abs(np.diagonal(r)))
                if small < 1e-13 * max(1.0, float(np.max(np.abs(r)))):
                    raise NumericalFault(
                        f"frame lost numerical rank at t = {done * tau:g} (pivot {small:.2e})"
                    )
                w, grown = q, 0
        # a QR ends every count, so w is a fresh factor that no later step writes into
        frames.append(GaussianState(w))
    return frames


def _check_evolution(state: GaussianState, params: ModelParams) -> None:
    if params.boundary != "open":
        raise ValueError("real-space evolution is defined for the open chain")
    if params.n_sites != state.n_sites:
        raise ValueError("state size does not match params")


def majorana_correlations(state: GaussianState) -> np.ndarray:
    """Real antisymmetric 2N x 2N Majorana matrix Gamma = Im(M M+).

    Interleaved ordering a_0, b_0, a_1, b_1, ... with a_i = c_i + c_i+ and
    b_i = i (c_i+ - c_i), so that <g_p g_q> = delta_pq + i Gamma_pq.  With
    X = Im(M) Re(M)^T, Gamma = X - X^T: one real product, and exactly
    antisymmetric.
    """
    u, v = state.U, state.V
    m = np.empty((2 * state.n_sites, state.n_sites), dtype=complex)
    m[0::2] = u + v
    m[1::2] = 1j * (v - u)
    x = m.imag @ m.real.T
    return x - x.T


def witness_qfi(state: GaussianState) -> float:
    """F = 4 Var(S_x) = N + 2 sum_{i<j} <x_i x_j>: `witness_qfis` of one frame."""
    return witness_qfis([state])[0]


def witness_qfis(states: Sequence[GaussianState]) -> list[float]:
    """F = 4 Var(S_x) = N + 2 sum_{i<j} <x_i x_j> of each frame of one size.

    <S_x> = 0 by fermion parity of the evolved state (checked against the
    dense oracle in the tests).  The tables of <x_i x_j> come from one call
    of the nested real string-Pfaffian kernel `xx_table` on the stack of
    the frames' Majorana matrices, so that the frames share its loop over
    positions; it checks that the matrices are finite, and a non-finite
    table raises NumericalFault.
    """
    table = xx_table(np.array([majorana_correlations(state) for state in states]))
    if not np.all(np.isfinite(table)):
        raise NumericalFault("witness string table is not finite")
    return [len(t) + 2.0 * float(np.sum(t)) for t in table]


def entanglement_depth(F: float, n_sites: int) -> int:
    """Certified depth: largest m + 1 with F/N > m, at least 1, at most N."""
    if not 0 <= F < math.inf:
        raise ValueError(f"QFI F must be finite and >= 0, got {F}")
    if n_sites < 1:
        raise ValueError(f"n_sites must be >= 1, got {n_sites}")
    ratio = F / n_sites
    m = max(0, math.ceil(ratio - 1.0 - 1e-12))
    return min(m, n_sites - 1) + 1
