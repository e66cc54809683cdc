"""Real-space Gaussian-state evolution for the witness scenario.

The no-click state of the open chain stays Gaussian at all times and is
tracked by the 2N x N frame W = [[U], [V]]: its columns are the
quasiparticle operators chi_m = sum_i (conj(U_im) c_i + conj(V_im) c_i+)
that annihilate the state.  The frame obeys i dW/dt = K W with the
single-particle kernel

    K = [[conj(A), P], [-P, -conj(A)]],
    A = A_hop - (2 h + i gamma / 2) I,   A_hop[i, i+1] = A_hop[i+1, i] = 1,
    P[i, i+1] = -P[i+1, i] = 1,

where the fermionization dictionary is s^z = 2 n - 1 with string factors
(2 n_j - 1), so the monitored number n_i is the fermion number.  The
kernel is time independent, so `evolve` applies its exact exponential in
the fewest equal chunks whose non-unitary growth keeps the frame well
conditioned (at most e^{gamma tau} <= 1e4 per chunk of length tau), each
followed by QR re-orthonormalization of the frame columns, which restores
U+U + V+V = I without changing the physical state.

Every two-point function follows from the frame: with psi = (c; c+),
<psi psi+> = W W+.  The Majorana operators a_i = c_i + c_i+ and
b_i = i (c_i+ - c_i) therefore have the rows M[2i] = U_i + V_i and
M[2i+1] = i (V_i - U_i), and <g_p g_q> = (M M+)_pq.  Spin-spin
correlators <x_i x_j> reduce to Pfaffians of the Majorana string matrix,
all of them at once in O(N^4) by the nested real kernel
`_kernels.xx_table`, and the witness QFI is F = 4 Var(S_x) =
N + 2 sum_{i<j} <x_i x_j> (the mean <S_x> vanishes by fermion parity of
the evolved state).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from ._kernels import xx_table
from .errors import NumericalFault
from .pfaffian import pfaffian
from .spectral import ModelParams

__all__ = [
    "GaussianState",
    "init_state",
    "evolve",
    "majorana_correlations",
    "xx_correlator",
    "witness_qfi",
    "entanglement_depth",
    "energy_expectation",
]

# largest log condition number of a frame entering a QR in `evolve`
_LOG_COND = math.log(1e4)


@dataclass
class GaussianState:
    """Frame blocks U, V (N x N complex) with orthonormal stacked columns."""

    U: np.ndarray
    V: np.ndarray

    @property
    def n_sites(self) -> int:
        return self.U.shape[0]

    def frame(self) -> np.ndarray:
        return np.vstack([self.U, self.V])

    def orthonormality_defect(self) -> float:
        w = self.frame()
        return float(np.max(np.abs(w.conj().T @ w - np.eye(self.n_sites))))

    def pairing_matrix(self) -> np.ndarray:
        """Z = -(U+)^{-1} V+, antisymmetric for a valid fermionic frame."""
        return -np.linalg.solve(self.U.conj().T, self.V.conj().T)


def _hermitian_kernel(n: int, h: float) -> np.ndarray:
    """Real K_herm = [[A, P], [-P, -A]] with A = A_hop - 2 h I."""
    bond = np.eye(n, k=1)
    a = bond + bond.T - 2.0 * h * np.eye(n)
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
    deterministic negative-branch pair.
    """
    if n_sites < 2 or n_sites % 2 != 0:
        raise ValueError(f"n_sites must be even and >= 2, got {n_sites}")
    if kind == "vacuum":
        return GaussianState(np.eye(n_sites, dtype=complex), np.zeros((n_sites, n_sites), complex))
    if kind != "hermitian-ground":
        raise ValueError(f"unknown initial state kind {kind!r}")
    vals, vecs = np.linalg.eigh(_hermitian_kernel(n_sites, h))
    if np.min(np.abs(vals)) < 1e-12:
        warnings.warn(
            "open-chain ground state is degenerate (zero mode); "
            "filling the eigensolver's deterministic branch of the pair",
            stacklevel=2,
        )
    # annihilators of the filled Fermi sea are the positive-eigenvalue
    # frame vectors (filling the negative-energy physical modes)
    w = vecs[:, np.argsort(vals)[::-1][:n_sites]].astype(complex)
    return GaussianState(w[:n_sites], w[n_sites:])


def evolve(state: GaussianState, params: ModelParams, dt: float, n_steps: int) -> GaussianState:
    """Evolve the frame to T = dt * n_steps in a few exact exponential chunks.

    The kernel is time independent, so e^{-iKT} may be split into any
    number of equal chunks; the frame is re-orthonormalized by QR after
    each.  -iK = -iK_herm + (gamma/2) diag(I, -I), so a chunk of length tau
    has condition number at most e^{gamma tau}; ceil(gamma T / _LOG_COND)
    chunks keep every frame entering a QR within cond 1e4 (gamma = 0 is one
    chunk).  dt only sets the time grid.  n_steps = 0 returns a copy of
    the input frame; a frame that loses numerical rank raises
    NumericalFault.
    """
    if params.boundary != "open":
        raise ValueError("real-space evolution is defined for the open chain")
    if params.n_sites != state.n_sites:
        raise ValueError("state size does not match params")
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    if not isinstance(n_steps, (int, np.integer)) or n_steps < 0:
        raise ValueError(f"n_steps must be an integer >= 0, got {n_steps!r}")
    if n_steps == 0:
        return GaussianState(state.U.copy(), state.V.copy())
    total = dt * n_steps
    chunks = max(1, math.ceil(params.gamma * total / _LOG_COND))
    step = sla.expm(-1j * (total / chunks) * _kernel(params))
    w = state.frame()
    n = state.n_sites
    for c in range(chunks):
        w = step @ w
        q, r = np.linalg.qr(w)
        small = np.min(np.abs(np.diagonal(r)))
        if small < 1e-13 * max(1.0, float(np.max(np.abs(r)))):
            raise NumericalFault(
                f"frame lost numerical rank in chunk {c + 1} of {chunks} (pivot {small:.2e})"
            )
        w = q
    return GaussianState(w[:n].copy(), w[n:].copy())


def majorana_correlations(state: GaussianState) -> np.ndarray:
    """Antisymmetric 2N x 2N matrix of connected Majorana two-point functions.

    Interleaved ordering a_0, b_0, a_1, b_1, ... with a_i = c_i + c_i+ and
    b_i = i (c_i+ - c_i).  <g_p g_q> = G_pq with G = M M+; the symmetric
    part of G is the identity, so (G - G^T)/2 removes it.
    """
    u, v = state.U, state.V
    m = np.empty((2 * state.n_sites, state.n_sites), dtype=complex)
    m[0::2] = u + v
    m[1::2] = 1j * (v - u)
    g = m @ m.conj().T
    return 0.5 * (g - g.T)


def xx_correlator(state: GaussianState, i: int, j: int) -> complex:
    """<x_i x_j> via the Pfaffian of the Jordan-Wigner string block (0-based).

    The string i^d (b_i a_{i+1} b_{i+1} ... a_j), d = j - i, Wick-contracts
    to i^d Pf of the contiguous block g[2i+1:2j+1, 2i+1:2j+1] of the
    Majorana matrix (interleaved a_0, b_0, a_1, ...).
    """
    n = state.n_sites
    if not (0 <= i < j < n):
        raise ValueError(f"need 0 <= i < j < N, got i={i}, j={j}, N={n}")
    sub = majorana_correlations(state)[2 * i + 1 : 2 * j + 1, 2 * i + 1 : 2 * j + 1]
    return (1j) ** (j - i) * pfaffian(sub)


def witness_qfi(state: GaussianState) -> float:
    """F = 4 Var(S_x) = N + 2 sum_{i<j} <x_i x_j>.

    <S_x> = 0 by fermion parity of the evolved state (checked against the
    dense oracle in the tests).  The table of <x_i x_j> comes from the
    nested real string-Pfaffian kernel `xx_table`, which checks that the
    Majorana matrix is finite and imaginary; a non-finite F raises
    NumericalFault.
    """
    table = xx_table(majorana_correlations(state))
    value = state.n_sites + 2.0 * float(np.sum(table))
    if not math.isfinite(value):
        raise NumericalFault(f"witness QFI is not finite ({value})")
    return value


def entanglement_depth(F: float, n_sites: int) -> int:
    """Certified depth: largest m + 1 with F/N > m, at least 1, at most N."""
    if F < 0:
        raise ValueError(f"QFI must be >= 0, got {F}")
    ratio = F / n_sites
    m = max(0, math.ceil(ratio - 1.0 - 1e-12))
    return min(m, n_sites - 1) + 1


def energy_expectation(state: GaussianState, params: ModelParams) -> float:
    """<H> of the open-chain Hermitian part on this Gaussian state.

    H = -sum_i x_i x_{i+1} - h sum_i s^z_i with <x_i x_{i+1}> = -Gamma[2i+1, 2i+2]
    and <s^z_i> = -Gamma[2i, 2i+1], Gamma = Im of the Majorana matrix.
    """
    bonds = np.diagonal(majorana_correlations(state), offset=1).imag
    return float(np.sum(bonds[1::2]) + params.h * np.sum(bonds[0::2]))
