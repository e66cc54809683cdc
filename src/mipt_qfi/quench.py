"""Mode dynamics of the quench scenario.

The initial state is the gamma = 0 Ising ground state in BCS form,
prod_k (u_k + v_k c+_k c+_{-k}) |0>, one amplitude pair per positive
grid momentum, held as two arrays u, v over the blocks of a `Mode`.
Switching the monitoring on at t = 0 evolves each pair by the
non-unitary 2x2 map

    i d/dt (u_k, v_k)^T = M_k (u_k, v_k)^T,

solved in closed form as exp(-i M_k t) = cos(eps t) I - i t sinc(eps t) M_k.
Both coefficient functions are entire in eps^2, so the map is smooth
through the exceptional point eps = 0 (where it degenerates to the
Jordan-block form I - i M_k t) and independent of the branch convention.
"""

from __future__ import annotations

import numpy as np

from ._entire import csinc
from .spectral import Mode, block_eigenvector

__all__ = ["ising_ground_amplitudes", "evolve_amplitudes"]


def ising_ground_amplitudes(mode: Mode) -> tuple[np.ndarray, np.ndarray]:
    """Normalized gamma = 0 ground pair (u, v) of each block of mode.

    Only Re(alpha) and beta enter, so mode may carry any rate: with
    gamma = 0 each M_k is real symmetric, and the pair is the eigenvector of
    its negative eigenvalue, with u > 0.
    """
    alpha0 = np.real(mode.alpha)
    return block_eigenvector(alpha0, mode.beta, -np.sqrt(alpha0 * alpha0 + mode.beta * mode.beta))


def evolve_amplitudes(mode: Mode, u, v, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Apply exp(-i M_k t) to every pair (u_k, v_k); the output is unnormalized."""
    if not np.isfinite(t):
        raise ValueError(f"time must be finite, got {t}")
    alpha, beta, eps = mode.alpha, mode.beta, mode.eps  # eps enters evenly below
    c = np.cos(eps * t)
    s = -1j * t * csinc(eps * t)
    return c * u + s * (alpha * u + beta * v), c * v + s * (beta * u - alpha * v)
