"""Momentum grid and per-mode spectra of the monitored Ising chain.

The chain H = -sum_i (s^x_i s^x_{i+1} + h s^z_i), continuously monitored
in the local number n_i = (1 + s^z_i)/2 at rate gamma, evolves in the
no-click limit under H_eff = H - (i gamma / 2) sum_i n_i.  After a
Jordan-Wigner transformation the translation-invariant (periodic-spin)
problem splits into independent 2x2 Bogoliubov-de Gennes blocks

    M_k = [[alpha_k, beta_k], [beta_k, -alpha_k]],
    alpha_k = -2 cos k - 2 h - i gamma / 2,   beta_k = 2 sin k,

one per momentum of the anti-periodic fermion grid.  The complex
eigenvalues eps_k = +/- sqrt(alpha_k^2 + beta_k^2) carry a decay rate
Gamma_k = Im(eps_k); this module fixes the branch Gamma_k <= 0, with the
Hermitian tie-break E_k <= 0 when the pair is real.  (The decay rate
Gamma_k is not the real-space Majorana matrix Gamma = Im(M M+) of
`realspace`.)  `mode_system` returns the blocks and their branch as one
`Mode` record of arrays over the requested momenta.

All functions are pure; nothing here touches I/O or global state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoCriticalPointError, NumericalFault

__all__ = ["ModelParams", "mode_system", "critical_gamma", "spectrum_table"]

PERIODIC = "periodic"
OPEN = "open"


@dataclass(frozen=True)
class ModelParams:
    """Knobs of the monitored chain; the Ising coupling is fixed to 1.

    n_sites : even chain length, >= 4
    h       : transverse field (dimensionless), not NaN
    gamma   : measurement rate, >= 0
    boundary: "periodic" (spin chain; momentum-space methods) or "open"
              (real-space methods)
    """

    n_sites: int
    h: float
    gamma: float
    boundary: str = PERIODIC

    def __post_init__(self):
        if self.n_sites < 4 or self.n_sites % 2 != 0:
            raise ValueError(f"n_sites must be even and >= 4, got {self.n_sites}")
        if not self.gamma >= 0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        # a large or infinite h stays accepted: it overflows into typed faults
        if math.isnan(self.h):
            raise ValueError(f"h must be a number, got {self.h}")
        if self.boundary not in (PERIODIC, OPEN):
            raise ValueError(f"boundary must be 'periodic' or 'open', got {self.boundary!r}")

    def with_gamma(self, gamma: float) -> "ModelParams":
        return ModelParams(self.n_sites, self.h, gamma, self.boundary)


@dataclass(frozen=True)
class Mode:
    """Blocks M_k = [[alpha, beta], [beta, -alpha]] and their chosen branch eps.

    One array entry per momentum; eps = E + i Gamma with Gamma <= 0.
    """

    k: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    eps: np.ndarray

    @property
    def E(self) -> np.ndarray:
        return self.eps.real

    @property
    def Gamma(self) -> np.ndarray:
        return self.eps.imag


def momentum_grid(n_sites: int) -> np.ndarray:
    """Positive momenta k_n = (2n - 1) pi / N, n = 1 .. N/2.

    These are the anti-periodic fermion momenta of the even-parity sector
    of the periodic spin chain; only the positive half is needed because
    modes pair as (k, -k).
    """
    if n_sites < 2 or n_sites % 2 != 0:
        raise ValueError(f"momentum grid needs an even n_sites >= 2, got {n_sites}")
    n = np.arange(1, n_sites // 2 + 1)
    return (2 * n - 1) * np.pi / n_sites


def _branch_eigenvalue(alpha, beta):
    """Square root of alpha^2 + beta^2 with Gamma <= 0, and E <= 0 on ties, elementwise."""
    eps = np.sqrt(alpha * alpha + beta * beta)
    flip = (eps.imag > 0.0) | ((eps.imag == 0.0) & (eps.real > 0.0))
    return np.where(flip, -eps, eps)


def mode_system(params: ModelParams, k) -> Mode:
    """Block entries and chosen eigenvalue branch at the momenta k in (0, pi).

    The fields of the Mode have the shape of k.  Raises ValueError for an
    open chain, which has no momentum blocks, and NumericalFault naming
    gamma and h when eps is not finite: alpha^2 overflows once gamma or |h|
    nears 1e154.
    """
    if params.boundary != PERIODIC:
        raise ValueError(f"momentum modes need the periodic chain, got boundary {params.boundary!r}")
    ks = np.asarray(k, dtype=float)
    if not np.all((ks > 0.0) & (ks < np.pi)):
        raise ValueError(f"momentum must lie in (0, pi), got {k}")
    # filled in place so that gamma = 0 keeps the -0.0 imaginary part of
    # complex(x, -0.5 * gamma)
    alpha = np.empty(ks.shape, dtype=complex)
    alpha.real = -2.0 * np.cos(ks) - 2.0 * params.h
    alpha.imag = -0.5 * params.gamma
    beta = 2.0 * np.sin(ks)
    # an overflow leaves a non-finite eps, which the test below rejects
    with np.errstate(over="ignore", invalid="ignore"):
        eps = _branch_eigenvalue(alpha, beta)
    if not np.all(np.isfinite(eps)):
        raise NumericalFault(
            f"mode spectrum is not finite at gamma = {params.gamma!r}, h = {params.h!r}"
        )
    return Mode(ks, alpha, beta, eps)


def critical_gamma(h: float) -> float:
    """Critical measurement rate gamma_c = 4 sqrt(1 - h^2), defined for |h| < 1."""
    if not abs(h) < 1.0:
        raise NoCriticalPointError(f"no critical point for |h| >= 1 (h = {h})")
    return 4.0 * math.sqrt(1.0 - h * h)


def critical_momentum(h: float) -> float:
    """Momentum k_c = arccos(-h) of the mode whose gap closes at gamma_c."""
    if not abs(h) < 1.0:
        raise NoCriticalPointError(f"no critical mode for |h| >= 1 (h = {h})")
    return math.acos(-h)


def critical_mode_system(h: float, gamma: float) -> Mode:
    """Mode exactly at k_c, where Re(alpha) = 0 analytically, as 0-d arrays.

    Built from the closed forms alpha = -i gamma / 2, beta = 2 sqrt(1 - h^2)
    rather than from cos(arccos(-h)), so Gamma_{k_c} = 0 holds exactly for
    gamma <= gamma_c instead of up to round-off.
    """
    alpha = np.array(complex(0.0, -0.5 * gamma))
    beta = np.array(2.0 * math.sqrt(1.0 - h * h))
    return Mode(np.array(critical_momentum(h)), alpha, beta, _branch_eigenvalue(alpha, beta))


def block_eigenvector(alpha, beta, lam):
    """Normalized eigenvector (beta, lam - alpha) of M_k for its eigenvalue lam.

    Its first entry is real and positive, since beta > 0 for k in (0, pi).
    """
    v = lam - alpha
    norm = np.sqrt(beta * beta + np.abs(v) ** 2)
    return beta / norm, v / norm


def spectrum_table(params: ModelParams) -> np.ndarray:
    """(N/2, 3) array of rows (k, E_k, Gamma_k) over the momentum grid.

    Raises, from `mode_system`, ValueError for an open chain and
    NumericalFault when the mode spectrum is not finite.
    """
    ks = momentum_grid(params.n_sites)
    mode = mode_system(params, ks)
    return np.column_stack([ks, mode.E, mode.Gamma])
