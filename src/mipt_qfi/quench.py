"""Mode dynamics of the quench scenario.

The initial state is the gamma = 0 Ising ground state in BCS form,
prod_k (u_k + v_k c+_k c+_{-k}) |0>, one amplitude pair per positive
grid momentum.  Switching the monitoring on at t = 0 evolves each pair
by the non-unitary 2x2 map

    i d/dt (u_k, v_k)^T = M_k (u_k, v_k)^T,

solved in closed form as exp(-i M_k t) = cos(eps t) I - i t sinc(eps t) M_k.
Both coefficient functions are entire in eps^2, so the map is smooth
through the exceptional point eps = 0 (where it degenerates to the
Jordan-block form I - i M_k t) and independent of the branch convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._entire import csinc
from .spectral import Mode, ModelParams, mode_system, momentum_grid

__all__ = [
    "BogoliubovAmplitudes",
    "ising_ground_amplitudes",
    "evolve_amplitudes",
    "mode_occupations",
    "site_occupation",
]


@dataclass
class BogoliubovAmplitudes:
    """Per-mode BCS amplitudes on the positive momentum grid.

    Amplitudes are generally unnormalized during non-unitary evolution;
    |u_k|^2 + |v_k|^2 must stay positive for every mode.
    """

    k: np.ndarray
    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        if not (self.k.shape == self.u.shape == self.v.shape):
            raise ValueError("k, u, v must share one shape")
        norms = np.abs(self.u) ** 2 + np.abs(self.v) ** 2
        if np.any(norms <= 0.0):
            raise ValueError("mode amplitudes collapsed to zero")


def _ground_pair(mode: Mode) -> tuple[np.ndarray, np.ndarray]:
    """Normalized gamma = 0 ground eigenvector (u, v) of each block.

    With gamma = 0 each M_k is real symmetric; the negative-eigenvalue
    eigenvector is (beta, eps - alpha) up to normalization, which already
    has u > 0 since beta > 0 for k in (0, pi).
    """
    alpha0 = np.real(mode.alpha)
    eps = -np.sqrt(alpha0 * alpha0 + mode.beta * mode.beta)
    u, v = mode.beta, eps - alpha0
    scale = np.sqrt(u * u + v * v)
    return u / scale, v / scale


def ising_ground_amplitudes(params: ModelParams) -> BogoliubovAmplitudes:
    """Ground state of the unmonitored chain, mode by mode."""
    if params.boundary != "periodic":
        raise ValueError("momentum-space ground state needs periodic boundary")
    k = momentum_grid(params.n_sites)
    u, v = _ground_pair(mode_system(params, k))
    return BogoliubovAmplitudes(k, u.astype(complex), v.astype(complex))


def evolve_amplitudes(
    amps: BogoliubovAmplitudes, params: ModelParams, t: float
) -> BogoliubovAmplitudes:
    """Apply exp(-i M_k t) to every mode pair; output is unnormalized."""
    if not np.isfinite(t):
        raise ValueError(f"time must be finite, got {t}")
    mode = mode_system(params, amps.k)
    alpha, beta, eps = mode.alpha, mode.beta, mode.eps  # eps enters evenly below
    c = np.cos(eps * t)
    s = -1j * t * csinc(eps * t)
    u = c * amps.u + s * (alpha * amps.u + beta * amps.v)
    v = c * amps.v + s * (beta * amps.u - alpha * amps.v)
    return BogoliubovAmplitudes(amps.k, u, v)


def mode_occupations(amps: BogoliubovAmplitudes) -> np.ndarray:
    """Monitored occupation <n_k> = |u_k|^2 / (|u_k|^2 + |v_k|^2) per mode.

    Under the ODE convention i (u, v)' = M_k (u, v) the u component is the
    amplitude of the occupied pair: in the h -> +infinity limit the ground
    state has |u| -> 1 and every monitored number is 1 (field-aligned).
    """
    nu = np.abs(amps.u) ** 2
    nv = np.abs(amps.v) ** 2
    return nu / (nu + nv)


def site_occupation(amps: BogoliubovAmplitudes) -> float:
    """Translation-invariant <n_i> = (2/N) sum_k <n_k> over positive modes."""
    n_sites = 2 * amps.k.size
    return float(2.0 / n_sites * np.sum(mode_occupations(amps)))
