"""Dense 2^N reference implementation used to arbitrate every other module.

Everything here works in the spin basis.  The chain Hamiltonian is
H = -sum_i (s^x_i s^x_{i+1} + h s^z_i) with the requested boundary, the
monitored number operator is n_i = (1 + s^z_i)/2, and the no-click
evolution is the normalized action of exp(-i H_eff t) with
H_eff = H - (i gamma / 2) sum_i n_i.

Bit convention: site i of basis state x is bit N-1-i of x (site 0 is the
most significant bit), and bit 0 means s^z_i = +1, i.e. n_i = 1.  So s^z
and n_i are diagonal, s^x_i sends x to x ^ (1 << (N-1-i)), and every
operator is built or applied from these bit operations alone.

Parity sectors: every term of H_eff conserves the fermion parity
(-1)^(sum_i n_i), since an xx bond flips two bits and s^z, n_i are
diagonal; both QFI generators are diagonal too.  Evolution and the
generator quadrature therefore run on each parity sector (2^(N-1) states)
in which the initial state has weight; a sector without weight is never
touched and stays exactly zero.

The two QFI routes implemented here (central finite differences of the
normalized state, and the covariance of the time-integrated generator
built by adaptive Simpson quadrature) are deliberately independent of
the free-fermion machinery and of each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg as sla

from ._simpson import adaptive_simpson
from .errors import NumericalFault
from .spectral import ModelParams

__all__ = [
    "DenseState",
    "dense_vacuum",
    "dense_ground_state",
    "evolve_dense",
    "qfi_finite_difference",
    "o_covariance_qfi",
    "sx_variance_dense",
    "sx_expectation",
    "occupation_profile",
    "xx_correlator_dense",
    "build_hamiltonian",
    "build_h_eff",
]

MAX_DENSE_SITES = 12
MAX_QUADRATURE_SITES = 10


@dataclass
class DenseState:
    """Normalized many-body state over 2^n_sites spin configurations."""

    amplitudes: np.ndarray
    n_sites: int

    def __post_init__(self):
        if self.n_sites > MAX_DENSE_SITES:
            raise ValueError(f"dense oracle capped at {MAX_DENSE_SITES} sites")
        if self.amplitudes.shape != (2**self.n_sites,):
            raise ValueError("amplitude vector has wrong length")

    def normalized(self) -> "DenseState":
        return DenseState(self.amplitudes / np.linalg.norm(self.amplitudes), self.n_sites)


def _site_mask(n: int, site: int) -> int:
    """The bit of a basis index that holds `site`; s^x_site flips it."""
    return 1 << (n - 1 - site)


@lru_cache(maxsize=4)
def _site_bits(n: int) -> np.ndarray:
    """(2^n, n) table: entry [x, i] is site i's bit of x, 0 for s^z_i = +1."""
    masks = np.array([_site_mask(n, i) for i in range(n)])
    bits = ((np.arange(2**n)[:, None] & masks) != 0).astype(int)
    bits.setflags(write=False)
    return bits


def _occupations(n: int) -> np.ndarray:
    """sum_i n_i of every basis state."""
    return n - _site_bits(n).sum(axis=1)


def _parity_sectors(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Ascending basis indices of the even and of the odd fermion-parity sector."""
    odd = _occupations(n) % 2 == 1
    return np.flatnonzero(~odd), np.flatnonzero(odd)


def _occupied_sectors(state: DenseState) -> list[np.ndarray]:
    """The parity sectors in which state has non-zero weight."""
    return [rows for rows in _parity_sectors(state.n_sites) if np.any(state.amplitudes[rows])]


def _generator(params: ModelParams, rows: np.ndarray) -> np.ndarray:
    """H_eff on the ascending basis states `rows`, the full space or one parity sector."""
    n = params.n_sites
    occupied = _occupations(n)[rows]
    out = np.diag(-params.h * (2 * occupied - n) - 0.5j * params.gamma * occupied)
    cols = np.arange(rows.size)
    bonds = n if params.boundary == "periodic" else n - 1
    for i in range(bonds):
        flip = _site_mask(n, i) ^ _site_mask(n, (i + 1) % n)
        out[np.searchsorted(rows, rows ^ flip), cols] -= 1.0
    return out


def build_hamiltonian(params: ModelParams) -> np.ndarray:
    """Hermitian part: -sum_i s^x_i s^x_{i+1} - h sum_i s^z_i."""
    return _generator(params.with_gamma(0.0), np.arange(2**params.n_sites))


def build_h_eff(params: ModelParams) -> np.ndarray:
    """Non-Hermitian no-click generator H - (i gamma / 2) sum_i n_i."""
    return _generator(params, np.arange(2**params.n_sites))


def dense_vacuum(n_sites: int) -> DenseState:
    """Product state with every monitored number n_i = 0."""
    amps = np.zeros(2**n_sites, dtype=complex)
    amps[-1] = 1.0  # all s^z = -1 under the bit convention above
    return DenseState(amps, n_sites)


def dense_ground_state(params: ModelParams) -> tuple[DenseState, float]:
    """Ground state of the gamma = 0 chain and its energy.

    For the periodic chain this is the even-fermion-parity ground state,
    matching the anti-periodic momentum-grid construction; for the open
    chain the global ground state is returned.
    """
    n = params.n_sites
    rows = _parity_sectors(n)[0] if params.boundary == "periodic" else np.arange(2**n)
    vals, vecs = np.linalg.eigh(_generator(params.with_gamma(0.0), rows))
    amps = np.zeros(2**n, dtype=complex)
    amps[rows] = vecs[:, 0]
    return DenseState(amps, n), float(vals[0])


def evolve_dense(params: ModelParams, t: float, initial: DenseState) -> DenseState:
    """Normalized exp(-i H_eff t) |initial>, one occupied parity sector at a time."""
    if initial.n_sites != params.n_sites:
        raise ValueError("state size does not match params")
    psi = np.zeros(2**params.n_sites, dtype=complex)
    for rows in _occupied_sectors(initial):
        psi[rows] = sla.expm(-1j * t * _generator(params, rows)) @ initial.amplitudes[rows]
    norm = np.linalg.norm(psi)
    if norm == 0.0 or not np.isfinite(norm):
        raise NumericalFault(f"dense evolution lost normalization at t = {t}")
    return DenseState(psi / norm, params.n_sites)


def _normalized_psi(params: ModelParams, t: float, initial: DenseState, wrt: str, shift: float):
    if wrt == "gamma":
        shifted = params.with_gamma(params.gamma + shift)
    elif wrt == "h":
        shifted = ModelParams(params.n_sites, params.h + shift, params.gamma, params.boundary)
    else:
        raise ValueError(f"unknown parameter {wrt!r}")
    return evolve_dense(shifted, t, initial).amplitudes


def _qfi_from_derivative(psi: np.ndarray, dpsi: np.ndarray) -> float:
    overlap = np.vdot(psi, dpsi)
    return float(4.0 * (np.vdot(dpsi, dpsi).real - abs(overlap) ** 2))


def qfi_finite_difference(
    params: ModelParams,
    t: float,
    initial: DenseState,
    delta: float = 1e-5,
    wrt: str = "gamma",
) -> float:
    """QFI from central differences of the normalized state, Richardson once.

    The state is normalized before differentiating; for non-unitary
    evolution differentiating the raw exponential would give the QFI of
    the wrong (unphysical) family.
    """
    psi = _normalized_psi(params, t, initial, wrt, 0.0)
    estimates = []
    for step in (delta, delta / 2.0):
        dpsi = (
            _normalized_psi(params, t, initial, wrt, +step)
            - _normalized_psi(params, t, initial, wrt, -step)
        ) / (2.0 * step)
        estimates.append(_qfi_from_derivative(psi, dpsi))
    coarse, fine = estimates
    rich = (4.0 * fine - coarse) / 3.0
    spread = abs(fine - coarse) / max(abs(rich), 1e-30)
    if not spread <= 0.05:
        raise NumericalFault(
            f"finite-difference QFI did not converge: {coarse:.6e} vs {fine:.6e}"
        )
    return rich


def _integrated_generator_times(
    h_eff: np.ndarray, gen: np.ndarray, t: float, psi: np.ndarray, rel_tol: float
) -> np.ndarray:
    """O psi for O = int_0^t exp(-i H_eff s) diag(gen) exp(i H_eff s) ds on one sector."""
    vals, vecs = np.linalg.eig(h_eff)
    cond = np.linalg.cond(vecs)
    if cond > 1e8:
        raise NumericalFault(f"H_eff eigenbasis too ill-conditioned (cond = {cond:.2e})")
    vecs_inv = np.linalg.inv(vecs)
    gen_tilde = (vecs_inv * gen) @ vecs

    def weighted_sum(nodes: np.ndarray, weights: np.ndarray) -> np.ndarray:
        ea = np.exp(-1j * np.outer(nodes, vals))  # rows: exp(-i w s_j)
        eb = np.exp(+1j * np.outer(nodes, vals))
        kernel = (ea * weights[:, None]).T @ eb  # sum_j w_j outer(a_j, b_j)
        return gen_tilde * kernel

    # the doubling cap bounds the (2 * panels + 1) x 2^(N-1) node arrays above
    o_tilde = adaptive_simpson(weighted_sum, t, 16, 12, rel_tol, "Sneddon quadrature stalled")
    return vecs @ (o_tilde @ (vecs_inv @ psi))


def o_covariance_qfi(
    params: ModelParams,
    t: float,
    initial: DenseState,
    wrt: str = "gamma",
    rel_tol: float = 1e-10,
) -> float:
    """QFI from the covariance of the time-integrated generator.

    O = int_0^t exp(-i H_eff s) G exp(i H_eff s) ds with G the derivative
    of -i H_eff (G = -(1/2) sum_i n_i for the rate, +i sum_i s^z_i for the
    field).  The integral runs in the eigenbasis of H_eff through adaptive
    composite Simpson, on each parity sector the initial state occupies
    (G and H_eff are block diagonal in them); F = 4 (<O+O> - |<O>|^2) on
    the normalized state.
    """
    n = params.n_sites
    if n > MAX_QUADRATURE_SITES:
        raise ValueError(f"quadrature oracle capped at {MAX_QUADRATURE_SITES} sites")
    occupied = _occupations(n)
    if wrt == "gamma":
        gen = -0.5 * occupied
    elif wrt == "h":
        gen = 1j * (2 * occupied - n)
    else:
        raise ValueError(f"unknown parameter {wrt!r}")

    psi = evolve_dense(params, t, initial).amplitudes
    o_psi = np.zeros_like(psi)
    for rows in _occupied_sectors(initial):
        o_psi[rows] = _integrated_generator_times(
            _generator(params, rows), gen[rows], t, psi[rows], rel_tol
        )
    return float(4.0 * (np.vdot(o_psi, o_psi).real - abs(np.vdot(psi, o_psi)) ** 2))


def _sx_apply(state: DenseState) -> np.ndarray:
    """S_x |psi> with S_x = (1/2) sum_i s^x_i."""
    n = state.n_sites
    idx = np.arange(2**n)
    return 0.5 * sum(state.amplitudes[idx ^ _site_mask(n, i)] for i in range(n))


def sx_variance_dense(state: DenseState) -> float:
    """<S_x^2> - <S_x>^2 by direct operator application."""
    psi = state.amplitudes
    sx_psi = _sx_apply(state)
    mean = np.vdot(psi, sx_psi).real
    return float(np.vdot(sx_psi, sx_psi).real - mean**2)


def sx_expectation(state: DenseState) -> float:
    return float(np.vdot(state.amplitudes, _sx_apply(state)).real)


def occupation_profile(state: DenseState) -> np.ndarray:
    """<n_i> per site."""
    return np.abs(state.amplitudes) ** 2 @ (1 - _site_bits(state.n_sites))


def xx_correlator_dense(state: DenseState, i: int, j: int) -> complex:
    """<s^x_i s^x_j> (0-based sites)."""
    n = state.n_sites
    flip = _site_mask(n, i) ^ _site_mask(n, j)
    psi = state.amplitudes
    return complex(np.vdot(psi, psi[np.arange(2**n) ^ flip]))
