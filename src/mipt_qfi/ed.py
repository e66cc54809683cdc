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
generator integral therefore run on each parity sector (2^(N-1) states)
in which the initial state has weight; a sector without weight is never
touched and stays exactly zero.

The two QFI routes implemented here are deliberately independent of the
free-fermion machinery and of each other.  Central finite differences
differentiate the normalized state of `evolve_dense`, whose sector
exponentials are the numpy Pade approximant `_kernels.expm`.  The
covariance of the time-integrated generator takes one eigendecomposition
of H_eff per sector, which gives the evolved state and the integral in
closed form, with no quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._entire import csinc
from ._kernels import expm
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
# o_covariance_qfi takes a dense eig of each 2^(N-1) sector
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
        psi[rows] = expm(-1j * t * _generator(params, rows)) @ initial.amplitudes[rows]
    return DenseState(psi / _evolved_norm(psi, t), params.n_sites)


def _evolved_norm(psi: np.ndarray, t: float) -> float:
    norm = np.linalg.norm(psi)
    if norm == 0.0 or not np.isfinite(norm):
        raise NumericalFault(f"dense evolution lost normalization at t = {t}")
    return norm


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


def o_covariance_qfi(params: ModelParams, t: float, initial: DenseState, wrt: str = "gamma") -> float:
    """QFI from the covariance of the time-integrated generator.

    O = int_0^t exp(-i H_eff s) G exp(i H_eff s) ds with G the derivative
    of -i H_eff (G = -(1/2) sum_i n_i for the rate, +i sum_i s^z_i for the
    field).  G and H_eff are block diagonal in the parity sectors.  On each
    sector the initial state occupies, one eigendecomposition
    H_eff = V diag(w) V^-1 gives both the evolved state V e^{-iwt} V^-1 psi0
    and O in closed form, (V^-1 O V)_ab = (V^-1 G V)_ab t e^{-i d t/2}
    sinc(d t/2) with d = w_a - w_b.  O acts on the evolved coefficients
    e^{-i w_b t} c_b; the product is applied to the unevolved c_b as the
    bounded kernel (e^{-i w_b t} - e^{-i w_a t}) / (i d), since Im w <= 0,
    and in the csinc form where |d t| < 1.  F = 4 (<O+O> - |<O>|^2) on the
    normalized state.  Raises NumericalFault when an eigenbasis is
    ill-conditioned, the state loses its norm, or F is not finite.
    """
    n = params.n_sites
    if n > MAX_QUADRATURE_SITES:
        raise ValueError(f"quadrature oracle capped at {MAX_QUADRATURE_SITES} sites")
    if initial.n_sites != n:
        raise ValueError("state size does not match params")
    occupied = _occupations(n)
    if wrt == "gamma":
        gen = -0.5 * occupied
    elif wrt == "h":
        gen = 1j * (2 * occupied - n)
    else:
        raise ValueError(f"unknown parameter {wrt!r}")

    psi = np.zeros(2**n, dtype=complex)
    o_psi = np.zeros_like(psi)
    # at extreme times O itself overflows; the checks below decide, quietly
    with np.errstate(over="ignore", invalid="ignore"):
        for rows in _occupied_sectors(initial):
            vals, vecs = np.linalg.eig(_generator(params, rows))
            cond = np.linalg.cond(vecs)
            if cond > 1e8:
                raise NumericalFault(f"H_eff eigenbasis too ill-conditioned (cond = {cond:.2e})")
            vecs_inv = np.linalg.inv(vecs)
            coeffs = vecs_inv @ initial.amplitudes[rows]
            phase = np.exp(-1j * t * vals)
            gap = np.subtract.outer(vals, vals)
            near = np.abs(gap * t) < 1.0
            half = np.where(near, 0.5 * t * gap, 0.0)
            kernel = np.where(
                near,
                t * np.exp(-1j * half) * csinc(half) * phase,
                (phase - phase[:, None]) / (1j * np.where(near, 1.0, gap)),
            )
            psi[rows] = vecs @ (phase * coeffs)
            o_psi[rows] = vecs @ (((vecs_inv * gen[rows]) @ vecs * kernel) @ coeffs)
        norm = _evolved_norm(psi, t)
        psi /= norm
        o_psi /= norm
        qfi = 4.0 * (np.vdot(o_psi, o_psi).real - abs(np.vdot(psi, o_psi)) ** 2)
    if not np.isfinite(qfi):
        raise NumericalFault(f"Sneddon QFI is not finite ({qfi}) at t = {t}, {params}")
    return float(qfi)


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
