"""Dense 2^N reference implementation used to arbitrate every other module.

Everything here works in the spin basis.  The chain Hamiltonian is
H = -sum_i (s^x_i s^x_{i+1} + h s^z_i) with the requested boundary, the
monitored number operator is n_i = (1 + s^z_i)/2, and the no-click
evolution is the normalized action of exp(-i H_eff t) with
H_eff = H - (i gamma / 2) sum_i n_i.

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

_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


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


def _site_operator(op: np.ndarray, site: int, n: int) -> np.ndarray:
    out = np.array([[1.0 + 0j]])
    for j in range(n):
        out = np.kron(out, op if j == site else np.eye(2, dtype=complex))
    return out


@lru_cache(maxsize=4)
def _sx_total(n: int) -> np.ndarray:
    """S_x = (1/2) sum_i s^x_i."""
    acc = np.zeros((2**n, 2**n), dtype=complex)
    for i in range(n):
        acc += _site_operator(_SX, i, n)
    return 0.5 * acc


@lru_cache(maxsize=4)
def _number_total(n: int) -> np.ndarray:
    """sum_i n_i with n_i = (1 + s^z_i)/2."""
    acc = np.zeros((2**n, 2**n), dtype=complex)
    for i in range(n):
        acc += 0.5 * (np.eye(2**n, dtype=complex) + _site_operator(_SZ, i, n))
    return acc


@lru_cache(maxsize=4)
def _sz_total(n: int) -> np.ndarray:
    acc = np.zeros((2**n, 2**n), dtype=complex)
    for i in range(n):
        acc += _site_operator(_SZ, i, n)
    return acc


def _xx_bond(i: int, j: int, n: int) -> np.ndarray:
    return _site_operator(_SX, i, n) @ _site_operator(_SX, j, n)


def build_hamiltonian(params: ModelParams) -> np.ndarray:
    """Hermitian part: -sum_i s^x_i s^x_{i+1} - h sum_i s^z_i."""
    n = params.n_sites
    h_mat = np.zeros((2**n, 2**n), dtype=complex)
    bonds = n if params.boundary == "periodic" else n - 1
    for i in range(bonds):
        h_mat -= _xx_bond(i, (i + 1) % n, n)
    h_mat -= params.h * _sz_total(n)
    return h_mat


def build_h_eff(params: ModelParams) -> np.ndarray:
    """Non-Hermitian no-click generator H - (i gamma / 2) sum_i n_i."""
    return build_hamiltonian(params) - 0.5j * params.gamma * _number_total(params.n_sites)


def dense_vacuum(n_sites: int) -> DenseState:
    """Product state with every monitored number n_i = 0."""
    amps = np.zeros(2**n_sites, dtype=complex)
    amps[-1] = 1.0  # all s^z = -1 under the bit convention below
    return DenseState(amps, n_sites)


def _basis_parity(n: int) -> np.ndarray:
    """Fermion parity (+1/-1) of each basis state: even/odd occupied count."""
    idx = np.arange(2**n)
    # bit = 0 means s^z = +1, i.e. occupied (n_i = 1)
    occupied = n - np.array([bin(i).count("1") for i in idx])
    return np.where(occupied % 2 == 0, 1, -1)


def dense_ground_state(params: ModelParams) -> tuple[DenseState, float]:
    """Ground state of the gamma = 0 chain and its energy.

    For the periodic chain this is the even-fermion-parity ground state,
    matching the anti-periodic momentum-grid construction; for the open
    chain the global ground state is returned.
    """
    hermitian = build_hamiltonian(params.with_gamma(0.0))
    n = params.n_sites
    if params.boundary == "periodic":
        mask = _basis_parity(n) == 1
        sub = hermitian[np.ix_(mask, mask)]
        vals, vecs = np.linalg.eigh(sub)
        amps = np.zeros(2**n, dtype=complex)
        amps[mask] = vecs[:, 0]
        return DenseState(amps, n), float(vals[0])
    vals, vecs = np.linalg.eigh(hermitian)
    return DenseState(vecs[:, 0].astype(complex), n), float(vals[0])


def evolve_dense(params: ModelParams, t: float, initial: DenseState) -> DenseState:
    """Normalized exp(-i H_eff t) |initial>."""
    if initial.n_sites != params.n_sites:
        raise ValueError("state size does not match params")
    h_eff = build_h_eff(params)
    psi = sla.expm(-1j * t * h_eff) @ initial.amplitudes
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
    if spread > 0.05:
        raise NumericalFault(
            f"finite-difference QFI did not converge: {coarse:.6e} vs {fine:.6e}"
        )
    return rich


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
    composite Simpson; F = 4 (<O+O> - |<O>|^2) on the normalized state.
    """
    n = params.n_sites
    if n > MAX_QUADRATURE_SITES:
        raise ValueError(f"quadrature oracle capped at {MAX_QUADRATURE_SITES} sites")
    if wrt == "gamma":
        gen = -0.5 * _number_total(n)
    elif wrt == "h":
        gen = 1j * _sz_total(n)
    else:
        raise ValueError(f"unknown parameter {wrt!r}")

    h_eff = build_h_eff(params)
    vals, vecs = np.linalg.eig(h_eff)
    cond = np.linalg.cond(vecs)
    if cond > 1e8:
        raise NumericalFault(f"H_eff eigenbasis too ill-conditioned (cond = {cond:.2e})")
    vecs_inv = np.linalg.inv(vecs)
    gen_tilde = vecs_inv @ gen @ vecs

    def weighted_sum(nodes: np.ndarray, weights: np.ndarray) -> np.ndarray:
        ea = np.exp(-1j * np.outer(nodes, vals))  # rows: exp(-i w s_j)
        eb = np.exp(+1j * np.outer(nodes, vals))
        kernel = (ea * weights[:, None]).T @ eb  # sum_j w_j outer(a_j, b_j)
        return gen_tilde * kernel

    # the doubling cap bounds the (2 * panels + 1) x 2^N node arrays above
    o_tilde = adaptive_simpson(weighted_sum, t, 16, 12, rel_tol, "Sneddon quadrature stalled")
    o_full = vecs @ o_tilde @ vecs_inv
    psi = evolve_dense(params, t, initial).amplitudes
    o_psi = o_full @ psi
    return float(4.0 * (np.vdot(o_psi, o_psi).real - abs(np.vdot(psi, o_psi)) ** 2))


def sx_variance_dense(state: DenseState) -> float:
    """<S_x^2> - <S_x>^2 by direct operator application."""
    sx = _sx_total(state.n_sites)
    psi = state.amplitudes
    sx_psi = sx @ psi
    mean = np.vdot(psi, sx_psi).real
    return float(np.vdot(sx_psi, sx_psi).real - mean**2)


def sx_expectation(state: DenseState) -> float:
    sx = _sx_total(state.n_sites)
    return float(np.vdot(state.amplitudes, sx @ state.amplitudes).real)


def occupation_profile(state: DenseState) -> np.ndarray:
    """<n_i> per site."""
    n = state.n_sites
    psi = state.amplitudes
    out = np.empty(n)
    for i in range(n):
        op = 0.5 * (np.eye(2**n, dtype=complex) + _site_operator(_SZ, i, n))
        out[i] = np.vdot(psi, op @ psi).real
    return out


def xx_correlator_dense(state: DenseState, i: int, j: int) -> complex:
    """<s^x_i s^x_j> (0-based sites)."""
    n = state.n_sites
    op = _xx_bond(i, j, n)
    return complex(np.vdot(state.amplitudes, op @ state.amplitudes))
