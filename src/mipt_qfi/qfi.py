"""Quench-scenario quantum Fisher information for the monitoring rate.

Per mode, the time-integrated generator of rate-translations is the
quadratic form of a traceless 2x2 matrix

    R_k(t) = int_0^t exp(-i M_k s) sigma_z exp(i M_k s) ds,

with the closed form (entire in (eps t)^2, so branch-free and smooth
through the exceptional point)

    A(t) = t + 4 beta^2 t^3 phi(2 eps t)
    B(t) = -4 alpha beta t^3 phi(2 eps t) + i beta t^2 sinc(eps t)^2
    C(t) = -4 alpha beta t^3 phi(2 eps t) - i beta t^2 sinc(eps t)^2,

phi(z) = (sin z - z)/z^3, R = [[A, B], [C, -A]].  The QFI is the sum over
modes of the covariance of R_k in the evolved pair state, evaluated as
the squared off-diagonal element |<w_perp| R |w_hat>|^2, which is exact
for a two-component pure state and avoids the catastrophic cancellation
of <R+R> - |<R>|^2 once the entries grow like exp(2 |Gamma| t).

Splitting R exactly into linear, constant, growing and decaying parts,

    R(t) = t (alpha/eps^2) M + (i beta / 2 eps^2) [[0, 1], [-1, 0]]
           + R+ e^{2 i eps t} + R- e^{-2 i eps t},
    R+ = [[At, Bt], [Ct, -At]],     At = -i beta^2 / (4 eps^3),
    Bt = i beta (alpha - eps) / (4 eps^3),
    Ct = i beta (alpha + eps) / (4 eps^3),

one can read off the long-time behavior of each mode.  The growing term
R+ annihilates the dominant eigenvector, so its covariance in the
converged state cancels exactly: a mode with decay contrast saturates at

    F_k = cov(constant part, dominant eigenvector)
        = beta^2 |u~^2 + v~^2|^2 / (4 |eps^2|^2),

approached with corrections that die like exp(4 Gamma_k t), Gamma_k <= 0.
The exponential era visible before saturation is governed by the R+
coefficient on the not-yet-converged state, which is what diverges with
the printed critical laws at k_c: (gamma - gamma_c)^{-3} from above and,
through the linear-in-t term, (gamma_c - gamma)^{-2} from below.
"""

from __future__ import annotations

import numpy as np

from ._entire import csinc, phi3
from .errors import NumericalFault
from .quench import evolve_amplitudes, ising_ground_amplitudes
from .spectral import (
    Mode,
    ModelParams,
    block_eigenvector,
    critical_gamma,
    critical_mode_system,
    mode_system,
    momentum_grid,
)

__all__ = [
    "r_matrix",
    "qfi_quench",
    "mode_qfi_coefficients",
    "fbar",
    "critical_mode_coefficient",
]

# modes whose decay contrast is below this are treated as non-exponential
DEGENERATE_GAMMA_TOL = 1e-12

# qfi_quench raises once its estimated round-off floor exceeds this share of F
_ROUNDOFF_RTOL = 1e-6

# |eps_k|^2 below this share of |alpha_k|^2 + beta_k^2 is round-off of an
# exact zero: the grid mode sits on the exceptional point
_EXCEPTIONAL_RTOL = 16.0 * np.finfo(float).eps

# largest residual of the tilde factorization, relative to the entries of R
_FACTORIZATION_RTOL = 1e-9


def _closed_form_entries(mode: Mode, t):
    alpha, beta, eps = mode.alpha, mode.beta, mode.eps
    # float64 overflows to inf under the caller's errstate where a Python
    # float raises OverflowError; a scalar t stays a numpy scalar, whose
    # power rounds like the Python float's and unlike the array loop's
    t = np.asarray(t, dtype=float)[()]
    p = phi3(2.0 * eps * t)
    s2 = csinc(eps * t) ** 2
    a = t + 4.0 * beta * beta * t**3 * p
    shared = -4.0 * alpha * beta * t**3 * p
    osc = 1j * beta * t * t * s2
    return a, shared + osc, shared - osc


def r_matrix(mode: Mode, t: float) -> np.ndarray:
    """Generator kernel R_k(t) = [[A, B], [C, -A]] in closed form, shape (..., 2, 2).

    The leading axes are those of the mode arrays: (2, 2) for one momentum.
    """
    if not t >= 0:
        raise ValueError(f"time must be >= 0, got {t}")
    a, b, c = _closed_form_entries(mode, t)
    return np.stack([np.stack([a, b], axis=-1), np.stack([c, -a], axis=-1)], axis=-2)


def _off_diagonal(entries, u, v):
    """<w_perp| R |w_hat> per mode for R = [[a, b], [c, -a]] and the pair w = (u, v).

    Its squared modulus is <R+R> - |<R>|^2 on the normalized w, exact for
    pure states in two dimensions and stable when R carries large
    exponential factors.
    """
    a, b, c = entries
    norm = np.sqrt(np.abs(u) ** 2 + np.abs(v) ** 2)
    u, v = u / norm, v / norm
    return -v * (a * u + b * v) + u * (c * u - a * v)


def qfi_quench(params: ModelParams, t: float) -> float:
    """QFI for estimating gamma at time t after the monitoring quench.

    Starts from the gamma = 0 ground state, evolves each mode pair under
    M_k, and sums the per-mode covariance of R_k.  The additive constant
    in the generator cancels in the covariance and never enters.  Raises
    ValueError for t < 0, and NumericalFault when round-off of the evolved
    pairs, amplified by the growing entries of R_k, could exceed 1e-6 of
    the result, or when F or the floor is not finite: the estimated floor
    is sum_k (2 |off_k| n_k + n_k^2) with n_k = eps_mach * max(|A_k|,
    |B_k|, |C_k|).
    """
    if not t >= 0:
        raise ValueError(f"time must be >= 0, got {t}")
    mode = mode_system(params, momentum_grid(params.n_sites))
    u0, v0 = ising_ground_amplitudes(mode)
    # past the floor the entries overflow; the check below decides, quietly
    with np.errstate(over="ignore", invalid="ignore"):
        u, v = evolve_amplitudes(mode, u0, v0, t)
        entries = _closed_form_entries(mode, t)
        off = np.abs(_off_diagonal(entries, u, v))
        total = float(np.sum(off**2))
        noise = np.finfo(float).eps * np.max(np.abs(entries), axis=0)
        floor = float(np.sum(2.0 * off * noise + noise**2))
    if not (np.isfinite(total) and floor <= _ROUNDOFF_RTOL * total):
        raise NumericalFault(
            f"quench QFI at t = {t}: round-off floor {floor:.2e} is not within "
            f"{_ROUNDOFF_RTOL:g} of F = {total:.2e}"
        )
    return total


def _tilde_entries(mode: Mode):
    alpha, beta, eps = mode.alpha, mode.beta, mode.eps
    denom = 4.0 * eps**3
    return (
        -1j * beta * beta / denom,
        1j * beta * (alpha - eps) / denom,
        1j * beta * (alpha + eps) / denom,
    )


def _assert_factorization(mode: Mode, tildes, check) -> None:
    """Check the exact split of R into linear + constant + growing + decaying.

    Fixes the signs of the tilde coefficients by identity rather than by
    asymptotics, so the check is sharp at any probe time.  The probe times
    0.7 and 1.9 are divided by max(1, |eps_k|), which keeps exp(2 |Gamma_k| t)
    bounded at any rate.  Runs on the modes where check is True and names
    the worst one.
    """
    alpha, beta, eps = mode.alpha, mode.beta, mode.eps
    ta, tb, tc = tildes
    t = np.array([[0.7], [1.9]]) / np.maximum(1.0, np.abs(eps))
    # an overflow leaves a nan residual, which the test below rejects
    with np.errstate(over="ignore", invalid="ignore"):
        a, b, c = _closed_form_entries(mode, t)
        ep, em = np.exp(2j * eps * t), np.exp(-2j * eps * t)
        lin = alpha / (eps * eps) * t
        const = 0.5j * beta / (eps * eps)
        resid = np.max(np.abs([
            a - (alpha * lin + ta * (ep - em)),
            b - (beta * lin + const + tb * ep - tc * em),
            c - (beta * lin - const + tc * ep - tb * em),
        ]), axis=0)
        scale = np.maximum(np.max(np.abs([a, b, c]), axis=0), 1.0)
        ratio = np.max(np.where(check, resid / scale, 0.0), axis=0)
    worst = int(np.argmax(ratio))
    if not ratio[worst] <= _FACTORIZATION_RTOL:
        raise NumericalFault(
            f"tilde factorization failed at k = {mode.k[worst]:.6f} "
            f"(relative residual {ratio[worst]:.2e})"
        )


def _linear_entries(mode: Mode):
    """Entries of the linear-in-t part of R per unit time, (alpha / eps^2) M."""
    lin = mode.alpha / (mode.alpha**2 + mode.beta**2)
    return lin * mode.alpha, lin * mode.beta, lin * mode.beta


def mode_qfi_coefficients(params: ModelParams) -> np.ndarray:
    """Time-free QFI coefficients F_k of the grid modes, ascending in k.

    A mode with decay contrast saturates at F_k, with corrections that die
    like exp(4 Gamma_k t); for gamma > 0 generic grids every mode does, and
    sum F_k is the late-time plateau of the full QFI.  A mode without decay
    contrast (gamma = 0, or the critical momentum below gamma_c) follows a
    t^2 law instead, and F_k is its coefficient on the quench initial state.
    Raises NumericalFault when gamma = gamma_c puts the exceptional point
    eps = 0 on a grid momentum, where the plateau diverges, when gamma is
    so large (from about 1e103) that eps^3 overflows, and, from
    `mode_system`, when the mode spectrum itself is not finite.
    """
    mode = mode_system(params, momentum_grid(params.n_sites))
    alpha, beta, eps = mode.alpha, mode.beta, mode.eps
    exceptional = np.abs(eps) ** 2 <= _EXCEPTIONAL_RTOL * (np.abs(alpha) ** 2 + beta * beta)
    if np.any(exceptional):
        raise NumericalFault(
            f"exceptional point on the grid at k = {mode.k[np.argmax(exceptional)]:.6f}: "
            f"gamma = gamma_c = {critical_gamma(params.h):.6g}, where the QFI plateau diverges"
        )
    degenerate = np.abs(mode.Gamma) <= DEGENERATE_GAMMA_TOL * np.maximum(1.0, np.abs(eps))
    # eps^3 overflows from gamma ~ 1e103 on; the tilde entries then read nan
    # and the factorization check fails, which is reported as the overflow
    with np.errstate(over="ignore", invalid="ignore"):
        tildes = _tilde_entries(mode)
    try:
        _assert_factorization(mode, tildes, ~degenerate)
    except NumericalFault:
        if np.all(np.isfinite(tildes[0])):
            raise
        raise NumericalFault(
            f"rate gamma = {params.gamma!r} is too large: eps^3 overflows in the tilde entries (h = {params.h!r})"
        ) from None
    # the growing term annihilates the dominant eigenvector of M_k, for the
    # larger-Im eigenvalue -eps, so the limit is set by the constant part
    const = 0.5j * beta / (alpha**2 + beta**2)
    f_limit = np.abs(_off_diagonal((0.0, const, -const), *block_eigenvector(alpha, beta, -eps))) ** 2
    # real-eigenvalue modes follow a t^2 law set by the linear part of R
    # on the quench initial state
    f_t2 = np.abs(_off_diagonal(_linear_entries(mode), *ising_ground_amplitudes(mode))) ** 2
    return np.where(degenerate, f_t2, f_limit)


def fbar(params: ModelParams) -> float:
    """Auxiliary sum Fbar = sum_k F_k of the time-free mode coefficients.

    Raises NumericalFault when the sum or the mode spectrum is not finite.
    """
    value = float(np.sum(mode_qfi_coefficients(params)))
    if not np.isfinite(value):
        raise NumericalFault(f"Fbar is not finite ({value}) at {params}")
    return value


def critical_mode_coefficient(h: float, gamma: float) -> float:
    """Time-free QFI coefficient at the exact (off-grid) k_c = arccos(-h).

    Above gamma_c the mode grows exponentially and the coefficient of the
    dominant term exp(-4 Gamma t) scales as (gamma - gamma_c)^{-3}; below
    gamma_c the eigenvalue pair is real, the growth is t^2, and the
    coefficient scales as (gamma_c - gamma)^{-2}.  Both are evaluated on
    the quench initial state, which at k_c is (1, -1)/sqrt(2).  Diverges
    at gamma = gamma_c exactly; a non-finite value (gamma so large that
    eps^3 or alpha^2 overflows) raises NumericalFault.  Raises ValueError
    for a negative or NaN rate, as ModelParams does.
    """
    if not gamma >= 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    gc = critical_gamma(h)
    if gamma == gc:
        raise ValueError("coefficient diverges exactly at gamma_c")
    # an overflow leaves a non-finite value, which the test below rejects
    with np.errstate(over="ignore", invalid="ignore"):
        mode = critical_mode_system(h, gamma)
        entries = _linear_entries(mode) if gamma < gc else _tilde_entries(mode)
        value = float(abs(_off_diagonal(entries, *ising_ground_amplitudes(mode))) ** 2)
    if not np.isfinite(value):
        raise NumericalFault(
            f"critical-mode coefficient is not finite at h = {h!r}, gamma = {gamma!r}"
        )
    return value
