"""Test references shared by several test modules: one adaptive-Simpson loop,
the quadrature of the quench generator R_k, and dense and momentum-space
observables that no experiment computes.

A reference that a single test module uses lives in that module.
"""

import numpy as np

from mipt_qfi import ed
from mipt_qfi._entire import csinc
from mipt_qfi.errors import QuadratureError


def adaptive_simpson(weighted_sum, t, panels, doublings, rel_tol, what):
    """Composite Simpson sum for int_0^t f(s) ds, doubling the panel count until it settles.

    weighted_sum(s, w) returns sum_j w_j f(s_j) over the nodes s with the
    Simpson weights w.  The panel count doubles from `panels` until two
    successive sums differ by at most rel_tol times the largest entry of
    the newer one; after `doublings` doublings without that,
    QuadratureError names `what` and reports the last relative change.
    """

    def composite(m):
        s = np.linspace(0.0, t, 2 * m + 1)
        w = np.ones(2 * m + 1)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        return weighted_sum(s, w * (t / (2 * m) / 3.0))

    prev = composite(panels)
    for doubling in range(1, doublings + 1):
        cur = composite(panels * 2**doubling)
        achieved = float(np.max(np.abs(cur - prev))) / max(float(np.max(np.abs(cur))), 1e-30)
        if achieved <= rel_tol:
            return cur
        prev = cur
    raise QuadratureError(f"{what} quadrature stalled", achieved)


def quadrature_entries(mode, t, rel_tol=1e-10):
    """Entries (A, B, C) of int_0^t e^{-iMs} sigma_z e^{iMs} ds by `adaptive_simpson`.

    The reference for the closed form `qfi.r_matrix`: 8 panels, up to 16
    doublings.
    """
    alpha, beta, eps = mode.alpha, mode.beta, mode.eps

    def weighted_sum(s, w):
        c = np.cos(eps * s)
        m = -1j * s * csinc(eps * s)
        e11, e12, e21, e22 = c + m * alpha, m * beta, m * beta, c - m * alpha
        f11, f12, f21, f22 = c - m * alpha, -m * beta, -m * beta, c + m * alpha
        # E sigma_z F with sigma_z = diag(1, -1)
        g11 = e11 * f11 - e12 * f21
        g12 = e11 * f12 - e12 * f22
        g21 = e21 * f11 - e22 * f21
        g22 = e21 * f12 - e22 * f22
        return w @ np.stack([g11, g12, g21, g22], axis=-1)

    a, b, c, _ = adaptive_simpson(weighted_sum, t, 8, 16, rel_tol, "R_k")
    return complex(a), complex(b), complex(c)


def occupation_profile(state):
    """<n_i> per site of a dense state."""
    return np.abs(state.amplitudes) ** 2 @ (1 - ed._site_bits(state.n_sites))


def xx_correlator_dense(state, i, j):
    """<s^x_i s^x_j> of a dense state (0-based sites)."""
    n = state.n_sites
    flip = ed._site_mask(n, i) ^ ed._site_mask(n, j)
    psi = state.amplitudes
    return complex(np.vdot(psi, psi[np.arange(2**n) ^ flip]))


def mode_occupations(amps):
    """Monitored occupation <n_k> = |u_k|^2 / (|u_k|^2 + |v_k|^2) per mode.

    Under the ODE convention i (u, v)' = M_k (u, v) the u component is the
    amplitude of the occupied pair: in the h -> +infinity limit the ground
    state has |u| -> 1 and every monitored number is 1 (field-aligned).
    """
    nu = np.abs(amps.u) ** 2
    nv = np.abs(amps.v) ** 2
    return nu / (nu + nv)


def site_occupation(amps):
    """Translation-invariant <n_i> = (2/N) sum_k <n_k> over positive modes."""
    n_sites = 2 * amps.k.size
    return float(2.0 / n_sites * np.sum(mode_occupations(amps)))
