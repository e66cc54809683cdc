"""Entire functions of z**2 used by the closed-form mode formulas.

Both helpers are even in z, so they are insensitive to the branch chosen
for eps = sqrt(alpha^2 + beta^2); near z = 0 they switch to truncated
Taylor series to avoid 0/0 and, for phi3, the cancellation of sin z - z.
"""

from __future__ import annotations

import math

import numpy as np

_SMALL = 1e-4


def csinc(z):
    """sin(z)/z for a complex array z, smooth through z = 0."""
    z = np.asarray(z, dtype=complex)
    small = np.abs(z) < _SMALL
    safe = np.where(small, 1.0, z)
    return np.where(small, 1.0 - z * z / 6.0 + z**4 / 120.0, np.sin(safe) / safe)


# Below |z| = 1 phi3 is its even Taylor series through z**16, whose first
# omitted term is below 1e-18 of the sum.  Above it the direct form
# (sin z - z)/z**3 loses a factor of about 6/|z|**2, at most 6, to cancellation.
_PHI3_SWITCH = 1.0
_PHI3_TAYLOR = tuple((-1.0) ** (k + 1) / math.factorial(2 * k + 3) for k in range(9))


def phi3(z):
    """(sin(z) - z)/z**3 for complex z, smooth through z = 0."""
    z = np.asarray(z, dtype=complex)
    out = np.empty_like(z)
    small = np.abs(z) < _PHI3_SWITCH
    z2 = z[small] ** 2
    series = np.full_like(z2, _PHI3_TAYLOR[-1])
    for coeff in _PHI3_TAYLOR[-2::-1]:
        series = series * z2 + coeff
    out[small] = series
    large = z[~small]
    out[~small] = (np.sin(large) - large) / large**3
    return out
