"""Entire functions of z**2 used by the closed-form mode formulas.

Both helpers are even in z, so they are insensitive to the branch chosen
for eps = sqrt(alpha^2 + beta^2); near z = 0 they switch to truncated
Taylor series to avoid 0/0.
"""

from __future__ import annotations

import numpy as np

_SMALL = 1e-4


def csinc(z):
    """sin(z)/z for a complex array z, smooth through z = 0."""
    z = np.asarray(z, dtype=complex)
    small = np.abs(z) < _SMALL
    safe = np.where(small, 1.0, z)
    return np.where(small, 1.0 - z * z / 6.0 + z**4 / 120.0, np.sin(safe) / safe)


def phi3(z):
    """(sin(z) - z)/z**3 for complex z, smooth through z = 0."""
    z = np.asarray(z, dtype=complex)
    small = np.abs(z) < _SMALL
    safe = np.where(small, 1.0, z)
    return np.where(
        small,
        -1.0 / 6.0 + z * z / 120.0 - z**4 / 5040.0,
        (np.sin(safe) - safe) / safe**3,
    )
