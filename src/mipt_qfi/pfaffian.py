"""Pfaffian of a complex antisymmetric matrix."""

from __future__ import annotations

import numpy as np

from ._kernels import pfaffian_numpy

__all__ = ["pfaffian"]


def pfaffian(a: np.ndarray, atol: float = 1e-10) -> complex:
    """Pf(a) with Pf(a)^2 = det(a); a must be even-dimensional, antisymmetric.

    Skew-symmetric Parlett-Reid tridiagonalization with partial pivoting,
    O(n^3); raises on odd dimension, or on asymmetry beyond atol or a
    non-finite entry.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if n % 2 != 0:
        raise ValueError(f"Pfaffian needs even dimension, got {n}")
    asym = np.max(np.abs(a + a.T)) if n else 0.0
    scale = max(float(np.max(np.abs(a))), 1.0) if n else 1.0
    if not asym <= atol * scale:
        raise ValueError(f"matrix is not antisymmetric (|A + A^T| up to {asym:.2e})")
    return pfaffian_numpy(a)
