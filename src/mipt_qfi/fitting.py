"""Least-squares extraction of scaling exponents and growth rates."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["fit_power_law", "fit_exponential_rate", "stable_window_start"]

# stable_window_start takes three log-slopes as steady within this share
_STEADY_SLOPE_RTOL = 0.05


@dataclass(frozen=True)
class FitResult:
    """Fitted slope in log space with its intercept and RMS residual.

    value is the power-law exponent or the exponential rate depending on
    which fit produced it; window holds the abscissas actually used.
    """

    value: float
    intercept: float
    residual: float
    window: tuple[float, ...]

    def as_dict(self) -> dict:
        return {
            "value": self.value,
            "intercept": self.intercept,
            "residual": self.residual,
            "window": list(self.window),
        }


def _check_finite(xs: np.ndarray, ys: np.ndarray) -> None:
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
        raise ValueError("fit needs finite data")


def _line_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    return float(slope), float(intercept), float(math.sqrt(np.mean(resid**2)))


def fit_power_law(xs, ys) -> FitResult:
    """Exponent of y ~ x^p by least squares on (log x, log y)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size < 3:
        raise ValueError(f"need at least 3 points, got {xs.size}")
    _check_finite(xs, ys)
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("power-law fit needs strictly positive data")
    slope, intercept, resid = _line_fit(np.log(xs), np.log(ys))
    return FitResult(slope, intercept, resid, tuple(float(x) for x in xs))


def fit_exponential_rate(ts, fs) -> FitResult:
    """Rate of F ~ exp(r t) by least squares on (t, log F) over every sample.

    Callers pick the samples; quench-series passes its late window.
    """
    ts = np.asarray(ts, dtype=float)
    fs = np.asarray(fs, dtype=float)
    if ts.size < 3:
        raise ValueError(f"need at least 3 points, got {ts.size}")
    _check_finite(ts, fs)
    if np.any(fs <= 0):
        raise ValueError("exponential fit needs strictly positive data")
    slope, intercept, resid = _line_fit(ts, np.log(fs))
    return FitResult(slope, intercept, resid, tuple(float(t) for t in ts))


def stable_window_start(ts, fs) -> int:
    """First index where the local log-slope is steady over three samples.

    Used to exclude the early transient: returns the earliest i such that
    the slopes of the three consecutive segments starting at i agree
    pairwise within _STEADY_SLOPE_RTOL; falls back to 0 if none do.
    """
    ts = np.asarray(ts, dtype=float)
    fs = np.asarray(fs, dtype=float)
    slopes = np.diff(np.log(fs)) / np.diff(ts)
    for i in range(slopes.size - 2):
        trio = slopes[i : i + 3]
        scale = max(abs(trio).max(), 1e-30)
        if (trio.max() - trio.min()) <= _STEADY_SLOPE_RTOL * scale:
            return i
    return 0
