"""Adaptive composite Simpson rule on [0, t], shared by both quadrature routes."""

from __future__ import annotations

import numpy as np

from .errors import QuadratureError


def adaptive_simpson(weighted_sum, t: float, panels: int, max_doublings: int,
                     rel_tol: float, message: str) -> np.ndarray:
    """Integral over [0, t] of the caller's integrand f, doubling the panel count.

    weighted_sum(nodes, weights) returns sum_j weights[j] f(nodes[j]), so a
    caller can contract the nodes without storing f at each of them.
    Starting from `panels` Simpson panels, the count doubles until two
    successive sums differ by at most rel_tol times the largest entry of
    the newer one; after max_doublings doublings without that,
    QuadratureError(message, achieved) reports the last relative change.
    """

    def composite(n: int) -> np.ndarray:
        nodes = np.linspace(0.0, t, 2 * n + 1)
        w = np.ones(2 * n + 1)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        return weighted_sum(nodes, w * (t / (2 * n) / 3.0))

    prev = composite(panels)
    achieved = np.inf
    for _ in range(max_doublings):
        panels *= 2
        cur = composite(panels)
        scale = max(float(np.max(np.abs(cur))), 1e-30)
        achieved = float(np.max(np.abs(cur - prev))) / scale
        prev = cur
        if achieved <= rel_tol:
            return cur
    raise QuadratureError(message, achieved)
