"""Hot numeric kernels: the matrix exponential, the pivoted Pfaffian and the
Jordan-Wigner string table.

`expm` is the degree-13 Pade approximant with scaling and squaring of
Higham (SIAM J. Matrix Anal. Appl. 26, 1179 (2005)), in numpy alone.  The
frame evolution and the dense oracle call it, so every matrix operation
of a run goes through numpy's BLAS.

`pfaffian_numpy` is the skew Parlett-Reid elimination with partial
pivoting (Wimmer, ACM TOMS 38, 30 (2012)).  It backs the public
`pfaffian` and is the reference the string table is tested against.

`xx_table` gives every string correlator <x_i x_j> of a Gaussian state
from its Majorana matrix g = i Gamma, Gamma real.  The string block of
(i, j) is the contiguous principal block Gamma[2i+1:2j+1, 2i+1:2j+1], so
row i of the table is the set of leading even sub-Pfaffians of the one
matrix M_i = Gamma[2i+1:2N-1, 2i+1:2N-1].  `leading_pfaffians` gets all
of them from one unpivoted skew elimination of M_i in real arithmetic,
as running products of pivots (the bordered Schur updates of Bajdich et
al., PRB 77, 115112 (2008)): O(N^3) a row, O(N^4) for the table.

- 2x2 step: Pf(A_{k+2}) = Pf(A_k) s01, then a rank-2 Schur update.
- 4x4 step, when |s01| <= PIVOT_TOL * scale: the small Pf(A_k) s01 is
  recorded, then Pf(A_{k+4}) = Pf(A_k) Pf(S4) and S <- C + B^T S4^-1 B.
  Vacuum starts take it on every odd-distance block, which is exactly
  singular there.
- If Pf(S4) is also at most PIVOT_TOL * scale^2, the rest of the row is
  computed block by block with the pivoted `pfaffian_numpy`.

scale is the largest |entry| of M_i (at most 1 for a physical state).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericalFault

# Relative pivot size below which the elimination takes the 4x4 step.  A
# 2x2 pivot p amplifies round-off by up to scale / p, so this caps the
# growth at 100; a 1e-8 cap let table entries drift by up to 1e-12 from
# the pivoted values on evolved states at N = 64.
PIVOT_TOL = 1e-2

# largest |Re g| accepted as round-off of a purely imaginary Majorana matrix
REAL_PART_TOL = 1e-6

# 1-norm up to which the degree-13 Pade approximant of e^A is accurate to
# double precision (Higham 2005, Table 2.3), and its coefficients b_0 .. b_13
# divided by b_0, so that e^0 = I exactly
_THETA_13 = 5.371920351148152
_PADE_13 = tuple(
    b / 64764752532480000
    for b in (
        64764752532480000, 32382376266240000, 7771770303897600, 1187353796428800,
        129060195264000, 10559470521600, 670442572800, 33522128640,
        1323241920, 40840800, 960960, 16380, 182, 1,
    )
)


def expm(a: np.ndarray) -> np.ndarray:
    """e^a of a square matrix by degree-13 Pade with scaling and squaring.

    a is scaled by 2^-s, s = max(0, ceil(log2(|a|_1 / theta_13))), the
    approximant r = (V - U)^-1 (V + U) is found with one solve, and r is
    squared s times.  Raises NumericalFault on a non-finite input.
    """
    norm = float(np.linalg.norm(a, 1))
    if not np.isfinite(norm):
        raise NumericalFault("matrix exponential of a non-finite matrix")
    s = math.ceil(math.log2(norm / _THETA_13)) if norm > _THETA_13 else 0
    a = a / 2.0**s
    b = _PADE_13
    ident = np.eye(a.shape[0], dtype=a.dtype)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + ident)
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def pfaffian_numpy(a: np.ndarray) -> complex:
    """Pfaffian by skew-symmetric Parlett-Reid elimination with pivoting.

    Mutates a copy; O(n^3).  Zero pivot column means Pf = 0 exactly.
    """
    a = np.array(a, dtype=complex)
    n = a.shape[0]
    if n == 0:
        return 1.0 + 0j
    pf = 1.0 + 0j
    for k in range(0, n - 1, 2):
        kp = k + 1 + int(np.argmax(np.abs(a[k + 1 :, k])))
        if a[kp, k] == 0:
            return 0j
        if kp != k + 1:
            a[[k + 1, kp], :] = a[[kp, k + 1], :]
            a[:, [k + 1, kp]] = a[:, [kp, k + 1]]
            pf = -pf
        pivot = a[k, k + 1]
        pf *= pivot
        if k + 2 < n:
            tau = a[k, k + 2 :] / pivot
            col = a[k + 2 :, k + 1]
            a[k + 2 :, k + 2 :] += np.outer(tau, col) - np.outer(col, tau)
    return complex(pf)


def leading_pfaffians(a: np.ndarray) -> tuple[np.ndarray, dict[str, int]]:
    """Pf(a[:2k, :2k]) for k = 1 .. n/2 of a real antisymmetric matrix.

    Nested unpivoted elimination (see the module docstring).  Returns the
    Pfaffians and the count of steps each branch took ("2x2", "4x4",
    and "pivoted" for the blocks left to `pfaffian_numpy`).
    """
    s = np.array(a, dtype=float)
    n = s.shape[0]
    out = np.empty(n // 2)
    steps = {"2x2": 0, "4x4": 0, "pivoted": 0}
    scale = float(np.max(np.abs(s), initial=0.0))
    pf = 1.0
    k = 0
    while k < n:
        s01 = s[k, k + 1]
        if abs(s01) > PIVOT_TOL * scale:
            pf *= s01
            out[k // 2] = pf
            u = np.outer(s[k + 1, k + 2 :], s[k, k + 2 :] / s01)
            s[k + 2 :, k + 2 :] += u - u.T
            steps["2x2"] += 1
            k += 2
            continue
        out[k // 2] = pf * s01
        if k + 2 == n:
            break
        p = s[k : k + 4, k : k + 4]
        pf4 = p[0, 1] * p[2, 3] - p[0, 2] * p[1, 3] + p[0, 3] * p[1, 2]
        out[k // 2 + 1] = pf * pf4
        if abs(pf4) <= PIVOT_TOL * scale**2:
            for m in range(k // 2 + 2, n // 2):
                out[m] = pfaffian_numpy(a[: 2 * m + 2, : 2 * m + 2]).real
                steps["pivoted"] += 1
            break
        pf *= pf4
        # upper triangle of S4^-1 = adj(S4) / Pf(S4); S4^-1 = q - q^T
        q = np.array(
            [
                [0.0, -p[2, 3], p[1, 3], -p[1, 2]],
                [0.0, 0.0, -p[0, 3], p[0, 2]],
                [0.0, 0.0, 0.0, -p[0, 1]],
                [0.0, 0.0, 0.0, 0.0],
            ]
        ) / pf4
        b = s[k : k + 4, k + 4 :]
        u = b.T @ (q @ b)
        s[k + 4 :, k + 4 :] += u - u.T
        steps["4x4"] += 1
        k += 4
    return out, steps


def xx_table(g: np.ndarray) -> np.ndarray:
    """Upper-triangular (N, N) table of <x_i x_j> from the Majorana matrix g.

    <x_i x_j> = (-1)^d Pf(Gamma_block), d = j - i, with g = i Gamma.  Raises
    NumericalFault when g is not finite or not imaginary up to round-off.
    """
    if not np.all(np.isfinite(g)):
        raise NumericalFault("Majorana matrix has non-finite entries")
    re = float(np.max(np.abs(g.real), initial=0.0))
    if re > REAL_PART_TOL:
        raise NumericalFault(f"Majorana matrix has real part up to {re:.2e}")
    gamma = np.ascontiguousarray(g.imag)
    n = g.shape[0] // 2
    out = np.zeros((n, n))
    for i in range(n - 1):
        pf, _ = leading_pfaffians(gamma[2 * i + 1 : 2 * n - 1, 2 * i + 1 : 2 * n - 1])
        pf[0::2] *= -1.0  # (-1)^d for d = 1, 2, ...
        out[i, i + 1 :] = pf
    return out


def backend_name() -> str:
    return "numpy"
