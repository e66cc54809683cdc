"""Hot numeric kernels: the matrix exponential, the Pfaffian and the
Jordan-Wigner string table.

`expm` is the degree-13 Pade approximant with scaling and squaring of
Higham (SIAM J. Matrix Anal. Appl. 26, 1179 (2005)), in numpy alone, and
the package's one matrix exponential.  The frame evolution and the dense
oracle call it, so every matrix operation of a run goes through numpy's
BLAS; the oracle's exact QFI derivative takes it of a block matrix whose
corner holds the Frechet derivative.

`pfaffian` is the skew Parlett-Reid elimination with partial pivoting
(Wimmer, ACM TOMS 38, 30 (2012)), the package's one Pfaffian.  It is the
fallback of the string table and the reference the table is tested
against.

`xx_table` gives every string correlator <x_i x_j> of a Gaussian state
from its real antisymmetric Majorana matrix Gamma = Im(M M+) (see
`realspace`).  The string block of
(i, j) is the contiguous principal block Gamma[2i+1:2j+1, 2i+1:2j+1], so
row i of the table is the set of leading even sub-Pfaffians of the one
matrix M_i = Gamma[2i+1:2N-1, 2i+1:2N-1], all of them from one unpivoted
skew elimination of M_i in real arithmetic, as running products of pivots
(the bordered Schur updates of Bajdich et al., PRB 77, 115112 (2008)):
O(N^3) a row, O(N^4) for the table.

- 2x2 step: Pf(A_{k+2}) = Pf(A_k) s01, then a rank-2 Schur update.
- 4x4 step, when |s01| <= PIVOT_TOL * scale: the small Pf(A_k) s01 is
  recorded, then Pf(A_{k+4}) = Pf(A_k) Pf(S4) and S <- C + B^T S4^-1 B.
  Vacuum starts take it on every odd-distance block, which is exactly
  singular there.
- If Pf(S4) is also at most PIVOT_TOL * scale^2, the rest of the row is
  computed block by block with the pivoted `pfaffian`.

scale is the largest |entry| of M_i (at most 1 for a physical state).

Every M_i is the trailing block of M0 = Gamma[1:2N-1, 1:2N-1] from
position 2i on, so the rows are eliminated together, position by
position: at position p every started row whose next step is at p takes
it, each with its own branch and scale, in one set of stacked numpy
operations (N - 1 positions per table instead of about N^2 / 2 row
steps); row i joins at p = 2i.  When every started row takes the 2x2
step at p, as on the ground-state starts, the step skips its masks.  The
Schur updates are deferred across a
panel of PANEL positions (the blocked elimination of Wimmer 2012): each
step only stores its update x y^T - y x^T as vector pairs (x, y), one
for a 2x2 step and two for a 4x4 step, and the later steps of the panel
add the pending pairs to the few rows they read.  At the panel's end one
GEMM per row applies the pairs to the row's trailing block, which then
moves down to the next panel's coordinates.

`xx_table` takes a stack of K matrices of one size, such as the frames
of one witness series at its three times, and gives their K tables.
Row i of every matrix joins at position 2i, so the tables share the
loop over positions: the rows go row index first and matrix second, and
each keeps its own branch, scale and pivoted fallback, so every table is
bit-identical to that of its matrix alone.

Memory follows one rule.  The footprint of rows in flight is what
`_eliminate` allocates for them, the most that one panel's trailing
blocks and pending pairs take together, and it may not pass the cap,
max(FLIGHT_COPIES copies of M0, FLIGHT_FLOOR).  The stack goes in groups
of as many whole matrices as fit the cap (three at N <= 42, two and one
at N = 44 .. 50, one at a time from N = 52 on), and a matrix too large
for the cap alone goes in groups of rows that fit it (one group up to
N = 72); a later row group starts at its first row's position.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np

from .errors import NumericalFault

# Relative pivot size below which the elimination takes the 4x4 step.  A
# 2x2 pivot p amplifies round-off by up to scale / p, so this caps the
# growth at 100; a 1e-8 cap let table entries drift by up to 1e-12 from
# the pivoted values on evolved states at N = 64.
PIVOT_TOL = 1e-2

# Positions per panel of the string-table elimination: a panel's Schur
# updates are kept as vector pairs and applied once, at its end.
PANEL = 8

# Memory that the rows in flight (their blocks and pending pairs) may hold,
# in copies of M0.  `evolve` peaks at about 20 copies (the Pade exponential
# of the complex 2N x 2N kernel), so the table needs no more memory than the
# evolution before it.  At 17 the table's tracemalloc peak is at most 0.94
# of evolve's at N = 16 .. 256 (0.89 at N = 64; 18 reads up to 0.98 and 19
# up to 1.04, at N = 128), and tables up to N = 72 are one group: N - 1
# positions, where two groups take more.
FLIGHT_COPIES = 17

# Floats that the rows in flight may hold however small M0 is: what one
# N = 64 table holds at FLIGHT_COPIES.  Below that size a stack of tables
# is eliminated together (three at N <= 42, two at N = 44 .. 50), which saves
# the per-position numpy overhead of separate tables; a cap per matrix
# instead raised the witness benchmark's peak RSS by 11%.
FLIGHT_FLOOR = FLIGHT_COPIES * 126**2

# signs of the S4 entries in the coefficients of a 4x4 step's pairs
_K_SIGNS = np.array([-1.0, 1.0, -1.0, 1.0, -1.0])

# largest |A + A^T| accepted by `pfaffian`, relative to max(1, |A|)
_ANTISYMMETRY_TOL = 1e-10

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
    squared s times.  Raises NumericalFault on a non-finite input, and at
    the first squaring that leaves a non-finite entry.  A 1-norm far past
    the matrix's decay rates (a huge time) makes the squarings overflow
    from the round-off of r, or underflow to zero, which ends them early.
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
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(s):
            r = r @ r
            if not np.isfinite(r).all():
                raise NumericalFault(f"matrix exponential overflowed at squaring {k + 1} of {s}")
            if not r.any():
                break  # underflowed: every further square is zero too
    return r


def pfaffian(a: np.ndarray) -> float | complex:
    """Pf(a) with Pf(a)^2 = det(a); a must be even-dimensional, antisymmetric.

    Skew Parlett-Reid elimination with partial pivoting on a copy, O(n^3);
    a zero pivot column means Pf = 0 exactly.  A real matrix gives a float,
    a complex one a complex.  Raises ValueError on a non-square or
    odd-dimensional matrix, or on asymmetry beyond _ANTISYMMETRY_TOL or a
    non-finite entry.
    """
    a = np.array(a, dtype=np.result_type(np.asarray(a), float))
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if n % 2 != 0:
        raise ValueError(f"Pfaffian needs even dimension, got {n}")
    asym = np.max(np.abs(a + a.T), initial=0.0)
    if not asym <= _ANTISYMMETRY_TOL * max(float(np.max(np.abs(a), initial=0.0)), 1.0):
        raise ValueError(f"matrix is not antisymmetric (|A + A^T| up to {asym:.2e})")
    pf = 1.0
    for k in range(0, n - 1, 2):
        kp = k + 1 + int(np.argmax(np.abs(a[k + 1 :, k])))
        if a[kp, k] == 0:
            pf = 0.0
            break
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
    return complex(pf) if np.iscomplexobj(a) else float(pf)


def _panels(m: int, rows: int) -> Iterator[tuple[int, int, int, int]]:
    """(start, stop, joined, width) of each panel of `rows` rows on m x m.

    joined rows have started by the panel's end, and their pending pairs
    take `width` rows of xy: one pair per slot, and one more for a 4x4
    step at the last slot unless the panel ends the block.
    """
    for start in range(0, m, 2 * PANEL):
        stop = min(m, start + 2 * PANEL)
        yield start, stop, min(rows, stop // 2), stop - start + 2 * (stop < m)


def _footprint(m: int, rows: int) -> int:
    """Floats that `_eliminate` allocates for `rows` rows on m x m.

    The most that one panel's stack and pairs take together: they share
    one buffer, the stack at its bottom and the pairs at its top.
    """
    held = 0
    for start, _, joined, width in _panels(m, rows):
        held = max(held, joined * (m - start) * (m - start + width))
    return held


def _rows_in_flight(m: int, rows: int, cap: int) -> int:
    """Most rows, at least one and at most `rows`, whose footprint is <= cap."""
    lo, hi = 1, rows
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if _footprint(m, mid) <= cap:
            lo = mid
        else:
            hi = mid - 1
    return lo


def _eliminate(a: np.ndarray, out: np.ndarray, scale: np.ndarray, steps: dict[str, int]) -> None:
    """Eliminate the rows of the K matrices a[k] together.

    Row b = i K + k of out is row i of matrix k, on a[k, 2i:, 2i:].  Sets
    out[b, q] = Pf(a[k, 2i:2q+2, 2i:2q+2]) for q >= i and adds the branch
    counts to steps.  Row i of every matrix joins at position 2i; at each
    position every row whose next step is there takes it, with its own
    scale[b].  Within a panel the stack s holds each joined row's block
    [start:, start:] as it was at the panel start, and xy its pending
    update pairs: pair c, x = xy[b, 2c] and y = xy[b, 2c + 1], adds
    x y^T - y x^T to the block.  The step at slot t of the panel stores
    its pairs from pair t on: one for a 2x2 step, two for a 4x4 step
    (which also covers slot t + 1).
    """
    tables, m = a.shape[:2]
    rows = out.shape[0]
    buf = np.empty(tables * _footprint(m, rows // tables))
    s = buf[:0].reshape(0, m, m)
    xy = buf[:0].reshape(0, 0, m)
    pf = np.ones(rows)
    nxt = 2 * (np.arange(rows) // tables)  # position of each row's next step, -1 once done
    tol2, tol4 = PIVOT_TOL * scale, PIVOT_TOL * scale**2
    for start, stop, joined, width in _panels(m, rows // tables):
        size, lead, joined = m - start, 2 * PANEL, joined * tables
        r = None  # the last position's rows, freed before the compaction
        # apply the last panel's pairs while compacting the stack to
        # [start:, start:] in place (every row moves to lower addresses;
        # the rows carried fill less than the last panel's stack, so they
        # stay clear of its pairs), then let in the rows that join in this
        # panel and clear the pairs
        new = buf[: joined * size * size].reshape(joined, size, size)
        for b in range(len(s)):
            _apply_pairs(s[b, lead:, lead:], xy[b, 0::2, lead:], xy[b, 1::2, lead:], new[b])
        new[len(s) :].reshape(-1, tables, size, size)[:] = a[:, start:, start:]
        s = new
        xy = buf[len(buf) - joined * width * size :].reshape(joined, width, size)
        xy.fill(0.0)
        for p in range(start, stop, 2):
            o, t, col = p - start, (p - start) // 2, p // 2
            jj = min(rows, tables * (col + 1))
            # rows p .. p+3 of every joined row's block with the pending
            # pairs applied; a row that steps here has none at t or later
            r = s[:jj, o : o + 4, o:]
            if t:
                x, y = xy[:jj, 0 : 2 * t : 2, o:], xy[:jj, 1 : 2 * t : 2, o:]
                r = _with_pairs(r, x, y)
            s01 = r[:, 0, 1].copy()  # a view would keep r alive into the next position
            go = nxt[:jj] == p
            big = np.abs(s01) > tol2[:jj]
            two = go & big
            if two.all():
                # every row takes the 2x2 step: the same arithmetic unmasked
                pf[:jj] *= s01
                out[:jj, col] = pf[:jj]
                nxt[:jj] += 2
                steps["2x2"] += jj
                if p + 2 < m:
                    xy[:jj, 2 * t, o + 2 :] += r[:, 1, 2:]
                    xy[:jj, 2 * t + 1, o + 2 :] += r[:, 0, 2:] * (1.0 / s01)[:, None]
                continue
            if two.any():
                piv = np.where(two, s01, 1.0)
                pf[:jj] *= piv
                np.copyto(out[:jj, col], pf[:jj], where=two)
                nxt[:jj] += 2 * two
                steps["2x2"] += int(np.count_nonzero(two))
                # the other rows add zeros, which keeps the pair that a
                # 4x4 step at t - 1 stored at t
                if p + 2 < m:
                    xy[:jj, 2 * t, o + 2 :] += r[:, 1, 2:] * two[:, None]
                    xy[:jj, 2 * t + 1, o + 2 :] += r[:, 0, 2:] * (two / piv)[:, None]
            four = np.flatnonzero(go & ~big)
            if not four.size:
                continue
            out[four, col] = pf[four] * s01[four]
            if p + 2 == m:
                continue
            s4 = r[four, :, :4].reshape(-1, 16)  # s4[:, 4 i + j] = S4[i, j]
            pf4 = s4[:, 1] * s4[:, 11] - s4[:, 2] * s4[:, 7] + s4[:, 3] * s4[:, 6]
            out[four, col + 1] = pf[four] * pf4
            small = np.abs(pf4) <= tol4[four]
            if small.any():
                for b in four[small]:
                    nxt[b] = -1
                    i = 2 * (b // tables)
                    for c in range(col + 2, m // 2):
                        out[b, c] = pfaffian(a[b % tables, i : 2 * c + 2, i : 2 * c + 2])
                    steps["pivoted"] += m // 2 - col - 2
                four, s4, pf4 = four[~small], s4[~small], pf4[~small]
                if not four.size:
                    continue
            pf[four] *= pf4
            nxt[four] += 4
            steps["4x4"] += four.size
            # S <- C + B^T Q B with Q = S4^-1 = e_0 ^ Q[0] + R, where
            # u ^ v = u v^T - v u^T and R is antisymmetric of rank 2 on
            # rows 1 .. 3: R = c ^ w with c = (S4[0, 3] e_2 - S4[0, 2] e_3)
            # / Pf(S4), w = e_1 - S4[0, 1] (S4[0, 2] e_2 + S4[0, 3] e_3) / den
            # and den = S4[0, 2]^2 + S4[0, 3]^2, or R = e_2 ^ Q[2, 3] e_3 if
            # den = 0.  The rows of k are e_0, Q[0], c and w, so k @ B gives
            # the two pairs.
            k = np.zeros((four.size, 16))
            k[:, 0] = k[:, 13] = 1.0
            k[:, [5, 6, 7, 10, 11]] = s4[:, [11, 7, 6, 3, 2]] * (_K_SIGNS / pf4[:, None])
            den = s4[:, 2] ** 2 + s4[:, 3] ** 2
            flat = den == 0
            if flat.any():
                den[flat] = 1.0
                k[flat, 10], k[flat, 13], k[flat, 15] = 1.0, 0.0, -s4[flat, 1] / pf4[flat]
            k[:, 14:16] -= s4[:, 2:4] * (s4[:, 1] / den)[:, None]
            xy[four, 2 * t : 2 * t + 4, o + 4 :] = k.reshape(-1, 4, 4) @ r[four, :, 4:]


def _apply_pairs(block: np.ndarray, x: np.ndarray, y: np.ndarray, out: np.ndarray) -> None:
    """out = block + x^T y - y^T x, for a panel's pairs x and y of one row.

    A function of its own, so that w is freed before the panel's steps.
    """
    w = x.T @ y
    np.add(block, w, out=out)
    out -= w.T


def _with_pairs(r: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """r + (x4^T y - y4^T x) per row, x4 and y4 the first four columns.

    In place on the first product, so that two temporaries live at once.
    """
    q = x[:, :, :4].transpose(0, 2, 1) @ y
    q -= y[:, :, :4].transpose(0, 2, 1) @ x
    q += r
    return q


def xx_table(gamma: np.ndarray, steps: dict[str, int] | None = None) -> np.ndarray:
    """Upper-triangular tables (K, N, N) of <x_i x_j> from Majorana matrices (K, 2N, 2N).

    <x_i x_j> = (-1)^d Pf(Gamma_block), d = j - i, each table equal to
    that of its matrix alone; the module docstring gives the groups in
    which the matrices and rows are eliminated.  If steps is given, each
    branch's step count over the tables ("2x2", "4x4", "pivoted") is
    added to it.  Raises ValueError unless gamma is a non-empty stack of
    square matrices of one even, nonzero dimension, and NumericalFault
    when it is not finite.
    """
    if gamma.ndim != 3 or 0 in gamma.shape or gamma.shape[1] != gamma.shape[2] or gamma.shape[2] % 2:
        raise ValueError(f"expected a non-empty stack of Majorana matrices (K, 2N, 2N), got shape {gamma.shape}")
    if not np.all(np.isfinite(gamma)):
        raise NumericalFault("Majorana matrix has non-finite entries")
    tables, n = len(gamma), gamma.shape[2] // 2
    m0 = gamma[:, 1 : 2 * n - 1, 1 : 2 * n - 1]
    m, rows = 2 * n - 2, n - 1
    steps = {} if steps is None else steps
    for key in ("2x2", "4x4", "pivoted"):
        steps.setdefault(key, 0)
    # scale[k, i] = max |m0[k, 2i:, 2i:]|: |m0[k]| is symmetric, so this
    # is a suffix maximum of the row maxima of its upper triangle
    rowmax = np.max(np.triu(np.abs(m0)), axis=2, initial=0.0)
    scale = np.maximum.accumulate(rowmax[:, ::-1], axis=1)[:, ::-1][:, : 2 * rows : 2]
    cap = max(FLIGHT_COPIES * m * m, FLIGHT_FLOOR)
    per = max(1, cap // max(1, _footprint(m, rows)))
    parts = []
    for k in range(0, tables, per):
        group = m0[k : k + per]
        count = len(group)
        # row i of matrix k + j is row i * count + j, so that the rows
        # that join at one position are contiguous
        flat = np.zeros((rows * count, rows))
        flat_scale = scale[k : k + per].T.ravel()
        first = 0
        while first < rows:
            c = 2 * first
            span = _rows_in_flight(m - c, rows - first, cap // count)
            lo, hi = first * count, (first + span) * count
            _eliminate(group[:, c:, c:], flat[lo:hi, first:], flat_scale[lo:hi], steps)
            first += span
        parts.append(flat.reshape(rows, count, rows).swapaxes(0, 1))
    pf = np.concatenate(parts)  # pf[k, i, q] = Pf(m0[k, 2i:2q+2, 2i:2q+2])
    d = np.arange(1, n) - np.arange(rows)[:, None]  # d = j - i of pf[:, i, j - 1]
    out = np.zeros((tables, n, n))
    out[:, :rows, 1:] = np.triu(np.where(d % 2, -pf, pf))
    return out


def backend_name() -> str:
    return "numpy"
