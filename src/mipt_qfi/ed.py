"""Dense 2^N reference implementation used to arbitrate every other module.

Everything here works in the spin basis.  The chain Hamiltonian is
H = -sum_i (s^x_i s^x_{i+1} + h s^z_i) with the requested boundary, the
monitored number operator is n_i = (1 + s^z_i)/2, and the no-click
evolution is the normalized action of exp(-i H_eff t) with
H_eff = H - (i gamma / 2) sum_i n_i.  Only that last term is complex:
at gamma = 0 every block, and `build_hamiltonian`, is a real matrix, and
the ground state and the gamma = 0 eigenbasis are found in real
arithmetic.

Bit convention: site i of basis state x is bit N-1-i of x (site 0 is the
most significant bit), and bit 0 means s^z_i = +1, i.e. n_i = 1.  So s^z
and n_i are diagonal, s^x_i sends x to x ^ (1 << (N-1-i)), and every
operator is built or applied from these bit operations alone.

Parity sectors: every term of H_eff conserves the fermion parity
(-1)^(sum_i n_i), since an xx bond flips two bits and s^z, n_i are
diagonal; so is the generator of the rate,
G = d(-i H_eff)/d gamma = -(1/2) sum_i n_i.  Evolution and the generator
integral therefore run on each parity sector (2^(N-1) states) in which
the initial state has weight; a sector without weight is never touched
and stays exactly zero.

Symmetry orbits: a permutation of the sites maps basis states to basis
states and keeps sum_i n_i, so it maps each parity sector to itself.  The
chain's site symmetries, the N rotations and the reflection
i <-> N-1-i of the periodic chain and the reflection alone of the open
chain, commute with H_eff and with G.  A sector whose amplitudes are
exactly equal on every orbit of these symmetries therefore never leaves
the span of the orbit vectors |O|^(-1/2) sum_{x in O} |x>, an orthonormal
basis in which H_eff is accumulated from the orbit labels and G stays
diagonal.  The periodic chain's even sector has 8 orbits at N = 6, 44 at
N = 10 and 122 at N = 12, against 32, 512 and 2048 states; the open
chain's has 20, 272 and 1056.  The vacuum, the ground state of either
chain (`dense_ground_state` takes it from the even sector's orbits) and
every state evolved from them are symmetric in this sense; a sector with
any other amplitudes keeps its own basis states, one orbit each.  Every
route evolves the orbit coefficients and finds F from them;
`evolve_dense` and `dense_ground_state` expand them back to the 2^N
amplitudes.  One size cap, MAX_DENSE_SITES, holds for every route.

The QFI routes implemented here, all for the rate gamma, are
deliberately independent of the free-fermion machinery and of each
other.  `qfi_frechet` reads the state and its exact rate derivative off
one exponential of a block matrix per sector (`_kernels.expm`) and needs
no eigenbasis.  The covariance of the time-integrated generator takes
one eigendecomposition of H_eff per sector, which gives the evolved state
and the integral in closed form, with no quadrature, at every requested
time: one call with an array of times decomposes each sector once.
Central finite differences of the normalized state of `evolve_dense`,
whose sector exponentials are the numpy Pade approximant `_kernels.expm`,
are the reference both are tested against.

Long times: the norm of the unnormalized state decays like e^{r t},
where r <= 0 is the largest Im of the occupied sectors' eigenvalues (the
slowest decay rate), and at long enough times it underflows.  From
gamma N t / 2 = SHIFT_FROM on, every route takes its exponentials of
-i t (H_eff - i r) instead, which multiplies the state and its
derivative by the one real factor e^{-r t}; it cancels exactly in the
normalized state and in F.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._entire import csinc
from ._kernels import expm
from .errors import NumericalFault
from .spectral import ModelParams

__all__ = [
    "dense_vacuum",
    "dense_ground_state",
    "evolve_dense",
    "qfi_finite_difference",
    "qfi_frechet",
    "o_covariance_qfi",
    "sx_variance_dense",
    "build_hamiltonian",
    "build_h_eff",
]

# the one size cap of every route; at N = 12 a sector without symmetry has
# 2048 states, the even sector 122 orbits on the periodic and 1056 on the
# open chain
MAX_DENSE_SITES = 12
# step of the central differences in qfi_finite_difference; a rate below it
# would be shifted to a negative rate
FD_STEP = 1e-5
# The squared norm of an evolved state is at least e^{-gamma N t}, since no
# basis state decays faster than e^{-gamma N t / 2}.  Where gamma N t / 2
# passes SHIFT_FROM it could fall below e^{-600}, toward the end of the
# double range, and from there each route shifts its exponents by the
# slowest decay rate; below it nothing is shifted
SHIFT_FROM = 300.0


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


def _site_mask(n: int, site: int) -> int:
    """The bit of a basis index that holds `site`; s^x_site flips it."""
    return 1 << (n - 1 - site)


@lru_cache(maxsize=4)
def _site_bits(n: int) -> np.ndarray:
    """(2^n, n) table: entry [x, i] is site i's bit of x, 0 for s^z_i = +1."""
    masks = np.array([_site_mask(n, i) for i in range(n)])
    bits = ((np.arange(2**n)[:, None] & masks) != 0).astype(int)
    bits.setflags(write=False)
    return bits


def _occupations(n: int) -> np.ndarray:
    """sum_i n_i of every basis state."""
    return n - _site_bits(n).sum(axis=1)


def _parity_sectors(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Ascending basis indices of the even and of the odd fermion-parity sector."""
    odd = _occupations(n) % 2 == 1
    return np.flatnonzero(~odd), np.flatnonzero(odd)


@dataclass(frozen=True)
class _Orbits:
    """An orthonormal basis of one parity sector built from orbits of basis states.

    Orbit j is the set of rows r with label[r] = j; reps[j] is one of its
    basis indices and weight[j] = |orbit j|^(-1/2) the amplitude each
    member takes in the orbit's basis vector.
    """

    rows: np.ndarray
    label: np.ndarray
    reps: np.ndarray
    weight: np.ndarray

    def expand(self, coeffs: np.ndarray) -> np.ndarray:
        """Amplitudes on `rows` of the state with these orbit coefficients."""
        return (coeffs * self.weight)[self.label]


def _singletons(rows: np.ndarray) -> _Orbits:
    """The basis states `rows` themselves, one orbit each."""
    return _Orbits(rows, np.arange(rows.size), rows, np.ones(rows.size))


@lru_cache(maxsize=8)
def _sector_orbits(n: int, boundary: str) -> tuple[_Orbits, _Orbits]:
    """Even and odd sector, each in the orbits of the chain's site symmetries.

    The periodic chain has the N rotations, each with and without the
    reflection i <-> N-1-i; the open chain has the reflection alone.  A
    basis state's orbit is named by the smallest index the group maps it to.
    """
    sites = np.arange(n)
    perms = [sites, sites[::-1]]
    if boundary == "periodic":
        perms = [np.roll(perm, k) for perm in perms for k in range(n)]
    masks = np.array([_site_mask(n, i) for i in range(n)])
    # the state whose site i holds site perm[i]'s bit
    least = np.min([_site_bits(n)[:, perm] @ masks for perm in perms], axis=0)
    sectors = []
    for rows in _parity_sectors(n):
        _, first, label = np.unique(least[rows], return_index=True, return_inverse=True)
        orbits = _Orbits(rows, label, rows[first], 1.0 / np.sqrt(np.bincount(label)))
        for field in (rows, label, orbits.reps, orbits.weight):
            field.setflags(write=False)
        sectors.append(orbits)
    return tuple(sectors)


def _sector_bases(
    params: ModelParams, state: DenseState
) -> list[tuple[_Orbits, np.ndarray, np.ndarray]]:
    """The parity sectors `state` occupies: each basis, `state`'s coefficients and H_eff on it.

    The basis is the sector's orbits when the amplitudes are exactly equal
    on every orbit, and the sector's own basis states otherwise.
    """
    if state.n_sites != params.n_sites:
        raise ValueError("state size does not match params")
    bases = []
    for orbits in _sector_orbits(state.n_sites, params.boundary):
        amps = state.amplitudes[orbits.rows]
        if not np.any(amps):
            continue
        coeffs = state.amplitudes[orbits.reps]
        if not np.array_equal(amps, coeffs[orbits.label]):
            orbits, coeffs = _singletons(orbits.rows), amps
        bases.append((orbits, coeffs / orbits.weight, _orbit_generator(params, orbits)))
    return bases


def _joined(parts: list[np.ndarray]) -> np.ndarray:
    """The coefficient vectors of all occupied sectors as one; empty when none is."""
    return np.concatenate(parts) if parts else np.zeros(0, dtype=complex)


def _orbit_generator(params: ModelParams, orbits: _Orbits) -> np.ndarray:
    """H_eff on an orbit basis, w_a w_b sum_{x in orbit a, y in orbit b} H_eff[x, y].

    The diagonal is constant on an orbit.  Each xx bond sends every row y
    to the row x = y ^ flip and adds -w_a w_b to entry (orbit of x, orbit
    of y); on singleton orbits this is the bond's -1 on the basis states.
    The block is real at gamma = 0, and complex only through the
    -(i gamma / 2) n_i term.  Raises NumericalFault naming gamma and h when
    the diagonal overflows.
    """
    n = params.n_sites
    rows, label, weight = orbits.rows, orbits.label, orbits.weight
    occupied = _occupations(n)[orbits.reps]
    # an overflow leaves a non-finite entry, which the test below rejects
    with np.errstate(over="ignore", invalid="ignore"):
        diagonal = -params.h * (2 * occupied - n)
        if params.gamma:
            diagonal = diagonal - 0.5j * params.gamma * occupied
    if not np.all(np.isfinite(diagonal)):
        raise NumericalFault(f"H_eff is not finite at gamma = {params.gamma!r}, h = {params.h!r}")
    out = np.diag(diagonal)
    bonds = n if params.boundary == "periodic" else n - 1
    for i in range(bonds):
        flip = _site_mask(n, i) ^ _site_mask(n, (i + 1) % n)
        hit = label[np.searchsorted(rows, rows ^ flip)]
        np.add.at(out, (hit, label), -weight[hit] * weight[label])
    return out


def _generator(params: ModelParams, rows: np.ndarray) -> np.ndarray:
    """H_eff on the ascending basis states `rows`, the full space or one parity sector."""
    return _orbit_generator(params, _singletons(rows))


def build_hamiltonian(params: ModelParams) -> np.ndarray:
    """Hermitian part: -sum_i s^x_i s^x_{i+1} - h sum_i s^z_i."""
    return _generator(params.with_gamma(0.0), np.arange(2**params.n_sites))


def build_h_eff(params: ModelParams) -> np.ndarray:
    """Non-Hermitian no-click generator H - (i gamma / 2) sum_i n_i."""
    return _generator(params, np.arange(2**params.n_sites))


def dense_vacuum(n_sites: int) -> DenseState:
    """Product state with every monitored number n_i = 0."""
    amps = np.zeros(2**n_sites, dtype=complex)
    amps[-1] = 1.0  # all s^z = -1 under the bit convention above
    return DenseState(amps, n_sites)


def dense_ground_state(params: ModelParams) -> tuple[DenseState, float]:
    """Even-fermion-parity ground state of the gamma = 0 chain and its energy.

    It is taken in the even sector's orbit basis, for either boundary: the
    xx bonds make every off-diagonal entry of H non-positive and connect
    the sector, so by Perron-Frobenius its ground state is unique and
    positive, hence fixed by every site symmetry.  Its amplitudes come out
    exactly equal on each orbit and exactly zero on the odd sector.  On the
    periodic chain it matches the anti-periodic momentum grid; on the open
    chain at even N it is the h -> 0+ ground state, even where the
    splitting from the odd sector is below round-off.
    """
    n = params.n_sites
    basis = _sector_orbits(n, params.boundary)[0]
    vals, vecs = np.linalg.eigh(_orbit_generator(params.with_gamma(0.0), basis))
    amps = np.zeros(2**n, dtype=complex)
    amps[basis.rows] = basis.expand(vecs[:, 0])
    return DenseState(amps, n), float(vals[0])


def evolve_dense(params: ModelParams, t: float, initial: DenseState) -> DenseState:
    """Normalized exp(-i H_eff t) |initial>, one occupied parity sector at a time.

    Raises ValueError for t < 0 (or NaN), and NumericalFault naming t when
    the state loses its norm or the exponential overflows.
    """
    if not t >= 0:
        raise ValueError(f"time must be >= 0, got {t}")
    sectors = _sector_bases(params, initial)
    rate = _decay_rate(params, t, [block for _, _, block in sectors])
    psi = np.zeros(2**params.n_sites, dtype=complex)
    for orbits, coeffs, block in sectors:
        psi[orbits.rows] = orbits.expand(_shifted_expm(-1j * t * block, rate * t, t) @ coeffs)
    return DenseState(psi / _evolved_norm(psi, t), params.n_sites)


def _shifts(params: ModelParams, t: float) -> bool:
    """Whether the exponents at time t are shifted: gamma N t / 2 above SHIFT_FROM."""
    return params.gamma * params.n_sites * t / 2 > SHIFT_FROM


def _decay_rate(params: ModelParams, t: float, blocks: list[np.ndarray]) -> float:
    """The shift r at time t: the largest Im of the blocks' eigenvalues, or 0 where none is due."""
    if not _shifts(params, t):
        return 0.0
    return max(float(np.max(np.linalg.eigvals(block).imag)) for block in blocks)


def _shifted_expm(x: np.ndarray, shift: float, t: float) -> np.ndarray:
    """e^{x - shift I}, with the NumericalFault of an overflowing exponential naming t."""
    if shift:
        x = x - shift * np.eye(x.shape[0])
    try:
        return expm(x)
    except NumericalFault as exc:
        raise NumericalFault(f"{exc} at t = {t}") from exc


def _evolved_norm(psi: np.ndarray, t: float) -> float:
    norm = np.linalg.norm(psi)
    if norm == 0.0 or not np.isfinite(norm):
        raise NumericalFault(f"dense evolution lost normalization at t = {t}")
    return norm


def _qfi_from_derivative(psi: np.ndarray, dpsi: np.ndarray) -> float:
    overlap = np.vdot(psi, dpsi)
    return float(4.0 * (np.vdot(dpsi, dpsi).real - abs(overlap) ** 2))


def qfi_frechet(params: ModelParams, t: float, initial: DenseState) -> float:
    """QFI for the rate from the exact derivative of the normalized evolved state.

    On each occupied parity sector, with X = -i t H_eff, whose rate
    derivative is t G with G = -(1/2) sum_i n_i diagonal, the
    exponential of the block matrix [[X, t G], [0, X]] is
    [[e^X, L(X, t G)], [0, e^X]], L the Frechet derivative of e^X (Higham,
    Functions of Matrices, SIAM 2008, Sec. 3.2).  So psi = e^X psi0 and
    dpsi = L(X, t G) psi0.  The derivative of the normalized state,
    du = dpsi/|psi| - u Re<u, dpsi/|psi|> with u = psi/|psi|, keeps the
    decay of the norm out of the final difference, and
    F = 4 (|du|^2 - |<u, du>|^2).  Shifting X by a real multiple of the
    identity scales both blocks alike.  Raises ValueError for t < 0, and
    NumericalFault naming t when the state loses its norm or the
    exponential overflows.
    """
    if not t >= 0:
        raise ValueError(f"time must be >= 0, got {t}")
    sectors = _sector_bases(params, initial)
    rate = _decay_rate(params, t, [h_eff for _, _, h_eff in sectors])
    psi, dpsi = [], []
    for orbits, coeffs, h_eff in sectors:
        d = coeffs.size
        block = np.zeros((2 * d, 2 * d), dtype=complex)
        block[:d, :d] = block[d:, d:] = -1j * t * h_eff
        gen = -0.5 * _occupations(params.n_sites)[orbits.reps]
        block[np.arange(d), np.arange(d, 2 * d)] = t * gen
        top = _shifted_expm(block, rate * t, t)[:d]
        psi.append(top[:, :d] @ coeffs)
        dpsi.append(top[:, d:] @ coeffs)
    psi, dpsi = _joined(psi), _joined(dpsi)
    norm = _evolved_norm(psi, t)
    u = psi / norm
    dpsi /= norm
    return _qfi_from_derivative(u, dpsi - u * np.vdot(u, dpsi).real)


def qfi_finite_difference(params: ModelParams, t: float, initial: DenseState) -> float:
    """QFI for the rate from central differences of the normalized state, Richardson once.

    The steps are FD_STEP and FD_STEP / 2.  The state is normalized before
    differentiating; for non-unitary evolution differentiating the raw
    exponential would give the QFI of the wrong (unphysical) family.
    Raises ValueError for t < 0, through `evolve_dense`.
    """
    psi = evolve_dense(params, t, initial).amplitudes
    estimates = []
    for step in (FD_STEP, FD_STEP / 2.0):
        plus = evolve_dense(params.with_gamma(params.gamma + step), t, initial).amplitudes
        minus = evolve_dense(params.with_gamma(params.gamma - step), t, initial).amplitudes
        estimates.append(_qfi_from_derivative(psi, (plus - minus) / (2.0 * step)))
    coarse, fine = estimates
    rich = (4.0 * fine - coarse) / 3.0
    spread = abs(fine - coarse) / max(abs(rich), 1e-30)
    if not spread <= 0.05:
        raise NumericalFault(
            f"finite-difference QFI did not converge: {coarse:.6e} vs {fine:.6e}"
        )
    return rich


def o_covariance_qfi(
    params: ModelParams, t: float | np.ndarray, initial: DenseState
) -> float | np.ndarray:
    """QFI for the rate from the covariance of the time-integrated generator, at every time of t.

    O = int_0^t exp(-i H_eff s) G exp(i H_eff s) ds with G = -(1/2) sum_i n_i
    the rate derivative of -i H_eff.  G and H_eff are block diagonal in the
    parity sectors.  On the orbit basis of each sector the initial state
    occupies, one eigendecomposition H_eff = V diag(w) V^-1 gives both the evolved state
    V e^{-iwt} V^-1 psi0 and O in closed form, (V^-1 O V)_ab =
    (V^-1 G V)_ab t e^{-i d t/2} sinc(d t/2) with d = w_a - w_b.  O acts on the evolved coefficients
    e^{-i w_b t} c_b; the product is applied to the unevolved c_b as the
    bounded kernel (e^{-i w_b t} - e^{-i w_a t}) / (i d), since Im w <= 0,
    and in the csinc form where |d t| < 1.  F = 4 (<O+O> - |<O>|^2) on the
    normalized state.  At long times every phase carries the real factor
    e^{-r t} of the slowest decay rate r (see the module docstring).

    t is a time or an array of times, each >= 0.  The decomposition, its
    condition check, V^-1 and V^-1 G V do not depend on t and are made once
    per orbit block; each time adds only its phases, its kernel and two mat-vecs.
    A scalar t is the same code on a 0-d array and returns a float; an
    array returns an array of its shape.  At gamma = 0 the blocks are
    real symmetric and `eigh` gives an orthogonal eigenbasis.  Raises
    ValueError for a negative time, and NumericalFault when an eigenbasis
    is ill-conditioned, or, at the first time where it happens, when the
    state loses its norm or F is not finite.
    """
    n = params.n_sites
    times = np.asarray(t, dtype=float)
    if not np.all(times >= 0):
        raise ValueError(f"times must be >= 0, got {t}")

    sectors = []
    for orbits, coeffs, block in _sector_bases(params, initial):
        if params.gamma == 0:
            # real symmetric: an orthogonal eigenbasis even for degenerate levels
            vals, vecs = np.linalg.eigh(block)
            vecs_inv = vecs.conj().T
        else:
            vals, vecs = np.linalg.eig(block)
            cond = np.linalg.cond(vecs)
            if cond > 1e8:
                raise NumericalFault(f"H_eff eigenbasis too ill-conditioned (cond = {cond:.2e})")
            vecs_inv = np.linalg.inv(vecs)
        rotated = (vecs_inv * (-0.5 * _occupations(n)[orbits.reps])) @ vecs
        gap = np.subtract.outer(vals, vals)
        sectors.append((vals, vecs, vecs_inv @ coeffs, rotated, gap))
    slowest = max((float(np.max(vals.imag)) for vals, *_ in sectors), default=0.0)

    qfi = np.empty(times.shape)
    # at extreme times O itself overflows; the checks below decide, quietly
    with np.errstate(over="ignore", invalid="ignore"):
        for i, ti in np.ndenumerate(times):
            ti = float(ti)  # the arithmetic of a scalar call, to the last bit
            shift = slowest * ti if _shifts(params, ti) else 0.0
            psi, o_psi = [], []
            for vals, vecs, coeffs, rotated, gap in sectors:
                phase = np.exp(-1j * ti * vals - shift)
                psi.append(vecs @ (phase * coeffs))
                # a named kernel: numpy would reuse a temporary right operand
                # as the output, and its complex product is not bitwise
                # symmetric in the two factors
                kernel = _integral_kernel(gap, phase, ti)
                o_psi.append(vecs @ ((rotated * kernel) @ coeffs))
            psi, o_psi = _joined(psi), _joined(o_psi)
            norm = _evolved_norm(psi, ti)
            psi /= norm
            o_psi /= norm
            qfi[i] = 4.0 * (np.vdot(o_psi, o_psi).real - abs(np.vdot(psi, o_psi)) ** 2)
            if not np.isfinite(qfi[i]):
                raise NumericalFault(f"Sneddon QFI is not finite ({qfi[i]}) at t = {ti}, {params}")
    return float(qfi) if qfi.ndim == 0 else qfi


def _integral_kernel(gap: np.ndarray, phase: np.ndarray, t: float) -> np.ndarray:
    """(e^{-i w_b t} - e^{-i w_a t}) / (i d_ab) with d = gap and e^{-i w t} = phase.

    Where |d t| < 1 it is t e^{-i d t/2} csinc(d t/2) e^{-i w_b t}, which
    is evaluated on those entries only.
    """
    near = np.abs(gap * t) < 1.0
    kernel = (phase - phase[:, None]) / (1j * np.where(near, 1.0, gap))
    half = 0.5 * t * gap[near]
    kernel[near] = t * np.exp(-1j * half) * csinc(half) * np.broadcast_to(phase, gap.shape)[near]
    return kernel


def _sx_apply(state: DenseState) -> np.ndarray:
    """S_x |psi> with S_x = (1/2) sum_i s^x_i."""
    n = state.n_sites
    idx = np.arange(2**n)
    return 0.5 * sum(state.amplitudes[idx ^ _site_mask(n, i)] for i in range(n))


def sx_variance_dense(state: DenseState) -> float:
    """<S_x^2> - <S_x>^2 by direct operator application."""
    psi = state.amplitudes
    sx_psi = _sx_apply(state)
    mean = np.vdot(psi, sx_psi).real
    return float(np.vdot(sx_psi, sx_psi).real - mean**2)
