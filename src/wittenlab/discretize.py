"""Discretization layer: Nyström matrices and a Fourier-side trace oracle.

Two independent finite-dimensional pictures of the same operators live
here.  The Nyström route samples the closed-form kernels on a
Gauss-Legendre grid over the truncated line [-L, L] and symmetrizes by
the square-rooted weights, so Hilbert-Schmidt norms and Carleman
determinants of the matrix approximate those of the operator.  The
Fourier route discretizes A_- as a diagonal momentum matrix on a
periodic box and builds A_{+,n} = A_- + chi_n(k) phihat chi_n(k) from
plane-wave matrix elements of phi, kept as one Toeplitz column and the
mollifier weights; traces of matrix functions of this pair, taken from a
certified band of A_{+,n}, provide an oracle that shares no code with
the determinant machinery.

Gauss-Legendre is the right quadrature because every kernel is smooth
off the diagonal and the |phi|^(1/2) factor confines everything to
[-L, L]; node spacing must still resolve the fastest oscillation
exp(i*nu*x), which ensure_oscillation_resolved enforces rather than
assumes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .determinants import RefinementNeededError, _Lanes, _sweep_groups
from .kernels import SpectralPoint, _mollified_coefficients, bs_kernel, bs_kernel_mollified
from .profiles import PotentialProfile, _check_mollifier_index, chi

__all__ = [
    "QuadratureGrid",
    "BirmanSchwingerMatrix",
    "FourierOperatorPair",
    "build_grid",
    "assemble",
    "bs_matrix",
    "MollifiedBSFamily",
    "det2_sweep",
    "fourier_pair",
    "trace_band",
    "trace_gz_diff",
    "ensure_oscillation_resolved",
]


@dataclass(frozen=True)
class QuadratureGrid:
    """Gauss-Legendre nodes and weights on the truncated line [-L, L]."""

    nodes: np.ndarray
    weights: np.ndarray
    L: float
    N: int

    def __post_init__(self):
        if self.N < 8:
            raise ValueError(f"need at least 8 nodes, got {self.N}")
        if len(self.nodes) != self.N or len(self.weights) != self.N:
            raise ValueError("node/weight length mismatch")
        if not np.all(np.diff(self.nodes) > 0.0):
            raise ValueError("nodes must be strictly increasing")
        if not np.all(self.weights > 0.0):
            raise ValueError("weights must be positive")
        # relative: Gauss-Legendre weights sum to 2L within a few ulps
        if abs(float(np.sum(self.weights)) - 2.0 * self.L) > 1e-12 * 2.0 * self.L:
            raise ValueError("weights do not sum to the interval length 2L")

    @property
    def spacing_max(self) -> float:
        return float(np.max(np.diff(self.nodes)))


@dataclass(frozen=True)
class BirmanSchwingerMatrix:
    """Symmetrized Nyström matrix T_ij = sqrt(w_i) K(x_i, x_j) sqrt(w_j)."""

    entries: np.ndarray

    @property
    def trace(self) -> complex:
        return complex(np.trace(self.entries))


@dataclass(frozen=True)
class FourierOperatorPair:
    """Periodic-box momentum representation of (A_-, A_{+,n}).

    momenta holds k_m = pi*m/box_half_length for m = -M/2 .. M/2-1 and
    weights the mollifier chi_n(k_m).  phihat is the Hermitian Toeplitz
    matrix with first column `column` (c_d for d = 0 .. M-1), so
    A_{+,n} = diag(momenta) + chi_n phihat chi_n is Hermitian by
    construction and is stored only through these three vectors.
    """

    box_half_length: float
    M: int
    momenta: np.ndarray
    weights: np.ndarray
    column: np.ndarray

    def __post_init__(self):
        if np.iscomplexobj(self.momenta):
            raise ValueError("momenta must be real")
        w = self.weights
        if not (np.all(np.isfinite(w)) and np.all(w > 0.0) and np.all(w <= 1.0)):
            raise ValueError("weights must be finite and lie in (0, 1]")
        c0 = complex(self.column[0])
        if abs(c0.imag) > 1e-12 * max(1.0, abs(c0)):
            raise ValueError(f"phihat diagonal c_0 is not real (imaginary part {c0.imag:.3e})")

    @property
    def A_plus_n(self) -> np.ndarray:
        """Dense A_{+,n}, built on demand (M^2 entries)."""
        c = self.column
        # reversed (conj(c_{M-1}), .., conj(c_1), c_0, .., c_{M-1}); row i is a window of it
        reversed_diagonals = np.concatenate((c[::-1], c[1:].conj()))
        phihat = np.lib.stride_tricks.sliding_window_view(reversed_diagonals, self.M)[::-1]
        a_plus = phihat * np.outer(self.weights, self.weights)
        a_plus[np.diag_indices(self.M)] += self.momenta
        return a_plus

    def lower_band(self, b: int) -> np.ndarray:
        """Rows d = 0 .. b hold the d-th subdiagonal of A_{+,n} (LAPACK lower band storage)."""
        w = self.weights
        band = np.zeros((b + 1, self.M), dtype=self.column.dtype)
        for d in range(b + 1):
            band[d, : self.M - d] = (w[d:] * w[: self.M - d]) * self.column[d]
        band[0] += self.momenta
        return band


@functools.lru_cache(maxsize=8)
def _legendre_rule(N: int) -> tuple:
    """Gauss-Legendre nodes and weights on [-1, 1], read-only and computed once per N.

    leggauss solves a dense N x N eigenproblem; every sweep at the same
    N shares one rule, so repeated grids cost no eigensolver calls (and
    start no BLAS threads) after the first.
    """
    x, w = np.polynomial.legendre.leggauss(N)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


# The |phi| mass left outside the truncated line [-L, L], by the grid and the
# Fourier box alike.
TAIL_EPS = 1e-12


def build_grid(profile: PotentialProfile, N: int) -> QuadratureGrid:
    """Gauss-Legendre grid on [-L, L] with L = profile.tail_radius(TAIL_EPS).

    The truncation radius is taken straight from the profile's exact
    tail inverse, so the |phi| mass outside the grid is below TAIL_EPS
    by construction.
    """
    if N < 8:
        raise ValueError(f"need at least 8 nodes, got {N}")
    L = float(profile.tail_radius(TAIL_EPS))
    if not math.isfinite(L):
        raise ValueError(f"profile tail radius at eps={TAIL_EPS:g} is not finite")
    if L <= 0.0:
        raise ValueError(
            "profile carries no mass, so no truncation radius exists; "
            "a nontrivial profile is required to build a grid"
        )
    x, w = _legendre_rule(N)
    return QuadratureGrid(nodes=L * x, weights=L * w, L=L, N=N)


def assemble(
    kernel: Callable[[np.ndarray, np.ndarray], np.ndarray], grid: QuadratureGrid
) -> BirmanSchwingerMatrix:
    """Symmetrized Nyström discretization of a pointwise kernel.

    kernel is called once with broadcastable node arrays (column x,
    row x') and must return the N x N complex kernel values; a NaN
    anywhere aborts with the offending index pair named.
    """
    x = grid.nodes
    raw = np.asarray(kernel(x[:, None], x[None, :]), dtype=complex)
    raw = np.broadcast_to(raw, (grid.N, grid.N))
    bad = ~np.isfinite(raw.real) | ~np.isfinite(raw.imag)
    if bad.any():
        i, j = map(int, np.argwhere(bad)[0])
        raise ValueError(
            f"kernel evaluation is not finite at node pair (i={i}, j={j}), "
            f"x={x[i]:.6g}, x'={x[j]:.6g}"
        )
    sqw = np.sqrt(grid.weights)
    return BirmanSchwingerMatrix(entries=sqw[:, None] * raw * sqw[None, :])


def bs_matrix(
    profile: PotentialProfile, point: SpectralPoint, grid: QuadratureGrid
) -> BirmanSchwingerMatrix:
    """Nyström matrix of the unmollified Birman-Schwinger kernel.

    Strictly triangular on a sorted grid (diagonal-zero convention), so
    its Carleman determinant is exactly 1 in exact arithmetic.
    """
    return assemble(lambda x, xp: bs_kernel(profile, point, x, xp), grid)


class MollifiedBSFamily:
    """Mollified BS matrices over a sweep of boundary points nu + i0.

    A family holds one profile on one grid.  matrix(n, nu) is assemble()
    over kernels.bs_kernel_mollified at nu + i0, the package's only dense
    view of the mollified kernel: the oracle of the structured path in
    the tests, and the matrix the invariants measure.  Only the upper
    side is built: if T is its matrix and S = diag(sgn phi), the lower
    side's is S T^H S (T^H where phi keeps one sign), so its det2 is the
    complex conjugate.  With d = x_i - x_j and u the weighted |phi|^(1/2)
    factor, T = diag(i sgn(phi) u) F diag(u), where F_ij is c_near e^(n d)
    above the diagonal (rank 1) and c_osc e^(i nu d) - c_far e^(-n d) on
    and below it (rank 2).  det2_sweep eliminates that structure from
    weights = i sgn(phi) u^2 alone, in O(N) per point and n, for groups
    of (n, nu) in one node loop: the whole schedule over the whole nu
    grid, and n read at the nodes around nu = 0 alone.  It bounds its
    rounding error at one check point per n and tracks arg det2 along x
    at the nodes each group asks for; an n that bound does not vouch
    for is refused, never assembled.
    """

    def __init__(self, profile: PotentialProfile, grid: QuadratureGrid):
        self.profile = profile
        self.grid = grid
        phi = np.asarray(profile.phi(grid.nodes), dtype=float)
        u = np.sqrt(grid.weights) * np.sqrt(np.abs(phi))
        self.weights = 1j * (np.sign(phi) * u) * u

    def matrix(self, n: int, nu: float) -> BirmanSchwingerMatrix:
        """The dense matrix at index n and nu + i0."""
        point = SpectralPoint.boundary(nu)
        return assemble(
            lambda x, xp: bs_kernel_mollified(self.profile, n, point, x, xp), self.grid
        )


def det2_sweep(family: MollifiedBSFamily, sweeps) -> list:
    """det2 of family.matrix(n, nu) for each (schedule, nu_grid, tracked) sweep, in one elimination.

    Every sweep is one group of lanes, its n by its nu, of a single node
    loop (determinants._sweep_groups): T = diag(i sgn(phi) u) F diag(u)
    has the determinant of diag(weights) F.  Returns one
    (values, points, bound, phases) per sweep: values (len(schedule),
    len(nu_grid)), points[s] the nu index of smallest |det2| (or of the
    first NaN) of schedule[s], bound[s] the first-order adjoint bound on
    the relative error of the value there, inf where it vouches for
    nothing, and phases[s, t] Im ln det2 at schedule[s] and
    nu_grid[tracked[t]], continued along x rather than in nu.  No dense
    matrix is built: family.matrix is the oracle of the tests.
    """
    groups = []
    for schedule, nu_grid, tracked in sweeps:
        nu = np.asarray(nu_grid, dtype=float)
        rates = np.array([_check_mollifier_index(n) for n in schedule], dtype=float)
        groups.append(_Lanes(rates, nu, _mollified_coefficients(rates[:, None], nu, 1.0), tracked))
    return _sweep_groups(family.weights, np.diff(family.grid.nodes), groups, family.grid.nodes)


def fourier_pair(
    profile: PotentialProfile, n: int, box_half_length: float, M: int
) -> FourierOperatorPair:
    """Periodic plane-wave discretization of the pair (A_-, A_{+,n}).

    Matrix elements of phi between normalized plane waves depend only
    on the momentum difference q_d = pi*d/box_half_length, so phihat is
    Toeplitz with column c_d = (1/2l) integral of phi(x) exp(-i q_d x).
    One FFT of phi sampled at P = 2M points of the periodic box [-l, l)
    gives every c_d as a periodic trapezoid sum, spectrally accurate for
    smooth profiles that have decayed at the box edge.  The mollifier
    enters as a symmetric diagonal conjugation by chi_n(k).
    """
    n = _check_mollifier_index(n)
    ell = float(box_half_length)
    if not ell > 0.0:
        raise ValueError("box_half_length must be positive")
    if M < 64 or M % 2 != 0:
        raise ValueError(f"M must be even and at least 64, got {M}")
    tail = profile.tail_radius(TAIL_EPS)
    if ell < tail:
        raise ValueError(
            f"box half-length {ell:g} is smaller than the profile tail radius {tail:g}"
        )
    momenta = np.pi * np.arange(-M // 2, M // 2) / ell
    P = 2 * M
    # sample points x_j = 2*l*j/P in FFT order: j = 0 .. M-1, then -M .. -1
    offsets = np.concatenate((np.arange(M), np.arange(-M, 0)))
    samples = np.asarray(profile.phi((2.0 * ell / P) * offsets), dtype=float)
    column = np.fft.rfft(samples)[:M] / P
    if np.array_equal(samples[1:], samples[:0:-1]):
        # a real even sequence has a real DFT; drop the rounding in its imaginary part
        column = column.real.copy()
    return FourierOperatorPair(
        box_half_length=ell,
        M=M,
        momenta=momenta,
        weights=np.asarray(chi(n, momenta), dtype=float),
        column=column,
    )


def _g_spectral(x: np.ndarray, z: complex) -> np.ndarray:
    """g_z(x) = x (x^2 - z)^(-1/2) on real spectra, principal branch.

    For z off [0, inf) the argument x^2 - z never meets the branch cut
    (its imaginary part is constant in x, and for real negative z it
    stays positive), which the assertions certify numerically.
    """
    w = x.astype(complex) ** 2 - z
    if z.imag != 0.0:
        signs = np.sign(w.imag)
        if not np.all(signs == signs[0]):
            raise ArithmeticError("branch-cut crossing in g_z evaluation")
    else:
        if float(w.real.min()) <= 0.0:
            raise ArithmeticError("branch-cut crossing in g_z evaluation")
    return x / np.sqrt(w)


def _require_off_halfline(z: complex) -> complex:
    z = complex(z)
    if z.imag == 0.0 and z.real >= 0.0:
        raise ValueError("z must lie off the half-line [0, inf)")
    return z


TRACE_BAND_TOL = 1e-12

# Band reduction costs O(M^2 b).  At M = 2048 it passes dense eigvalsh near
# b = M/16 for a complex column, and near b = M/20 for a real one, whose
# dense solve runs in real arithmetic.
_MAX_BAND_FRACTION = 16
_MAX_BAND_FRACTION_REAL = 20


def trace_band(pair: FourierOperatorPair, z: complex) -> tuple[Optional[int], float]:
    """Smallest half-band b whose band truncation in trace_gz_diff is certified <= TRACE_BAND_TOL.

    Dropping the entries with |i - j| > b leaves a Hermitian E whose
    column j has 2-norm at most chi_n(k_j) sqrt(2) ||c_{b+1:}||_2, since
    chi_n <= 1 and each offset d occurs at most twice in a column.  By
    Lidskii-Mirsky the eigenvalue shifts sum to at most
    ||E||_1 <= sum_j ||E e_j||_2, and |g_z'| <= |z| / dist(z, [0, inf))^(3/2)
    on the real line turns that into the returned bound on the trace.
    The bound covers the dropped entries only: the rounding of the
    eigensolver that then runs on the band comes on top of it, and can
    exceed it.  Returns (None, 0.0), the dense path, when b would exceed
    M/16, or M/20 for a real column.
    """
    z = _require_off_halfline(z)
    dist = abs(z.imag) if z.real >= 0.0 else abs(z)
    scale = abs(z) / dist**1.5 * math.sqrt(2.0) * float(np.sum(pair.weights))
    # tails[d] = ||c_{d:}||_2, summed from the small end
    tails = np.sqrt(np.cumsum(np.abs(pair.column[::-1]) ** 2))[::-1]
    bounds = scale * np.append(tails[1:], 0.0)
    fraction = _MAX_BAND_FRACTION if np.iscomplexobj(pair.column) else _MAX_BAND_FRACTION_REAL
    certified = np.flatnonzero(bounds[: pair.M // fraction + 1] <= TRACE_BAND_TOL)
    if certified.size == 0:
        return None, 0.0
    b = int(certified[0])
    return b, float(bounds[b])


def trace_gz_diff(pair: FourierOperatorPair, z: complex) -> complex:
    """tr(g_z(A_{+,n}) - g_z(A_-)) with g_z(x) = x (x^2 - z)^(-1/2).

    The eigenvalues of A_{+,n} come from its Hermitian band of half-width
    trace_band(pair, z), which keeps the error of dropping the outer
    entries below TRACE_BAND_TOL, or from the dense matrix when no band
    up to M/16 (M/20 for a real column) is certified (A_- is already
    diagonal).  The eigensolver's own rounding is not in that bound.
    This value is independent of everything downstream of the
    determinant pipeline and serves as its cross-check.
    """
    z = complex(z)
    band, _ = trace_band(pair, z)
    if band is None:
        evals = np.linalg.eigvalsh(pair.A_plus_n)
    else:
        # imported here, so that importing wittenlab loads no scipy module;
        # of the library, only this oracle needs scipy.linalg
        from scipy.linalg import eigvals_banded

        evals = eigvals_banded(pair.lower_band(band), lower=True)
    return complex(np.sum(_g_spectral(evals, z)) - np.sum(_g_spectral(pair.momenta, z)))


def ensure_oscillation_resolved(grid: QuadratureGrid, nu_max: float) -> None:
    """Require node spacing h to satisfy h * |nu_max| < 0.5.

    Coarser grids cannot represent the plane-wave factor at the fastest
    sweep frequency; the caller should raise N rather than trust the
    resulting phases.
    """
    h = grid.spacing_max
    if h * abs(nu_max) >= 0.5:
        raise RefinementNeededError(
            f"node spacing {h:.4g} does not resolve oscillations at |nu|={abs(nu_max):g}; "
            f"increase the node count",
            interval=(-abs(nu_max), abs(nu_max)),
        )
