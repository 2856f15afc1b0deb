"""Discretization layer: Nyström matrices and a Fourier-side trace oracle.

Two independent finite-dimensional pictures of the same operators live
here.  The Nyström route samples the closed-form kernels on a
Gauss-Legendre grid over the truncated line [-L, L] and symmetrizes by
the square-rooted weights, so Hilbert-Schmidt norms and Carleman
determinants of the matrix approximate those of the operator.  The
Fourier route discretizes A_- as a diagonal momentum matrix on a
periodic box and builds A_{+,n} = A_- + chi_n(k) phihat chi_n(k) from
plane-wave matrix elements of phi; traces of matrix functions of this
pair provide an oracle that shares no code with the determinant
machinery.

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
from scipy.linalg import toeplitz

from .determinants import RefinementNeededError
from .kernels import SpectralPoint, _mollified_coefficients, bs_kernel, bs_kernel_mollified
from .profiles import PotentialProfile, _check_mollifier_index, chi

__all__ = [
    "QuadratureGrid",
    "BirmanSchwingerMatrix",
    "FourierOperatorPair",
    "build_grid",
    "assemble",
    "bs_matrix",
    "bs_matrix_mollified",
    "MollifiedBSFamily",
    "fourier_pair",
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
        if abs(float(np.sum(self.weights)) - 2.0 * self.L) > 1e-10:
            raise ValueError("weights do not sum to the interval length 2L")

    @property
    def spacing_max(self) -> float:
        return float(np.max(np.diff(self.nodes)))


@dataclass(frozen=True)
class BirmanSchwingerMatrix:
    """Symmetrized Nyström matrix T_ij = sqrt(w_i) K(x_i, x_j) sqrt(w_j)."""

    entries: np.ndarray
    spectral_point: Optional[SpectralPoint] = None
    mollifier: Optional[int] = None

    @property
    def trace(self) -> complex:
        return complex(np.trace(self.entries))


@dataclass(frozen=True)
class FourierOperatorPair:
    """Periodic-box momentum representation of (A_-, A_{+,n}).

    momenta holds k_m = pi*m/box_half_length for m = -M/2 .. M/2-1;
    A_minus is diag(momenta) and A_plus_n adds the mollified
    perturbation chi_n(k) phihat chi_n(k), Hermitian by construction.
    """

    box_half_length: float
    M: int
    momenta: np.ndarray
    A_minus: np.ndarray
    A_plus_n: np.ndarray

    def __post_init__(self):
        residual = float(np.max(np.abs(self.A_plus_n - self.A_plus_n.conj().T)))
        if residual > 1e-12:
            raise ValueError(f"A_plus_n is not Hermitian (residual {residual:.3e})")


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


def build_grid(profile: PotentialProfile, N: int, tail_eps: float = 1e-12) -> QuadratureGrid:
    """Gauss-Legendre grid on [-L, L] with L = profile.tail_radius(tail_eps).

    The truncation radius is taken straight from the profile's exact
    tail inverse, so the |phi| mass outside the grid is below tail_eps
    by construction.
    """
    if N < 8:
        raise ValueError(f"need at least 8 nodes, got {N}")
    if not tail_eps > 0.0:
        raise ValueError("tail_eps must be positive")
    L = float(profile.tail_radius(tail_eps))
    if not math.isfinite(L):
        raise ValueError(f"profile tail radius at eps={tail_eps:g} is not finite")
    if L <= 0.0:
        raise ValueError(
            "profile carries no mass, so no truncation radius exists; "
            "a nontrivial profile is required to build a grid"
        )
    x, w = _legendre_rule(N)
    return QuadratureGrid(nodes=L * x, weights=L * w, L=L, N=N)


def assemble(
    kernel: Callable[[np.ndarray, np.ndarray], np.ndarray],
    grid: QuadratureGrid,
    spectral_point: Optional[SpectralPoint] = None,
    mollifier: Optional[int] = None,
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
    entries = sqw[:, None] * raw * sqw[None, :]
    return BirmanSchwingerMatrix(
        entries=entries, spectral_point=spectral_point, mollifier=mollifier
    )


def bs_matrix(
    profile: PotentialProfile, point: SpectralPoint, grid: QuadratureGrid
) -> BirmanSchwingerMatrix:
    """Nyström matrix of the unmollified Birman-Schwinger kernel.

    Strictly triangular on a sorted grid (diagonal-zero convention), so
    its Carleman determinant is exactly 1 in exact arithmetic.
    """
    return assemble(
        lambda x, xp: bs_kernel(profile, point, x, xp), grid, spectral_point=point
    )


def bs_matrix_mollified(
    profile: PotentialProfile, n: int, point: SpectralPoint, grid: QuadratureGrid
) -> BirmanSchwingerMatrix:
    """Nyström matrix of the mollified Birman-Schwinger kernel."""
    return assemble(
        lambda x, xp: bs_kernel_mollified(profile, n, point, x, xp),
        grid,
        spectral_point=point,
        mollifier=_check_mollifier_index(n),
    )


class MollifiedBSFamily:
    """Mollified BS matrices over a sweep of boundary points nu + i0.

    With d = x_i - x_j, row = +/-i sgn(phi) u and col = u (u the
    weighted |phi|^(1/2) factor), the upper-side entries are
    row_i col_j c_near e^(n d) above the diagonal (rank 1) and
    row_i col_j (c_osc e^(i nu d) - c_far e^(-n d)) on and below it
    (rank 2); the lower side is the mirror image, its diagonal on the
    near branch, where both branches agree since c_osc - c_far = c_near.
    generators(nu_grid) returns that structure for a whole sweep, which
    det2_quasiseparable eliminates in O(N) per point; matrix(nu)
    assembles one dense matrix, agreeing with bs_matrix_mollified to
    rounding, as the oracle of the structured path.
    """

    def __init__(self, profile: PotentialProfile, n: int, grid: QuadratureGrid, side: str = "upper"):
        if side not in ("upper", "lower"):
            raise ValueError(f"side must be 'upper' or 'lower', got {side!r}")
        self.n = _check_mollifier_index(n)
        self.grid = grid
        self.side = side
        phi = np.asarray(profile.phi(grid.nodes), dtype=float)
        u = np.sqrt(grid.weights) * np.sqrt(np.abs(phi))
        upper = side == "upper"
        self._s = 1.0 if upper else -1.0
        self._row = (1j if upper else -1j) * (np.sign(phi) * u)
        self._col = u

    def matrix(self, nu: float) -> BirmanSchwingerMatrix:
        z = complex(nu)
        x = self.grid.nodes
        c_near, c_osc, c_far = _mollified_coefficients(self.n, z, self._s)
        diff = x[:, None] - x[None, :]
        decay = np.exp(-self.n * np.abs(diff))
        osc = np.exp(1j * z * x)
        plane = osc[:, None] * osc.conj()[None, :]
        # the diagonal takes the far branch above the axis and the near one below
        near = diff < 0.0 if self._s > 0 else diff >= 0.0
        factor = np.where(near, c_near * decay, c_osc * plane - c_far * decay)
        entries = self._row[:, None] * factor * self._col[None, :]
        return BirmanSchwingerMatrix(
            entries=entries,
            spectral_point=SpectralPoint.boundary(float(nu), self.side),
            mollifier=self.n,
        )

    def generators(self, nu_grid: np.ndarray) -> tuple:
        """(diag, lower, upper) of every matrix(nu) in the sweep, as det2_quasiseparable takes them.

        The transition factors e^(+/-i nu dx) and e^(-n dx) between
        adjacent nodes have modulus at most 1, so the generators stay
        bounded at any n (unscaled factors e^(+/-n x) overflow once
        2 n L passes about 709).
        """
        nu = np.asarray(nu_grid, dtype=float)[:, None]
        c_near, c_osc, c_far = _mollified_coefficients(self.n, nu, self._s)
        dx = np.diff(self.grid.nodes)
        decay = np.exp(-self.n * dx)
        wave = np.exp(self._s * 1j * nu * dx)
        col = self._col[:, None]
        near = (self._row[:, None] * c_near[:, :, None], decay[:, None], col)
        osc = (
            self._row[:, None] * np.stack([c_osc, -c_far], axis=-1),
            np.stack([wave, np.broadcast_to(decay, wave.shape)], axis=-1),
            col,
        )
        diag = c_near * (self._row * self._col)
        return (diag, osc, near) if self._s > 0 else (diag, near, osc)


def _profile_transform(profile: PotentialProfile, q: np.ndarray, radius: float) -> np.ndarray:
    """integral of phi(x) exp(-i q x) over [-radius, radius] by panel quadrature.

    Panels are sized to the fastest oscillation present in q, with a
    12-point rule per panel; for the smooth builtin profiles this is
    accurate to near machine precision.
    """
    if radius <= 0.0:
        return np.zeros(q.shape, dtype=complex)
    q_max = float(np.max(np.abs(q)))
    # at most ~half an oscillation period per panel
    panels = max(8, int(math.ceil(radius * max(q_max, 1.0) / math.pi)) + 2)
    edges = np.linspace(-radius, radius, panels + 1)
    gx, gw = np.polynomial.legendre.leggauss(12)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * gx[None, :]).ravel()
    weights = (half[:, None] * gw[None, :]).ravel()
    fw = np.asarray(profile.phi(nodes), dtype=float) * weights
    flat_q = np.ravel(q).astype(float)
    out = np.empty(flat_q.shape, dtype=complex)
    block = 128
    for start in range(0, flat_q.size, block):
        qs = flat_q[start : start + block]
        out[start : start + block] = fw @ np.exp(-1j * np.outer(nodes, qs))
    return out.reshape(np.shape(q))


def fourier_pair(
    profile: PotentialProfile, n: int, box_half_length: float, M: int
) -> FourierOperatorPair:
    """Periodic plane-wave discretization of the pair (A_-, A_{+,n}).

    Matrix elements of phi between normalized plane waves depend only
    on the momentum difference, so phihat is Toeplitz; the mollifier
    enters as a symmetric diagonal conjugation by chi_n(k).
    """
    n = _check_mollifier_index(n)
    ell = float(box_half_length)
    if not ell > 0.0:
        raise ValueError("box_half_length must be positive")
    if M < 64 or M % 2 != 0:
        raise ValueError(f"M must be even and at least 64, got {M}")
    tail = profile.tail_radius(1e-12)
    if ell < tail:
        raise ValueError(
            f"box half-length {ell:g} is smaller than the profile tail radius {tail:g}"
        )
    m = np.arange(-M // 2, M // 2)
    momenta = np.pi * m / ell
    radius = profile.tail_radius(1e-15)
    dq = np.pi * np.arange(M) / ell
    column = _profile_transform(profile, dq, radius) / (2.0 * ell)
    phihat = toeplitz(column, column.conj())
    weight = np.asarray(chi(n, momenta), dtype=float)
    a_plus = np.diag(momenta).astype(complex)
    a_plus += weight[:, None] * phihat * weight[None, :]
    # symmetrize away rounding noise; construction is Hermitian already
    a_plus = 0.5 * (a_plus + a_plus.conj().T)
    return FourierOperatorPair(
        box_half_length=ell,
        M=M,
        momenta=momenta,
        A_minus=np.diag(momenta),
        A_plus_n=a_plus,
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


def trace_gz_diff(pair: FourierOperatorPair, z: complex) -> complex:
    """tr(g_z(A_{+,n}) - g_z(A_-)) with g_z(x) = x (x^2 - z)^(-1/2).

    Both traces come from Hermitian eigendecompositions (A_- is already
    diagonal), so this value is independent of everything downstream of
    the determinant pipeline and serves as its cross-check.
    """
    z = complex(z)
    if z.imag == 0.0 and z.real >= 0.0:
        raise ValueError("z must lie off the half-line [0, inf)")
    evals = np.linalg.eigvalsh(pair.A_plus_n)
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
