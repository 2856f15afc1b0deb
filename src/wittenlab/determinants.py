"""Complex determinants, Carleman determinants, and phase tracking.

The only nontrivial numerical object in the whole pipeline is the
phase of det2(I + T(nu)) along a sweep of boundary points.  det2 is
the Carleman (modified Fredholm) determinant det(I + T) exp(-tr T),
the natural determinant for Hilbert-Schmidt perturbations; the raw
determinant comes from a dense LU factorization with the magnitude
accumulated in log space so that large matrices cannot overflow during
the pivot product.  Sweeps of structured matrices skip the dense
matrix altogether: det2_quasiseparable eliminates over the Eidelman-
Gohberg generators of a diagonal-plus-semiseparable T in O(N r s) per
point, vectorized over a batch of points, and the dense det2 remains
its oracle.

Phase unwrapping is anchored at the leftmost sweep point, where the
determinant must already be close to 1, and swept upward with a
strict adjacent-jump budget of pi/2; anything larger is refused with a
refinement request rather than guessed, because a missed winding
silently shifts the spectral shift function by an integer.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "RefinementNeededError",
    "NearSingularError",
    "PhaseCurve",
    "det_complex",
    "det2",
    "det2_quasiseparable",
    "hs_norm",
    "phase_curve",
]


class RefinementNeededError(RuntimeError):
    """The requested resolution cannot support a trustworthy answer.

    Carries the grid interval (lo, hi) that needs more nodes; callers
    map this to a dedicated exit code instead of a generic failure.
    """

    def __init__(self, message: str, interval: Optional[tuple] = None):
        super().__init__(message)
        self.interval = interval


class NearSingularError(RuntimeError):
    """|det2| fell below the trust threshold at some sweep point.

    An eigenvalue of the Birman-Schwinger matrix is passing through -1,
    where the phase genuinely jumps; the engine refuses to interpolate
    across it.
    """

    def __init__(self, message: str, nu: Optional[float] = None, magnitude: float = 0.0):
        super().__init__(message)
        self.nu = nu
        self.magnitude = magnitude


@dataclass(frozen=True)
class PhaseCurve:
    """Continuous representative of Im ln det2 along a nu sweep."""

    nu_grid: np.ndarray
    raw_det2: np.ndarray
    unwrapped_phase: np.ndarray
    anchor: int


def det_complex(matrix: np.ndarray) -> complex:
    """Determinant of a square complex matrix via LU with partial pivoting.

    numpy.linalg.slogdet returns the unit-modulus phase and the sum of
    the pivot log-magnitudes, re-exponentiated here, so intermediate
    pivot products can neither overflow nor underflow; an exactly
    singular factorization returns 0 rather than raising.
    """
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("array must not contain infs or NaNs")
    phase, log_magnitude = np.linalg.slogdet(a)
    phase = complex(phase)
    # saturate rather than raise when the true value leaves double range
    if log_magnitude > 709.0:
        return phase * math.inf
    return phase * math.exp(log_magnitude)


def det2(T: np.ndarray) -> complex:
    """Carleman determinant det2(I + T) = det(I + T) exp(-tr T).

    Equals the product of (1 + lambda_k) exp(-lambda_k) over the
    eigenvalues of T.  The trace is taken from the matrix as assembled,
    which is exactly 0 for the triangular Birman-Schwinger matrices, so
    det2 reduces to det(I + T) there with no exponential correction.
    """
    T = np.asarray(T, dtype=complex)
    if T.ndim != 2 or T.shape[0] != T.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {T.shape}")
    value = det_complex(np.eye(T.shape[0]) + T)
    return value * cmath.exp(-complex(np.trace(T)))


def det2_quasiseparable(diag, lower, upper) -> np.ndarray:
    """det2(I + T) from diagonal-transition quasiseparable generators of T.

    diag holds T_kk with shape (..., N); leading axes are a batch of
    independent matrices (one per sweep point).  lower = (p, a, q) and
    upper = (g, b, h) generate the off-diagonal parts of rank r and s,

        T_ij = sum_c p[i,c] a[j,c] ... a[i-1,c] q[j,c]   for i > j,
        T_ij = sum_c g[i,c] b[i,c] ... b[j-1,c] h[j,c]   for i < j,

    where p, q broadcast to (..., N, r), g, h to (..., N, s), and the
    transition factors a, b between adjacent nodes to (..., N - 1, r)
    and (..., N - 1, s).  Gaussian elimination without pivoting carries
    the r x s matrix Q^T A^{-1} G of the eliminated block, transported
    to the current node, so with transition factors of modulus at most
    1 nothing grows with the distance between nodes.  The pivots
    multiply to det(I + T) and their logs are summed; a zero pivot
    before the last one makes the value NaN rather than a guess.
    """
    d = np.asarray(diag, dtype=complex)
    *batch, N = d.shape
    p, a, q = lower
    g, b, h = upper
    r, s = np.shape(p)[-1], np.shape(g)[-1]
    p, q = (np.broadcast_to(v, (*batch, N, r)) for v in (p, q))
    g, h = (np.broadcast_to(v, (*batch, N, s)) for v in (g, h))
    a = np.broadcast_to(a, (*batch, N - 1, r))
    b = np.broadcast_to(b, (*batch, N - 1, s))
    m = np.zeros((*batch, r, s), dtype=complex)
    log_det = np.zeros(batch, dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(N):
            mh = np.sum(m * h[..., k, None, :], axis=-1)
            pm = np.sum(p[..., k, :, None] * m, axis=-2)
            pivot = 1.0 + d[..., k] - np.sum(pm * h[..., k, :], axis=-1)
            log_det += np.log(pivot)
            if k < N - 1:
                m = m + (q[..., k, :] - mh)[..., :, None] * (
                    (g[..., k, :] - pm) / pivot[..., None]
                )[..., None, :]
                m *= a[..., k, :, None] * b[..., k, None, :]
        return np.exp(log_det - np.sum(d, axis=-1))


def hs_norm(T: np.ndarray) -> float:
    """Hilbert-Schmidt (Frobenius) norm of a matrix."""
    return float(np.linalg.norm(np.asarray(T), ord="fro"))


def phase_curve(nu_grid: np.ndarray, det2_values: np.ndarray) -> PhaseCurve:
    """Track the continuous phase of det2 along an ascending nu grid.

    det2_values holds det2(I + T(nu)) at each grid point, and every
    contract of a Birman-Schwinger sweep applies: |det2| stays above
    1e-12; the curve starts and ends near det2 = 1 (|det2 - 1| below
    0.2, the anchor phase and the far-end unwrapped phase within pi/4
    of 0), else the sweep window is too narrow; and no adjacent phase
    step reaches pi/2.  In between, the phase may travel any distance.
    """
    nu = np.asarray(nu_grid, dtype=float)
    if nu.ndim != 1 or len(nu) < 2:
        raise ValueError("nu_grid must be a 1-D vector with at least 2 points")
    if not np.all(np.diff(nu) > 0.0):
        raise ValueError("nu_grid must be strictly increasing")
    values = np.asarray(det2_values, dtype=complex)
    if values.shape != nu.shape:
        raise ValueError("det2_values length does not match nu_grid")

    mags = np.abs(values)
    small = np.nonzero(mags < 1e-12)[0]
    if small.size:
        i = int(small[0])
        raise NearSingularError(
            f"|det2| = {mags[i]:.3e} at nu = {nu[i]:g}; an eigenvalue is "
            f"crossing -1 and the phase is untrackable there",
            nu=float(nu[i]),
            magnitude=float(mags[i]),
        )

    for end in (0, -1):
        dist = abs(values[end] - 1.0)
        if dist >= 0.2:
            raise RefinementNeededError(
                f"|det2 - 1| = {dist:.3f} at nu = {nu[end]:g}; the sweep "
                f"window must extend until the determinant settles near 1",
                interval=(float(nu[0]), float(nu[-1])),
            )

    anchor_phase = float(np.angle(values[0]))
    if abs(anchor_phase) >= np.pi / 4:
        raise RefinementNeededError(
            f"anchor phase {anchor_phase:.3f} at nu = {nu[0]:g} is not near 0; "
            f"enlarge the sweep window",
            interval=(float(nu[0]), float(nu[-1])),
        )

    steps = np.angle(values[1:] / values[:-1])
    worst = int(np.argmax(np.abs(steps)))
    if abs(steps[worst]) >= np.pi / 2:
        raise RefinementNeededError(
            f"phase jump {steps[worst]:.3f} between nu = {nu[worst]:g} and "
            f"nu = {nu[worst + 1]:g} exceeds pi/2; refine the sweep there",
            interval=(float(nu[worst]), float(nu[worst + 1])),
        )
    unwrapped = np.concatenate(([anchor_phase], anchor_phase + np.cumsum(steps)))

    if abs(float(unwrapped[-1])) >= np.pi / 4:
        raise RefinementNeededError(
            f"far-end phase {unwrapped[-1]:.3f} at nu = {nu[-1]:g} has not "
            f"decayed; suspected missed winding, refine the sweep",
            interval=(float(nu[0]), float(nu[-1])),
        )

    return PhaseCurve(nu_grid=nu, raw_det2=values, unwrapped_phase=unwrapped, anchor=0)
