"""Complex determinants, Carleman determinants, and phase tracking.

The only nontrivial numerical object in the whole pipeline is the
phase of det2(I + T(nu)) along a sweep of boundary points.  det2 is
the Carleman (modified Fredholm) determinant det(I + T) exp(-tr T),
the natural determinant for Hilbert-Schmidt perturbations; the raw
determinant comes from a dense LU factorization with the magnitude
accumulated in log space so that large matrices cannot overflow during
the pivot product.  Sweeps skip the dense matrix altogether:
det2_semiseparable eliminates the one shape the mollified sweep
produces, diagonal weights times a kernel of rank 2 on and below the
diagonal and rank 1 above it (Eidelman-Gohberg), in O(N) per point.
It runs over a whole batch of decay rates and wave numbers at once, in
the division-free lifted form of the elimination (Gohberg-Goldberg-
Krupnik, ch. IX): three state numbers per matrix, rescaled by a power
of two once per block of nodes, so a pivot through zero is carried
rather than divided by.  The dense det2 remains its oracle.

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
    "det2_semiseparable",
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


def det2(T: np.ndarray, overwrite: bool = False) -> complex:
    """Carleman determinant det2(I + T) = det(I + T) exp(-tr T).

    Equals the product of (1 + lambda_k) exp(-lambda_k) over the
    eigenvalues of T.  The trace is taken from the matrix as assembled,
    which is exactly 0 for the triangular Birman-Schwinger matrices, so
    det2 reduces to det(I + T) there with no exponential correction.
    I + T is formed in one copy of T, or, with overwrite=True, in T
    itself when T is already a complex array, which then holds I + T;
    the value is the same either way, bit for bit.
    """
    T = np.asarray(T, dtype=complex)
    if T.ndim != 2 or T.shape[0] != T.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {T.shape}")
    correction = cmath.exp(-complex(np.trace(T)))
    # adding 0.0 turns -0.0 parts into +0.0, as the identity's zeros would
    if overwrite:
        shifted = T
        shifted += 0.0
    else:
        shifted = T + 0.0
    shifted[np.diag_indices(T.shape[0])] += 1.0
    return det_complex(shifted) * correction


# Nodes swept between two rescales of the lifted state.
_BLOCK = 32
_HUGE = np.finfo(float).max
_LN2 = math.log(2.0)


def _cis(theta: np.ndarray) -> np.ndarray:
    """e^(i theta) for real theta, from real cos and sin (in numpy faster than a complex exp)."""
    out = np.empty(np.shape(theta), dtype=complex)
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    return out


def _rescale(state: np.ndarray, exponent: np.ndarray) -> np.ndarray:
    """Scale each lane of state by 2^-e, with 2^e just above its max-abs part; add e to exponent.

    state is (3, *lanes) and exponent has the lanes' shape.  A power of
    two scales without rounding, so where and how often the state is
    rescaled never changes its digits.  Returns the lanes whose max-abs
    part is 0 or not finite; these are left as they were.
    """
    parts = np.abs(state.view(float))
    size = np.maximum(parts[0], parts[1])
    np.maximum(size, parts[2], out=size)
    size = np.maximum(size[..., 0::2], size[..., 1::2])
    e = np.frexp(size)[1]
    # keeps 2^-e finite: a max-abs part below 2^-1021 is scaled to at least 2^-53
    np.maximum(e, -1021, out=e)
    factor = np.repeat(np.ldexp(1.0, -e), 2, axis=-1)
    for part in state.view(float):
        part *= factor
    exponent += e
    return ~((size > 0.0) & (size <= _HUGE))


def _lifted_nodes(weights, steps, coef, state, exponent=None) -> None:
    """Run the lifted recurrence over consecutive nodes, in place on state = (b, a_0, a_1).

    steps[j] holds the transitions after node j, so a block that ends
    at the last node has one step fewer than it has weights.  With an
    exponent array given, the state is rescaled after every node.
    """
    c_near, c_osc, c_far = coef
    b, a0, a1 = state
    v = np.empty_like(b)
    scratch = np.empty_like(b)
    for j, weight in enumerate(weights):
        np.multiply(c_near, b, out=v)
        np.multiply(c_osc, a0, out=scratch)
        v -= scratch
        np.multiply(c_far, a1, out=scratch)
        v += scratch
        v *= weight
        b += v
        if j == len(steps):
            break
        a0 += v
        a0 *= steps[j, 0]
        a1 += v
        a1 *= steps[j, 1]
        if exponent is not None:
            _rescale(state, exponent)


def det2_semiseparable(weights, gaps, rates, waves, coefficients) -> np.ndarray:
    """det2(I + T) over a batch of matrices of one rank-(2, 1) semiseparable shape.

    On nodes x_1 < ... < x_N with gaps[k] = x_{k+1} - x_k, T = diag(weights) F,
    where F depends on a decay rate n > 0 and a wave number w:

        F_ij = c_near e^(-n (x_j - x_i))                               i < j,
        F_ii = c_near,
        F_ij = c_osc e^(i w (x_i - x_j)) - c_far e^(-n (x_i - x_j))   i > j,

    rank 1 above the diagonal and rank 2 below it.  The batch runs over
    rates (S,) and waves (P,), with coefficients = (c_near, c_osc, c_far)
    broadcast to (S, P); the result has shape (S, P).  Elimination
    without pivoting is carried in its linear (lifted) form, three
    numbers per matrix: b, the determinant of the leading block, and
    a_0, a_1, the rank-2 part of that block coupled through its inverse
    to the rank-1 part times b.  At node k, with
    V = weights_k (c_near b - c_osc a_0 + c_far a_1), b becomes b + V and
    a_c becomes (a_c + V) times its transition e^((i w - n) dx) or
    e^(-2 n dx); after the last node b = det(I + T).  No step divides,
    so a pivot 1 + V/b through zero is carried like any other.  The
    transitions have modulus at most 1, and e^(i w dx) is shared by
    every rate.  After each block of _BLOCK nodes every matrix's state
    is rescaled by a power of two near its max-abs part, whose log is
    added to the result; a block whose end state is not finite or is 0
    is swept again for those matrices alone, rescaled after every node.
    """
    u = np.asarray(weights, dtype=complex)
    dx = np.asarray(gaps, dtype=float)
    rates = np.asarray(rates, dtype=float)
    waves = np.asarray(waves, dtype=float)
    if u.ndim != 1 or dx.shape != (len(u) - 1,):
        raise ValueError("need N weights and N - 1 gaps")
    if rates.ndim != 1 or waves.ndim != 1:
        raise ValueError("rates and waves must be 1-D")
    N = len(u)
    shape = (len(rates), len(waves))
    # materialized, because numpy multiplies equal-shape complex arrays
    # faster than broadcast ones
    coef = np.empty((3, *shape), dtype=complex)
    for c, value in zip(coef, coefficients):
        c[...] = value
    state = np.zeros((3, *shape), dtype=complex)
    state[0] = 1.0
    start_state = np.empty_like(state)
    exponent = np.zeros(shape, dtype=int)
    # steps[j] holds node j's transitions of a_0 and a_1, refilled for each block
    steps = np.empty((_BLOCK, 2, *shape), dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        for start in range(0, N, _BLOCK):
            stop = min(start + _BLOCK, N)
            block = dx[start:stop]
            fall = np.exp(-np.multiply.outer(block, rates))[:, :, None]
            step = steps[: len(block)]
            np.multiply(fall, _cis(np.multiply.outer(block, waves))[:, None, :], out=step[:, 0])
            step[:, 1] = fall * fall
            start_state[...] = state
            _lifted_nodes(u[start:stop], step, coef, state)
            redo = _rescale(state, exponent)
            if redo.any():
                lanes = (slice(None), redo)
                again, shift = start_state[lanes], exponent[redo]
                _lifted_nodes(u[start:stop], step[:, :, redo], coef[lanes], again, shift)
                state[lanes], exponent[redo] = again, shift
        log_det = np.log(state[0]) + exponent * _LN2
        return np.exp(log_det - coef[0] * np.sum(u))


def hs_norm(T: np.ndarray) -> float:
    """Hilbert-Schmidt (Frobenius) norm of a matrix."""
    return float(np.linalg.norm(np.asarray(T), ord="fro"))


def phase_curve(nu_grid: np.ndarray, det2_values: np.ndarray) -> PhaseCurve:
    """Track the continuous phase of det2 along an ascending nu grid.

    det2_values holds det2(I + T(nu)) at each grid point, and every
    contract of a Birman-Schwinger sweep applies: every value is finite
    (a NaN or inf is refused with its nu named); |det2| stays above
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

    # every check below compares false on a NaN, and an inf has no phase
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        i = int(bad[0])
        raise RefinementNeededError(
            f"det2 {values[i]} at nu = {nu[i]:g} is not finite; refine the grid there",
            interval=(float(nu[i]), float(nu[i])),
        )

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
