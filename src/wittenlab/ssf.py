"""Spectral shift functions and the trace-formula cross-checks.

The 1-D spectral shift function of the mollified pair is recovered
from determinant phases,

    xi_n(nu) = (1/pi) * Im ln det2(I + K_n(nu + i0)) + (1/pi) * eta_n(nu),

where the eta term is the imaginary part of the mollified trace,
known in closed form.  Its n -> infinity limit is the constant
integral(phi)/(2*pi), and the 2-D spectral shift function is produced
from the 1-D one by the arcsine-weighted transform

    xi_2d(lam) = (1/pi) * int_{-sqrt(lam)}^{sqrt(lam)} xi(nu) (lam - nu^2)^(-1/2) dnu,

never by discretizing the 2-D operators.  It maps a constant to itself.
A sampled curve is linear between its nodes, and each integral of one
against a weight is exact for that interpolant by one per-cell rule
(_product_weights): the arcsine transform, over a whole lam grid in one
call in fixed blocks of lam, with the eta_n tail an arctan; the index's
Delta_r, a resolvent mean of the 1-D curve with no 2-D curve between;
and the lam side of the Stieltjes pair, which witten.delta_r shares.
Two trace identities are exposed as residual reports: the resolvent
trace formula against a Fourier-side oracle, and the Stieltjes pair
equating the lam-integral of xi_2d against the nu-integral of the 1-D
curve.

Everything here treats curves as immutable value objects.  A sweep
takes det2 at every nu and every n of a mollifier schedule from one
structured elimination, O(N) per point (det2_sweep), which also
returns, for each n, its point of smallest |det2| and a running error
bound on the sweep's value there.  Where the bound is too loose to
vouch, that n falls back to the dense LU det2 of the assembled matrix,
before its phase is tracked.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from .determinants import RefinementNeededError, _det2_log_magnitude, det2, phase_curve
from .discretize import (
    MollifiedBSFamily,
    _legendre_rule,
    _require_off_halfline,
    build_grid,
    det2_sweep,
    ensure_oscillation_resolved,
    fourier_pair,
    trace_band,
    trace_gz_diff,
)
from .kernels import _eta, eta_n_im
from .profiles import PotentialProfile, _check_mollifier_index

__all__ = [
    "SSFKind",
    "SSFCurve",
    "CoverageError",
    "TraceCheckReport",
    "ssf_mollified",
    "pushnitski",
    "ssf_2d_curve",
    "krein_check_trn",
    "trace_identity_eq1",
]


class SSFKind(Enum):
    ONE_DIM_MOLLIFIED = "one_dim_mollified"
    TWO_DIM = "two_dim"


class CoverageError(RuntimeError):
    """The sampled curve or grid does not cover the requested domain."""


@dataclass(frozen=True)
class SSFCurve:
    """A sampled spectral shift function with its construction record.

    grid holds nu values for the 1-D kinds and lam values for the 2-D
    kind; 2-D curves live on lam > 0 only, the function being 0 for
    negative lam by the normalization convention.
    """

    grid: np.ndarray
    values: np.ndarray
    kind: SSFKind
    provenance: Mapping = field(default_factory=dict)

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if grid.ndim != 1 or grid.shape != values.shape:
            raise ValueError("grid and values must be 1-D vectors of equal length")
        if len(grid) >= 2 and not np.all(np.diff(grid) > 0.0):
            raise ValueError("grid must be strictly increasing")
        if self.kind is SSFKind.TWO_DIM and len(grid) and grid[0] <= 0.0:
            raise ValueError("2-D curves are defined on lam > 0 only")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    @property
    def endpoint_magnitude(self) -> float:
        return float(max(abs(self.values[0]), abs(self.values[-1])))

    def value_at(self, x) -> np.ndarray | float:
        """Linear interpolation; 2-D curves return 0 left of the origin."""
        x = np.asarray(x, dtype=float)
        out = np.interp(x, self.grid, self.values)
        if self.kind is SSFKind.TWO_DIM:
            out = np.where(x < 0.0, 0.0, out)
        return out if out.ndim else float(out)

    def _column_names(self) -> tuple[str, str]:
        if self.kind is SSFKind.TWO_DIM:
            return "lambda", "xi"
        return "nu", "xi"

    def to_csv(self) -> str:
        """CSV text: header row, comma separated, LF endings, 12 significant digits."""
        a, b = self._column_names()
        lines = [f"{a},{b}"]
        lines.extend(f"{g:.12g},{v:.12g}" for g, v in zip(self.grid, self.values))
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "grid": [float(g) for g in self.grid],
            "values": [float(v) for v in self.values],
            "provenance": dict(self.provenance),
        }


@dataclass(frozen=True)
class TraceCheckReport:
    """Both sides of a trace identity plus the measured residual."""

    lhs: complex
    rhs: complex
    residual: float
    params: Mapping = field(default_factory=dict)

    @property
    def relative_residual(self) -> float:
        return self.residual / max(abs(self.rhs), 1e-30)


def _check_threads(threads: Optional[int]) -> None:
    """Reject a thread count below 1; any valid count does the same work."""
    if threads is not None and int(threads) < 1:
        raise ValueError("threads must be at least 1")


def _nu_grid(nu_max: float, nu_points: Optional[int], N: int) -> np.ndarray:
    """The symmetric sweep grid on [-nu_max, nu_max], of nu_points points, or N + 1 if unset."""
    return np.linspace(-nu_max, nu_max, N + 1 if nu_points is None else nu_points)


_SPOT_CHECK_TOL = 1e-9


def _spot_check(family: MollifiedBSFamily, n: int, nu: float, value: complex) -> None:
    """Hold the structured sweep's value at (n, nu) to the dense LU det2 there.

    The fallback where the sweep's bound does not vouch: a disagreement beyond
    _SPOT_CHECK_TOL * (1 + |dense|) is refused with the point named, and so
    is a dense det2 beyond double range, 0 or inf, with its log-magnitude.
    """
    entries = family.matrix(n, nu).entries
    dense = det2(entries)
    in_range = 0.0 < abs(dense) < math.inf
    if not (in_range and abs(value - dense) <= _SPOT_CHECK_TOL * (1.0 + abs(dense))):
        beyond = "" if in_range else f", of log-magnitude {_det2_log_magnitude(entries):.6g},"
        raise RefinementNeededError(
            f"structured det2 {value:.6g} disagrees with the dense det2 {dense:.6g}{beyond} "
            f"at nu = {nu:g}",
            interval=(nu, nu),
        )


def _zero_curve(nu_grid: np.ndarray, n: int, N: int) -> SSFCurve:
    nu_grid = np.asarray(nu_grid, dtype=float)
    return SSFCurve(
        grid=nu_grid,
        values=np.zeros_like(nu_grid),
        kind=SSFKind.ONE_DIM_MOLLIFIED,
        provenance={
            "N": N,
            "n": n,
            "nu_max": float(np.max(np.abs(nu_grid))) if len(nu_grid) else 0.0,
            "total_integral": 0.0,
            "endpoint_magnitude": 0.0,
        },
    )


def ssf_mollified(
    profile: PotentialProfile,
    n: Union[int, Sequence[int]],
    nu_grid: np.ndarray,
    N: int,
    *,
    threads: Optional[int] = None,
) -> Union[SSFCurve, tuple]:
    """Mollified 1-D spectral shift function on a symmetric nu grid.

    Combines the unwrapped det2 phase of the mollified Birman-Schwinger
    sweep with the closed-form eta term; phase-tracking contract
    violations (untrackable jumps, undecayed endpoints, unresolved
    oscillations) propagate as refinement errors rather than being
    papered over.  An int n returns one curve; a sequence of n returns a
    tuple of curves, one per n, from one elimination over the whole
    schedule, each bitwise equal to the curve of its n alone.  The sweep
    vouches for an n where its bound e, at the value v of the n's check
    point, puts the exact det2 within e |v| <= _SPOT_CHECK_TOL (1 + |v|)
    of v, the margin the dense check allows; a non-finite v or bound
    vouches for nothing.  The dense spot check of an n it does not vouch
    for and the phase tracking run per n in schedule order, so the error
    raised is the one a loop over n would raise first.
    """
    _check_threads(threads)
    single = np.ndim(n) == 0
    schedule = tuple(_check_mollifier_index(m) for m in np.atleast_1d(n))
    if not schedule:
        raise ValueError("the n schedule must be nonempty")
    nu = np.asarray(nu_grid, dtype=float)
    if nu.ndim != 1 or len(nu) < 2:
        raise ValueError("nu_grid must be a 1-D vector with at least 2 points")
    if not np.all(np.diff(nu) > 0.0):
        raise ValueError("nu_grid must be strictly increasing")
    if not np.allclose(nu, -nu[::-1], rtol=0.0, atol=1e-9):
        raise ValueError("nu_grid must be symmetric about 0")
    if profile.l1_norm == 0.0:
        curves = tuple(_zero_curve(nu, m, N) for m in schedule)
        return curves[0] if single else curves

    grid = build_grid(profile, N)
    nu_max = float(np.max(np.abs(nu)))
    ensure_oscillation_resolved(grid, nu_max)
    family = MollifiedBSFamily(profile, grid)
    det2_values, points, bound = det2_sweep(family, schedule, nu)
    checked = det2_values[np.arange(len(schedule)), points]
    size = np.abs(checked)
    with np.errstate(invalid="ignore"):
        vouched = np.isfinite(checked) & (bound * size <= _SPOT_CHECK_TOL * (1.0 + size))
    curves = []
    for m, values, k, value, ok in zip(schedule, det2_values, points, checked, vouched):
        if not ok:
            _spot_check(family, m, float(nu[k]), value)
        pc = phase_curve(nu, values)
        xi = (pc.unwrapped_phase + np.asarray(eta_n_im(profile, m, nu))) / math.pi
        curves.append(
            SSFCurve(
                grid=nu,
                values=xi,
                kind=SSFKind.ONE_DIM_MOLLIFIED,
                provenance={
                    "N": N,
                    "n": m,
                    "nu_max": nu_max,
                    "total_integral": profile.total_integral,
                    "endpoint_magnitude": float(max(abs(xi[0]), abs(xi[-1]))),
                },
            )
        )
    return curves[0] if single else tuple(curves)


# lam rows per block of (lam, node) weights: a block stays in cache, and
# the working set does not grow with the number of lam.
_LAMBDA_BLOCK = 16
# Geometric lam points of the Stieltjes pair's lam side.
_LAMBDA_POINTS = 161


@dataclass(frozen=True, eq=False)
class _ExtendedCurve:
    """Whole-line evaluator of a sampled mollified curve (see _extended_evaluator).

    Linear between the (grid, inner) samples, and the tail outside the
    grid: the constant limit when it is set, else the closed-form eta_n / pi.
    """

    grid: np.ndarray
    inner: np.ndarray
    n: int
    total: float
    limit: Optional[float] = None

    def tail_integral(self, lams: np.ndarray, outside: np.ndarray) -> np.ndarray:
        """Integral of the tail at nu = sqrt(lam) sin t over the t off the grid, of measure outside.

        Past an end s of the grid the eta tail takes, with q = sqrt(lam + n^2),
        (total/2pi) (n/q) arctan(n sqrt(lam - s^2)/(s q)), and 0 for lam <= s^2.
        """
        if self.limit is not None:
            return self.limit * outside
        n = self.n
        q = np.sqrt(lams + n * n)
        ends = (-float(self.grid[0]), float(self.grid[-1]))
        arcs = sum(np.arctan(n * np.sqrt(np.maximum(lams - s * s, 0.0)) / (s * q)) for s in ends)
        return self.total / (2.0 * math.pi) * (n / q) * arcs


def _product_weights(grid, G0, G1):
    """Node weights of the exact integral of any linear interpolant on grid against a weight w.

    G0 and G1 are antiderivatives, at the nodes along the last axis, of w
    and of x w; G0 has the shape of the weights.  Cell j carries dG0_j, of
    which its local coordinate (x - g_j) / h_j takes
    l_j = (dG1_j - g_j dG0_j) / h_j: that part moves from the left node to
    the right one.  The dtype is that of l, so a complex weight gives
    complex node weights.
    """
    d0 = np.diff(G0, axis=-1)
    local = (np.diff(G1, axis=-1) - grid[:-1] * d0) / np.diff(grid)
    weights = np.zeros_like(G0, dtype=local.dtype)
    weights[..., :-1] = d0 - local
    weights[..., 1:] += local
    return weights


def _hat_weights(grid, roots):
    """Per root r, node weights of the exact t-integral of any linear interpolant on grid.

    With nu = r sin t and t_j = arcsin(g_j / r), clipped to +-pi/2, the
    weight dt/dnu has the antiderivatives t and -r cos t (_product_weights).
    Also returns the t off the grid: t_0 + pi/2 below it and pi/2 - t_N
    above it.
    """
    x = np.clip(grid / roots[:, None], -1.0, 1.0)
    t = np.arcsin(x)
    # -r cos t, with 1 - x^2 factored so that it does not cancel near x = +-1
    neg_r_cos = -roots[:, None] * np.sqrt((1.0 - x) * (1.0 + x))
    weights = _product_weights(grid, t, neg_r_cos)
    return weights, t[:, 0] + 0.5 * math.pi, 0.5 * math.pi - t[:, -1]


def _arcsine_rule(source, lams: np.ndarray) -> np.ndarray:
    """Exact means over t of a piecewise-linear source, one per lam.

    Each block of lam builds one set of hat weights (_hat_weights).  The
    t off the grid go to a sampled curve's end nodes, as np.interp holds
    its end values, and to an extended curve's tail integral.  Every row
    is reduced on its own, so a mean does not depend on the other lam of
    its block.
    """
    extended = isinstance(source, _ExtendedCurve)
    if not (extended or isinstance(source, SSFCurve)):
        raise TypeError(f"unsupported source type {type(source).__name__}")
    if not extended:
        _check_coverage(source, float(np.max(lams, initial=0.0)))
    values = source.inner if extended else source.values
    roots = np.sqrt(lams)
    sums = np.empty(len(roots))
    for start in range(0, len(roots), _LAMBDA_BLOCK):
        block = slice(start, start + _LAMBDA_BLOCK)
        weights, below, above = _hat_weights(source.grid, roots[block])
        if not extended:
            weights[:, 0] += below
            weights[:, -1] += above
        sums[block] = (weights * values).sum(axis=-1)
        if extended:
            sums[block] += source.tail_integral(lams[block], below + above)
    return sums / math.pi


def _check_coverage(curve: SSFCurve, top: float) -> None:
    """Refuse a curve whose grid does not reach +-sqrt(top), up to 1e-12."""
    root = math.sqrt(top)
    lo, hi = float(curve.grid[0]), float(curve.grid[-1])
    if -root < lo - 1e-12 or root > hi + 1e-12:
        raise CoverageError(
            f"1-D curve covers [{lo:g}, {hi:g}] but lam = {top:g} "
            f"requires [-{root:g}, {root:g}]"
        )


def pushnitski(
    source: Union[float, SSFCurve, _ExtendedCurve],
    lam: Union[float, np.ndarray],
) -> Union[float, np.ndarray]:
    """Arcsine-weighted transform of a 1-D curve at lam > 0.

    Substituting nu = sqrt(lam) sin(t) turns the weight into the flat
    measure dt/pi on (-pi/2, pi/2), so a real constant maps to itself and
    is returned as it is.  A sampled 1-D curve (interpolated linearly;
    lam beyond its span is a coverage error) or an extended curve from
    _extended_evaluator is transformed exactly, cell by cell in closed
    form (_arcsine_rule).  lam must be finite.  A scalar lam returns a
    float and an array of lam an array of its shape; every lam is
    reduced on its own, so every entry equals the scalar call.
    """
    lams = np.asarray(lam, dtype=float)
    bad = lams[~((lams > 0.0) & (lams < math.inf))]
    if bad.size:
        raise ValueError(f"lam must be positive and finite, got {bad[0]:g}")
    if isinstance(source, numbers.Real):
        return np.full(lams.shape, float(source)) if lams.ndim else float(source)
    means = _arcsine_rule(source, lams.reshape(-1))
    return means.reshape(lams.shape) if lams.ndim else float(means[0])


def _extended_evaluator(curve: SSFCurve, *, eta_correction: bool = False) -> _ExtendedCurve:
    """Whole-line evaluator for a sampled mollified curve.

    Inside the sampled window the curve is interpolated linearly; the
    tail follows the closed-form eta term (the determinant phase decays
    like nu^-2 and is negligible out there).  With eta_correction the
    sampled eta term is replaced by its n -> infinity limit everywhere,
    leaving phase/pi plus a constant; the tail is then that constant.
    The evaluator carries its grid, inner values and the closed-form
    integral of its tail, which pushnitski's per-cell transform reads.
    """
    n = curve.provenance.get("n")
    total = curve.provenance.get("total_integral")
    if n is None or total is None:
        raise ValueError("curve provenance lacks the mollifier record (n, total_integral)")
    if not eta_correction:
        return _ExtendedCurve(curve.grid, curve.values, n, total)
    limit = total / (2.0 * math.pi)
    inner = curve.values - _eta(total, n, curve.grid) / math.pi + limit
    return _ExtendedCurve(curve.grid, inner, n, total, limit)


def ssf_2d_curve(
    source: Union[float, SSFCurve],
    lambda_grid: Optional[np.ndarray] = None,
    *,
    eta_correction: bool = True,
) -> SSFCurve:
    """2-D spectral shift function on a positive lam grid.

    Every value is one arcsine transform of the 1-D input.  When the
    input is a sampled mollified curve, the finite-n eta term is by
    default replaced by its limit (see _extended_evaluator), which
    removes the known lam-dependent sag of finite mollification and
    leaves the theorem-level constancy visible; pass
    eta_correction=False to transform the raw curve.
    """
    if lambda_grid is None:
        lambda_grid = np.geomspace(0.1, 100.0, 61)
    lam = np.asarray(lambda_grid, dtype=float)
    if lam.ndim != 1 or len(lam) == 0:
        raise ValueError("lambda_grid must be a nonempty 1-D vector")
    if lam[0] <= 0.0 or not np.all(np.diff(lam) > 0.0):
        raise ValueError("lambda_grid must be strictly increasing and positive")

    evaluator, provenance = source, {}
    if isinstance(source, SSFCurve):
        evaluator = _extended_evaluator(source, eta_correction=eta_correction)
        provenance = {**source.provenance, "eta_correction": bool(eta_correction)}
    values = pushnitski(evaluator, lam)
    return SSFCurve(grid=lam, values=values, kind=SSFKind.TWO_DIM, provenance=provenance)


def _resolvent_weight(nu, z: complex):
    """(nu^2 - z)^(-3/2) on the principal branch, never touching the cut."""
    w = np.asarray(nu, dtype=float).astype(complex) ** 2 - z
    return np.power(w, -1.5)


def _weight_tail(s: float, z: complex) -> complex:
    """K(s, z) = integral over (s, inf) of (nu^2 - z)^(-3/2) dnu.

    It is (1 - t_s)/(-z) with t_s = s/r and r = sqrt(s^2 - z); writing
    1 - t_s = (-z)/(r (r + s)) leaves 1/(r (r + s)), which a far window
    does not cancel.
    """
    r = cmath.sqrt(s * s - z)
    return 1.0 / (r * (r + s))


# the Gauss-Legendre rule of _eta_tail away from its poles
_TAIL_NODES = 24


def _eta_tail(s: float, n: int, z: complex) -> complex:
    """integral over (s, inf) of n^2/(nu^2 + n^2) (nu^2 - z)^(-3/2) dnu.

    With w = -z, a = w - n^2 and u = 1 - tau, tau = nu/sqrt(nu^2 - z),
    it is (n^2/w) times the integral over (0, delta) of p/(w - a p) du,
    p = u (2 - u) and delta = 1 - t_s = w K(s, z).  Where the poles
    u = 1 -+ i n/sqrt(a) lie more than four window widths from
    [0, delta], a fixed Gauss-Legendre rule in u takes it, with no
    cancellation at the removable point a = 0 or on a far window;
    elsewhere the arctan form (n^2/(w a)) (w F - delta) does, with
    F = arctan(n sqrt(a) delta/(w - a delta))/(n sqrt(a)) the integral of
    1/(n^2 + a tau^2) over (t_s, 1).
    """
    w = -z
    a = w - n * n
    delta = w * _weight_tail(s, z)
    far = a == 0.0
    if not far:
        root = cmath.sqrt(a)
        # each pole's distance to its nearest point x delta, 0 <= x <= 1
        far = all(
            abs(pole - min(max((pole / delta).real, 0.0), 1.0) * delta) > 4.0 * abs(delta)
            for pole in (1.0 - 1j * n / root, 1.0 + 1j * n / root)
        )
    if far:
        x, weights = _legendre_rule(_TAIL_NODES)
        u = 0.5 * delta * (x + 1.0)
        p = u * (2.0 - u)
        return n * n / w * 0.5 * delta * complex(np.sum(weights * p / (w - a * p)))
    f = cmath.atan(n * root * delta / (w - a * delta)) / (n * root)
    return n * n / (w * a) * (w * f - delta)


def _resolvent_means(curves: Sequence[SSFCurve], lams: np.ndarray) -> np.ndarray:
    """(1/2) integral of xi_n(nu) (nu^2 - lam)^(-3/2) dnu at lam < 0, shape (curves, lams).

    Exact for the linear interpolant on the curves' shared grid: with
    r = sqrt(nu^2 - lam), G0 = nu/r and G1 = lam/r are (-lam) times the
    antiderivatives of the weight and of nu times it (_product_weights).
    Past each end of the symmetric grid (_nu_grid), (total/2pi)
    _eta_tail(nu_max, n, lam).  At the index's lam the weight is about
    one nu spacing wide, where a trapezoid (_half_weight_integral) is off
    by 5e-3 in the index.
    """
    grid = curves[0].grid
    col = lams[:, None]
    r = np.sqrt(grid * grid - col)
    weights = _product_weights(grid, grid / r, col / r)
    means = np.array([c.values for c in curves]) @ weights.T / (-lams)
    for row, curve in zip(means, curves):
        n, total = curve.provenance["n"], curve.provenance["total_integral"]
        tails = [2.0 * _eta_tail(grid[-1], n, lam).real for lam in lams]
        row += total / (2.0 * math.pi) * np.array(tails)
    return 0.5 * means


def _stieltjes_means(grid, values, z):
    """integral over (0, inf) of xi(mu) (mu - z)^(-2) dmu for a sampled 2-D curve.

    Exact for the linear interpolant on the positive grid, continued as a
    constant below its first sample and above its last: with u = mu - z,
    G0 = -1/u and G1 = ln u - z/u are the antiderivatives of the weight
    and of mu times it (_product_weights), and the constant ends add
    1/(-z) - 1/u_0 and 1/u_N to the end nodes.  A constant therefore
    returns c/(-z).  z may be an array, of any shape, or complex off
    [0, inf); each entry's row is reduced on its own, so it equals the
    scalar call.
    """
    z = np.asarray(z)[..., None]
    u = grid - z
    weights = _product_weights(grid, -1.0 / u, np.log(u) - z / u)
    weights[..., 0] += 1.0 / -z[..., 0] - 1.0 / u[..., 0]
    weights[..., -1] += 1.0 / u[..., -1]
    return (weights * values).sum(axis=-1)


def _half_weight_integral(curve: SSFCurve, z: complex) -> complex:
    """(1/2) * integral over R of xi_n(nu) (nu^2 - z)^(-3/2) dnu.

    Trapezoid over the sampled window plus the closed-form eta tail
    (_eta_tail); the neglected phase tail decays like nu^-5 after
    weighting.  It serves the trace checks: the Krein residual at z = -1,
    N = 800 reads 9.3e-9 here and 1.6e-6 with _resolvent_means, and the
    Stieltjes one at n = 8, N = 400 5.5e-6 here and 1.3e-5 with it.
    """
    n = curve.provenance.get("n")
    total = curve.provenance.get("total_integral", 0.0)
    interior = np.trapezoid(curve.values * _resolvent_weight(curve.grid, z), curve.grid)
    span = float(curve.grid[-1])
    tail = 0.0 + 0.0j
    if n is not None and total != 0.0:
        tail = total / (2.0 * math.pi) * _eta_tail(span, n, z)
    return 0.5 * (complex(interior) + 2.0 * tail)


def krein_check_trn(
    profile: PotentialProfile,
    n: int,
    z: complex,
    *,
    N: int = 400,
    nu_max: float = 12.0,
    nu_points: Optional[int] = None,
    M: int = 1024,
    threads: Optional[int] = None,
) -> TraceCheckReport:
    """Resolvent trace formula residual: Fourier oracle vs det2 pipeline.

    lhs = (1/2z) tr(g_z(A_{+,n}) - g_z(A_-)) from the plane-wave
    discretization; rhs = (1/2z) integral of xi_n(nu) g_z'(nu) dnu from
    the determinant-phase curve.  The two sides share no numerical
    machinery, so their agreement validates both.  The Fourier box is
    [-2L, 2L], twice the Nystrom grid's truncated line.  params records the
    oracle's half-band and its certified bound on the band truncation
    error (band None and bound 0.0 on the dense path); the rounding of
    the eigensolver comes on top of that bound.
    """
    _check_threads(threads)
    n = _check_mollifier_index(n)
    z = _require_off_halfline(z)
    params = {"n": n, "z": z, "N": N, "nu_max": nu_max, "M": M}
    if profile.l1_norm == 0.0:
        return TraceCheckReport(lhs=0j, rhs=0j, residual=0.0, params=params)

    box_half_length = 2.0 * build_grid(profile, N).L
    nu_grid = _nu_grid(nu_max, nu_points, N)
    params.update({"box_half_length": box_half_length, "nu_points": len(nu_grid)})

    pair = fourier_pair(profile, n, box_half_length, M)
    band, band_bound = trace_band(pair, z)
    params.update({"band": band, "band_bound": band_bound})
    lhs = trace_gz_diff(pair, z) / (2.0 * z)

    curve = ssf_mollified(profile, n, nu_grid, N, threads=threads)
    # g_z'(nu) = -z (nu^2 - z)^(-3/2), so (1/2z) * integral(xi g') = -(1/2) integral(xi w)
    rhs = -_half_weight_integral(curve, z)
    return TraceCheckReport(lhs=lhs, rhs=rhs, residual=abs(lhs - rhs), params=params)


def _lambda_grid(nu_max: float, points: int) -> np.ndarray:
    """Geometric lam grid from 1e-6 up to the cap Lambda = 100 max(1, nu_max^2)."""
    return np.geomspace(1e-6, 100.0 * max(1.0, nu_max * nu_max), points)


def trace_identity_eq1(
    profile: PotentialProfile,
    n: int,
    z: complex,
    *,
    N: int = 400,
    nu_max: float = 12.0,
    nu_points: Optional[int] = None,
    synthetic_constant: Optional[float] = None,
    threads: Optional[int] = None,
) -> TraceCheckReport:
    """Stieltjes-pair residual between the 2-D and 1-D trace integrals.

    lhs = integral over (0, inf) of xi_2d(lam) (lam - z)^(-2) dlam,
    with xi_2d produced by the arcsine transform at 161 geometric lam
    from 1e-6 to the cap (_lambda_grid) and integrated exactly as its
    linear interpolant, held constant below the first lam and above the
    cap (_stieltjes_means, the rule of delta_r), so constants come back
    as c/(-z) with no quadrature error.  A constant-tail term above the
    cap heavier than 10 percent of the total is refused as a coverage
    problem.  rhs = (1/2) integral of xi_n(nu) (nu^2 - z)^(-3/2) dnu.
    With synthetic_constant set, both sides run on the constant function
    instead of the determinant pipeline, where the exact common value is
    c/(-z).  The rhs is then c K(0, z) (_weight_tail), exact by
    construction, and the arcsine transform returns c itself, so the
    synthetic line tests the lam weights only; the real Stieltjes line
    still runs the arcsine rule.
    """
    _check_threads(threads)
    n = _check_mollifier_index(n)
    z = _require_off_halfline(z)
    params = {"n": n, "z": z, "N": N, "nu_max": nu_max, "lambda_points": _LAMBDA_POINTS}

    if synthetic_constant is not None:
        c = float(synthetic_constant)
        evaluator = c
        rhs = c * _weight_tail(0.0, z)
        params["synthetic_constant"] = c
    elif profile.l1_norm == 0.0:
        return TraceCheckReport(lhs=0j, rhs=0j, residual=0.0, params=params)
    else:
        nu_grid = _nu_grid(nu_max, nu_points, N)
        curve = ssf_mollified(profile, n, nu_grid, N, threads=threads)
        evaluator = _extended_evaluator(curve)
        rhs = _half_weight_integral(curve, z)
        params["nu_points"] = len(nu_grid)

    lam = _lambda_grid(nu_max, _LAMBDA_POINTS)
    xi2d = pushnitski(evaluator, lam)
    lhs = complex(_stieltjes_means(lam, xi2d, z))
    tail_term = float(xi2d[-1]) / (float(lam[-1]) - z)
    if abs(tail_term) > 0.1 * max(abs(lhs), 1e-30):
        raise CoverageError(
            f"constant-tail term {abs(tail_term):.3e} exceeds 10% of the total "
            f"{abs(lhs):.3e}; raise the lam cap"
        )
    return TraceCheckReport(lhs=lhs, rhs=rhs, residual=abs(lhs - rhs), params=params)
