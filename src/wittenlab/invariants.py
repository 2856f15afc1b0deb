"""The invariant suite: each identity behind the index, defined once.

INVARIANTS lists what ``wittenlab verify`` checks, in print order, as
(name, check) pairs; a check maps (profile, N, nu_max, nu_points) to
(ok, detail).  The acceptance criteria call the same
measurement functions against the same tolerances, adding stricter
requirements of their own.

birman-krein is not numerical evidence: scattering_matrix returns
exp(-i * integral(phi)), which is exp(-2*pi*i*c0) spelled differently,
so the measured gap is 0.000e+00.
"""

from __future__ import annotations

import math

import numpy as np

from .determinants import det2, hs_norm
from .discretize import MollifiedBSFamily, QuadratureGrid, bs_matrix, build_grid
from .kernels import SpectralPoint, scattering_matrix
from .profiles import PotentialProfile, c0
from .ssf import _nu_grid, krein_check_trn, ssf_mollified, trace_identity_eq1

HS_SLACK = 1.01  # absorbs the Nystrom quadrature error of Hilbert-Schmidt norms
DET2_TOL = 1e-3
DECAY_RATIO_TOL = 1.0
MOLLIFIER_LIMIT_TOL = 2e-2
BIRMAN_KREIN_TOL = 1e-14
KREIN_TOL = 5e-3
STIELTJES_TOL = 1e-2
SYNTHETIC_TOL = 1e-10


def tol_text(tol: float) -> str:
    """A tolerance as verdict lines print it: 1e-3, 2e-2, 1e-14."""
    return f"{tol:.0e}".replace("e-0", "e-")


def _raw_matrices(profile: PotentialProfile, grid: QuadratureGrid):
    for nu in (-5.0, -1.0, 0.0, 1.0, 5.0):
        yield bs_matrix(profile, SpectralPoint.boundary(nu), grid).entries


def raw_hs_norm_max(profile: PotentialProfile, grid: QuadratureGrid) -> float:
    """Largest Hilbert-Schmidt norm of the raw BS matrix over the probe points."""
    return max(hs_norm(T) for T in _raw_matrices(profile, grid))


def det2_deviation(profile: PotentialProfile, grid: QuadratureGrid) -> float:
    """Largest |det2 - 1| of the raw BS matrix, which is strictly triangular."""
    return max(abs(det2(T) - 1.0) for T in _raw_matrices(profile, grid))


def decay_ratio(profile: PotentialProfile, grid: QuadratureGrid) -> float:
    """Largest ||T_n(nu)||_HS^2 over its bound 2.5 n^2/(nu^2+n^2) ||phi||_1^2."""
    l1 = profile.l1_norm
    worst = 0.0
    family = MollifiedBSFamily(profile, grid)
    for n in (2, 8):
        for nu in (0.0, 2.0, 5.0):
            T = family.matrix(n, nu).entries
            bound = 2.5 * n * n / (nu * nu + n * n) * l1 * l1 * HS_SLACK
            worst = max(worst, hs_norm(T) ** 2 / bound)
    return worst


def origin_errors(profile: PotentialProfile, curves) -> list:
    """|xi_n(0) - c0| for each mollified curve, in order.

    The mollifier-limit check measures the very xi_n(0) that
    witten_index extrapolates in n, each the lam -> 0- limit of its
    curve's Delta_r.
    """
    return [abs(float(curve.value_at(0.0)) - c0(profile)) for curve in curves]


def scattering_phase_gap(profile: PotentialProfile) -> float:
    """|S - exp(-2*pi*i*c0)|; see the module docstring."""
    return abs(scattering_matrix(profile) - np.exp(-2j * math.pi * c0(profile)))


def krein_residual(profile, N, nu_max=12.0, nu_points=None, M=1024) -> float:
    """Resolvent trace formula residual at n = 4, z = -1 (see krein_check_trn)."""
    return krein_check_trn(profile, 4, -1.0, N=N, nu_max=nu_max, nu_points=nu_points,
                           M=M).residual


def stieltjes_residual(profile, N, nu_max=12.0, nu_points=None) -> float:
    """Relative Stieltjes-pair residual at n = 8, z = -1 (see trace_identity_eq1)."""
    return trace_identity_eq1(profile, 8, -1.0, N=N, nu_max=nu_max,
                              nu_points=nu_points).relative_residual


def synthetic_deviation(profile: PotentialProfile, nu_max: float = 12.0) -> float:
    """Worst deviation of either Stieltjes side from its exact value c/(-z) = c."""
    c = 0.375
    report = trace_identity_eq1(profile, 8, -1.0, nu_max=nu_max, synthetic_constant=c)
    return max(abs(report.lhs - c), abs(report.rhs - c))


def _on_grid(measure, profile: PotentialProfile, N: int) -> float:
    # a massless profile has no truncation radius, and all its norms are 0
    return measure(profile, build_grid(profile, N)) if profile.l1_norm > 0.0 else 0.0


def _hs_bound(profile, N, *_):
    worst, bound = _on_grid(raw_hs_norm_max, profile, N), profile.l1_norm * HS_SLACK
    return worst <= bound, f"max HS norm {worst:.6g} vs bound {bound:.6g}"


def _mollified_decay(profile, N, *_):
    worst, tol = _on_grid(decay_ratio, profile, N), DECAY_RATIO_TOL
    return worst <= tol, f"max squared-norm/bound ratio {worst:.6g} vs {tol:g}"


def _mollifier_limit(profile, N, nu_max, nu_points):
    curves = ssf_mollified(profile, (2, 4, 8, 16, 32), _nu_grid(nu_max, nu_points, N), N)
    errors = origin_errors(profile, curves)
    monotone = all(b <= a * 1.000001 + 1e-12 for a, b in zip(errors, errors[1:]))
    listed = ", ".join(f"{e:.2e}" for e in errors)
    tol = MOLLIFIER_LIMIT_TOL
    return monotone and errors[-1] < tol, f"errors {listed} vs final tol {tol_text(tol)}"


def _below(tol: float, label: str, measure):
    """The check measure(profile, N, nu_max, nu_points) < tol."""
    def check(*args):
        value = measure(*args)
        return value < tol, f"{label} {value:.3e} vs tol {tol_text(tol)}"
    return check


INVARIANTS = (
    ("hs-bound", _hs_bound),
    ("det2-triviality", _below(
        DET2_TOL, "max |det2 - 1| =", lambda p, N, *_: _on_grid(det2_deviation, p, N)
    )),
    ("mollified-decay", _mollified_decay),
    ("mollifier-limit", _mollifier_limit),
    ("birman-krein", _below(
        BIRMAN_KREIN_TOL, "|S - exp(-2*pi*i*c0)| =", lambda p, *_: scattering_phase_gap(p)
    )),
    ("krein-trn", _below(KREIN_TOL, "residual", krein_residual)),
    ("stieltjes-pair", _below(STIELTJES_TOL, "relative residual", stieltjes_residual)),
    ("stieltjes-synthetic", _below(
        SYNTHETIC_TOL, "max side error", lambda p, N, nu_max, *_: synthetic_deviation(p, nu_max)
    )),
)
