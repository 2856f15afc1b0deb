"""Regularized index machinery against elementary integrals.

delta_r integrates a piecewise-linear curve against (mu - lam)^(-2)
in closed form, so constants must come back exactly and a step curve
must come back as the elementary value c*(1 - lam)^(-1) scaled by
(-lam); both have pencil-and-paper answers.  The pipeline's own
Delta_r comes from the 1-D curves by the trace formula, exact for their
linear interpolant; it is held to a Gauss-Legendre rule with a quad
tail, and to the route through 2-D curves and delta_r that it
replaced.  Its lam -> 0- limit is the interpolant at nu = 0, which the
index takes per n.  The full pipeline is run on a coarse configuration
only, the production-scale run being the acceptance suite's business.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy import integrate

from wittenlab import (
    SSFCurve,
    SSFKind,
    WittenReport,
    builtin_profile,
    c0,
    delta_r,
    pushnitski,
    ssf_mollified,
    witten_index,
)
from wittenlab import ssf

GAUSS = builtin_profile("gaussian", 1.0, 1.0)
ZERO = builtin_profile("gaussian", 0.0, 1.0)
# witten_index's defaults: its n schedule, its lam schedule and its nu grid at N = 400
SCHEDULE = (2, 4, 8, 16, 32)
LAMS = np.sort([-(2.0**-k) for k in range(9)])


@pytest.fixture(scope="module")
def default_curves():
    return ssf_mollified(GAUSS, SCHEDULE, np.linspace(-12.0, 12.0, 401), 400)


def two_dim(grid, values):
    return SSFCurve(grid=np.asarray(grid, float), values=np.asarray(values, float),
                    kind=SSFKind.TWO_DIM)


def test_delta_r_constant_exact():
    grid = np.geomspace(1e-4, 1e4, 200)
    curve = two_dim(grid, np.full(200, 0.28209))
    for lam in (-1.0, -0.25, -2.0):
        assert_allclose(delta_r(curve, lam), 0.28209, rtol=1e-12)


def test_delta_r_zero_curve():
    curve = two_dim([0.5, 1.0, 2.0], [0.0, 0.0, 0.0])
    assert delta_r(curve, -1.0) == 0.0


def test_delta_r_step_curve():
    """xi = c on [1, inf) gives (-lam) * c/(1 - lam).

    The jump is smeared over the one enclosing cell by the linear
    interpolant, which a dense grid makes negligible.
    """
    c = 0.4
    lo = np.geomspace(1e-4, 1.0, 400)
    hi = np.geomspace(1.0, 1e4, 400)[1:]
    grid = np.concatenate([lo, hi])
    values = np.where(grid >= 1.0, c, 0.0)
    curve = two_dim(grid, values)
    expected = 1.0 * c / 2.0  # lam = -1
    assert abs(delta_r(curve, -1.0) - expected) < 5e-3 * c


def test_delta_r_linear_segment_quadrature():
    # one linear cell against adaptive quadrature of the same integrand
    grid = np.array([0.5, 2.0])
    values = np.array([0.1, 0.7])
    curve = two_dim(grid, values)
    lam = -0.8
    slope = (0.7 - 0.1) / 1.5
    f = lambda g: np.interp(g, grid, values) / (g - lam) ** 2
    inner, _ = integrate.quad(f, 0.5, 2.0, limit=200)
    bottom = 0.1 * (1.0 / 0.8 - 1.0 / (0.5 + 0.8))
    tail = 0.7 / (2.0 + 0.8)
    expected = 0.8 * (bottom + inner + tail)
    assert_allclose(delta_r(curve, lam), expected, rtol=1e-10)
    lams = np.array([-2.0, -0.8, -0.3, -1e-3])
    assert_array_equal(delta_r(curve, lams), [delta_r(curve, lam) for lam in lams])


def test_delta_r_validation():
    curve = two_dim([0.5, 1.0], [0.1, 0.1])
    with pytest.raises(ValueError):
        delta_r(curve, 0.0)
    with pytest.raises(ValueError):
        delta_r(curve, 1.0)
    with pytest.raises(ValueError, match="got 0"):
        delta_r(curve, np.array([-1.0, 0.0, -0.5]))
    one_dim = SSFCurve(grid=np.array([-1.0, 1.0]), values=np.zeros(2),
                       kind=SSFKind.ONE_DIM_MOLLIFIED)
    with pytest.raises(ValueError, match="2-D"):
        delta_r(one_dim, -1.0)
    with pytest.raises(ValueError, match="2 samples"):
        delta_r(two_dim([1.0], [0.3]), -1.0)


def test_witten_report_validation():
    good = dict(
        lambda_samples=np.array([-1.0, -0.5]),
        delta_r_values=np.array([0.2, 0.2]),
        n_schedule=(2, 4),
        extrapolated_index=0.25,
        reference_c0=0.28,
        abs_error=abs(0.25 - 0.28),
    )
    report = WittenReport(**good)
    payload = report.to_json_dict()
    assert payload["n_schedule"] == [2, 4]
    assert payload["low_confidence"] is False

    with pytest.raises(ValueError, match="negative"):
        WittenReport(**{**good, "lambda_samples": np.array([-1.0, 0.5])})
    with pytest.raises(ValueError, match="inconsistent"):
        WittenReport(**{**good, "abs_error": 0.9})
    with pytest.raises(ValueError, match="nonempty"):
        WittenReport(**{**good, "lambda_samples": np.array([])})
    with pytest.raises(ValueError, match="shape"):
        WittenReport(**{**good, "delta_r_values": np.array([0.2, 0.2, 0.2])})


def test_witten_index_zero_profile():
    report = witten_index(ZERO, (2, 4))
    assert report.extrapolated_index == 0.0
    assert report.reference_c0 == 0.0
    assert report.abs_error == 0.0
    assert_array_equal(report.lambda_samples, LAMS)  # the fixed lam schedule


def test_witten_index_schedule_validation():
    with pytest.raises(ValueError):
        witten_index(GAUSS, ())
    with pytest.raises(ValueError):
        witten_index(GAUSS, (4, 2))


def test_witten_index_coarse_run():
    report = witten_index(GAUSS, (2, 4, 8), N=200, nu_max=6.0, threads=2)
    assert report.abs_error < 0.05
    assert report.abs_error == abs(report.extrapolated_index - c0(GAUSS))
    assert not report.low_confidence
    assert len(report.delta_r_values) == len(report.lambda_samples)
    # the per-lam values are already near the reference before extrapolation
    assert np.max(np.abs(report.delta_r_values - c0(GAUSS))) < 0.05
    assert report.provenance["N"] == 200


def _resolvent_mean_by_quadrature(curve, lam, points=20):
    """(1/2) integral of xi_n (nu^2 - lam)^(-3/2): Gauss-Legendre per cell, quad on the eta tail."""
    x, w = np.polynomial.legendre.leggauss(points)
    grid, h = curve.grid, np.diff(curve.grid)
    nu = grid[:-1, None] + 0.5 * h[:, None] * (x + 1.0)
    f = np.interp(nu, grid, curve.values) * (nu * nu - lam) ** -1.5
    inner = np.sum(0.5 * h * (f @ w))
    n, total = curve.provenance["n"], curve.provenance["total_integral"]

    def tail(s):
        eta = lambda v: total / (2.0 * math.pi) * n * n / (v * v + n * n) * (v * v - lam) ** -1.5
        return integrate.quad(eta, s, math.inf, epsabs=1e-18, epsrel=1e-13, limit=200)[0]

    return 0.5 * (inner + tail(-grid[0]) + tail(grid[-1]))


def test_resolvent_means_match_a_gauss_legendre_reference(default_curves):
    means = ssf._resolvent_means(default_curves, LAMS)
    assert means.shape == (len(SCHEDULE), len(LAMS))
    reference = [[_resolvent_mean_by_quadrature(c, lam) for lam in LAMS] for c in default_curves]
    # the means reach about 72 at lam = -1/256, where 1e-13 is a few ulp
    assert np.max(np.abs(means - reference)) <= 1e-13


def test_witten_index_matches_the_route_through_2d_curves(default_curves):
    """The closed-form Delta_r against the arcsine transform and delta_r of each 2-D curve.

    The route it replaced: 160 geometric lam up to the cap 14400, on which
    the 2-D curve is held constant above the cap, and a linear lam limit
    through the last two lam.  The cap's error is linear in lam, so the
    per-lam values move by about 1.9e-6 |lam|.  The index, now xi_n(0),
    moves by 2.3e-8 and comes closer to c0: the linear limit assumed a
    model that the sqrt|lam| approach of Delta_r does not follow.
    """
    lam_grid = ssf._lambda_grid(12.0, 160)
    deltas = []
    for curve in default_curves:
        xi2d = pushnitski(ssf._extended_evaluator(curve), lam_grid)
        deltas.append(delta_r(SSFCurve(lam_grid, xi2d, SSFKind.TWO_DIM), LAMS))
    # the lam limit of each n, then second-order Richardson in n = 16, 32
    limits = [d[-1] - (d[-1] - d[-2]) / (LAMS[-1] - LAMS[-2]) * LAMS[-1] for d in deltas]
    old_index = limits[-1] + (limits[-1] - limits[-2]) / 3.0
    report = witten_index(GAUSS)
    assert abs(report.extrapolated_index - old_index) <= 1e-7
    assert report.abs_error <= abs(old_index - c0(GAUSS))
    assert "lambda_cells" not in report.provenance
    old_deltas = deltas[-1] + (deltas[-1] - deltas[-2]) / 3.0
    assert np.all(np.abs(report.delta_r_values - old_deltas) <= 2e-6 * np.abs(LAMS))


def test_witten_index_sign_follows_amplitude():
    flipped = builtin_profile("gaussian", -1.0, 1.0)
    report = witten_index(flipped, (2, 4), N=200, nu_max=6.0, threads=2)
    assert report.extrapolated_index < 0.0
    assert abs(report.extrapolated_index + c0(GAUSS)) < 0.05


def test_witten_index_single_n_is_low_confidence():
    report = witten_index(GAUSS, (4,), N=200, nu_max=6.0, threads=2)
    assert report.low_confidence
    assert report.observed_order_n == ()


def test_delta_r_tends_to_the_curve_at_0(default_curves):
    """Delta_r(lam) of each real curve tends to xi_n(0) as lam -> 0-.

    The weight (-lam/2)(nu^2 - lam)^(-3/2) has unit mass and shrinks to
    nu = 0, and the eta tail carries a factor -lam.  On the default grid 0
    is a node, where the interpolant has a kink, so the gap falls as
    sqrt|lam|; with 400 points 0 falls mid-cell and the gap falls as |lam|.
    """
    lams = -np.geomspace(1e-8, 1e-14, 7)

    def gap(curve):
        return np.abs(-lams * ssf._resolvent_means([curve], lams)[0] - curve.value_at(0.0))

    for curve in default_curves[::2]:  # n = 2, 8, 32
        rate = gap(curve) / np.sqrt(-lams)
        assert rate.max() <= 1.01 * rate.min()
        assert gap(curve)[-1] <= 3e-10
    # below -1e-10 the linear gap of n = 32 meets rounding in the means
    for curve in ssf_mollified(GAUSS, (2, 8, 32), np.linspace(-12.0, 12.0, 400), 400):
        rate = gap(curve)[:3] / -lams[:3]
        assert rate.max() <= 1.01 * rate.min()
        assert gap(curve)[-1] <= 1e-14


def test_witten_index_is_the_richardson_of_the_curves_at_0():
    """The index is second-order Richardson in n of xi_n(0) on the last two n.

    With 0 a grid node and with 0 mid-cell (an even point count); a
    single n returns its xi_n(0) itself.
    """
    schedule = (2, 4, 8)
    for nu_points in (200, None):  # the default grid last, for the single-n run
        report = witten_index(GAUSS, schedule, N=200, nu_max=6.0, nu_points=nu_points)
        grid = np.linspace(-6.0, 6.0, nu_points or 201)
        at_0 = [c.value_at(0.0) for c in ssf_mollified(GAUSS, schedule, grid, 200)]
        assert abs(report.extrapolated_index - (at_0[2] + (at_0[2] - at_0[1]) / 3.0)) <= 1e-15
    single = witten_index(GAUSS, (4,), N=200, nu_max=6.0)
    assert abs(single.extrapolated_index - at_0[1]) <= 1e-15
