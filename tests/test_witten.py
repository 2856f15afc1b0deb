"""Regularized index machinery against elementary integrals.

delta_r integrates a piecewise-linear curve against (mu - lam)^(-2)
in closed form, so constants must come back exactly and a step curve
must come back as the elementary value c*(1 - lam)^(-1) scaled by
(-lam); both have pencil-and-paper answers.  The full pipeline is run
on a coarse configuration only, the production-scale run being the
acceptance suite's business.
"""

import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from wittenlab import (
    SSFCurve,
    SSFKind,
    WittenReport,
    builtin_profile,
    c0,
    delta_r,
    witten_index,
)
from wittenlab import witten

GAUSS = builtin_profile("gaussian", 1.0, 1.0)
ZERO = builtin_profile("gaussian", 0.0, 1.0)


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
    from scipy import integrate

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


def test_witten_index_zero_profile():
    report = witten_index(ZERO, (2, 4))
    assert report.extrapolated_index == 0.0
    assert report.reference_c0 == 0.0
    assert report.abs_error == 0.0


def test_witten_index_schedule_validation():
    with pytest.raises(ValueError):
        witten_index(GAUSS, ())
    with pytest.raises(ValueError):
        witten_index(GAUSS, (4, 2))
    with pytest.raises(ValueError):
        witten_index(GAUSS, (2, 4), lambda_schedule=(1.0,))


@pytest.mark.parametrize("schedule", ((-0.5, -0.25, -0.25), (-0.5, float("nan"))))
def test_witten_index_refuses_a_bad_lambda_schedule_before_the_sweep(monkeypatch, schedule):
    def no_sweep(*args, **kwargs):
        raise AssertionError("swept before the lambda schedule was checked")

    monkeypatch.setattr(witten, "ssf_mollified", no_sweep)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="lambda_schedule"):
            witten_index(GAUSS, (2, 4), lambda_schedule=schedule)


def test_witten_index_coarse_run():
    report = witten_index(GAUSS, (2, 4, 8), N=200, nu_max=6.0, threads=2)
    assert report.abs_error < 0.05
    assert report.abs_error == abs(report.extrapolated_index - c0(GAUSS))
    assert not report.low_confidence
    assert len(report.delta_r_values) == len(report.lambda_samples)
    # the per-lam values are already near the reference before extrapolation
    assert np.max(np.abs(report.delta_r_values - c0(GAUSS))) < 0.05
    assert report.provenance["N"] == 200


def test_witten_index_sign_follows_amplitude():
    flipped = builtin_profile("gaussian", -1.0, 1.0)
    report = witten_index(flipped, (2, 4), N=200, nu_max=6.0, threads=2)
    assert report.extrapolated_index < 0.0
    assert abs(report.extrapolated_index + c0(GAUSS)) < 0.05


def test_witten_index_single_n_is_low_confidence():
    report = witten_index(GAUSS, (4,), N=200, nu_max=6.0, threads=2)
    assert report.low_confidence
    assert report.observed_order_n == ()


def test_witten_index_lambda_limit_linearity():
    """With a halving lam schedule the reported curve extrapolates linearly.

    Delta_r(lam) of the model is smooth in lam near 0, so the linear
    two-point limit must sit between nothing exotic: check the
    extrapolated index against the last raw value's direction.
    """
    report = witten_index(GAUSS, (2, 4, 8), N=200, nu_max=6.0, threads=2)
    # Richardson in n moved the answer closer to the reference than the
    # best single-n lam-limit alone
    assert report.abs_error <= 0.05
    assert math.isfinite(report.extrapolated_index)
