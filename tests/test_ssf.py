"""Spectral shift curves, the arcsine transform, and trace checks.

The transform is validated on inputs with closed-form images: any
constant maps to itself exactly by the normalization of the arcsine
weight, odd inputs map to zero, and xi(nu) = nu^2 maps to lam/2.  The
trace identities run in a synthetic-constant mode where both sides
collapse to the elementary value c/(-z), which pins the lam-side weights
and tail handling before the determinant pipeline enters; the lam-side
rule itself is held to a 30-digit reference on a sampled curve.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from wittenlab import determinants, ssf
from wittenlab import (
    CoverageError,
    RefinementNeededError,
    SSFCurve,
    SSFKind,
    build_grid,
    builtin_profile,
    c0,
    det2,
    eta_n_im,
    fourier_pair,
    krein_check_trn,
    pushnitski,
    ssf_2d_curve,
    ssf_mollified,
    trace_identity_eq1,
    witten_index,
)
from wittenlab.discretize import MollifiedBSFamily, _g_spectral

GAUSS = builtin_profile("gaussian", 1.0, 1.0)
ZERO = builtin_profile("gaussian", 0.0, 1.0)


def small_curve(n=2, points=161, nu_max=8.0, N=300):
    # N = 300 keeps the node spacing inside the oscillation gate at nu_max = 8
    return ssf_mollified(GAUSS, n, np.linspace(-nu_max, nu_max, points), N)


def test_ssf_mollified_zero_profile():
    nu = np.linspace(-6.0, 6.0, 25)
    curve = ssf_mollified(ZERO, 4, nu, 200)
    assert curve.kind is SSFKind.ONE_DIM_MOLLIFIED
    assert np.all(curve.values == 0.0)
    assert curve.provenance["total_integral"] == 0.0


def test_ssf_mollified_grid_validation():
    with pytest.raises(ValueError, match="symmetric"):
        ssf_mollified(GAUSS, 2, np.linspace(-3.0, 4.0, 15), 200)
    # asymmetric by 1e-4 at the far end, inside a relative tolerance of 1e-5 * 12
    skewed = np.linspace(-12.0, 12.0, 401)
    skewed[-1] = 12.0001
    with pytest.raises(ValueError, match="symmetric"):
        ssf_mollified(GAUSS, 2, skewed, 400)
    with pytest.raises(ValueError, match="increasing"):
        ssf_mollified(GAUSS, 2, np.array([1.0, 0.0, -1.0]), 200)
    with pytest.raises(ValueError):
        ssf_mollified(GAUSS, 2, np.array([0.0]), 200)
    with pytest.raises(ValueError, match="schedule must be nonempty"):
        ssf_mollified(GAUSS, (), np.linspace(-6.0, 6.0, 25), 200)


def test_ssf_mollified_converges_at_origin():
    errors = []
    for n in (2, 4):
        curve = small_curve(n=n)
        errors.append(abs(float(curve.value_at(0.0)) - c0(GAUSS)))
    assert errors[1] < errors[0]
    assert errors[1] < 0.01


def test_ssf_mollified_endpoint_decay_small_n():
    # integrable tail: at n = 2 the curve has essentially died by nu = 8
    curve = small_curve(n=2)
    assert curve.endpoint_magnitude < 0.05
    assert curve.provenance["endpoint_magnitude"] == curve.endpoint_magnitude


def test_ssf_mollified_thread_count_invariance():
    nu = np.linspace(-6.0, 6.0, 61)
    serial = ssf_mollified(GAUSS, 2, nu, 200, threads=1)
    parallel = ssf_mollified(GAUSS, 2, nu, 200, threads=4)
    assert np.array_equal(serial.values, parallel.values)


def test_threads_validated_before_early_returns():
    # the zero profile and the synthetic constant return before any sweep
    with pytest.raises(ValueError, match="threads"):
        ssf_mollified(ZERO, 4, np.linspace(-6.0, 6.0, 25), 200, threads=0)
    with pytest.raises(ValueError, match="threads"):
        witten_index(ZERO, (2, 4), threads=0)
    with pytest.raises(ValueError, match="threads"):
        krein_check_trn(ZERO, 4, -1.0, threads=0)
    with pytest.raises(ValueError, match="threads"):
        trace_identity_eq1(GAUSS, 8, -1.0, synthetic_constant=0.375, threads=0)


def _count_dense_det2(monkeypatch):
    dense_calls = []

    def counted(T, **kwargs):
        dense_calls.append(T)
        return det2(T, **kwargs)

    monkeypatch.setattr(ssf, "det2", counted)
    return dense_calls


def _record_bounds(monkeypatch):
    bounds = []

    def recorded(family, schedule, nu):
        values, points, bound = sweep(family, schedule, nu)
        bounds.extend(bound)
        return values, points, bound

    sweep = ssf.det2_sweep
    monkeypatch.setattr(ssf, "det2_sweep", recorded)
    return bounds


def _force_fallback(monkeypatch):
    # every bound inf: the sweep vouches for no n
    def unvouched(family, schedule, nu):
        values, points, bound = sweep(family, schedule, nu)
        return values, points, np.full_like(bound, np.inf)

    sweep = ssf.det2_sweep
    monkeypatch.setattr(ssf, "det2_sweep", unvouched)


def test_sweep_spot_check_falls_back_to_one_dense_det2(monkeypatch):
    dense_calls = _count_dense_det2(monkeypatch)
    small_curve(n=(2, 4, 8))
    # the certificate vouches for every n: no dense matrix is built
    assert dense_calls == []
    _force_fallback(monkeypatch)
    small_curve(n=2)
    assert [T.shape for T in dense_calls] == [(300, 300)]
    # a schedule falls back to one dense det2 per n
    dense_calls.clear()
    small_curve(n=(2, 4, 8))
    assert [T.shape for T in dense_calls] == [(300, 300)] * 3


def test_certificate_vouches_on_the_default_workloads(monkeypatch):
    dense_calls = _count_dense_det2(monkeypatch)
    bounds = _record_bounds(monkeypatch)
    witten_index(GAUSS)
    assert len(bounds) == 5
    nu = np.linspace(-12.0, 12.0, 401)
    for kind, amplitude, width in (("gaussian", 1.0, 1.0), ("sech2", 2.0, 0.25), ("bump", 2.0, 1.0)):
        for sign in (1.0, -1.0):
            ssf_mollified(builtin_profile(kind, sign * amplitude, width), 16, nu, 400)
    assert len(bounds) == 11
    assert max(bounds) <= 1e-9
    assert dense_calls == []


@pytest.mark.parametrize("amplitude, nu_max, tolerance", ((24.0, 8.0, None), (8.0, 12.0, 1e-14)))
def test_certificate_over_the_tolerance_falls_back(monkeypatch, amplitude, nu_max, tolerance):
    # gaussian(24, 1)'s bound at n = 2 is about 6e-6, loose by 1e9 against
    # its actual error.  gaussian(8, 1)'s, at |det2| = 0.023, is about 1e-11
    # and vouches at 1e-9; at 1e-14 it does not, while the dense det2, 4e-16
    # from the sweep there, still passes
    if tolerance is not None:
        monkeypatch.setattr(ssf, "_SPOT_CHECK_TOL", tolerance)
    dense_calls = _count_dense_det2(monkeypatch)
    bounds = _record_bounds(monkeypatch)
    profile = builtin_profile("gaussian", amplitude, 1.0)
    try:
        ssf_mollified(profile, 2, np.linspace(-nu_max, nu_max, 401), 400)
    except RefinementNeededError as err:
        # the dense check passed; the phase tracking may still refuse
        assert "disagrees" not in str(err)
    assert len(bounds) == 1 and bounds[0] > ssf._SPOT_CHECK_TOL
    assert [T.shape for T in dense_calls] == [(400, 400)]


def test_refused_sweep_releases_its_workspace(monkeypatch):
    def refuse(nu, values):
        raise RefinementNeededError("refused")

    monkeypatch.setattr(ssf, "phase_curve", refuse)
    # the dense fallback assembles an N x N matrix before the refusal
    _force_fallback(monkeypatch)
    with pytest.raises(RefinementNeededError) as err:
        small_curve(n=(2, 4))
    # the frames a caught refusal keeps alive hold no N x N array
    held = []
    tb = err.value.__traceback__
    while tb is not None:
        arrays = [v for v in tb.tb_frame.f_locals.values() if isinstance(v, np.ndarray)]
        held += [a for a in arrays if a.size >= 300 * 300]
        tb = tb.tb_next
    assert held == []


@pytest.mark.parametrize(
    "schedule, N, points",
    (((2, 4, 8, 16, 32), 400, 401), (4, 800, 801)),
)
def test_ssf_mollified_peak_allocation(traced_peak, schedule, N, points):
    # the elimination's working memory alone: the certificate vouches for
    # every n, so no N x N array is built.  At N = 800 that stays below one
    # N x N array; at N = 400 the schedule's a_0 transitions, 1 MB, and its
    # block checkpoints, 1.35 MB, are each about half its size
    nu = np.linspace(-12.0, 12.0, points)
    peak, _ = traced_peak(lambda: ssf_mollified(GAUSS, schedule, nu, N))
    assert peak < {400: 2, 800: 1}[N] * N * N * 16


@pytest.mark.parametrize("corruption", ("perturbed", "nan"))
def test_sweep_spot_check_refuses_a_disagreement(monkeypatch, corruption):
    exact = ssf.det2_sweep
    nu = np.linspace(-8.0, 8.0, 161)
    if corruption == "perturbed":
        # every value 1e-6 off; the check looks where |det2| is smallest
        corrupt = lambda values: values * (1.0 + 1e-6)
        values = exact(MollifiedBSFamily(GAUSS, build_grid(GAUSS, 300)), [2], nu)[0][0]
        refused = float(nu[np.argmin(np.abs(values))])
    else:
        # a NaN at one point; the check looks there first
        corrupt = lambda values: np.where(np.arange(values.shape[-1]) == 40, np.nan, values)
        refused = float(nu[40])
    def corrupted(family, schedule, nu):
        # the bound is of the sweep's own arithmetic, which the corruption
        # bypasses: it is forced to vouch for nothing, so that the dense check
        # runs at the corrupted values' check points
        values, _, bound = exact(family, schedule, nu)
        values = corrupt(values)
        return values, np.argmin(np.abs(values), axis=1), np.full_like(bound, np.inf)

    monkeypatch.setattr(ssf, "det2_sweep", corrupted)
    with pytest.raises(RefinementNeededError, match="disagrees with the dense det2") as err:
        small_curve(n=2)
    assert err.value.interval == (refused, refused)


@pytest.mark.parametrize("block, part", ((5, 0), (5, 1), (-1, 0)))
def test_a_broken_checkpoint_link_falls_back_to_one_dense_det2(monkeypatch, block, part):
    # one ulp off in one part of one checkpoint of n = 4's checked lane (the
    # final b at block -1), as the replay reads it: a replayed block no longer
    # ends where the next starts, so n = 4 is not vouched for; its dense det2
    # agrees with the sweep's values, which the flip leaves as they were
    nu = np.linspace(-8.0, 8.0, 161)
    schedule = (2, 4, 8)
    expected = ssf_mollified(GAUSS, schedule, nu, 300)
    replay = determinants._replay

    def flipped(u, dx, rates, waves, coef, checkpoints, exponents):
        # checkpoints (blocks + 1, 3, lanes) of the checked lanes, one per n
        checkpoint = checkpoints.real[block, part]
        checkpoint[1] = np.nextafter(checkpoint[1], np.inf)
        return replay(u, dx, rates, waves, coef, checkpoints, exponents)

    monkeypatch.setattr(determinants, "_replay", flipped)
    dense_calls = _count_dense_det2(monkeypatch)
    bounds = _record_bounds(monkeypatch)
    curves = ssf_mollified(GAUSS, schedule, nu, 300)
    assert [T.shape for T in dense_calls] == [(300, 300)]
    assert bounds[1] == np.inf and max(bounds[0], bounds[2]) <= 1e-9
    for curve, reference in zip(curves, expected):
        assert_array_equal(curve.values, reference.values)


def test_ssf_mollified_sweeps_the_nodes_once(monkeypatch):
    # N sequential node steps for the sweep, and _BLOCK for the certificate,
    # which replays every block at once: a second full sweep would add N
    steps = []
    lifted_nodes = determinants._lifted_nodes

    def counted(weights, *args, **kwargs):
        steps.append(len(weights))
        lifted_nodes(weights, *args, **kwargs)

    monkeypatch.setattr(determinants, "_lifted_nodes", counted)
    ssf_mollified(GAUSS, (2, 4, 8, 16, 32), np.linspace(-12.0, 12.0, 401), 400)
    assert 400 <= sum(steps) <= 400 + determinants._BLOCK


def test_ssf_mollified_schedule_matches_the_per_n_loop():
    nu = np.linspace(-8.0, 8.0, 161)
    schedule = (2, 4, 8, 16, 32)
    curves = ssf_mollified(GAUSS, schedule, nu, 300)
    assert isinstance(curves, tuple) and len(curves) == len(schedule)
    for n, curve in zip(schedule, curves):
        single = ssf_mollified(GAUSS, n, nu, 300)
        assert isinstance(single, SSFCurve)
        assert_array_equal(curve.values, single.values)
        assert curve.provenance == single.provenance
    # gaussian(3, 1) has not settled at nu = 8 for n = 8 and 16 (|det2 - 1| =
    # 0.236 and 0.225); the schedule raises n = 8's refusal, as the loop does
    steep = builtin_profile("gaussian", 3.0, 1.0)
    with pytest.raises(RefinementNeededError) as loop:
        for n in schedule:
            ssf_mollified(steep, n, nu, 300)
    with pytest.raises(RefinementNeededError) as joint:
        ssf_mollified(steep, schedule, nu, 300)
    assert str(joint.value) == str(loop.value)
    assert "0.236" in str(joint.value)
    assert joint.value.interval == loop.value.interval


def test_curve_serialization_round_trip():
    curve = SSFCurve(
        grid=np.array([-1.0, 0.0, 1.0]),
        values=np.array([0.25, 0.5, 0.25]),
        kind=SSFKind.ONE_DIM_MOLLIFIED,
        provenance={"n": 2},
    )
    text = curve.to_csv()
    lines = text.split("\n")
    assert lines[0] == "nu,xi"
    assert lines[1] == "-1,0.25"
    assert text.endswith("\n")
    payload = curve.to_json_dict()
    assert payload["kind"] == "one_dim_mollified"
    assert payload["values"][1] == 0.5

    two = SSFCurve(
        grid=np.array([0.5, 1.0]),
        values=np.array([0.3, 0.3]),
        kind=SSFKind.TWO_DIM,
    )
    assert two.to_csv().split("\n")[0] == "lambda,xi"
    assert two.value_at(-3.0) == 0.0  # normalization below lam = 0


def test_curve_validation():
    with pytest.raises(ValueError):
        SSFCurve(grid=np.array([1.0, 0.0]), values=np.zeros(2), kind=SSFKind.ONE_DIM_MOLLIFIED)
    with pytest.raises(ValueError):
        SSFCurve(grid=np.array([0.0, 1.0]), values=np.zeros(3), kind=SSFKind.ONE_DIM_MOLLIFIED)
    with pytest.raises(ValueError, match="lam > 0"):
        SSFCurve(grid=np.array([-1.0, 1.0]), values=np.zeros(2), kind=SSFKind.TWO_DIM)


def test_pushnitski_constants_exact():
    for lam in (0.1, 1.0, 100.0):
        assert abs(pushnitski(0.73, lam) - 0.73) < 1e-14
    assert pushnitski(0.0, 5.0) == 0.0
    lams = np.array([0.1, 1.0, 100.0])
    assert_array_equal(pushnitski(0.73, lams), [pushnitski(0.73, lam) for lam in lams])


def sampled(f, grid):
    return SSFCurve(grid=grid, values=f(grid), kind=SSFKind.ONE_DIM_MOLLIFIED)


def test_pushnitski_odd_and_quadratic():
    # odd integrand on a grid symmetric about 0: the closed-form cell
    # weights are symmetric too, so the two halves cancel to rounding
    grid = np.linspace(-3.0, 3.0, 601)
    assert abs(pushnitski(sampled(lambda nu: nu, grid), 7.0)) < 1e-12
    assert abs(pushnitski(sampled(lambda nu: np.sin(nu) + nu**3, grid), 2.0)) < 1e-12
    # xi = nu^2 maps to lam/2, the mean of lam sin^2 t; its linear
    # interpolant lies above it by at most h^2/4
    square = sampled(lambda nu: nu**2, grid)
    h = grid[1] - grid[0]
    for lam in (0.5, 4.0):
        assert -1e-14 <= pushnitski(square, lam) - lam / 2.0 <= 0.25 * h * h
    f = sampled(lambda nu: np.sin(nu) + nu**2, np.linspace(-8.0, 8.0, 321))
    lams = np.geomspace(0.01, 50.0, 7)
    assert_array_equal(pushnitski(f, lams), [pushnitski(f, lam) for lam in lams])


def test_pushnitski_curve_source_and_coverage():
    grid = np.linspace(-3.0, 3.0, 301)
    curve = SSFCurve(grid=grid, values=np.full(301, 0.42), kind=SSFKind.ONE_DIM_MOLLIFIED)
    assert_allclose(pushnitski(curve, 4.0), 0.42, rtol=1e-13)
    with pytest.raises(CoverageError):
        pushnitski(curve, 16.0)  # needs [-4, 4], curve stops at 3
    ramp = SSFCurve(grid=grid, values=np.tanh(grid) + grid**2,
                    kind=SSFKind.ONE_DIM_MOLLIFIED)
    lams = np.array([0.3, 2.0, 4.0, 9.0])
    assert_array_equal(pushnitski(ramp, lams), [pushnitski(ramp, lam) for lam in lams])
    with pytest.raises(CoverageError, match="lam = 16"):
        pushnitski(ramp, np.array([0.3, 16.0, 4.0]))


def test_pushnitski_block_boundaries():
    B = ssf._LAMBDA_BLOCK
    grid = np.linspace(-8.0, 8.0, 321)
    ramp = SSFCurve(grid=grid, values=np.tanh(grid) + grid**2, kind=SSFKind.ONE_DIM_MOLLIFIED)
    sources = (0.73, ramp)
    for source in sources:
        for count in (1, B - 1, B, B + 1, 2 * B + 3):
            lams = np.geomspace(0.05, 60.0, count)
            values = pushnitski(source, lams)
            assert values.shape == (count,)
            assert_array_equal(values, [pushnitski(source, lam) for lam in lams])
        square = np.geomspace(0.05, 60.0, 3 * (B + 1)).reshape(3, B + 1)
        values = pushnitski(source, square)
        assert values.shape == square.shape
        assert_array_equal(values.ravel(), [pushnitski(source, lam) for lam in square.ravel()])


def test_pushnitski_working_set_does_not_grow_with_lam(traced_peak):
    curve = ssf_mollified(GAUSS, 8, np.linspace(-12.0, 12.0, 401), 400)
    evaluator = ssf._extended_evaluator(curve)
    lam = ssf._lambda_grid(12.0, 160)  # 160 geometric lam from 1e-6 to the cap 14400
    peak, _ = traced_peak(lambda: pushnitski(evaluator, lam))
    assert peak < 2e6
    # four copies of the grid: the same blocks, so only the lam vectors grow
    four = np.tile(lam, 4)
    peak_four, values = traced_peak(lambda: pushnitski(evaluator, four))
    assert peak_four <= peak + 2 * four.nbytes
    assert_array_equal(values, np.tile(pushnitski(evaluator, lam), 4))


def _gauss_legendre_in_t(source, lams, points=80):
    """The transform by an 80-point Gauss-Legendre rule in t on each piece of (-pi/2, pi/2).

    The pieces lie between the breakpoints arcsin(g_j / sqrt(lam)), where
    the integrand is smooth in t; the tail is evaluated point by point.
    """
    x, w = np.polynomial.legendre.leggauss(points)
    extended = not isinstance(source, SSFCurve)
    grid = source.grid
    inner = source.inner if extended else source.values
    means = []
    for lam in lams:
        r = np.sqrt(lam)
        x_nodes = np.concatenate(([-1.0], np.clip(grid / r, -1.0, 1.0), [1.0]))
        breaks = np.unique(np.arcsin(x_nodes))
        half = 0.5 * np.diff(breaks)
        t = (breaks[:-1] + half)[:, None] + half[:, None] * x
        nu = r * np.sin(t)
        f = np.interp(nu, grid, inner)
        if extended:
            outside = (nu < grid[0]) | (nu > grid[-1])
            if source.limit is not None:
                f[outside] = source.limit
            else:
                n = source.n
                f[outside] = 0.5 * n * n / (nu[outside] ** 2 + n * n) * source.total / np.pi
        means.append(np.sum(half * (f @ w)) / np.pi)
    return np.array(means)


def test_arcsine_rule_matches_a_gauss_legendre_reference():
    nu = np.linspace(-12.0, 12.0, 401)
    curves = ssf_mollified(GAUSS, (2, 4, 8, 16, 32), nu, 400)
    # the five curves of witten_index's defaults on 160 geometric lam up to
    # the cap 14400, with the eta tail past lam = 144
    lam = ssf._lambda_grid(12.0, 160)
    assert lam[-1] > 144.0
    evaluators = [ssf._extended_evaluator(curve) for curve in curves]
    worst = 0.0
    for evaluator in evaluators:
        values = pushnitski(evaluator, lam)
        worst = max(worst, np.max(np.abs(values - _gauss_legendre_in_t(evaluator, lam))))
    # ssf_2d_curve's constant tail, out to lam = 1e4 where most of t is in it
    wide = np.geomspace(0.1, 1e4, 61)
    constant = ssf._extended_evaluator(curves[2], eta_correction=True)
    worst = max(worst, np.max(np.abs(pushnitski(constant, wide)
                                     - _gauss_legendre_in_t(constant, wide))))
    # a nonuniform grid, rows whose t all fall in the one cell about 0, and
    # a root 5e-13 past the grid's end, inside the coverage tolerance, where
    # np.interp holds the end value
    stretched = 5.0 * np.sinh(np.linspace(-2.0, 2.0, 96)) / np.sinh(2.0)
    curve = SSFCurve(grid=stretched, values=np.tanh(stretched) + 0.1 * stretched**2,
                     kind=SSFKind.ONE_DIM_MOLLIFIED)
    lams = np.concatenate((np.geomspace(1e-8, 1e-4, 5), np.geomspace(1e-3, 25.0, 40),
                           [(5.0 + 5e-13) ** 2]))
    r = np.sqrt(lams[:5])
    assert np.all(np.searchsorted(stretched, r) == np.searchsorted(stretched, -r))
    worst = max(worst, np.max(np.abs(pushnitski(curve, lams)
                                     - _gauss_legendre_in_t(curve, lams))))
    assert worst <= 1e-14
    # far out the eta tail's mean is about (total/2pi) n/sqrt(lam), which vanishes
    assert abs(pushnitski(evaluators[0], 1e300)) < 1e-100


def test_pushnitski_validation():
    with pytest.raises(ValueError):
        pushnitski(1.0, 0.0)
    with pytest.raises(ValueError):
        pushnitski(1.0, -2.0)
    with pytest.raises(TypeError):
        pushnitski("xi", 1.0)
    with pytest.raises(ValueError, match="got 0"):
        pushnitski(1.0, np.array([0.5, 0.0, 2.0]))
    # an infinite or NaN lam is refused, not transformed to nan
    with pytest.raises(ValueError, match="finite, got inf"):
        ssf_2d_curve(small_curve(n=4), np.array([1.0, np.inf]))
    with pytest.raises(ValueError, match="got nan"):
        pushnitski(1.0, np.nan)


def test_ssf_2d_constant_input_is_flat():
    lam = np.geomspace(0.1, 100.0, 31)
    curve = ssf_2d_curve(0.28, lam)
    assert curve.kind is SSFKind.TWO_DIM
    assert float(np.max(curve.values) - np.min(curve.values)) < 1e-14
    assert_allclose(curve.values, 0.28, rtol=1e-13)


def test_ssf_2d_grid_validation():
    with pytest.raises(ValueError):
        ssf_2d_curve(0.3, np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        ssf_2d_curve(0.3, np.array([2.0, 1.0]))
    with pytest.raises(ValueError):
        ssf_2d_curve(0.3, np.array([]))


def test_ssf_2d_eta_correction_modes():
    base = small_curve(n=4)
    lam = np.geomspace(0.1, 40.0, 21)
    corrected = ssf_2d_curve(base, lam)
    raw = ssf_2d_curve(base, lam, eta_correction=False)
    assert corrected.provenance["eta_correction"] is True
    # the corrected curve is flatter than the raw one by construction
    spread = lambda c: float(np.max(c.values) - np.min(c.values))
    assert spread(corrected) < spread(raw)
    assert spread(corrected) < 0.02


def test_ssf_2d_requires_mollifier_record():
    bare = SSFCurve(
        grid=np.linspace(-2.0, 2.0, 11),
        values=np.zeros(11),
        kind=SSFKind.ONE_DIM_MOLLIFIED,
    )
    with pytest.raises(ValueError, match="provenance"):
        ssf_2d_curve(bare, np.array([1.0, 2.0]))


def test_krein_check_zero_profile():
    report = krein_check_trn(ZERO, 4, -1.0)
    assert report.lhs == 0.0 and report.rhs == 0.0 and report.residual == 0.0


def test_krein_check_small_config():
    report = krein_check_trn(GAUSS, 4, -1.0, N=300, nu_max=8.0, M=512, threads=2)
    assert report.residual < 2e-2
    assert abs(report.lhs.imag) < 1e-10  # real z gives a real trace
    assert report.params["nu_points"] == 301


def test_krein_check_reports_oracle_band():
    # the oracle depends on N only through the box 2L, which is N-independent
    report = krein_check_trn(GAUSS, 4, -1.0, N=300, nu_max=8.0, M=2048, threads=2)
    assert 0 < report.params["band"] <= 128
    assert 0.0 < report.params["band_bound"] <= 1e-12
    pair = fourier_pair(GAUSS, 4, report.params["box_half_length"], 2048)
    evals = np.linalg.eigvalsh(pair.A_plus_n)
    dense = np.sum(_g_spectral(evals, -1.0 + 0j)) - np.sum(_g_spectral(pair.momenta, -1.0 + 0j))
    assert abs(report.lhs - dense / -2.0) <= 1e-12

    bump = builtin_profile("bump", 2.0, 1.0)
    fallback = krein_check_trn(bump, 4, -1.0, N=300, nu_max=8.0, M=1024, threads=2)
    assert fallback.params["band"] is None and fallback.params["band_bound"] == 0.0


def test_krein_check_rejects_halfline_z():
    with pytest.raises(ValueError):
        krein_check_trn(GAUSS, 4, 1.0)


def test_trace_identity_synthetic_constant():
    # the rhs is c K(0, z) by construction; the line tests the lam side
    for z in (-1.0, -2.5, -1.0 + 0.5j, 0.5j):
        report = trace_identity_eq1(GAUSS, 8, z, synthetic_constant=0.375)
        exact = 0.375 / (-z)
        assert abs(report.lhs - exact) < 1e-10
        assert abs(report.rhs - exact) < 1e-10
        assert report.residual < 1e-10


def test_trace_identity_refuses_a_heavy_constant_tail():
    # at nu_max = 1 the lam cap is 100, and at z = -20 the constant's tail
    # above it, 0.375 / 120 = 3.1e-3, is more than 10 % of the total 1.9e-2
    with pytest.raises(CoverageError, match="constant-tail term 3.125e-03"):
        trace_identity_eq1(GAUSS, 8, -20.0, nu_max=1.0, synthetic_constant=0.375)


TAIL_SPANS = (0.5, 4.0, 12.0, 40.0)


def _tails_to_infinity(mpmath, f):
    """30-digit integrals of f over (s, inf), one per s in TAIL_SPANS.

    The pieces between the spans are summed from the right; the last
    one, over (40, inf), is taken through nu = 40/x on (0, 1).
    """
    last = TAIL_SPANS[-1]
    total = mpmath.quad(lambda x: f(last / x) * last / x**2, [0, 1])
    tails = [total]
    for lo, hi in reversed(list(zip(TAIL_SPANS, TAIL_SPANS[1:]))):
        total += mpmath.quad(f, [lo, hi])
        tails.append(total)
    return [complex(t) for t in reversed(tails)]


def test_tail_integrals_match_a_30_digit_reference():
    # far windows and z near the removable point -n^2 are where a plain
    # arctan difference cancels
    mpmath = pytest.importorskip("mpmath")
    grid = {}
    for n in (1, 2, 4, 8, 32, 128):
        for z in (-1.0, -0.25, -4.0, -16.0, -1.0 + 0.5j, 1j, 2.0 + 1j, -n * n, -n * n * (1 + 1e-6)):
            grid.setdefault(complex(z), []).append(n)
    worst = 0.0
    with mpmath.workdps(30):
        for z, ns in grid.items():
            zm = mpmath.mpc(z)
            weight = lambda v: (v * v - zm) ** mpmath.mpf(-1.5)
            for s, ref in zip(TAIL_SPANS, _tails_to_infinity(mpmath, weight)):
                worst = max(worst, abs(ssf._weight_tail(s, z) - ref) / abs(ref))
            for n in ns:
                eta = lambda v: weight(v) * n * n / (v * v + n * n)
                for s, ref in zip(TAIL_SPANS, _tails_to_infinity(mpmath, eta)):
                    worst = max(worst, abs(ssf._eta_tail(s, n, z) - ref) / abs(ref))
    assert worst <= 2e-12


def test_stieltjes_means_match_a_30_digit_reference():
    # a non-uniform piecewise-linear curve, constant below its first and above its last sample
    mpmath = pytest.importorskip("mpmath")
    k = np.arange(41)
    grid = np.geomspace(1e-2, 500.0, 41) * (1.0 + 0.1 * np.sin(7.0 * k))
    values = 0.3 + 0.2 * np.sin(3.0 * np.log(grid))
    zs = (-1.0, -0.25, -1e-6, -1.0 + 0.5j, 0.5j)
    worst = 0.0
    with mpmath.workdps(30):
        g = [mpmath.mpf(float(x)) for x in grid]
        v = [mpmath.mpf(float(x)) for x in values]
        for z in zs:
            weight = lambda mu: (mu - mpmath.mpc(z)) ** -2
            ref = v[0] * mpmath.quad(weight, [0, g[0]])
            ref += v[-1] * mpmath.quad(weight, [g[-1], mpmath.inf])
            for j in range(len(g) - 1):
                slope = (v[j + 1] - v[j]) / (g[j + 1] - g[j])
                cell = lambda mu: (v[j] + slope * (mu - g[j])) * weight(mu)
                ref += mpmath.quad(cell, [g[j], g[j + 1]])
            ref = complex(ref)
            worst = max(worst, abs(ssf._stieltjes_means(grid, values, z) - ref) / abs(ref))
    assert worst <= 1e-13
    # each z of an array is reduced on its own (a complex array: compare complex scalars)
    means = ssf._stieltjes_means(grid, values, np.array(zs))
    assert_array_equal(means, [ssf._stieltjes_means(grid, values, complex(z)) for z in zs])


def test_trace_identity_zero_profile():
    report = trace_identity_eq1(ZERO, 8, -1.0)
    assert report.lhs == 0.0 and report.rhs == 0.0


def test_trace_identity_small_config():
    report = trace_identity_eq1(GAUSS, 4, -1.0, N=300, nu_max=8.0, threads=2)
    assert report.relative_residual < 1e-2
    # n = 8, N = 400 and 401 nu: the lam side is the exact rule of 161 transformed lam
    report = trace_identity_eq1(GAUSS, 8, -1.0)
    assert report.params["lambda_points"] == 161
    assert report.params["nu_points"] == 401
    assert report.relative_residual <= 6e-6


def test_trace_report_relative_residual():
    from wittenlab.ssf import TraceCheckReport

    report = TraceCheckReport(lhs=1.0 + 0j, rhs=2.0 + 0j, residual=1.0)
    assert report.relative_residual == pytest.approx(0.5)
