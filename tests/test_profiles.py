"""Profile metadata against independent quadrature.

Every closed-form field of a builtin profile (total integral, L1 norm,
tail radius) is checked here against scipy adaptive
quadrature of the pointwise values, so later modules can trust the
metadata blindly.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate, special

from wittenlab import builtin_profile, c0, chi, profile_from_descriptor
from wittenlab.profiles import _erfcinv

BUILTINS = [
    ("gaussian", 1.0, 1.0, None),
    ("gaussian", -2.0, 1.0, None),
    ("sech2", -2.0, 1.5, None),
    ("bump", 0.7, 2.0, 2.0),
]


@pytest.mark.parametrize("kind,amp,width,support", BUILTINS)
def test_total_integral_and_l1(kind, amp, width, support):
    profile = builtin_profile(kind, amp, width, support=support)
    cutoff = profile.tail_radius(1e-13) + 1.0
    total, _ = integrate.quad(profile.phi, -cutoff, cutoff, limit=200)
    l1, _ = integrate.quad(lambda x: abs(profile.phi(x)), -cutoff, cutoff, limit=200)
    assert_allclose(profile.total_integral, total, atol=1e-10)
    assert_allclose(profile.l1_norm, l1, atol=1e-10)


def test_known_totals():
    assert_allclose(builtin_profile("gaussian", 1.0, 1.0).total_integral, math.sqrt(math.pi))
    assert_allclose(builtin_profile("gaussian", -2.0, 1.0).total_integral, -2.0 * math.sqrt(math.pi))
    assert_allclose(builtin_profile("sech2", -2.0, 1.5).total_integral, -6.0)
    assert_allclose(builtin_profile("bump", 0.7, 2.0).total_integral, 1.4)


@pytest.mark.parametrize("eps", [1e-6, 1e-9, 1e-12])
def test_tail_radius_bounds_leftover_mass(eps):
    profile = builtin_profile("gaussian", 1.0, 1.0)
    R = profile.tail_radius(eps)
    tail, _ = integrate.quad(lambda x: abs(profile.phi(x)), R, np.inf, limit=200)
    # slack covers quad's own error; the identity 2*tail = eps is exact
    assert 2.0 * tail <= eps * (1.0 + 1e-7)


def test_tail_radius_monotone_in_eps():
    profile = builtin_profile("sech2", 1.0, 1.0)
    radii = [profile.tail_radius(e) for e in (1e-3, 1e-6, 1e-9, 1e-12)]
    assert all(b >= a for a, b in zip(radii, radii[1:]))


def test_erfcinv_matches_scipy():
    small = np.logspace(-300.0, math.log10(0.5), 3001)
    got = np.array([_erfcinv(float(y)) for y in small])
    assert np.max(np.abs(got / special.erfcinv(small) - 1.0)) <= 1e-15
    large = np.linspace(0.5, 1.0, 2001)[:-1]
    got = np.array([_erfcinv(float(y)) for y in large])
    assert np.max(np.abs(got - special.erfcinv(large))) <= 1e-15
    assert _erfcinv(1.0) == 0.0


def _mass_outside(profile, R):
    """Closed-form integral of |phi| outside [-R, R], free of cancellation."""
    a = profile.width
    if profile.kind == "gaussian":
        return profile.l1_norm * math.erfc(R / a)
    return 2.0 * profile.l1_norm / (math.exp(2.0 * R / a) + 1.0)


@pytest.mark.parametrize(
    "kind,amp,width",
    [("gaussian", 1.0, 1.0), ("gaussian", -0.5, 0.5), ("gaussian", 3.0, 2.5),
     ("sech2", 1.0, 1.0), ("sech2", -2.0, 0.25), ("sech2", -2.0, 1.5)],
)
def test_tail_radius_contract(kind, amp, width):
    profile = builtin_profile(kind, amp, width)
    epsilons = (1e-14, 1e-12, 1e-8, 1e-3)
    radii = [profile.tail_radius(eps) for eps in epsilons]
    for eps, R in zip(epsilons, radii):
        assert R > 0.0
        assert _mass_outside(profile, R) <= eps * (1.0 + 1e-13)
    assert all(b <= a for a, b in zip(radii, radii[1:]))


def test_bump_support_is_exact():
    profile = builtin_profile("bump", 0.7, 2.0, support=2.0)
    assert profile.tail_radius(1e-15) == 2.0
    assert profile.phi(2.0 + 1e-12) == 0.0
    assert profile.phi(np.array([-5.0, 5.0])).tolist() == [0.0, 0.0]
    assert profile.phi(0.0) == pytest.approx(0.7)


def test_zero_amplitude_profile():
    profile = builtin_profile("gaussian", 0.0, 1.0)
    assert profile.l1_norm == 0.0
    assert profile.total_integral == 0.0
    assert profile.tail_radius(1e-12) == 0.0
    assert c0(profile) == 0.0


def test_chi_values():
    assert chi(3, 4.0) == pytest.approx(0.6, abs=1e-15)
    assert chi(5, 0.0) == 1.0
    vals = chi(2, np.array([0.0, 2.0]))
    assert_allclose(vals, [1.0, 1.0 / math.sqrt(2.0)])
    assert np.all(vals <= 1.0) and np.all(vals > 0.0)


@pytest.mark.parametrize("bad", [0, -2, 2.5])
def test_chi_rejects_bad_index(bad):
    with pytest.raises(ValueError):
        chi(bad, 1.0)


def test_c0_gaussian_reference():
    profile = builtin_profile("gaussian", 1.0, 1.0)
    assert_allclose(c0(profile), 1.0 / (2.0 * math.sqrt(math.pi)), rtol=1e-15)
    assert f"{c0(profile):.10f}" == "0.2820947918"


def test_c0_linear_in_amplitude():
    base = builtin_profile("sech2", 0.3, 1.0)
    assert_allclose(c0(builtin_profile("sech2", 0.9, 1.0)), 3.0 * c0(base), rtol=1e-14)
    assert c0(builtin_profile("sech2", 0.0, 1.0)) == 0.0


def test_descriptor_round_trip():
    for kind, amp, width, support in BUILTINS:
        original = builtin_profile(kind, amp, width, support=support)
        rebuilt = profile_from_descriptor(original.descriptor())
        xs = np.linspace(-4.0, 4.0, 17)
        assert_allclose(rebuilt.phi(xs), original.phi(xs), rtol=1e-15)
        assert rebuilt.total_integral == original.total_integral
        assert rebuilt.descriptor() == original.descriptor()


def test_validation_errors():
    with pytest.raises(ValueError):
        builtin_profile("lorentzian", 1.0, 1.0)
    with pytest.raises(ValueError):
        builtin_profile("gaussian", 1.0, 0.0)
    with pytest.raises(ValueError):
        builtin_profile("gaussian", math.nan, 1.0)
    with pytest.raises(ValueError):
        builtin_profile("bump", 1.0, 1.0, support=-2.0)
    with pytest.raises(ValueError):
        profile_from_descriptor({"amplitude": 1.0})
