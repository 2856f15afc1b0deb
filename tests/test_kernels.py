"""Kernel closed forms against quadrature oracles.

The mollified kernel is the one nontrivial closed form in the package
(a one-sided exponential convolved with the mollifier's double-sided
exponential), so it gets the heaviest treatment: twenty random
parameter tuples, both boundary sides, compared against adaptive
quadrature of the defining convolution integral to 1e-10.  The free
resolvent is checked through the first resolvent identity, whose
convolution collapses to a finite interval.
"""

import cmath
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate

from wittenlab import (
    SpectralPoint,
    bs_kernel,
    bs_kernel_mollified,
    builtin_profile,
    c0,
    eta_n_im,
    free_resolvent_kernel,
    scattering_matrix,
)

GAUSS = builtin_profile("gaussian", 1.0, 1.0)


def quad_complex(f, a, b, **kw):
    re, _ = integrate.quad(lambda t: f(t).real, a, b, **kw)
    im, _ = integrate.quad(lambda t: f(t).imag, a, b, **kw)
    return complex(re, im)


def test_spectral_point_validation():
    with pytest.raises(ValueError):
        SpectralPoint.off_axis(2.0)  # real z is ambiguous
    with pytest.raises(ValueError):
        SpectralPoint(nu=1.0, side="upper", z=1j)
    with pytest.raises(ValueError):
        SpectralPoint(nu=1.0, side="above")
    with pytest.raises(ValueError):
        SpectralPoint(z=1j, side="upper")
    assert SpectralPoint.boundary(2.0).is_upper
    assert not SpectralPoint.boundary(2.0, side="lower").is_upper
    assert SpectralPoint.off_axis(1 - 2j).is_upper is False
    assert SpectralPoint.off_axis(3j).value == 3j
    assert SpectralPoint.boundary(-4.0).value == complex(-4.0)


def test_free_resolvent_values():
    up = SpectralPoint.off_axis(1j)
    assert free_resolvent_kernel(up, 1.0, 0.0) == pytest.approx(1j * math.exp(-1.0))
    assert free_resolvent_kernel(up, 0.0, 1.0) == 0.0
    assert free_resolvent_kernel(up, 0.5, 0.5) == 0.0  # theta(0) = 0
    low = SpectralPoint.off_axis(-1j)
    assert free_resolvent_kernel(low, 0.0, 1.0) == pytest.approx(-1j * math.exp(-1.0))
    assert free_resolvent_kernel(low, 1.0, 0.0) == 0.0
    # boundary points keep modulus 1 on their support side
    bd = SpectralPoint.boundary(3.0)
    assert abs(free_resolvent_kernel(bd, 2.0, -1.0)) == pytest.approx(1.0)


def test_free_resolvent_first_resolvent_identity():
    """(R_z - R_w)(x,x') = (z-w) * int R_z(x,u) R_w(u,x') du.

    Both factors are supported on u < x and u > x', so the convolution
    is a finite integral over (x', x); exact up to quad tolerance.
    """
    z, w = 1j, 0.5 + 2j
    pz, pw = SpectralPoint.off_axis(z), SpectralPoint.off_axis(w)
    x, xp = 1.3, -0.9
    conv = quad_complex(
        lambda u: free_resolvent_kernel(pz, x, u) * free_resolvent_kernel(pw, u, xp),
        xp, x, limit=200,
    )
    direct = (
        free_resolvent_kernel(pz, x, xp) - free_resolvent_kernel(pw, x, xp)
    ) / (z - w)
    assert_allclose(conv, direct, atol=1e-12)


def test_bs_kernel_structure():
    point = SpectralPoint.boundary(0.0)
    # at nu = 0 the upper kernel is i*sgn(phi)sqrt(|phi phi'|) below the diagonal
    val = bs_kernel(GAUSS, point, 1.0, 0.0)
    assert_allclose(val, 1j * math.sqrt(math.exp(-1.0)), rtol=1e-14)
    assert bs_kernel(GAUSS, point, 0.0, 1.0) == 0.0
    assert bs_kernel(GAUSS, point, 0.3, 0.3) == 0.0
    neg = builtin_profile("sech2", -2.0, 1.5)
    assert bs_kernel(neg, point, 1.0, 0.0).imag < 0.0  # sign of phi carried
    zero = builtin_profile("gaussian", 0.0, 1.0)
    assert bs_kernel(zero, point, 1.0, 0.0) == 0.0


def _mollified_by_quadrature(profile, n, point, x, xp):
    """Integrate the defining convolution of the mollified kernel.

    The free resolvent is one-sided in (x - u) and the squared
    mollifier contributes (n/2)exp(-n|u - x'|); the product decays at
    rate n away from the kinks, so truncating 60/n past them leaves a
    tail below 1e-25.
    """
    pad = 60.0 / n
    px, pxp = profile.phi(x), profile.phi(xp)
    weight = np.sign(px) * math.sqrt(abs(px) * abs(pxp))

    def integrand(u):
        return free_resolvent_kernel(point, x, u) * (0.5 * n) * math.exp(
            -n * abs(u - xp)
        )

    if point.is_upper:
        lo, hi = min(x, xp) - pad, x
    else:
        lo, hi = x, max(x, xp) + pad
    kinks = [t for t in (xp,) if lo < t < hi]
    val = quad_complex(integrand, lo, hi, points=kinks or None, limit=400)
    return weight * val


def test_mollified_kernel_matches_quadrature():
    """Twenty random (n, nu, x, x') tuples, both boundary sides, 1e-10."""
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(1, 13))
        nu = float(rng.uniform(-6.0, 6.0))
        x = float(rng.uniform(-2.5, 2.5))
        xp = float(rng.uniform(-2.5, 2.5))
        for side in ("upper", "lower"):
            point = SpectralPoint.boundary(nu, side=side)
            closed = bs_kernel_mollified(GAUSS, n, point, x, xp)
            reference = _mollified_by_quadrature(GAUSS, n, point, x, xp)
            assert_allclose(
                closed, reference, atol=1e-10,
                err_msg=f"n={n} nu={nu} x={x} xp={xp} side={side}",
            )


def test_mollified_kernel_continuous_at_diagonal():
    point = SpectralPoint.boundary(2.0)
    for n in (1, 4, 16):
        left = bs_kernel_mollified(GAUSS, n, point, 0.4 - 1e-10, 0.4)
        right = bs_kernel_mollified(GAUSS, n, point, 0.4 + 1e-10, 0.4)
        assert abs(left - right) < 1e-8


def test_mollified_kernel_recovers_raw_kernel():
    # pointwise convergence off the diagonal at rate 1/n
    point = SpectralPoint.boundary(1.5)
    x, xp = 0.8, -0.4
    raw = bs_kernel(GAUSS, point, x, xp)
    errors = [abs(bs_kernel_mollified(GAUSS, n, point, x, xp) - raw) for n in (8, 64)]
    assert errors[1] < errors[0] / 4.0
    assert errors[1] < 0.02


def test_mollified_kernel_array_broadcasting():
    xs = np.linspace(-1.0, 1.0, 5)
    point = SpectralPoint.boundary(0.7, side="lower")
    block = bs_kernel_mollified(GAUSS, 4, point, xs[:, None], xs[None, :])
    assert block.shape == (5, 5)
    single = bs_kernel_mollified(GAUSS, 4, point, xs[2], xs[4])
    assert_allclose(block[2, 4], single, rtol=1e-15)


def test_eta_values():
    assert_allclose(eta_n_im(GAUSS, 3, 0.0), math.sqrt(math.pi) / 2.0, rtol=1e-15)
    assert_allclose(eta_n_im(GAUSS, 4, 4.0), math.sqrt(math.pi) / 4.0, rtol=1e-15)
    grid = np.array([-2.0, 0.0, 2.0])
    vals = eta_n_im(GAUSS, 2, grid)
    assert vals.shape == (3,)
    assert_allclose(vals[0], vals[2], rtol=1e-15)  # even in nu
    with pytest.raises(ValueError):
        eta_n_im(GAUSS, 0, 1.0)


def test_scattering_matrix_values():
    s = scattering_matrix(GAUSS)
    assert abs(s) == pytest.approx(1.0)
    assert_allclose(s, cmath.exp(-1j * math.sqrt(math.pi)), rtol=1e-15)
    zero = builtin_profile("gaussian", 0.0, 1.0)
    assert scattering_matrix(zero) == 1.0


@pytest.mark.parametrize(
    "kind,amp,width,support",
    [("gaussian", 1.0, 1.0, None), ("sech2", -2.0, 1.5, None), ("bump", 0.7, 2.0, 2.0)],
)
def test_birman_krein_phase(kind, amp, width, support):
    profile = builtin_profile(kind, amp, width, support=support)
    expected = cmath.exp(-2j * math.pi * c0(profile))
    assert abs(scattering_matrix(profile) - expected) < 1e-14
