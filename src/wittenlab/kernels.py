"""Closed-form integral kernels for the line model.

All operators in play are integral operators on L2(R) whose kernels are
elementary: the free resolvent of A_- = -i d/dx is a one-sided complex
exponential, the perturbed resolvent differs from it by the unimodular
phase exp(-i*(Phi(x)-Phi(x'))) (no computation needs that kernel, so
none is provided), and the Birman-Schwinger (BS) operator
sandwiches the free resolvent between sgn(phi)|phi|^(1/2) and
|phi|^(1/2).  The mollified BS kernel (the resolvent composed with the
squared mollifier chi_n(A_-)^2, whose kernel is (n/2)exp(-n|x-x'|))
also reduces to piecewise exponentials; the closed form is derived from
elementary antiderivatives and validated against adaptive quadrature in
the test suite.

Conventions.  The Heaviside factor uses theta(0) := 0, so every
unmollified kernel vanishes on the diagonal; this makes discretized
traces of resolvent products vanish identically, matching the exact
computation.  The exponential is exp(i*z*(x-x')) in both half-planes;
only the support side and the prefactor sign flip between the upper
and lower boundary values (the lower kernel is then the conjugate
transpose of the upper one up to where sgn(phi) is evaluated).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .profiles import PotentialProfile, _check_mollifier_index

__all__ = [
    "SpectralPoint",
    "free_resolvent_kernel",
    "bs_kernel",
    "bs_kernel_mollified",
    "eta_n_im",
    "scattering_matrix",
]

_SIDES = ("upper", "lower")


@dataclass(frozen=True)
class SpectralPoint:
    """A point where a resolvent is evaluated.

    Either a boundary point nu +/- i0 on the real axis (fields ``nu``
    and ``side``) or a genuinely off-axis complex ``z``; exactly one of
    the two representations is set.  A real z without a side tag is
    rejected because the two boundary kernels differ.
    """

    nu: Optional[float] = None
    side: Optional[str] = None
    z: Optional[complex] = None

    def __post_init__(self):
        boundary = self.nu is not None
        off_axis = self.z is not None
        if boundary == off_axis:
            raise ValueError("set either (nu, side) or z, not both")
        if boundary:
            if self.side not in _SIDES:
                raise ValueError(f"side must be one of {_SIDES}, got {self.side!r}")
        else:
            if complex(self.z).imag == 0.0:
                raise ValueError("real z is a boundary point; pass nu with a side tag")
            if self.side is not None:
                raise ValueError("side tag is only meaningful for boundary points")

    @classmethod
    def boundary(cls, nu: float, side: str = "upper") -> "SpectralPoint":
        return cls(nu=float(nu), side=side)

    @classmethod
    def off_axis(cls, z: complex) -> "SpectralPoint":
        return cls(z=complex(z))

    @property
    def value(self) -> complex:
        """The complex spectral parameter (the boundary limit uses nu itself)."""
        return complex(self.nu) if self.nu is not None else complex(self.z)

    @property
    def is_upper(self) -> bool:
        if self.nu is not None:
            return self.side == "upper"
        return complex(self.z).imag > 0.0


def _step(d: np.ndarray) -> np.ndarray:
    # Heaviside with theta(0) = 0
    return (d > 0).astype(float)


def free_resolvent_kernel(point: SpectralPoint, x, xp):
    """Kernel of (A_- - z)^(-1) at (x, x').

    i*exp(i*z*(x-x'))*theta(x-x') in the upper half-plane and
    -i*exp(i*z*(x-x'))*theta(x'-x) in the lower; the diagonal is 0 by
    the theta(0) convention.
    """
    z = point.value
    d = np.asarray(x, dtype=float) - np.asarray(xp, dtype=float)
    if point.is_upper:
        val = 1j * np.exp(1j * z * d) * _step(d)
    else:
        val = -1j * np.exp(1j * z * d) * _step(-d)
    return val if np.ndim(val) else complex(val)


def _sandwich(profile: PotentialProfile, x, xp):
    """The factor sgn(phi(x)) (|phi(x)| |phi(x')|)^(1/2) around every BS kernel."""
    px = profile.phi(x)
    pxp = profile.phi(xp)
    return np.sign(px) * np.sqrt(np.abs(px) * np.abs(pxp))


def bs_kernel(profile: PotentialProfile, point: SpectralPoint, x, xp):
    """Birman-Schwinger kernel sgn(phi)|phi|^(1/2) (A_- - z)^(-1) |phi|^(1/2).

    One-sided in (x - x'), so the discretized matrix is strictly
    triangular and its Carleman determinant is exactly 1; the spectral
    shift information only appears after mollification.
    """
    val = _sandwich(profile, x, xp) * free_resolvent_kernel(point, x, xp)
    return val if np.ndim(val) else complex(val)


def _mollified_coefficients(n: int, z: complex, s: float) -> tuple[complex, complex, complex]:
    """Coefficients of (n/2) * int exp(i z (x-x'')) theta e^(-n|x''-x'|) dx''.

    On side s (+1 upper, -1 lower) the convolution is c_near * exp(-n|d|)
    where s*d < 0 and c_osc * exp(i z d) - c_far * exp(-n|d|) elsewhere,
    d = x - x'; the branches meet continuously (in fact C1) at d = 0.
    """
    c_near = (0.5 * n) / (n - s * 1j * z)
    c_osc = (n * n) / (n * n + z * z)
    c_far = (0.5 * n) / (n + s * 1j * z)
    return c_near, c_osc, c_far


def bs_kernel_mollified(profile: PotentialProfile, n: int, point: SpectralPoint, x, xp):
    """Mollified Birman-Schwinger kernel at mollifier index n.

    The squared mollifier commutes with the free resolvent, so the
    operator equals sgn(phi)|phi|^(1/2) (A_- - z)^(-1) chi_n(A_-)^2
    |phi|^(1/2) and its kernel is the sandwiched closed-form
    convolution from :func:`_mollified_coefficients`.  Smooth across the
    diagonal (no theta factor survives), and converges pointwise to
    :func:`bs_kernel` at rate 1/n off the diagonal.

    Only Im z >= 0 or Im z <= 0 consistent with the point's side is
    meaningful; the boundary values nu +/- i0 are the ones used by the
    spectral shift pipeline.
    """
    n = _check_mollifier_index(n)
    z = point.value
    d = np.asarray(x, dtype=float) - np.asarray(xp, dtype=float)
    weight = _sandwich(profile, x, xp)
    s = 1.0 if point.is_upper else -1.0
    c_near, c_osc, c_far = _mollified_coefficients(n, z, s)
    decay = np.exp(-n * np.abs(d))
    factor = np.where(s * d < 0.0, c_near * decay, c_osc * np.exp(1j * z * d) - c_far * decay)
    val = s * 1j * weight * factor
    return val if np.ndim(val) else complex(val)


def eta_n_im(profile: PotentialProfile, n: int, nu) -> np.ndarray | float:
    """Imaginary part of the mollified trace term at nu + i0.

    Equals (1/2) * n^2/(nu^2 + n^2) * integral(phi); this is exactly
    Im tr of the mollified BS matrix, so adding it to the Carleman
    determinant phase reconstructs the phase of the ordinary
    determinant.
    """
    n = _check_mollifier_index(n)
    val = _eta(profile.total_integral, n, np.asarray(nu, dtype=float))
    return val if val.ndim else float(val)


def _eta(total_integral: float, n: int, nu: np.ndarray) -> np.ndarray:
    return 0.5 * n * n / (nu**2 + n * n) * total_integral


def scattering_matrix(profile: PotentialProfile) -> complex:
    """The (constant, unimodular) scattering matrix exp(-i*integral(phi)).

    The wave operators multiply by the phases exp(i*(Phi(+-inf) - Phi(x)));
    conjugating one by the other cancels the x-dependence, leaving a
    single unimodular constant; its argument encodes the same number as
    the spectral shift constant, which is the content of the
    Birman-Krein identity tested in the acceptance suite.
    """
    return cmath.exp(-1j * profile.total_integral)
