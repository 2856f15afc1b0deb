"""Perturbation profiles with exact integral metadata.

The builtin profiles carry the integrals of the perturbation phi that
everything downstream needs (total integral, L1 norm, tail radius) in
closed form instead of cached quadrature, so the reference constant
integral(phi)/(2*pi) is free of quadrature error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

import numpy as np

__all__ = [
    "PotentialProfile",
    "builtin_profile",
    "chi",
    "c0",
    "profile_from_descriptor",
]

_KINDS = ("gaussian", "sech2", "bump")

_TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)


def _erfcinv(y: float) -> float:
    """The x with erfc(x) = y, for 0 < y <= 1, by Newton's method on math.erfc.

    It starts from the tangent at 0 for y > 0.5, and otherwise from
    erfc(x) ~ exp(-x^2)/(x sqrt(pi)).  erfc is convex on x >= 0, so the
    iterates then close in on the root from one side, in at most five
    steps.  They stop at a step of 1e-15 relative to max(x, 1): near
    x = 0.1 the rounding of erfc(x) moves x by about 1e-16.
    """
    if y > 0.5:
        x = (1.0 - y) / _TWO_OVER_SQRT_PI
    else:
        t = -math.log(y)
        x = math.sqrt(t - 0.5 * math.log(math.pi * t))
    for _ in range(50):
        step = (math.erfc(x) - y) / (_TWO_OVER_SQRT_PI * math.exp(-x * x))
        x += step
        if abs(step) <= 1e-15 * max(x, 1.0):
            break
    return x


@dataclass(frozen=True)
class PotentialProfile:
    """A real perturbation phi in L1 with exact closed-form metadata.

    Fields
    ------
    phi: callable, vectorized, phi(x) -> array or float.
    total_integral: integral of phi over the whole line.
    l1_norm: integral of |phi|.
    tail_radius: callable eps -> R with integral of |phi| outside
        [-R, R] below eps; monotone nonincreasing in eps.
    """

    kind: str
    amplitude: float
    width: float
    support: Optional[float]
    phi: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    total_integral: float = 0.0
    l1_norm: float = 0.0
    tail_radius: Callable[[float], float] = field(repr=False, default=lambda eps: 0.0)

    def descriptor(self) -> dict:
        """JSON-ready descriptor, the inverse of profile_from_descriptor."""
        out = {"kind": self.kind, "amplitude": self.amplitude, "width": self.width}
        if self.support is not None:
            out["support"] = self.support
        return out


def builtin_profile(
    kind: str,
    amplitude: float,
    width: float = 1.0,
    support: Optional[float] = None,
) -> PotentialProfile:
    """Construct one of the builtin perturbations.

    Parameters
    ----------
    kind: "gaussian", "sech2", or "bump".
        gaussian: amplitude * exp(-(x/width)^2)
        sech2:    amplitude * sech(x/width)^2
        bump:     amplitude * cos(pi*x/(2*s))^2 on [-s, s], zero outside,
                  with s = support if given else width.
    amplitude: overall factor, may be negative or zero.
    width: length scale, must be positive.
    support: only meaningful for "bump"; half-width of the support.
    """
    if kind not in _KINDS:
        raise ValueError(f"unknown profile kind {kind!r}; expected one of {_KINDS}")
    if not math.isfinite(amplitude):
        raise ValueError("amplitude must be finite")
    if not (width > 0.0):
        raise ValueError("width must be positive")
    if support is not None and not (support > 0.0):
        raise ValueError("support must be positive")

    a = float(width)
    amp = float(amplitude)

    if kind == "gaussian":
        mass = abs(amp) * a * math.sqrt(math.pi)

        def phi(x):
            x = np.asarray(x, dtype=float)
            return amp * np.exp(-((x / a) ** 2))

        def tail_radius(eps: float) -> float:
            if mass == 0.0 or eps >= mass:
                return 0.0
            # tail(R) = mass * erfc(R/a); invert exactly
            return a * _erfcinv(eps / mass)

        return PotentialProfile(
            kind=kind,
            amplitude=amp,
            width=a,
            support=None,
            phi=phi,
            total_integral=amp * a * math.sqrt(math.pi),
            l1_norm=mass,
            tail_radius=tail_radius,
        )

    if kind == "sech2":
        mass = 2.0 * abs(amp) * a

        def phi(x):
            x = np.asarray(x, dtype=float)
            return amp / np.cosh(x / a) ** 2

        def tail_radius(eps: float) -> float:
            if mass == 0.0 or eps >= mass:
                return 0.0
            # tail(R) = mass * (1 - tanh(R/a)) = 2 mass / (exp(2R/a) + 1);
            # arctanh(1 - eps/mass) would lose eps/mass to cancellation
            return a * 0.5 * math.log(2.0 * mass / eps - 1.0)

        return PotentialProfile(
            kind=kind,
            amplitude=amp,
            width=a,
            support=None,
            phi=phi,
            total_integral=2.0 * amp * a,
            l1_norm=mass,
            tail_radius=tail_radius,
        )

    # raised-cosine bump: compactly supported
    s = float(support) if support is not None else a

    def phi(x):
        x = np.asarray(x, dtype=float)
        inside = np.abs(x) <= s
        out = np.zeros_like(x)
        xs = x[inside]
        out[inside] = amp * np.cos(np.pi * xs / (2.0 * s)) ** 2
        return out if out.ndim else float(out)

    def tail_radius(eps: float) -> float:
        # compact support: the full mass sits inside [-s, s]
        return s if abs(amp) > 0.0 else 0.0

    return PotentialProfile(
        kind=kind,
        amplitude=amp,
        width=a,
        support=s,
        phi=phi,
        total_integral=amp * s,
        l1_norm=abs(amp) * s,
        tail_radius=tail_radius,
    )


def profile_from_descriptor(descriptor: Mapping) -> PotentialProfile:
    """Build a profile from a JSON-style mapping.

    Expected keys: "kind", "amplitude", "width", optional "support".
    """
    try:
        kind = descriptor["kind"]
        amplitude = float(descriptor["amplitude"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad profile descriptor: {exc}") from exc
    width = float(descriptor.get("width", 1.0))
    support = descriptor.get("support")
    if support is not None:
        support = float(support)
    return builtin_profile(kind, amplitude, width=width, support=support)


def chi(n: int, nu) -> np.ndarray | float:
    """Mollifier value n/sqrt(nu^2 + n^2); lies in (0, 1].

    The mollifier is applied symmetrically around the perturbation to
    restore the relative trace-class condition; n -> infinity recovers
    the raw model pointwise.
    """
    n = _check_mollifier_index(n)
    nu = np.asarray(nu, dtype=float)
    val = n / np.sqrt(nu**2 + n**2)
    return val if val.ndim else float(val)


def c0(profile: PotentialProfile) -> float:
    """The closed-form reference constant integral(phi)/(2*pi).

    This single number is simultaneously the limiting one-dimensional
    spectral shift value, the constant two-dimensional spectral shift
    value, and the Witten index of the model.
    """
    return profile.total_integral / (2.0 * math.pi)


def _check_mollifier_index(n) -> int:
    if not float(n).is_integer() or int(n) < 1:
        raise ValueError(f"mollifier index must be a positive integer, got {n}")
    return int(n)
