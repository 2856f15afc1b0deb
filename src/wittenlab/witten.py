"""Resolvent-regularized index of the model operator.

The regularized index is the lam -> 0- limit of

    Delta_r(lam) = (-lam) * integral over (0, inf) of xi_2d(mu) (mu - lam)^(-2) dmu,

which exists even though the operator is not Fredholm, and lands on
integral(phi)/(2*pi): generically not an integer.  The pipeline walks
the whole chain of this package: mollified 1-D curves from determinant
phases, extrapolation of the mollifier away, the arcsine transform to
2-D, the Delta_r quadrature, and a final linear-in-lam extrapolation.

The mollifier extrapolation assumes second-order convergence, which is
the exact order of the closed-form eta discrepancy; the observed
residual ratios are recorded, and a mismatch flags the report as
low-confidence instead of failing.  Every stage after the determinant
sweep is linear in the curve values, so extrapolating the per-n index
numbers is identical to extrapolating the curves first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from .profiles import PotentialProfile, _check_mollifier_index, c0
from .ssf import (
    _LAMBDA_CELLS,
    SSFCurve,
    SSFKind,
    _check_threads,
    _extended_evaluator,
    _lambda_grid,
    _nu_grid,
    pushnitski,
    ssf_mollified,
)

__all__ = ["WittenReport", "delta_r", "witten_index"]


@dataclass(frozen=True)
class WittenReport:
    """Outcome of the full index pipeline for one profile."""

    lambda_samples: np.ndarray
    delta_r_values: np.ndarray
    n_schedule: tuple
    extrapolated_index: float
    reference_c0: float
    abs_error: float
    observed_order_n: tuple = ()
    observed_order_lambda: tuple = ()
    low_confidence: bool = False
    provenance: Mapping = field(default_factory=dict)

    def __post_init__(self):
        lam = np.asarray(self.lambda_samples, dtype=float)
        if lam.ndim != 1 or len(lam) == 0:
            raise ValueError("lambda_samples must be a nonempty vector")
        if np.any(lam >= 0.0) or (len(lam) > 1 and not np.all(np.diff(lam) > 0.0)):
            raise ValueError("lambda_samples must be negative, strictly increasing toward 0")
        expected = abs(self.extrapolated_index - self.reference_c0)
        if not math.isclose(self.abs_error, expected, rel_tol=0.0, abs_tol=1e-15):
            raise ValueError("abs_error is inconsistent with index and reference")
        object.__setattr__(self, "lambda_samples", lam)
        object.__setattr__(self, "delta_r_values", np.asarray(self.delta_r_values, dtype=float))

    def to_json_dict(self) -> dict:
        return {
            "lambda_samples": [float(v) for v in self.lambda_samples],
            "delta_r_values": [float(v) for v in self.delta_r_values],
            "n_schedule": [int(n) for n in self.n_schedule],
            "extrapolated_index": float(self.extrapolated_index),
            "reference_c0": float(self.reference_c0),
            "abs_error": float(self.abs_error),
            "observed_order_n": [float(v) for v in self.observed_order_n],
            "observed_order_lambda": [float(v) for v in self.observed_order_lambda],
            "low_confidence": bool(self.low_confidence),
            "provenance": dict(self.provenance),
        }


def delta_r(xi_2d: SSFCurve, lam: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
    """(-lam) times the (mu - lam)^(-2)-weighted integral of a 2-D curve.

    The sampled curve is integrated exactly as the piecewise-linear
    interpolant (elementary antiderivatives per cell); below the first
    sample and above the last the curve is continued as a constant,
    both segments integrating in closed form.  A constant curve
    therefore returns exactly its value for every lam < 0.  A scalar
    lam returns a float; a vector of lam is evaluated as one (lam, cell)
    array, each entry equal to the scalar call.
    """
    lams = np.asarray(lam, dtype=float)
    bad = lams[~(lams < 0.0)]
    if bad.size:
        raise ValueError(f"lam must be negative, got {bad[0]:g}")
    if xi_2d.kind is not SSFKind.TWO_DIM:
        raise ValueError("delta_r expects a 2-D curve")
    g = xi_2d.grid
    v = xi_2d.values
    if len(g) < 2:
        raise ValueError("curve must have at least 2 samples")
    col = lams[..., None]
    u = g - col
    bottom = v[0] * (1.0 / (-lams) - 1.0 / u[..., 0])
    slope = np.diff(v) / np.diff(g)
    intercept = v[:-1] - slope * g[:-1]
    cells = (intercept + slope * col) * (1.0 / u[..., :-1] - 1.0 / u[..., 1:]) + slope * np.log(
        u[..., 1:] / u[..., :-1]
    )
    out = (-lams) * (bottom + np.sum(cells, axis=-1) + v[-1] / u[..., -1])
    return out if out.ndim else float(out)


def _order_estimates(errors: Sequence[float], ratios: Sequence[float], floor: float) -> list:
    """log-ratio convergence orders from successive differences.

    Differences at or below the floor are treated as converged and
    produce no estimate rather than a noise-driven order.
    """
    orders = []
    for k in range(len(errors) - 1):
        if errors[k] <= floor or errors[k + 1] <= floor:
            continue
        orders.append(math.log(errors[k] / errors[k + 1]) / math.log(ratios[k]))
    return orders


def witten_index(
    profile: PotentialProfile,
    n_schedule: Sequence[int] = (2, 4, 8, 16, 32),
    lambda_schedule: Optional[Sequence[float]] = None,
    *,
    N: int = 400,
    nu_max: float = 12.0,
    nu_points: Optional[int] = None,
    threads: Optional[int] = None,
) -> WittenReport:
    """Full index pipeline against the closed-form reference.

    One mollified curve per schedule entry, all from one ssf_mollified
    sweep over the schedule and transformed to 2-D by one pushnitski
    call, each integrated to Delta_r on the lam schedule; the mollifier
    is then extrapolated away at second order and lam is extrapolated
    to 0 linearly.  The reported
    delta_r_values belong to the mollifier-extrapolated curve (by
    linearity of every stage, these are the extrapolated combinations of
    the per-n values).
    """
    _check_threads(threads)
    schedule = tuple(_check_mollifier_index(n) for n in n_schedule)
    if not schedule:
        raise ValueError("n_schedule must be nonempty")
    if len(schedule) > 1 and not all(b > a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("n_schedule must be strictly increasing")
    if lambda_schedule is None:
        lambda_schedule = [-(2.0**-k) for k in range(9)]
    lam_sched = np.sort(np.asarray(lambda_schedule, dtype=float))
    # checked before the sweep, which a NaN or a repeated entry would otherwise run in full
    if len(lam_sched) == 0 or not np.all(lam_sched < 0.0):
        raise ValueError("lambda_schedule must be nonempty and negative")
    if not (np.all(np.isfinite(lam_sched)) and np.all(np.diff(lam_sched) > 0.0)):
        raise ValueError("lambda_schedule must be finite, with distinct entries")
    reference = c0(profile)
    provenance = {
        "profile": profile.descriptor(),
        "N": N,
        "nu_max": nu_max,
        "lambda_cells": _LAMBDA_CELLS,
    }

    if profile.l1_norm == 0.0:
        zeros = np.zeros_like(lam_sched)
        return WittenReport(
            lambda_samples=lam_sched,
            delta_r_values=zeros,
            n_schedule=schedule,
            extrapolated_index=0.0,
            reference_c0=reference,
            abs_error=abs(0.0 - reference),
            provenance=provenance,
        )

    nu_grid = _nu_grid(nu_max, nu_points, N)
    provenance["nu_points"] = len(nu_grid)

    floor = min(1e-6, 1e-3 * float(np.min(np.abs(lam_sched))))
    lam_grid = _lambda_grid(nu_max, _LAMBDA_CELLS, floor)

    curves = ssf_mollified(profile, schedule, nu_grid, N, threads=threads)
    # one transform for the schedule: every curve shares the nu grid
    xi2d = pushnitski(tuple(_extended_evaluator(curve) for curve in curves), lam_grid)
    delta_per_n = []
    for n, values in zip(schedule, xi2d):
        two_dim = SSFCurve(
            grid=lam_grid, values=values, kind=SSFKind.TWO_DIM, provenance={"n": n}
        )
        delta_per_n.append(delta_r(two_dim, lam_sched))
    delta_per_n = np.array(delta_per_n)

    def lam_limit(deltas: np.ndarray) -> float:
        if len(deltas) == 1:
            return float(deltas[-1])
        lam1, lam0 = lam_sched[-2], lam_sched[-1]
        slope = (deltas[-1] - deltas[-2]) / (lam0 - lam1)
        return float(deltas[-1] - slope * lam0)

    index_per_n = np.array([lam_limit(d) for d in delta_per_n])
    low_confidence = False
    if len(schedule) >= 2:
        r = schedule[-1] / schedule[-2]
        extrapolated = delta_per_n[-1] + (delta_per_n[-1] - delta_per_n[-2]) / (r * r - 1.0)
        index = index_per_n[-1] + (index_per_n[-1] - index_per_n[-2]) / (r * r - 1.0)
    else:
        extrapolated = delta_per_n[0]
        index = float(index_per_n[0])
        low_confidence = True

    steps = np.abs(np.diff(index_per_n))
    ratios = [schedule[k + 1] / schedule[k] for k in range(len(schedule) - 2)]
    orders_n = _order_estimates(list(steps), ratios, floor=1e-12)
    if len(schedule) < 3:
        low_confidence = True
    elif orders_n and any(abs(o - 2.0) > 1.0 for o in orders_n[-2:]):
        low_confidence = True

    final_deltas = np.asarray(extrapolated, dtype=float)
    lam_steps = np.abs(np.diff(final_deltas))
    lam_ratios = [
        (lam_sched[k] - lam_sched[k + 1]) / (lam_sched[k + 1] - lam_sched[k + 2])
        for k in range(len(lam_sched) - 2)
    ]
    orders_lambda = _order_estimates(list(lam_steps), lam_ratios, floor=1e-10)

    return WittenReport(
        lambda_samples=lam_sched,
        delta_r_values=final_deltas,
        n_schedule=schedule,
        extrapolated_index=float(index),
        reference_c0=reference,
        abs_error=abs(float(index) - reference),
        observed_order_n=tuple(orders_n),
        observed_order_lambda=tuple(orders_lambda),
        low_confidence=low_confidence,
        provenance=provenance,
    )
