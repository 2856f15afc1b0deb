"""Acceptance gate: ten numbered criteria, one verdict line each.

Each test prints exactly one "[criterion NN]" line with PASS or FAIL,
the measured quantity, and the pinned tolerance before asserting, so a
plain pytest run doubles as the acceptance report.  Criteria 02-06 and
08 measure through wittenlab.invariants, the module behind
``wittenlab verify``, against its tolerance constants; what they assert
beyond those is stricter and stays here.  The mollified sweep at
production resolution is computed once in a session fixture and shared
by the criteria that consume curves; the index pipeline criterion runs
the full stack end to end on its own.
"""

import math
import os
import time

import numpy as np
import pytest

from wittenlab import (
    SSFCurve,
    SSFKind,
    build_grid,
    builtin_profile,
    c0,
    det2,
    pushnitski,
    ssf_2d_curve,
    ssf_mollified,
    witten_index,
)
from wittenlab.invariants import (
    BIRMAN_KREIN_TOL,
    DECAY_RATIO_TOL,
    DET2_TOL,
    HS_SLACK,
    KREIN_TOL,
    MOLLIFIER_LIMIT_TOL,
    STIELTJES_TOL,
    SYNTHETIC_TOL,
    decay_ratio,
    det2_deviation,
    krein_residual,
    origin_errors,
    raw_hs_norm_max,
    scattering_phase_gap,
    stieltjes_residual,
    synthetic_deviation,
    tol_text,
)

GAUSS = builtin_profile("gaussian", 1.0, 1.0)
N_SCHEDULE = (2, 4, 8, 16, 32)
NODES = 400
NU_MAX = 12.0
NU_POINTS = 401
THREADS = min(4, os.cpu_count() or 1)


def verdict(number, name, ok, detail):
    print(f"[criterion {number:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


@pytest.fixture(scope="session")
def sweep_curves():
    nu = np.linspace(-NU_MAX, NU_MAX, NU_POINTS)
    return {
        n: ssf_mollified(GAUSS, n, nu, NODES, threads=THREADS) for n in N_SCHEDULE
    }


def test_criterion_01_closed_form_index():
    start = time.monotonic()
    report = witten_index(
        GAUSS, N_SCHEDULE, N=NODES, nu_max=NU_MAX, threads=THREADS
    )
    elapsed = time.monotonic() - start
    error = report.abs_error
    ok = error < 0.01 and elapsed < 30.0
    verdict(
        1, "closed-form index",
        ok, f"|W_r - c0| = {error:.3e}, tol 1e-2; runtime {elapsed:.1f}s, limit 30s",
    )
    assert error < 0.01
    assert elapsed < 30.0


def test_criterion_02_det2_triviality():
    errors = {nodes: det2_deviation(GAUSS, build_grid(GAUSS, nodes)) for nodes in (400, 800)}
    # the raw BS matrix is strictly triangular, so det2 is exactly 1 at any N
    exact = max(errors.values()) <= 1e-15
    ok = errors[400] < DET2_TOL and exact
    verdict(
        2, "det2 triviality",
        ok, f"max |det2 - 1| = {errors[400]:.3e} at N=400 (tol {tol_text(DET2_TOL)}), "
        f"{errors[800]:.3e} at N=800 (strictly triangular, exact)",
    )
    assert errors[400] < DET2_TOL
    assert exact


def test_criterion_03_hilbert_schmidt_bounds():
    grid = build_grid(GAUSS, NODES)  # one grid for both bounds
    raw_worst = raw_hs_norm_max(GAUSS, grid)
    raw_bound = GAUSS.l1_norm * HS_SLACK
    moll_ratio = decay_ratio(GAUSS, grid)
    ok = raw_worst <= raw_bound and moll_ratio <= DECAY_RATIO_TOL
    verdict(
        3, "Hilbert-Schmidt bounds",
        ok, f"raw {raw_worst:.4f} vs {raw_bound:.4f}; "
        f"worst mollified squared-norm/bound ratio {moll_ratio:.4f} vs {DECAY_RATIO_TOL:g}",
    )
    assert raw_worst <= raw_bound
    assert moll_ratio <= DECAY_RATIO_TOL


def test_criterion_04_mollifier_convergence(sweep_curves):
    target = c0(GAUSS)
    errors = origin_errors(GAUSS, [sweep_curves[n] for n in N_SCHEDULE])
    monotone = all(b < a for a, b in zip(errors, errors[1:]))
    final_ok = errors[-1] < MOLLIFIER_LIMIT_TOL
    # remaining error once the explicit eta-term discrepancy is removed
    curve32 = sweep_curves[32]
    phase_err = max(
        abs(
            float(curve32.value_at(nu))
            - target
            + target * nu * nu / (nu * nu + 32.0**2)
        )
        for nu in (0.0, 1.0, -1.0, 3.0, -3.0)
    )
    ok = monotone and final_ok and phase_err < 5e-3
    seq = ", ".join(f"{e:.2e}" for e in errors)
    verdict(
        4, "mollifier convergence",
        ok, f"origin errors [{seq}] monotone={monotone}, "
        f"final tol {tol_text(MOLLIFIER_LIMIT_TOL)}; "
        f"n=32 phase-term error {phase_err:.2e}, tol 5e-3",
    )
    assert monotone
    assert final_ok
    assert phase_err < 5e-3


def test_criterion_05_krein_cross_check():
    base = krein_residual(GAUSS, 400, M=1024)
    fine = krein_residual(GAUSS, 800, M=2048)
    ok = base < KREIN_TOL and fine <= 0.5 * base + 1e-15
    verdict(
        5, "Krein trace cross-check",
        ok, f"residual {base:.3e} (tol {tol_text(KREIN_TOL)}), doubled-resolution "
        f"residual {fine:.3e} (needs at least halving)",
    )
    assert base < KREIN_TOL
    assert fine <= 0.5 * base + 1e-15


def test_criterion_06_stieltjes_pair():
    rel = stieltjes_residual(GAUSS, 400)
    syn_err = synthetic_deviation(GAUSS)
    ok = rel < STIELTJES_TOL and syn_err < SYNTHETIC_TOL
    verdict(
        6, "Stieltjes pair",
        ok, f"relative residual {rel:.3e} (tol {tol_text(STIELTJES_TOL)}); synthetic-constant "
        f"deviation {syn_err:.3e} (tol {tol_text(SYNTHETIC_TOL)})",
    )
    assert rel < STIELTJES_TOL
    assert syn_err < SYNTHETIC_TOL


def test_criterion_07_pushnitski_exactness():
    # each constant as given, and sampled on a grid, which runs the closed-form cell weights
    grid = np.linspace(-12.0, 12.0, 401)
    worst = max(
        abs(pushnitski(source, lam) - c)
        for c in (0.73, c0(GAUSS))
        for source in (c, SSFCurve(grid, np.full(len(grid), c), SSFKind.ONE_DIM_MOLLIFIED))
        for lam in (0.1, 1.0, 100.0)
    )
    ok = worst < 1e-14
    verdict(7, "arcsine-transform exactness", ok, f"worst |out - c| = {worst:.2e}, tol 1e-14")
    assert worst < 1e-14


def test_criterion_08_birman_krein_phase():
    # two spellings of exp(-i * integral(phi)): a convention check, not numerical evidence
    profiles = [
        builtin_profile("gaussian", 1.0, 1.0),
        builtin_profile("gaussian", -2.0, 1.0),
        builtin_profile("sech2", -2.0, 1.5),
        builtin_profile("bump", 0.7, 2.0, support=2.0),
    ]
    worst = max(scattering_phase_gap(p) for p in profiles)
    ok = worst < BIRMAN_KREIN_TOL
    verdict(
        8, "Birman-Krein phase",
        ok, f"worst |S - e^(-2 pi i c0)| = {worst:.2e}, tol {tol_text(BIRMAN_KREIN_TOL)}",
    )
    assert worst < BIRMAN_KREIN_TOL


def test_criterion_09_two_dim_constancy(sweep_curves):
    curve = ssf_2d_curve(sweep_curves[16], np.geomspace(0.1, 100.0, 61))
    spread = float(np.max(curve.values) - np.min(curve.values))
    ok = spread < 0.02
    verdict(
        9, "2-D constancy",
        ok, f"variation over lam in [0.1, 100] = {spread:.3e}, tol 2e-2",
    )
    assert spread < 0.02


def test_criterion_10_det2_algebra():
    rng = np.random.default_rng(20260816)
    eye = np.eye(6)
    worst_mult = worst_eig = 0.0
    for _ in range(100):
        A = (rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))) * (
            0.5 / math.sqrt(6.0)
        )
        B = (rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))) * (
            0.5 / math.sqrt(6.0)
        )
        combined = (eye + A) @ (eye + B) - eye
        lhs = det2(combined)
        rhs = det2(A) * det2(B) * np.exp(-np.trace(A @ B))
        worst_mult = max(worst_mult, abs(lhs - rhs))
        for T in (A, B):
            eigs = np.linalg.eigvals(T)
            product = np.prod((1.0 + eigs) * np.exp(-eigs))
            worst_eig = max(worst_eig, abs(det2(T) - product))
    ok = worst_mult < 1e-9 and worst_eig < 1e-9
    verdict(
        10, "det2 algebra",
        ok, f"multiplicativity worst {worst_mult:.2e}, eigenvalue-product "
        f"worst {worst_eig:.2e}, tol 1e-9 on 100 random pairs",
    )
    assert worst_mult < 1e-9
    assert worst_eig < 1e-9
