"""Determinant primitives against an independent cofactor oracle.

det_complex is the package's only gateway to LU factorization, so it
is validated against a from-scratch Laplace expansion on small random
matrices before anything downstream leans on it.  The phase tracker is
exercised on synthetic det2 families whose continuous phase is known
in closed form, including one whose phase climbs past pi and returns,
which a naive principal-branch reading would fold back.  The structured det2
of the sweep is held to the dense LU det2 over the mollifier indices,
profile kinds, signs, widths and resolutions on the upper side nu + i0,
and its complex conjugate to the dense det2 of the closed-form kernel at
nu - i0, the lower side, which the sweep never builds.  Its error bound
must cover the dense LU det2's difference, and the balanced scan behind
the bound's adjoint rows must equal a plain backward loop.
"""

import cmath
import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from wittenlab import (
    NearSingularError,
    RefinementNeededError,
    SpectralPoint,
    assemble,
    bs_kernel_mollified,
    bs_matrix,
    build_grid,
    builtin_profile,
    det2,
    det2_semiseparable,
    det_complex,
    hs_norm,
    phase_curve,
)

from wittenlab import determinants, discretize
from wittenlab.discretize import MollifiedBSFamily, det2_sweep

GAUSS = builtin_profile("gaussian", 1.0, 1.0)


def laplace_det(m: np.ndarray) -> complex:
    if m.shape == (1, 1):
        return complex(m[0, 0])
    total = 0.0 + 0.0j
    for j in range(m.shape[1]):
        minor = np.delete(np.delete(m, 0, axis=0), j, axis=1)
        total += (-1) ** j * m[0, j] * laplace_det(minor)
    return total


def test_det_complex_against_cofactor_expansion():
    rng = np.random.default_rng(11)
    for _ in range(12):
        m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        assert_allclose(det_complex(m), laplace_det(m), rtol=1e-10)


def test_det_complex_basic_values():
    assert det_complex(np.diag([2.0 + 0j, 3j])) == pytest.approx(6j)
    assert det_complex(np.zeros((0, 0), dtype=complex)) == 1.0
    singular = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex)
    assert det_complex(singular) == 0.0
    with pytest.raises(ValueError):
        det_complex(np.ones((2, 3), dtype=complex))


def test_det_complex_extreme_scale():
    # log-magnitude accumulation must survive entries far outside
    # double-precision determinant range
    m = np.diag(np.full(600, 10.0 + 0j))
    val = det_complex(m)
    assert val == pytest.approx(float("inf")) or math.isinf(abs(val))
    tiny = np.diag(np.full(600, 0.1 + 0j))
    assert det_complex(tiny) == pytest.approx(0.0, abs=1e-300)
    # beyond double range a value saturates to inf in each nonzero part of
    # its phase, not to phase * inf = inf+nanj
    big = np.diag(np.full(400, 1e3 + 0j))
    assert det_complex(big) == complex(math.inf, 0.0)
    turned = big.copy()
    turned[0, 0] *= -1j
    assert det_complex(turned) == complex(0.0, -math.inf)
    # det2 takes the trace factor in polar form: det(I + T) = e^2763 times
    # e^-399600 underflows to 0, a zero trace leaves e^2761 saturated, and
    # e^720 lifts det(I + T) = 2^-480 to e^387
    assert det2(big - np.eye(400)) == 0.0
    balanced = np.diag(np.tile([999.0 + 0j, -999.0], 200))
    value = det2(balanced)
    assert cmath.isinf(value) and not cmath.isnan(value)
    assert value == complex(math.inf, 0.0)
    lifted = det2(np.diag(np.full(480, -1.5 + 0j)))
    assert_allclose(lifted, math.exp(480 * (math.log(0.5) + 1.5)), rtol=1e-12)


def test_det2_scalar_and_consistency():
    t = 0.37 - 0.4j
    one_by_one = np.array([[t]])
    assert_allclose(det2(one_by_one), (1.0 + t) * cmath.exp(-t), rtol=1e-14)
    rng = np.random.default_rng(3)
    T = 0.2 * (rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    direct = det_complex(np.eye(6) + T) * cmath.exp(-complex(np.trace(T)))
    assert_allclose(det2(T), direct, rtol=1e-13)


def test_det2_multiplicativity_spot():
    rng = np.random.default_rng(5)
    A = 0.2 * (rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    B = 0.2 * (rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    combined = (np.eye(6) + A) @ (np.eye(6) + B) - np.eye(6)
    lhs = det2(combined)
    rhs = det2(A) * det2(B) * cmath.exp(-complex(np.trace(A @ B)))
    assert_allclose(lhs, rhs, rtol=1e-12)


def test_det2_eigenvalue_product():
    rng = np.random.default_rng(9)
    T = 0.3 * (rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
    eigs = np.linalg.eigvals(T)
    product = np.prod((1.0 + eigs) * np.exp(-eigs))
    assert_allclose(det2(T), product, atol=1e-9)


def test_det2_copies_its_input_once(traced_peak):
    T = MollifiedBSFamily(GAUSS, build_grid(GAUSS, 400)).matrix(16, 0.3).entries
    before = T.tobytes()
    peak, _ = traced_peak(lambda: det2(T))
    assert peak <= 1.25 * T.nbytes
    assert T.tobytes() == before
    # I + T as np.eye(N) + T forms it, signed zeros included: the raw BS
    # matrix is strictly triangular, and its det2 is exactly 1
    raw = bs_matrix(GAUSS, SpectralPoint.boundary(0.3), build_grid(GAUSS, 64)).entries
    for matrix in (T, raw, np.asfortranarray(T[:50, :50])):
        shifted = np.eye(len(matrix)) + matrix
        expected = det_complex(shifted) * cmath.exp(-complex(np.trace(matrix)))
        assert np.array([det2(matrix)]).tobytes() == np.array([expected]).tobytes()
    assert det2(raw) == 1.0


def test_hs_norm_values():
    m = np.array([[3.0, 0.0], [0.0, 4.0]], dtype=complex)
    assert hs_norm(m) == pytest.approx(5.0)
    assert hs_norm(np.zeros((3, 3), dtype=complex)) == 0.0


def test_phase_curve_near_one_family():
    nu = np.linspace(-5.0, 5.0, 101)
    values = 1.0 + 0.05 * np.exp(-(nu**2)) * np.exp(1j * nu)
    curve = phase_curve(nu, det2_values=values)
    assert_allclose(curve.raw_det2, values, rtol=0.0)
    assert np.max(np.abs(curve.unwrapped_phase)) < 0.06
    # the unwrapped phase agrees with the principal branch when nothing winds
    assert_allclose(curve.unwrapped_phase, np.angle(values), atol=1e-12)


def test_phase_curve_tracks_full_winding():
    """A family whose phase climbs from 0 to 4 rad and back crosses the branch cut.

    It starts and ends at det2 = 1, so every decay contract holds; the
    principal branch folds at pi, and continuous tracking must not.
    """
    nu = np.linspace(-4.0, 4.0, 161)
    phase = 4.0 * np.exp(-(nu**2))
    values = np.exp(1j * phase)
    curve = phase_curve(nu, det2_values=values)
    assert_allclose(curve.unwrapped_phase, phase, atol=1e-10)
    assert np.max(curve.unwrapped_phase) > np.pi


def test_phase_curve_near_singular():
    nu = np.linspace(-1.0, 1.0, 21)
    values = np.ones(21, dtype=complex)
    values[7] = 1e-13
    with pytest.raises(NearSingularError) as err:
        phase_curve(nu, det2_values=values)
    assert err.value.nu == pytest.approx(nu[7])
    assert err.value.magnitude == pytest.approx(1e-13)


def test_phase_curve_jump_names_interval():
    nu = np.linspace(0.0, 1.0, 11)
    values = np.ones(11, dtype=complex)
    values[6:8] = np.exp(1j * 2.0)  # steps of 2 rad > pi/2, out and back to 1
    with pytest.raises(RefinementNeededError) as err:
        phase_curve(nu, det2_values=values)
    lo, hi = err.value.interval
    assert lo == pytest.approx(nu[5])
    assert hi == pytest.approx(nu[6])


def test_phase_curve_decay_contracts():
    nu = np.linspace(-2.0, 2.0, 41)
    drifting = np.exp(1j * 0.6 * nu)  # |value| = 1 but phase never settles
    with pytest.raises(RefinementNeededError):
        phase_curve(nu, det2_values=drifting)
    far_from_one = np.full(41, 0.5 + 0j)
    with pytest.raises(RefinementNeededError):
        phase_curve(nu, det2_values=far_from_one)


def test_phase_curve_refuses_a_winding_left_at_the_far_end():
    # det2 = e^(i theta) with theta from 0 to 2 pi: both ends sit at 1 and
    # every step is small, but the unwrapped phase ends a full turn up
    nu = np.linspace(-1.0, 1.0, 401)
    values = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 401))
    with pytest.raises(RefinementNeededError, match="far-end phase 6.283") as err:
        phase_curve(nu, det2_values=values)
    assert err.value.interval == (-1.0, 1.0)


@pytest.mark.parametrize("bad", (np.nan, np.inf))
def test_phase_curve_refuses_a_non_finite_value(bad):
    # a NaN compares false in every contract check, and an inf has no phase
    nu = np.linspace(-3.0, 3.0, 61)
    values = np.exp(0.3j * np.exp(-(nu**2)))
    values[30] = bad
    with pytest.raises(RefinementNeededError, match="not finite") as err:
        phase_curve(nu, det2_values=values)
    assert err.value.interval == (float(nu[30]), float(nu[30]))
    # beyond double range no finer grid helps, and the tracer reads these
    # prefixes as phase-contract refusals
    message = str(err.value)
    assert "refine" not in message
    assert not message.startswith(("phase jump", "anchor phase", "|det2 - 1|", "far-end phase"))


def test_phase_curve_grid_validation():
    with pytest.raises(ValueError):
        phase_curve(np.array([0.0]), det2_values=np.array([1.0 + 0j]))
    with pytest.raises(ValueError):
        phase_curve(np.array([1.0, 0.0]), det2_values=np.ones(2, dtype=complex))
    with pytest.raises(ValueError):
        phase_curve(np.array([0.0, 1.0]), det2_values=np.ones(3, dtype=complex))


def _dense_semiseparable(weights, gaps, rate, wave, coefficients):
    """diag(weights) F of det2_semiseparable's docstring, built entry by entry."""
    c_near, c_osc, c_far = coefficients
    x = np.concatenate(([0.0], np.cumsum(gaps)))
    d = np.subtract.outer(x, x)
    near = c_near * np.exp(rate * d)
    below = c_osc * np.exp(1j * wave * d) - c_far * np.exp(-rate * d)
    F = np.where(d < 0.0, near, np.where(d > 0.0, below, c_near + 0j))
    return np.asarray(weights, dtype=complex)[:, None] * F


def test_det2_semiseparable_checks_its_shapes():
    coefficients = (1.0, 0.4, 0.2)
    with pytest.raises(ValueError, match="need N weights and N - 1 gaps"):
        det2_semiseparable(np.ones(5), np.ones(5), [1.0], [0.0], coefficients)
    with pytest.raises(ValueError, match="need N weights and N - 1 gaps"):
        det2_semiseparable(np.ones((2, 5)), np.ones(4), [1.0], [0.0], coefficients)
    with pytest.raises(ValueError, match="rates and waves must be 1-D"):
        det2_semiseparable(np.ones(5), np.ones(4), [[1.0]], [0.0], coefficients)
    with pytest.raises(ValueError, match="rates and waves must be 1-D"):
        det2_semiseparable(np.ones(5), np.ones(4), [1.0], 0.0, coefficients)


def test_det2_semiseparable_passes_a_zero_pivot():
    # with c_near = 1 the first pivot of I + T is exactly 0; the lifted
    # sweep divides by no pivot and carries the state through it
    N = 5
    weights = np.full(N, 0.3 + 0j)
    weights[0] = -1.0
    gaps = np.full(N - 1, 0.5)
    values, points, bound = det2_semiseparable(weights, gaps, [1.0], [0.0], (1.0, 0.4, 0.2))
    assert values.shape == (1, 1) and points.shape == bound.shape == (1,)
    dense = det2(_dense_semiseparable(weights, gaps, 1.0, 0.0, (1.0, 0.4, 0.2)))
    assert_allclose(dense, 0.16617922990364423, rtol=1e-12)
    assert_allclose(values[0, 0], 0.16617922990364423, rtol=1e-12)


@pytest.mark.parametrize("node", (31, 32))
def test_det2_semiseparable_zero_pivot_on_a_block_boundary(node):
    # zero weights leave the carried state at its start, so the pivot at
    # node is exactly 1 + weights[node] c_near = 0: the last node of the
    # first block of 32, or the first node of the second
    N = 48
    weights = np.zeros(N, dtype=complex)
    weights[node] = -1.0
    weights[node + 1:] = 0.3 - 0.1j
    gaps = np.full(N - 1, 0.5)
    values, _, _ = det2_semiseparable(weights, gaps, [1.0], [0.7], (1.0, 0.4, 0.2))
    dense = det2(_dense_semiseparable(weights, gaps, 1.0, 0.7, (1.0, 0.4, 0.2)))
    assert np.isfinite(values[0, 0]) and abs(dense) > 1e-3
    assert_allclose(values[0, 0], dense, rtol=1e-12)


# c_osc = c_far = 0 leaves I + T upper triangular with pivots 1 + c_near w_k,
# whatever the wave.  At c_near = 1 the first two blocks of 32 pivots
# (1 +- 1e12 i) overflow as products and the last two (1e-12 i) underflow:
# the state leaves double range within a block, before the rescale at its end.
# At c_near = 1e-8 each block's product of pivots 1 +- 1e4 i stays near 1e128,
# which the rescale brings back, and det2 is about 1e256.
RANGE_WEIGHTS = np.concatenate(
    (np.full(32, 1e12j), np.full(32, -1e12j), np.full(64, -1.0 + 1e-12j))
)
RANGE_ARGS = (RANGE_WEIGHTS, np.full(127, 0.1), [1e3] * 3, [0.0, 0.5],
              (np.array([[1.0], [1e-8], [1.0]]), 0.0, 0.0))
RANGE_DET2 = cmath.exp(
    sum(cmath.log(1.0 + 1e-8 * w) for w in RANGE_WEIGHTS) - 1e-8 * complex(np.sum(RANGE_WEIGHTS))
)


def test_det2_semiseparable_pivot_blocks_leave_double_range():
    # the matrices that leave double range come back not finite, and the one
    # beside them in the same sweep keeps its value
    values, _, _ = det2_semiseparable(*RANGE_ARGS)
    assert values.shape == (3, 2)
    assert not np.any(np.isfinite(values[[0, 2]]))
    assert_allclose(values[1], RANGE_DET2, rtol=1e-12)


MOLLIFIERS = (2, 4, 8, 16, 32, 64, 128, 256)
SHAPES = [
    (kind, sign, width)
    for kind in ("gaussian", "sech2", "bump")
    for sign in (1.0, -1.0)
    for width in (0.25, 1.0, 4.0)
]


def _dense_det2(profile, n, grid, nu, side):
    """Dense LU det2 at nu + i0 of the closed-form kernel's assembly on either side:
    at nu + i0 itself, or conjugated from nu - i0."""
    values = np.array([
        det2(assemble(lambda x, xp: bs_kernel_mollified(
            profile, n, SpectralPoint.boundary(v, side), x, xp), grid).entries)
        for v in nu
    ])
    return values if side == "upper" else values.conj()


@pytest.mark.parametrize("side", ("upper", "lower"))
@pytest.mark.parametrize("N", (64, 400, 800))
def test_structured_det2_matches_dense(N, side):
    # every (shape, n) pair at N = 64; the dense oracle costs O(N^3) per
    # point, so larger N visit every 7th and 17th pair, strides coprime
    # to the 8 mollifier indices so that each n still appears
    stride = {64: 1, 400: 7, 800: 17}[N]
    nu = np.array([-12.0, 0.5, 6.0])
    for (kind, sign, width), n in list(itertools.product(SHAPES, MOLLIFIERS))[::stride]:
        profile = builtin_profile(kind, sign, width)
        grid = build_grid(profile, N)
        structured = det2_sweep(MollifiedBSFamily(profile, grid), [n], nu)[0][0]
        dense = _dense_det2(profile, n, grid, nu, side)
        assert_allclose(structured, dense, rtol=1e-12, err_msg=f"{kind}({sign},{width}) n={n}")


@pytest.mark.parametrize("N", (64, 400))
def test_certificate_bounds_the_error_against_dense(N):
    # the pairs and points of test_structured_det2_matches_dense
    stride = {64: 1, 400: 7}[N]
    nu = np.array([-12.0, 0.5, 6.0])
    worst = 0.0
    for (kind, sign, width), n in list(itertools.product(SHAPES, MOLLIFIERS))[::stride]:
        profile = builtin_profile(kind, sign, width)
        family = MollifiedBSFamily(profile, build_grid(profile, N))
        # one nu per sweep, which is then its check point
        sweeps = [det2_sweep(family, [n], nu[k : k + 1]) for k in range(len(nu))]
        values = np.array([values[0, 0] for values, _, _ in sweeps])
        bound = np.array([bound[0] for _, _, bound in sweeps])
        assert np.array_equal(values, det2_sweep(family, [n], nu)[0][0])
        dense = _dense_det2(profile, n, family.grid, nu, "upper")
        error = np.abs(values - dense) / np.abs(dense)
        assert np.all(error <= bound), f"{kind}({sign},{width}) n={n}"
        worst = max(worst, float(np.max(bound)))
    # a bound, not a bare pass: tight enough to vouch at 1e-9
    assert worst < 1e-9


def _sequential_suffix_rows(steps):
    """The adjoint rows node by node: r_(N-1) = e_0^T, then r_k = r_(k+1) M_(k+1)."""
    N = steps.shape[2]
    rows = np.zeros((3, N, *steps.shape[3:]), dtype=complex)
    rows[0, N - 1] = 1.0
    for k in range(N - 2, -1, -1):
        for j in range(3):
            rows[j, k] = sum(rows[i, k + 1] * steps[i, j, k + 1] for i in range(3))
    return rows


@pytest.mark.parametrize(
    "amplitude, schedule, nu_max",
    # the witten defaults, and a sweep whose steps cancel strongly
    ((1.0, (2, 4, 8, 16, 32), 12.0), (24.0, (2,), 8.0)),
)
def test_adjoint_bound_is_the_sequential_backward_loop(monkeypatch, amplitude, schedule, nu_max):
    profile = builtin_profile("gaussian", amplitude, 1.0)
    family = MollifiedBSFamily(profile, build_grid(profile, 400))
    nu = np.linspace(-nu_max, nu_max, 401)
    values, points, bound = det2_sweep(family, schedule, nu)
    monkeypatch.setattr(determinants, "_suffix_rows", _sequential_suffix_rows)
    sequential = det2_sweep(family, schedule, nu)
    assert values.tobytes() == sequential[0].tobytes()
    assert np.array_equal(points, sequential[1])
    assert np.all(bound < 1e-11)
    assert_allclose(bound, sequential[2], rtol=1e-12, atol=0.0)


def test_one_rate_sweeps_of_one_block_are_vouched_for():
    # at N <= 32 a one-rate sweep's replay is one block of one lane, a
    # one-element array, on which numpy rounds a complex product unlike on a
    # longer one; padded to two lanes, the replay ends bit for bit on the sweep
    rng = np.random.default_rng(20)
    N = 20
    for _ in range(300):
        weights = 0.3 * (rng.normal(size=N) + 1j * rng.normal(size=N))
        gaps = rng.uniform(0.05, 0.5, N - 1)
        coefficients = tuple(rng.normal(size=3) + 1j * rng.normal(size=3))
        waves = rng.uniform(-12.0, 12.0, 7)
        _, _, bound = det2_semiseparable(weights, gaps, [rng.uniform(0.5, 8.0)], waves, coefficients)
        assert np.isfinite(bound[0])


def _kept_checkpoints(monkeypatch):
    """The block checkpoints of every sweep run from here on, in call order."""
    kept = []

    def keeping(*args):
        coef, checkpoints, exponents = lifted_sweep(*args)
        kept.append(checkpoints.copy())
        return coef, checkpoints, exponents

    lifted_sweep = determinants._lifted_sweep
    monkeypatch.setattr(determinants, "_lifted_sweep", keeping)
    return kept


def test_sweep_is_bitwise_the_same_in_shorter_transition_runs(monkeypatch):
    # 24 lanes take each block's transitions in one run of 32 nodes; runs of
    # 1 and of 21 (then 11) nodes compute the same entries one by one
    family = MollifiedBSFamily(GAUSS, build_grid(GAUSS, 100))
    nu = np.linspace(-12.0, 12.0, 8)
    checkpoints = _kept_checkpoints(monkeypatch)
    whole = det2_sweep(family, (2, 8, 32), nu)
    for run in (1, 21):
        monkeypatch.setattr(determinants, "_TRANSITION_ENTRIES", run * 24)
        split = det2_sweep(family, (2, 8, 32), nu)
        for part, expected in zip(split, whole):
            assert part.tobytes() == expected.tobytes()
        assert checkpoints[-1].tobytes() == checkpoints[0].tobytes()


def _swept_inputs(monkeypatch, family, schedule, nu):
    """det2_sweep's (values, points, bound), and the det2_semiseparable arguments it swept."""
    calls = []

    def recorded(*args):
        calls.append(args)
        return det2_semiseparable(*args)

    with monkeypatch.context() as patch:
        patch.setattr(discretize, "det2_semiseparable", recorded)
        certificate = det2_sweep(family, schedule, nu)
    return calls[0], certificate


def _sequential_certificate(args, rows, columns):
    """The sweep of det2_semiseparable(*args) at the lanes (rows[k], columns[k]) run again
    node by node from (1, 0, 0), rescaled after each block, with each node's products
    recorded, and its bound."""
    weights, gaps, rates, waves, coefficients = args
    block = determinants._BLOCK
    u = np.asarray(weights, dtype=complex)
    dx = np.asarray(gaps, dtype=float)
    rates = np.asarray(rates, dtype=float)
    waves = np.asarray(waves, dtype=float)
    shape = (len(rates), len(waves))
    coef = np.array([np.broadcast_to(c, shape)[rows, columns] for c in coefficients], dtype=complex)
    rates, waves = rates[rows], waves[columns]
    N, K = len(u), len(rates)
    fall = np.exp(-np.multiply.outer(dx, rates))
    theta = np.multiply.outer(dx, waves)
    wave = fall * (np.cos(theta) + 1j * np.sin(theta))
    decay = fall * fall
    state = np.zeros((3, K), dtype=complex)
    state[0] = 1.0
    exponent = np.zeros(K, dtype=int)
    record = np.empty((N, 3, K), dtype=complex)
    scale = np.empty((N, K), dtype=int)
    for k in range(N):
        record[k] = coef * state
        scale[k] = exponent
        v = (record[k, 0] - record[k, 1] + record[k, 2]) * u[k]
        state[0] += v
        if k < N - 1:
            state[1] = (state[1] + v) * wave[k]
            a_1 = state[2] + v
            state.real[2] = a_1.real * decay[k]
            state.imag[2] = a_1.imag * decay[k]
        if (k + 1) % block == 0 or k == N - 1:
            determinants._rescale(state, exponent)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        values = determinants._det2_from_state(u, coef, state, exponent)
        bound = determinants._running_error_bound(
            u, dx, rates, waves, coef, record, scale - exponent, state[0], exponent
        )
    return values, bound


def assert_certificate_is_the_sequential_record(args, certificate):
    """The value at each rate's check point, and its bound, as the sequential sweep gives them."""
    values, points, bound = certificate
    rows = np.arange(len(points))
    expected_values, expected_bound = _sequential_certificate(args, rows, points)
    assert np.all(np.isfinite(bound))
    assert values[rows, points].tobytes() == expected_values.tobytes()
    assert bound.tobytes() == expected_bound.tobytes()


@pytest.mark.parametrize("N", (64, 400))
def test_certificate_replay_is_the_sequential_record(N, monkeypatch):
    # every shape, every n at the points of test_structured_det2_matches_dense,
    # one point per sweep, so that it is every n's check point
    nu = np.array([-12.0, 0.5, 6.0])
    for kind, sign, width in SHAPES:
        profile = builtin_profile(kind, sign, width)
        family = MollifiedBSFamily(profile, build_grid(profile, N))
        for k in range(len(nu)):
            args, certificate = _swept_inputs(monkeypatch, family, MOLLIFIERS, nu[k : k + 1])
            assert_certificate_is_the_sequential_record(args, certificate)


def test_certificate_replay_is_the_sequential_record_at_the_default_check_points(monkeypatch):
    nu = np.linspace(-12.0, 12.0, 401)
    schedule = (2, 4, 8, 16, 32)
    family = MollifiedBSFamily(GAUSS, build_grid(GAUSS, 400))
    args, certificate = _swept_inputs(monkeypatch, family, schedule, nu)
    values, points, _ = certificate
    assert np.array_equal(points, np.argmin(np.abs(values), axis=1))
    assert_certificate_is_the_sequential_record(args, certificate)


def test_certificate_bound_is_finite_through_a_zero_pivot_and_inf_past_double_range():
    # a zero pivot on a block boundary is carried like any other node
    N = 48
    weights = np.zeros(N, dtype=complex)
    weights[31] = -1.0
    weights[32:] = 0.3 - 0.1j
    gaps = np.full(N - 1, 0.5)
    args = (weights, gaps, [1.0], [0.7], (1.0, 0.4, 0.2))
    certificate = det2_semiseparable(*args)
    values, _, bound = certificate
    dense = det2(_dense_semiseparable(weights, gaps, 1.0, 0.7, (1.0, 0.4, 0.2)))
    assert abs(values[0, 0] - dense) <= bound[0] * abs(dense) and bound[0] < 1e-12
    assert_certificate_is_the_sequential_record(args, certificate)
    # a rate whose matrices leave double range vouches for nothing; the rate
    # beside it in the same sweep keeps a bound that covers its error
    values, points, bound = det2_semiseparable(*RANGE_ARGS)
    assert np.all(points == 0)
    assert bound[0] == bound[2] == np.inf
    assert abs(values[1, 0] - RANGE_DET2) <= bound[1] * abs(RANGE_DET2) and bound[1] < 1e-7


@pytest.mark.parametrize("side", ("upper", "lower"))
def test_structured_det2_does_not_overflow(side):
    # 2 n L is about 2600 here; factors exp(+-n x) left unscaled would overflow
    grid = build_grid(GAUSS, 400)
    assert 2 * 256 * grid.L > 709.0
    nu = np.linspace(-12.0, 12.0, 9)
    structured = det2_sweep(MollifiedBSFamily(GAUSS, grid), [256], nu)[0][0]
    assert np.all(np.isfinite(structured))
    assert_allclose(structured, _dense_det2(GAUSS, 256, grid, nu, side), rtol=1e-12)
