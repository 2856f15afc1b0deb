"""Complex determinants, Carleman determinants, and phase tracking.

The only nontrivial numerical object in the whole pipeline is the
phase of det2(I + T(nu)) along a sweep of boundary points.  det2 is
the Carleman (modified Fredholm) determinant det(I + T) exp(-tr T),
the natural determinant for Hilbert-Schmidt perturbations; the raw
determinant comes from a dense LU factorization with the magnitude
accumulated in log space so that large matrices cannot overflow during
the pivot product.  Sweeps skip the dense matrix altogether: the
lifted sweep eliminates the one shape the mollified sweep produces,
diagonal weights times a kernel of rank 2 on and below the diagonal and
rank 1 above it (Eidelman-Gohberg), in O(N) per point.  It runs over
whole batches of decay rates and wave numbers at once (one batch in
det2_semiseparable, several in _sweep_groups, the path of every sweep),
groups of matrices laid out flat in one node loop, in the
division-free lifted form of the elimination (Gohberg-Goldberg-
Krupnik, ch. IX): three state numbers per matrix, rescaled by a power
of two once per block of nodes, so a pivot through zero is carried
rather than divided by.  The sweep certifies itself: it keeps the
state each block starts from, and before it returns it replays the
blocks of one matrix per rate, its check point, and of the matrices
whose arg is tracked along x, from those checkpoints, all blocks at
once, checks that each ends bit for bit where the next starts, and
carries a first-order running error bound on the record (Higham,
Accuracy and Stability of Numerical Algorithms, ch. 3), in its adjoint
form, so that the cancellation between the steps is kept.  That
vouches for a sweep in O(N) work and one block's worth of sequential
steps, and the checkpoints never leave the call.
The dense det2 is the oracle of the tests and of the invariants, and
no sweep falls back on it.

The phase of det2 is followed two ways, and neither guesses a winding,
because a missed one silently shifts the spectral shift function by an
integer.  Along a nu sweep (phase_curve) it is anchored at the leftmost
point, where the determinant must already be close to 1, and continued
upward with a strict adjacent-jump budget of pi/2; anything larger is
refused with a refinement request.  At a single point it is continued
along x from the replay record (_x_phases): the determinant of the
operator cut at each node starts at 1, and each node's step must stay
below pi/2 with the cut determinant away from 0.  Every whole curve is
followed both ways at the nodes where it is read at nu = 0, which must
agree there (ssf._ssf); the points read at nu = 0 alone are followed
along x only.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

__all__ = [
    "RefinementNeededError",
    "NearSingularError",
    "PhaseCurve",
    "det_complex",
    "det2",
    "det2_semiseparable",
    "hs_norm",
    "phase_curve",
]


class RefinementNeededError(RuntimeError):
    """The requested resolution cannot support a trustworthy answer.

    Carries the grid interval (lo, hi) that needs more nodes; callers
    map this to a dedicated exit code instead of a generic failure.
    """

    def __init__(self, message: str, interval: Optional[tuple] = None):
        super().__init__(message)
        self.interval = interval


class NearSingularError(RuntimeError):
    """|det2| fell below the trust threshold at some sweep point.

    An eigenvalue of the Birman-Schwinger matrix is passing through -1,
    where the phase genuinely jumps; the engine refuses to interpolate
    across it.
    """

    def __init__(self, message: str, nu: Optional[float] = None, magnitude: float = 0.0):
        super().__init__(message)
        self.nu = nu
        self.magnitude = magnitude


@dataclass(frozen=True)
class PhaseCurve:
    """Continuous representative of Im ln det2 along a nu sweep."""

    nu_grid: np.ndarray
    raw_det2: np.ndarray
    unwrapped_phase: np.ndarray


def _slogdet(matrix: np.ndarray) -> tuple[complex, float]:
    """Unit phase and log-magnitude of det(matrix), by LU with partial pivoting."""
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("array must not contain infs or NaNs")
    phase, log_magnitude = np.linalg.slogdet(a)
    return complex(phase), float(log_magnitude)


def _from_polar(phase: complex, log_magnitude: float) -> complex:
    """phase e^log_magnitude; beyond double range, inf in each nonzero part of phase, never NaN."""
    if log_magnitude > 709.0:
        return complex(*(part * math.inf if part else 0.0 for part in (phase.real, phase.imag)))
    return phase * math.exp(log_magnitude)


def det_complex(matrix: np.ndarray) -> complex:
    """Determinant of a square complex matrix via LU with partial pivoting.

    numpy.linalg.slogdet returns the unit-modulus phase and the sum of
    the pivot log-magnitudes, re-exponentiated here, so intermediate
    pivot products can neither overflow nor underflow; an exactly
    singular factorization returns 0 rather than raising, and a value
    beyond double range saturates (_from_polar).
    """
    return _from_polar(*_slogdet(matrix))


def det2(T: np.ndarray) -> complex:
    """Carleman determinant det2(I + T) = det(I + T) exp(-tr T).

    Equals the product of (1 + lambda_k) exp(-lambda_k) over the
    eigenvalues of T.  The trace is taken from the matrix as assembled,
    which is exactly 0 for the triangular Birman-Schwinger matrices, so
    det2 reduces to det(I + T) there with no exponential correction.
    I + T is formed in one copy of T.  Where det(I + T) or exp(-tr T)
    lies beyond double range, the two are multiplied in polar form, and
    a det2 still beyond range saturates as det_complex does.
    """
    T = np.asarray(T, dtype=complex)
    if T.ndim != 2 or T.shape[0] != T.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {T.shape}")
    trace = complex(np.trace(T))
    # adding 0.0 turns -0.0 parts into +0.0, as the identity's zeros would
    shifted = T + 0.0
    shifted[np.diag_indices(T.shape[0])] += 1.0
    phase, log_magnitude = _slogdet(shifted)
    if log_magnitude > 709.0 or trace.real < -709.0:
        return _from_polar(phase * cmath.exp(-1j * trace.imag), log_magnitude - trace.real)
    return _from_polar(phase, log_magnitude) * cmath.exp(-trace)


# Nodes swept between two rescales of the lifted state.
_BLOCK = 32
# Complex entries of a_0 transitions that a sweep holds at once (512 kB); a_1's,
# spread to every lane, take as much again.  With more lanes than
# _TRANSITION_ENTRIES / _BLOCK, each block's transitions are computed for
# shorter runs of nodes, which leaves room for the block checkpoints.
_TRANSITION_ENTRIES = 1 << 15
_LN2 = math.log(2.0)


def _cis(theta: np.ndarray) -> np.ndarray:
    """e^(i theta) for real theta, from real cos and sin (in numpy faster than a complex exp)."""
    out = np.empty(np.shape(theta), dtype=complex)
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    return out


def _rescale(state: np.ndarray, exponent: np.ndarray) -> None:
    """Scale each lane of state by 2^-e, with 2^e just above its max-abs part; add e to exponent.

    state is (3, *lanes) and exponent has the lanes' shape.  A power of
    two scales without rounding, so where and how often the state is
    rescaled never changes its digits.  A lane whose max-abs part is 0
    or not finite is left as it was.
    """
    parts = np.abs(state.view(float))
    size = np.maximum(parts[0], parts[1])
    np.maximum(size, parts[2], out=size)
    size = np.maximum(size[..., 0::2], size[..., 1::2])
    e = np.frexp(size)[1]
    # keeps 2^-e finite: a max-abs part below 2^-1021 is scaled to at least 2^-53
    np.maximum(e, -1021, out=e)
    factor = np.repeat(np.ldexp(1.0, -e), 2, axis=-1)
    for part in state.view(float):
        part *= factor
    exponent += e


def _transitions(dx, rates, waves, out=None):
    """Each node's transitions (e^((i w - n) dx), e^(-2 n dx)) on the lanes rates x waves broadcast.

    Every entry is computed by the same elementwise operations whatever
    the lanes' shape, so a sweep and the replay of its blocks take the
    same digits.  out receives the complex transitions of a_0; a_1's are
    real and depend on the rate alone.
    """
    fall = np.exp(-np.multiply.outer(dx, rates))
    wave = np.multiply(fall, _cis(np.multiply.outer(dx, waves)), out=out)
    return wave, fall * fall


def _lifted_nodes(weights, steps, coef, state, record=None) -> None:
    """Run the lifted recurrence over consecutive nodes, in place on state = (b, a_0, a_1).

    steps = (waves, decays) holds the transitions after each node:
    waves[j] multiplies a_0 and is complex over the lanes; decays[j]
    multiplies a_1, real and materialized to the lanes' shape times 2,
    the real and imaginary parts, because numpy multiplies equal shapes
    faster than broadcast ones.  A block that ends at the last node has
    one step fewer than it has weights.  weights[j] is a number, or an
    array broadcast against the lanes.  With a record array given,
    record[j] receives node j's products (c_near b, c_osc a_0, c_far a_1)
    of the state it starts from.
    """
    waves, decays = steps
    b, a, a_0 = state[0], state[1:], state[1]
    # a_1 as (*lanes, 2) real parts, so its real transition takes real products
    a_1 = state[2, ..., None].view(float)
    v = np.empty_like(b)
    products = np.empty_like(state)
    last = len(waves)
    for j, weight in enumerate(weights):
        if record is not None:
            products = record[j]
        np.multiply(coef, state, out=products)
        np.subtract(products[0], products[1], out=v)
        v += products[2]
        v *= weight
        b += v
        if j == last:
            break
        a += v
        a_0 *= waves[j]
        a_1 *= decays[j]


def _sweep_inputs(weights, gaps, rates, waves):
    """The sweep's arguments as arrays, checked for shape."""
    u = np.asarray(weights, dtype=complex)
    dx = np.asarray(gaps, dtype=float)
    rates = np.asarray(rates, dtype=float)
    waves = np.asarray(waves, dtype=float)
    if u.ndim != 1 or dx.shape != (len(u) - 1,):
        raise ValueError("need N weights and N - 1 gaps")
    if rates.ndim != 1 or waves.ndim != 1:
        raise ValueError("rates and waves must be 1-D")
    return u, dx, rates, waves


class _Lanes(NamedTuple):
    """One group of a sweep's lanes: the matrices at rates x waves, flattened rate by rate.

    coefficients are broadcast to (len(rates), len(waves)), and tracked
    holds the wave indices at which each rate's arg det2 is tracked along x.
    """

    rates: np.ndarray
    waves: np.ndarray
    coefficients: tuple
    tracked: tuple = ()


def _lifted_sweep(u, dx, groups):
    """The lifted recurrence over all nodes, on the lanes of every group in one flat row.

    Returns (coef, checkpoints, exponents): the coefficients
    materialized to the lanes, and checkpoints[i], the state
    (b, a_0, a_1) that block i of _BLOCK nodes starts from, in units of
    2^exponents[i]; checkpoints[-1] and exponents[-1] are the final
    state.  Each block is swept in place on the checkpoint after its
    own, with its transitions computed per group, for runs of nodes that
    keep _TRANSITION_ENTRIES complex entries at most, and then rescaled.
    A lane that overflows within a block stays not finite, and one that
    underflows to 0 stays 0.
    """
    N = len(u)
    # a group of no lanes takes no place in the row, and no transitions
    groups = [g for g in groups if len(g.rates) * len(g.waves)]
    shapes = [(len(g.rates), len(g.waves)) for g in groups]
    ends = np.cumsum([0] + [S * P for S, P in shapes])
    parts = [slice(start, stop) for start, stop in zip(ends[:-1], ends[1:])]
    lanes = int(ends[-1])
    # materialized, because numpy multiplies equal-shape complex arrays
    # faster than broadcast ones
    coef = np.empty((3, lanes), dtype=complex)
    for group, part, shape in zip(groups, parts, shapes):
        for c, value in zip(coef[:, part], group.coefficients):
            c.reshape(shape)[...] = value
    blocks = -(-N // _BLOCK)
    checkpoints = np.zeros((blocks + 1, 3, lanes), dtype=complex)
    checkpoints[0, 0] = 1.0
    # int32 as frexp gives them; a sweep's sums stay far inside that range
    exponents = np.zeros((blocks + 1, lanes), dtype=np.int32)
    run = max(1, min(_BLOCK, _TRANSITION_ENTRIES // max(lanes, 1)))
    # the transitions of one run of nodes, refilled for each run
    waves = np.empty((run, lanes), dtype=complex)
    decays = np.empty((run, lanes, 2))
    for i, start in enumerate(range(0, N, _BLOCK)):
        stop = min(start + _BLOCK, N)
        state, exponent = checkpoints[i + 1], exponents[i + 1]
        state[...] = checkpoints[i]
        exponent[...] = exponents[i]
        for first in range(start, stop, run):
            last = min(first + run, stop)
            gaps = dx[first:last]
            steps = len(gaps)
            for group, part, shape in zip(groups, parts, shapes):
                block = (steps, *shape)
                _, decay = _transitions(
                    gaps, group.rates[:, None], group.waves[None, :],
                    out=waves[:steps, part].reshape(block),
                )
                decays[:steps, part].reshape(*block, 2)[...] = decay[..., None]
            _lifted_nodes(u[first:last], (waves[:steps], decays[:steps]), coef, state)
        _rescale(state, exponent)
    return coef, checkpoints, exponents


def _det2_from_state(u, coef, state, exponent):
    """det2 = exp(log b + e ln 2 - c_near sum(u)) from the final lifted state."""
    log_det = np.log(state[0]) + exponent * _LN2
    return np.exp(log_det - coef[0] * np.sum(u))


def det2_semiseparable(weights, gaps, rates, waves, coefficients) -> tuple:
    """det2(I + T) over a batch of matrices of one rank-(2, 1) semiseparable shape, certified.

    On nodes x_1 < ... < x_N with gaps[k] = x_{k+1} - x_k, T = diag(weights) F,
    where F depends on a decay rate n > 0 and a wave number w:

        F_ij = c_near e^(-n (x_j - x_i))                               i < j,
        F_ii = c_near,
        F_ij = c_osc e^(i w (x_i - x_j)) - c_far e^(-n (x_i - x_j))   i > j,

    rank 1 above the diagonal and rank 2 below it.  The batch runs over
    rates (S,) and waves (P,), with coefficients = (c_near, c_osc, c_far)
    broadcast to (S, P).  Elimination
    without pivoting is carried in its linear (lifted) form, three
    numbers per matrix: b, the determinant of the leading block, and
    a_0, a_1, the rank-2 part of that block coupled through its inverse
    to the rank-1 part times b.  At node k, with
    V = weights_k (c_near b - c_osc a_0 + c_far a_1), b becomes b + V and
    a_c becomes (a_c + V) times its transition e^((i w - n) dx) or
    e^(-2 n dx); after the last node b = det(I + T).  No step divides,
    so a pivot 1 + V/b through zero is carried like any other.  The
    transitions have modulus at most 1, e^(i w dx) is shared by every
    rate, and the real e^(-2 n dx) by every wave.  After each block of
    _BLOCK nodes every matrix's state is rescaled by a power of two near
    its max-abs part, whose log is added to the result.  A matrix whose
    state overflows within a block gets a value that is not finite, and
    one whose state underflows to 0 gets 0.

    Several such batches, each with its own rates, waves and
    coefficients, run as groups of one node loop (_sweep_groups), flat
    in one row of lanes, with the transitions computed group by group;
    this function is the sweep of one group, with no arg tracked, and
    discretize.det2_sweep runs every mollified sweep through the groups.

    Returns (values, points, bound).  values[s, p] is det2 at
    (rates[s], waves[p]).  points[s] is each rate's check point, the
    wave of smallest |det2|, where elimination without pivoting is
    least well conditioned, or of its first NaN, which argmin returns
    first.  bound[s] is the first-order bound of _running_error_bound on
    |values[s, points[s]] - exact| / |exact|, exact being det2(I + T) on
    the given nodes, with the weights and coefficients allowed their own
    input rounding.  The bound needs the products each node forms from
    the state it starts from.  Rather than sweep again, each block of
    the checked lanes is replayed from the checkpoint the sweep kept
    for it, all blocks at once, so the record takes _BLOCK node steps
    rather than N (_replay).  Each replayed block, rescaled by the
    sweep's power of two, must end bit for bit on the checkpoint after
    it; then the replayed blocks chain into one sweep from (1, 0, 0)
    that ends on the sweep's own final state.  bound is inf on a lane
    with a broken link, and where it is not finite, as on a lane whose
    state left double range.
    """
    u, dx, rates, waves = _sweep_inputs(weights, gaps, rates, waves)
    values, points, bound, _ = _sweep_groups(u, dx, [_Lanes(rates, waves, coefficients)])[0]
    return values, points, bound


def _sweep_groups(u, dx, groups, nodes=None) -> list:
    """det2_semiseparable over several groups of lanes (_Lanes) in one node loop.

    Each group is a batch of det2_semiseparable, and its result is
    (values, points, bound, phases): the first three as det2_semiseparable
    returns them, and phases[s, t] Im ln det2 at (rates[s],
    waves[tracked[t]]), its arg det(I + T) continued along x from b = 1
    (_x_phases, which refuses a lane it cannot track, naming the node's
    x from nodes).  The lanes replayed are each rate's check point,
    whose bound is taken, then the tracked lanes, whose products give
    the arg at no extra node step of the sweep.
    """
    # numpy rounds a complex product on a one-element array differently than
    # on a longer one, so a lone lane is swept beside a copy of itself, which
    # is then dropped; every other group then has no lanes, and keeps none
    swept = groups
    if sum(len(g.rates) * len(g.waves) for g in groups) == 1:
        swept = [g._replace(waves=np.repeat(g.waves, 2)) for g in groups]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        coef, checkpoints, exponents = _lifted_sweep(u, dx, swept)
        flat = _det2_from_state(u, coef, checkpoints[-1], exponents[-1])
        lane_rates = np.concatenate([np.repeat(g.rates, len(g.waves)) for g in swept])
        lane_waves = np.concatenate([np.tile(g.waves, len(g.rates)) for g in swept])
        values, points, checked, tracked = [], [], [], []
        start = 0
        for group, lanes in zip(groups, swept):
            S, P = len(lanes.rates), len(lanes.waves)
            rows = start + P * np.arange(S)
            values.append(flat[start : start + S * P].reshape(S, P)[:, : len(group.waves)])
            points.append(np.argmin(np.abs(values[-1]), axis=1))
            checked.append(rows + points[-1])
            tracked.append((rows[:, None] + np.array(group.tracked, dtype=int)).ravel())
            start += S * P
        # The bound is of each check point's value itself: the final allowance
        # of _running_error_bound (_ELEM and u per step of the final exp) covers
        # any evaluation of _det2_from_state on the final state, so no value
        # taken from that state again is needed to compare against.
        lanes = np.concatenate(checked + tracked)
        C = len(lanes) - sum(len(t) for t in tracked)
        rates, waves, coef = lane_rates[lanes], lane_waves[lanes], coef[:, lanes]
        checkpoints, exponents = checkpoints[:, :, lanes], exponents[:, lanes]
        record, linked = _replay(u, dx, rates, waves, coef, checkpoints, exponents)
        b, exponent = checkpoints[-1, 0, :C], exponents[-1, :C]
        shift = np.repeat(exponents[:-1, :C] - exponent, _BLOCK, axis=0)[: len(u)]
        bound = _running_error_bound(
            u, dx, rates[:C], waves[:C], coef[:, :C], record[..., :C], shift, b, exponent
        )
        phases = _x_phases(u, nodes, waves[C:], coef[:, C:], record[..., C:])
    bound[~linked[:C] | ~np.isfinite(bound)] = np.inf
    results, first, later = [], 0, 0
    for group, group_values, group_points in zip(groups, values, points):
        S, T = len(group.rates), len(group.tracked)
        results.append((
            group_values,
            group_points,
            bound[first : first + S],
            phases[later : later + S * T].reshape(S, T),
        ))
        first, later = first + S, later + S * T
    return results


# A tracked lane is refused where b falls below this share of its state's max-abs part.
_COLLAPSE = 1e-12


def _x_phases(u, nodes, waves, coef, record):
    """Im ln det2 of each replayed lane, from its arg det(I + T) continued along x.

    After node k the lifted b is the determinant of the leading k x k
    block, the operator cut to [x_1, x_k], and it starts at 1.  Node k
    multiplies it by 1 + V_k/b_k, with b_k = c_near b / c_near and
    V_k = u_k (c_near b - c_osc a_0 + c_far a_1) read off node k's record;
    both are in the units its block was rescaled to, so the powers of two
    cancel.  arg det2 is the sum of the principal args of these steps
    less Im(c_near sum(u)).  The first lane, at its first such node, that
    the steps cannot follow is refused, naming the node's x and the
    lane's wave: where |b_k| falls below _COLLAPSE of the state's max-abs
    part, the cut determinant passes near 0, which a finer grid does not
    mend (NearSingularError); where a step reaches pi/2, the x grid is too
    coarse to follow the arg (RefinementNeededError).  A lane whose record
    is not finite is left to the value's own check, with phase NaN.
    """
    state = np.divide(record, coef, out=np.zeros_like(record), where=coef != 0.0)
    b = state[:, 0]
    v = (record[:, 0] - record[:, 1] + record[:, 2]) * u[:, None]
    steps = np.angle(1.0 + v / b)
    parts = np.abs(state.view(float))
    size = np.maximum(parts[..., 0::2], parts[..., 1::2]).max(axis=1)
    collapsed = ~(np.abs(b) > _COLLAPSE * size)
    faults = (collapsed | ~(np.abs(steps) < 0.5 * math.pi)) & np.isfinite(record).all(axis=(0, 1))
    refused = np.flatnonzero(faults.any(axis=0))
    if refused.size:
        t = int(refused[0])
        k = int(np.argmax(faults[:, t]))
        x, nu = float(nodes[k]), float(waves[t])
        if collapsed[k, t]:
            share = float(abs(b[k, t]) / size[k, t]) if size[k, t] else 0.0
            raise NearSingularError(
                f"|b| = {share:.3e} of its state at x = {x:g}, nu = {nu:g}: det(I + T) cut "
                f"at x passes near 0, and its arg cannot be continued along x",
                nu=nu,
                magnitude=share,
            )
        raise RefinementNeededError(
            f"arg det2 step {steps[k, t]:.3f} at x = {x:g}, nu = {nu:g} reaches pi/2; "
            f"refine the x grid there",
            interval=(x, x),
        )
    return steps.sum(axis=0) - (coef[0] * np.sum(u)).imag


def _replay(u, dx, rates, waves, coef, checkpoints, exponents):
    """Every block of a sweep's lanes run again from its checkpoint, all blocks at once.

    The lanes are the K paired (rates[k], waves[k]) with coef (3, K),
    checkpoints (blocks + 1, 3, K) and exponents (blocks + 1, K) taken
    from a sweep.  Node i _BLOCK + j is step j of replay lane (i, k), with
    the transitions computed as the sweep computes them; the last block
    is padded with nodes of weight 0 and transitions 1, which leave b
    as it is.  Returns (record, linked): record[m], shape (N, 3, K),
    holds node m's products (c_near b, c_osc a_0, c_far a_1) in units of
    2^exponents[i] of its block i, and linked (K,) whether every block
    of the lane, scaled by 2^-(exponents[i + 1] - exponents[i]) as the
    sweep's rescale scaled it, ends bit for bit on checkpoints[i + 1].
    Past the last node the sweep leaves a_0 and a_1 as they were and
    the replay runs them on, so the last block's link is b alone.
    """
    N, K = len(u), len(rates)
    blocks = len(checkpoints) - 1
    if blocks * K == 1:
        # as in det2_semiseparable, never one element: a lone lane is replayed
        # beside a copy of itself
        rates, waves, coef, checkpoints, exponents = (
            np.repeat(a, 2, axis=-1) for a in (rates, waves, coef, checkpoints, exponents)
        )
    lanes = len(rates)
    nodes = blocks * _BLOCK

    def by_step(array):
        """(nodes, ...) as (_BLOCK, blocks, ...): step j of every block together."""
        grouped = array.reshape(blocks, _BLOCK, *array.shape[1:])
        return np.ascontiguousarray(grouped.swapaxes(0, 1))

    weights = np.zeros(nodes, dtype=complex)
    weights[:N] = u
    wave = np.ones((nodes, lanes), dtype=complex)
    decay = np.ones((nodes, lanes, 2))
    _, fall = _transitions(dx, rates, waves, out=wave[: N - 1])
    decay[: N - 1] = fall[..., None]
    state = np.ascontiguousarray(checkpoints[:-1].swapaxes(0, 1))
    lanes_coef = np.broadcast_to(coef[:, None], state.shape).copy()
    record = np.empty((blocks, _BLOCK, 3, lanes), dtype=complex)
    _lifted_nodes(
        by_step(weights)[..., None],
        (by_step(wave), by_step(decay)),
        lanes_coef,
        state,
        record=record.transpose(1, 2, 0, 3),
    )
    factor = np.ldexp(1.0, exponents[:-1] - exponents[1:])
    ends = state.view(float).reshape(3, blocks, lanes, 2) * factor[..., None]
    starts = np.ascontiguousarray(checkpoints[1:].swapaxes(0, 1))
    same = (ends.view(np.uint64) == starts.view(np.uint64).reshape(ends.shape)).all(axis=-1)
    same[1:, -1] = True
    return record.reshape(nodes, 3, lanes)[:N, :, :K], same.all(axis=(0, 1))[:K]


# Unit roundoff, and the first-order error constants of _running_error_bound.
_UNIT = 2.0**-53
# |fl(x y) - x y| <= sqrt(2) gamma_2 |x| |y| for complex x, y (Higham, Lemma 3.5)
_CMUL = 2.0 * math.sqrt(2.0) * _UNIT
# exp, cos, sin and the complex log and exp within 4 ulps, each ulp at most 2 u
_ELEM = 8.0 * _UNIT
# the weights (one product) and the mollifier coefficients (a complex quotient)
# as rounded on input
_INPUT = 9.0 * _UNIT


def _running_error_bound(u, dx, rates, waves, coef, record, shift, b, exponent):
    """First-order bound on the relative error of the lifted sweep's det2, per matrix.

    The sweep's error delta = (db, da_0, da_1) in the state obeys, to
    first order, delta_(k+1) = M_k delta_k + l_k, where M_k is the exact
    3 x 3 step of node k,

        [ 1 + u c_near      -u c_osc           u c_far          ]
        [ t_0 u c_near      t_0 (1 - u c_osc)  t_0 u c_far      ]
        [ t_1 u c_near      -t_1 u c_osc       t_1 (1 + u c_far) ]

    (u = weights_k, t_0 = e^((i w - n) dx_k), t_1 = e^(-2 n dx_k), and
    t_0 = t_1 = 0 at the last node, whose a_0 and a_1 never reach b), and
    l_k is the rounding committed at node k.  The start state (1, 0, 0) is
    exact, so the error in the final b is the adjoint sum
    sum_k r_k l_k, with the row r_k = e_0^T M_(N-1) ... M_(k+1)
    (r_(N-1) = e_0^T), and |db| <= sum_k |r_k| . |l_k|.  The rows keep
    the cancellation between the steps, which composing the moduli |M_k|
    would throw away; by the triangle inequality the sum is never above
    that composition's.  With s = |c_near b| + |c_osc a_0| + |c_far a_1|
    from the recorded products, |V| <= |u| s and the local terms are:

      - V: three products c x state and one by u (_CMUL each, on at most
        |u| s), two additions (u each), and the input rounding of u and
        of the coefficients (_INPUT): |l_V| <= (2 _CMUL + 2 u + _INPUT) |u| s;
      - b + V: |l_b| <= |l_V| + u (|b| + |u| s);
      - a_c: |l_c| <= |t_c| (|l_V| + (u + _CMUL + tau_c) (|a_c| + |u| s)),
        the addition, the product with t_c, and the transition's own
        relative error tau_c:
          tau_0 = 2 _ELEM + _CMUL + 2 u (n + |w|) dx   (exp and cos/sin, whose
                  arguments carry the rounding of dx and of one product, and
                  the product e^(-n dx) e^(i w dx)),
          tau_1 = 2 _ELEM + u + 4 u n dx                (e^(-n dx) squared).

    The rows are suffix products of the steps, taken by a balanced scan
    over the nodes (_suffix_rows), vectorized over nodes and matrices;
    their own rounding is of second order.  The state's moduli are those
    of the recorded products over the coefficients'; an a_c with c = 0
    never reaches b, so its size does not matter, and a matrix with
    c_near = 0 gets no bound.  The rescales are exact powers of two, so
    record[k], in units of 2^shift[k] of the final state, is scaled to
    the final units first.  The final det2 =
    exp(log b + e ln 2 - c_near sum(u)) adds, as absolute errors in the
    exponent: the complex log, _ELEM (|log b| + 1); e fl(ln 2),
    2 u |e| ln 2; the sum of the N
    weights, (N - 1) u sum|u| times |c_near|, and its product with
    c_near, _CMUL |c_near sum(u)|; the two additions, u times each sum;
    and the complex exp's own relative error, 2 _ELEM + u.
    """
    N = len(u)
    # (3, N, S): the products' and the state's moduli, and u c_near, u c_osc, u c_far
    products = np.abs(record).transpose(1, 0, 2)
    reach = np.abs(coef)[:, None, :]
    moduli = np.divide(products, reach, out=np.zeros_like(products), where=reach > 0.0)
    moduli[0] = products[0] / reach[0]
    uc = coef[:, None, :] * u[None, :, None]
    v = np.abs(u)[:, None] * products.sum(axis=0)
    l_v = (2.0 * _CMUL + 2.0 * _UNIT + _INPUT) * v
    # the last node updates b alone: its transitions, and so its a-rows, are 0
    n_dx = np.zeros((N, len(rates)))
    n_dx[:-1] = np.multiply.outer(dx, rates)
    w_dx = np.zeros_like(n_dx)
    w_dx[:-1] = np.multiply.outer(dx, waves)
    t0 = np.exp(-n_dx)
    t0[-1] = 0.0
    t1 = t0 * t0
    tau0 = 2.0 * _ELEM + _CMUL + 2.0 * _UNIT * (n_dx + np.abs(w_dx))
    tau1 = 2.0 * _ELEM + _UNIT + 4.0 * _UNIT * n_dx
    local = np.empty((3, N, len(rates)))
    local[0] = l_v + _UNIT * (moduli[0] + v)
    local[1] = t0 * (l_v + (_UNIT + _CMUL + tau0) * (moduli[1] + v))
    local[2] = t1 * (l_v + (_UNIT + _CMUL + tau1) * (moduli[2] + v))
    local *= np.ldexp(1.0, shift)
    # step[i, j] is the (i, j) entry of M_k, over (N, S): row i is t_i times
    # the unit row i plus (u c_near, -u c_osc, u c_far)
    step = np.eye(3)[:, :, None, None] + uc * np.array([1.0, -1.0, 1.0])[:, None, None]
    step[1] *= t0 * _cis(w_dx)
    step[2] *= t1
    error_b = (np.abs(_suffix_rows(step)) * local).sum(axis=(0, 1))
    log_b = np.log(b)
    log_det = log_b + exponent * _LN2
    near_sum = coef[0] * np.sum(u)
    total = log_det - near_sum
    final = (
        _ELEM * (np.abs(log_b) + 1.0)
        + 2.0 * _UNIT * np.abs(exponent) * _LN2
        + (N - 1) * _UNIT * reach[0, 0] * np.sum(np.abs(u))
        + _CMUL * np.abs(near_sum)
        + _UNIT * (np.abs(log_det) + np.abs(total))
        + 2.0 * _ELEM
        + _UNIT
    )
    return error_b / np.abs(b) + final


def _suffix_rows(steps):
    """rows[:, k] = e_0^T steps[N - 1] ... steps[k + 1] for each k, by a balanced scan.

    steps[i, j] is (N, ...), the (i, j) entries of N 3 x 3 maps.  The
    up-sweep composes the maps pairwise, later after earlier, padding an
    odd round with the identity, and keeps each round; the down-sweep
    hands each pair the row of all the maps after it, which its later map
    keeps and its earlier map takes times the later one.  So N maps take
    2 log2(N) rounds of array operations rather than N steps.  Returns
    rows, shape (3, N, ...).
    """
    lanes = steps.shape[3:]
    identity = np.broadcast_to(np.eye(3)[:, :, None, None], (3, 3, 1, *lanes))
    rounds, maps = [], steps
    while maps.shape[2] > 1:
        if maps.shape[2] % 2:
            maps = np.concatenate((maps, identity), axis=2)
        rounds.append(maps)
        maps = (maps[:, :, None, 1::2] * maps[None, :, :, 0::2]).sum(axis=1)
    rows = np.zeros((3, 1, *lanes), dtype=steps.dtype)
    rows[0] = 1.0
    for maps in reversed(rounds):
        later = rows[:, : maps.shape[2] // 2]
        earlier = (later[:, None] * maps[:, :, 1::2]).sum(axis=0)
        rows = np.stack((earlier, later), axis=2).reshape(3, -1, *lanes)
    return rows[:, : steps.shape[2]]


def hs_norm(T: np.ndarray) -> float:
    """Hilbert-Schmidt (Frobenius) norm of a matrix."""
    return float(np.linalg.norm(np.asarray(T), ord="fro"))


def phase_curve(nu_grid: np.ndarray, det2_values: np.ndarray) -> PhaseCurve:
    """Track the continuous phase of det2 along an ascending nu grid.

    det2_values holds det2(I + T(nu)) at each grid point, and every
    contract of a Birman-Schwinger sweep applies: every value is finite
    (a NaN or inf is refused with its nu named); |det2| stays above
    1e-12; the curve starts and ends near det2 = 1 (|det2 - 1| below
    0.2, so the anchor phase lies within arcsin 0.2 of 0, and the
    far-end unwrapped phase within pi/4 of 0), else the sweep window is
    too narrow; and no adjacent phase step reaches pi/2.  In between,
    the phase may travel any distance.
    """
    nu = np.asarray(nu_grid, dtype=float)
    if nu.ndim != 1 or len(nu) < 2:
        raise ValueError("nu_grid must be a 1-D vector with at least 2 points")
    if not np.all(np.diff(nu) > 0.0):
        raise ValueError("nu_grid must be strictly increasing")
    values = np.asarray(det2_values, dtype=complex)
    if values.shape != nu.shape:
        raise ValueError("det2_values length does not match nu_grid")

    # every check below compares false on a NaN, and an inf has no phase
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        i = int(bad[0])
        raise RefinementNeededError(
            f"det2 {values[i]} at nu = {nu[i]:g} is not finite: it left double range, "
            f"which no finer grid brings back",
            interval=(float(nu[i]), float(nu[i])),
        )

    mags = np.abs(values)
    small = np.nonzero(mags < 1e-12)[0]
    if small.size:
        i = int(small[0])
        raise NearSingularError(
            f"|det2| = {mags[i]:.3e} at nu = {nu[i]:g}; an eigenvalue is "
            f"crossing -1 and the phase is untrackable there",
            nu=float(nu[i]),
            magnitude=float(mags[i]),
        )

    for end in (0, -1):
        dist = abs(values[end] - 1.0)
        if dist >= 0.2:
            raise RefinementNeededError(
                f"|det2 - 1| = {dist:.3f} at nu = {nu[end]:g}; the sweep "
                f"window must extend until the determinant settles near 1",
                interval=(float(nu[0]), float(nu[-1])),
            )

    steps = np.angle(values[1:] / values[:-1])
    worst = int(np.argmax(np.abs(steps)))
    if abs(steps[worst]) >= np.pi / 2:
        raise RefinementNeededError(
            f"phase jump {steps[worst]:.3f} between nu = {nu[worst]:g} and "
            f"nu = {nu[worst + 1]:g} exceeds pi/2; refine the sweep there",
            interval=(float(nu[worst]), float(nu[worst + 1])),
        )
    anchor_phase = float(np.angle(values[0]))
    unwrapped = np.concatenate(([anchor_phase], anchor_phase + np.cumsum(steps)))

    if abs(float(unwrapped[-1])) >= np.pi / 4:
        raise RefinementNeededError(
            f"far-end phase {unwrapped[-1]:.3f} at nu = {nu[-1]:g} has not "
            f"decayed; suspected missed winding, refine the sweep",
            interval=(float(nu[0]), float(nu[-1])),
        )

    return PhaseCurve(nu_grid=nu, raw_det2=values, unwrapped_phase=unwrapped)
