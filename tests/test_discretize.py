"""Nyström and Fourier discretizations against closed-form oracles.

The grid must integrate the profile to truncation accuracy, the BS
matrix must inherit the kernel's strict triangularity, the sweep
family's dense matrix at nu + i0 must be the conjugate transpose of the
Nyström assembly of the pointwise mollified kernel at nu - i0, and the
plane-wave pair must reproduce the analytically known Fourier
transforms of the builtin profiles, and its banded trace must stay
within its certified bound of the dense one.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import eigvals_banded

from wittenlab import (
    FourierOperatorPair,
    QuadratureGrid,
    RefinementNeededError,
    SpectralPoint,
    bs_kernel_mollified,
    bs_matrix,
    build_grid,
    builtin_profile,
    eta_n_im,
    fourier_pair,
    hs_norm,
    trace_gz_diff,
)
from wittenlab import discretize
from wittenlab.discretize import (
    MollifiedBSFamily,
    _g_spectral,
    _legendre_rule,
    assemble,
    ensure_oscillation_resolved,
    trace_band,
)

GAUSS = builtin_profile("gaussian", 1.0, 1.0)


def test_build_grid_geometry():
    grid = build_grid(GAUSS, 400)
    assert grid.N == 400
    assert 5.0 < grid.L < 5.2
    assert np.all(np.diff(grid.nodes) > 0.0)
    assert np.all(grid.weights > 0.0)
    assert_allclose(np.sum(grid.weights), 2.0 * grid.L, atol=1e-10)


def test_build_grid_integrates_profile():
    # Gauss-Legendre at N = 400 resolves the profile to truncation level
    grid = build_grid(GAUSS, 400)
    total = float(np.sum(grid.weights * GAUSS.phi(grid.nodes)))
    assert_allclose(total, GAUSS.total_integral, atol=2e-12)
    # and integrates a plain polynomial exactly
    poly = float(np.sum(grid.weights * grid.nodes**6))
    assert_allclose(poly, 2.0 * grid.L**7 / 7.0, rtol=1e-12)


def test_build_grid_shares_one_legendre_rule_per_N(monkeypatch):
    # repeated grids at one N reuse the rule bit for bit, and no caller
    # can write into the shared arrays
    x, w = np.polynomial.legendre.leggauss(96)
    calls = []
    solve = np.polynomial.legendre.leggauss
    monkeypatch.setattr(
        np.polynomial.legendre, "leggauss", lambda N: calls.append(N) or solve(N)
    )
    _legendre_rule.cache_clear()
    first = build_grid(GAUSS, 96)
    second = build_grid(builtin_profile("sech2", 2.0, 0.5), 96)
    assert calls == [96]
    assert np.array_equal(first.nodes, first.L * x)
    assert np.array_equal(second.weights, second.L * w)
    rule_x, rule_w = _legendre_rule(96)
    assert not rule_x.flags.writeable and not rule_w.flags.writeable
    _legendre_rule.cache_clear()


def test_build_grid_compact_support_radius():
    bump = builtin_profile("bump", 0.7, 2.0, support=2.0)
    assert build_grid(bump, 64).L == 2.0


@pytest.mark.parametrize("kind", ("gaussian", "sech2"))
def test_build_grid_accepts_a_wide_profile(kind):
    # L is about 7.5e5 here; the weights' sum is held to 2L relatively, since
    # its rounding grows with L
    grid = build_grid(builtin_profile(kind, 1.0, 1e5), 400)
    assert grid.L > 1e5
    assert abs(float(np.sum(grid.weights)) - 2.0 * grid.L) <= 1e-12 * 2.0 * grid.L


def test_build_grid_validation():
    with pytest.raises(ValueError):
        build_grid(GAUSS, 4)
    with pytest.raises(ValueError, match="no mass"):
        build_grid(builtin_profile("gaussian", 0.0, 1.0), 400)


def test_quadrature_grid_validation():
    with pytest.raises(ValueError):
        QuadratureGrid(nodes=np.array([1.0, 0.0]), weights=np.array([1.0, 1.0]), L=1.0, N=2)
    nodes = np.linspace(-1, 1, 8)
    with pytest.raises(ValueError):
        QuadratureGrid(nodes=nodes, weights=-np.ones(8), L=1.0, N=8)


def test_assemble_names_bad_node_pair():
    grid = build_grid(GAUSS, 16)

    def kernel(x, xp):
        out = np.ones((grid.N, grid.N), dtype=complex)
        out[3, 5] = np.nan
        return out

    with pytest.raises(ValueError, match=r"i=3, j=5"):
        assemble(kernel, grid)


def test_assemble_weight_symmetrization():
    grid = build_grid(GAUSS, 16)
    matrix = assemble(lambda x, xp: np.ones((16, 16), dtype=complex), grid)
    sqw = np.sqrt(grid.weights)
    assert_allclose(matrix.entries, np.outer(sqw, sqw), rtol=1e-15)
    assert_allclose(matrix.trace, np.sum(grid.weights), rtol=1e-14)


def test_bs_matrix_strictly_triangular():
    grid = build_grid(GAUSS, 64)
    upper = bs_matrix(GAUSS, SpectralPoint.boundary(2.0), grid).entries
    # kernel supported on x > x' puts everything strictly below the diagonal
    assert np.all(np.triu(upper) == 0.0)
    assert np.any(np.tril(upper, -1) != 0.0)
    lower = bs_matrix(GAUSS, SpectralPoint.boundary(2.0, side="lower"), grid).entries
    assert np.all(np.tril(lower) == 0.0)


def test_bs_matrix_trace_and_bound():
    grid = build_grid(GAUSS, 200)
    for nu in (-5.0, 0.0, 3.0):
        matrix = bs_matrix(GAUSS, SpectralPoint.boundary(nu), grid)
        assert matrix.trace == 0.0
        assert hs_norm(matrix.entries) <= GAUSS.l1_norm * 1.01


def test_mollified_trace_reproduces_eta():
    """Im tr of the mollified matrix is the analytic eta term.

    The diagonal of the mollified kernel carries phi(x) times an
    explicit n-dependent constant, so the discrete trace equals eta up
    to the (truncation-level) quadrature error of integral(phi).
    """
    grid = build_grid(GAUSS, 400)
    for n, nu in ((2, 0.0), (8, 1.5), (32, -7.0)):
        matrix = MollifiedBSFamily(GAUSS, grid).matrix(n, nu)
        assert_allclose(matrix.trace.imag, eta_n_im(GAUSS, n, nu), atol=1e-10)


def test_family_matches_direct_assembly():
    # the family builds nu + i0 only; the closed-form kernel at nu - i0 is its
    # conjugate transpose, so the lower side's det2 is the upper's conjugate
    for profile in (GAUSS, builtin_profile("sech2", -2.0, 0.25)):
        grid = build_grid(profile, 48)
        family = MollifiedBSFamily(profile, grid)
        for n in (2, 4, 32):
            for nu in (-12.0, -3.0, 0.0, 0.7, 5.0):
                point = SpectralPoint.boundary(nu, side="lower")
                lower = assemble(lambda x, xp: bs_kernel_mollified(profile, n, point, x, xp), grid)
                upper = family.matrix(n, nu).entries
                assert_allclose(lower.entries, upper.conj().T, rtol=0, atol=1e-14)


def test_hs_norm_is_cauchy_in_resolution():
    norms = [
        hs_norm(MollifiedBSFamily(GAUSS, build_grid(GAUSS, N)).matrix(4, 1.0).entries)
        for N in (400, 800)
    ]
    assert abs(norms[1] - norms[0]) < 1e-6


def test_fourier_pair_structure():
    pair = fourier_pair(GAUSS, 4, 10.0, 128)
    assert isinstance(pair, FourierOperatorPair)
    assert pair.M == 128
    assert pair.box_half_length == 10.0
    assert_allclose(pair.momenta, np.pi * np.arange(-64, 64) / 10.0, rtol=1e-15)
    assert_allclose(pair.A_plus_n, pair.A_plus_n.conj().T, atol=1e-14)


def test_fourier_pair_validation():
    with pytest.raises(ValueError):
        fourier_pair(GAUSS, 4, 10.0, 127)
    with pytest.raises(ValueError):
        fourier_pair(GAUSS, 4, 10.0, 32)
    with pytest.raises(ValueError, match="tail radius"):
        fourier_pair(GAUSS, 4, 2.0, 128)
    with pytest.raises(ValueError):
        fourier_pair(GAUSS, 4, -1.0, 128)


def test_fourier_pair_zero_profile_is_free():
    zero = builtin_profile("gaussian", 0.0, 1.0)
    pair = fourier_pair(zero, 4, 8.0, 64)
    assert_allclose(pair.A_plus_n, np.diag(pair.momenta), atol=0.0)


def _closed_form_transform(kind: str, a: float, q: np.ndarray) -> np.ndarray:
    """integral of phi(x) exp(-iqx) for the unit-amplitude builtin kinds of width a."""
    if kind == "gaussian":
        return math.sqrt(math.pi) * a * np.exp(-(a * q) ** 2 / 4.0)
    if kind == "sech2":
        safe = np.where(q == 0.0, 1.0, q)
        return np.where(q == 0.0, 2.0 * a, math.pi * a**2 * safe / np.sinh(math.pi * a * safe / 2.0))
    # cos^2(pi x / 2a) on [-a, a]: box plus the two shifted half-amplitude boxes
    shift = math.pi / a
    box = lambda k: a * np.sinc(k * a / math.pi)  # noqa: E731
    return box(q) + 0.5 * (box(q - shift) + box(q + shift))


def test_fourier_column_closed_form():
    smooth = (("gaussian", 1.0, 10.0, 128), ("gaussian", 0.25, 3.0, 256),
              ("sech2", 1.0, 20.0, 128), ("sech2", 0.25, 8.0, 512))
    for kind, width, ell, M in smooth:
        pair = fourier_pair(builtin_profile(kind, 1.0, width), 4, ell, M)
        q = np.pi * np.arange(M) / ell
        expected = _closed_form_transform(kind, width, q) / (2.0 * ell)
        assert_allclose(pair.column, expected, rtol=0, atol=1e-12, err_msg=kind)
    # phi'' jumps at the bump's support edge, so the periodic trapezoid
    # converges like h^3 there: the low momenta meet 1e-12, the far end does not
    pair = fourier_pair(builtin_profile("bump", 1.0, 1.0), 4, 2.0, 2048)
    q = np.pi * np.arange(2048) / 2.0
    err = np.abs(pair.column - _closed_form_transform("bump", 1.0, q) / 4.0)
    assert err[q <= 8.0].max() < 1e-12
    assert err.max() < 1e-10


def test_fourier_pair_gaussian_matrix_elements():
    pair = fourier_pair(GAUSS, 4, 10.0, 128)
    k = pair.momenta
    chi = 4.0 / np.sqrt(k**2 + 16.0)
    hat = math.sqrt(math.pi) * np.exp(-((k[:, None] - k[None, :]) ** 2) / 4.0)
    expected = np.diag(k) + chi[:, None] * hat / 20.0 * chi[None, :]
    assert_allclose(pair.A_plus_n, expected, atol=1e-12)


def test_fourier_pair_large_n_recovers_raw_coupling():
    pair_big = fourier_pair(GAUSS, 10**6, 10.0, 64)
    k = pair_big.momenta
    hat = math.sqrt(math.pi) * np.exp(-((k[:, None] - k[None, :]) ** 2) / 4.0)
    assert_allclose(pair_big.A_plus_n, np.diag(k) + hat / 20.0, atol=1e-9)


def test_g_spectral_values_and_branch_guard():
    assert_allclose(_g_spectral(np.array([3.0]), -1.0 + 0j)[0], 3.0 / math.sqrt(10.0))
    vals = _g_spectral(np.array([-2.0, 2.0]), -1.0 + 0j)
    assert_allclose(vals[0], -vals[1], rtol=1e-15)  # odd in x
    with pytest.raises(ArithmeticError):
        _g_spectral(np.array([0.0]), 0.5 + 0j)


def test_trace_gz_diff_properties():
    pair = fourier_pair(GAUSS, 4, 10.0, 128)
    with pytest.raises(ValueError):
        trace_gz_diff(pair, 1.0)
    with pytest.raises(ValueError):
        trace_gz_diff(pair, 0.0)
    real_z = trace_gz_diff(pair, -1.0)
    assert abs(real_z.imag) < 1e-12  # Hermitian pair at real z gives a real trace
    plus = trace_gz_diff(pair, -1.0 + 0.5j)
    minus = trace_gz_diff(pair, -1.0 - 0.5j)
    assert_allclose(plus, np.conj(minus), rtol=1e-12)
    zero = builtin_profile("gaussian", 0.0, 1.0)
    assert trace_gz_diff(fourier_pair(zero, 4, 8.0, 64), -1.0) == 0.0


def _trace(evals, pair, z):
    return np.sum(_g_spectral(evals, z)) - np.sum(_g_spectral(pair.momenta, z))


def test_fourier_pair_stores_vectors_only():
    pair = fourier_pair(GAUSS, 4, 10.0, 128)
    assert pair.column.shape == pair.weights.shape == pair.momenta.shape == (128,)
    assert pair.column.dtype == np.float64  # even profile: real Toeplitz column
    assert_allclose(pair.lower_band(3)[1, :-1], np.diag(pair.A_plus_n, -1), rtol=0, atol=0)
    with pytest.raises(ValueError, match="weights"):
        FourierOperatorPair(10.0, 4, np.zeros(4), np.array([1.0, 0.5, 0.0, 1.0]), np.ones(4))
    with pytest.raises(ValueError, match="c_0"):
        FourierOperatorPair(10.0, 4, np.zeros(4), np.ones(4), np.array([1j, 0.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match="real"):
        FourierOperatorPair(10.0, 4, np.zeros(4, dtype=complex), np.ones(4), np.ones(4))


@pytest.mark.parametrize("n", (4, 32))
@pytest.mark.parametrize("width", (0.25, 1.0, 4.0))
@pytest.mark.parametrize("amplitude", (1.0, -1.0))
@pytest.mark.parametrize("kind", ("gaussian", "sech2"))
def test_banded_trace_within_certified_bound(kind, amplitude, width, n, monkeypatch):
    profile = builtin_profile(kind, amplitude, width)
    pair = fourier_pair(profile, n, 2.0 * build_grid(profile, 400).L, 1024)
    dense_evals = np.linalg.eigvalsh(pair.A_plus_n)
    banded_evals = {}
    for z in (-1.0 + 0j, -1.0 + 0.5j, -1.0 - 0.5j):
        dense = _trace(dense_evals, pair, z)
        band, bound = trace_band(pair, z)
        if kind == "gaussian":
            assert band is not None and band <= 1024 // 20
            value = trace_gz_diff(pair, z)
        else:
            # sech2 needs about 200 > M/20 (its column is real), so trace_gz_diff
            # takes the dense path; the certificate must still hold at the band
            # it would need
            assert band is None
            with monkeypatch.context() as patch:
                patch.setattr(discretize, "_MAX_BAND_FRACTION_REAL", 1)
                band, bound = trace_band(pair, z)
            if band not in banded_evals:
                banded_evals[band] = eigvals_banded(pair.lower_band(band), lower=True)
            value = _trace(banded_evals[band], pair, z)
        assert bound <= 1e-12
        assert abs(value - dense) <= bound + 1e-12


def test_trace_band_falls_back_to_dense_for_bump():
    bump = builtin_profile("bump", 2.0, 1.0)
    pair = fourier_pair(bump, 4, 2.0, 1024)
    assert trace_band(pair, -1.0) == (None, 0.0)
    assert trace_gz_diff(pair, -1.0) == _trace(np.linalg.eigvalsh(pair.A_plus_n), pair, -1.0 + 0j)


def test_trace_band_caps_a_real_column_at_M_over_20():
    M = 1024
    momenta = np.pi * np.arange(-M // 2, M // 2) / 10.0
    column = np.zeros(M)
    column[:58] = 1e-3  # certified half-band 57, between M/20 = 51.2 and M/16 = 64
    real = FourierOperatorPair(10.0, M, momenta, np.ones(M), column)
    assert trace_band(real, -1.0) == (None, 0.0)
    wave = column.astype(complex)
    wave[1:58] += 1e-4j
    assert trace_band(FourierOperatorPair(10.0, M, momenta, np.ones(M), wave), -1.0) == (57, 0.0)


def test_oscillation_gate():
    fine = build_grid(GAUSS, 400)
    ensure_oscillation_resolved(fine, 12.0)  # h*nu ~ 0.48, inside the gate
    coarse = build_grid(GAUSS, 64)
    with pytest.raises(RefinementNeededError) as err:
        ensure_oscillation_resolved(coarse, 12.0)
    assert err.value.interval == (-12.0, 12.0)
