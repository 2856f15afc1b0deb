"""Spectral shift functions and the resolvent-regularized Witten index.

The model is the pair of first-order operators A_- = -i d/dx and
A_+ = A_- + phi on the line, with phi an integrable, bounded bump.  The
package computes the mollified one-dimensional spectral shift function
from modified-determinant phases, maps it to the two-dimensional
spectral shift function through an arcsine (Abel-type) transform, and
extracts the Witten index as the resolvent-regularized limit.  The
whole chain collapses to the closed form (1/2pi) * integral(phi), and
every intermediate identity is checkable numerically.
"""

from .profiles import (
    PotentialProfile,
    builtin_profile,
    c0,
    chi,
    profile_from_descriptor,
)
from .kernels import (
    SpectralPoint,
    bs_kernel,
    bs_kernel_mollified,
    eta_n_im,
    free_resolvent_kernel,
    scattering_matrix,
)
from .discretize import (
    BirmanSchwingerMatrix,
    FourierOperatorPair,
    QuadratureGrid,
    assemble,
    bs_matrix,
    build_grid,
    fourier_pair,
    trace_gz_diff,
)
from .determinants import (
    NearSingularError,
    PhaseCurve,
    RefinementNeededError,
    det2,
    det2_semiseparable,
    det_complex,
    hs_norm,
    phase_curve,
)
from .ssf import (
    CoverageError,
    SSFCurve,
    SSFKind,
    krein_check_trn,
    pushnitski,
    ssf_2d_curve,
    ssf_mollified,
    trace_identity_eq1,
)
from .witten import WittenReport, delta_r, witten_index

__version__ = "0.1.0"

__all__ = [
    "PotentialProfile",
    "builtin_profile",
    "profile_from_descriptor",
    "chi",
    "c0",
    "SpectralPoint",
    "free_resolvent_kernel",
    "bs_kernel",
    "bs_kernel_mollified",
    "eta_n_im",
    "scattering_matrix",
    "QuadratureGrid",
    "BirmanSchwingerMatrix",
    "FourierOperatorPair",
    "build_grid",
    "assemble",
    "bs_matrix",
    "fourier_pair",
    "trace_gz_diff",
    "det_complex",
    "det2",
    "det2_semiseparable",
    "hs_norm",
    "phase_curve",
    "PhaseCurve",
    "RefinementNeededError",
    "NearSingularError",
    "SSFCurve",
    "SSFKind",
    "CoverageError",
    "ssf_mollified",
    "ssf_2d_curve",
    "pushnitski",
    "krein_check_trn",
    "trace_identity_eq1",
    "delta_r",
    "witten_index",
    "WittenReport",
    "__version__",
]
