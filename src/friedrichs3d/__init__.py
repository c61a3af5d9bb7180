"""Spectral analysis of a two-channel lattice Schrodinger model on the 3-torus.

A scalar level coupled to an integral channel over the momentum torus:
for each total quasimomentum k the fiber is a rank-one perturbation of
multiplication by w1(k, .), and everything measurable about its
spectrum reduces to one scalar function, the Fredholm determinant.
This package computes fiber band edges in closed form, locates discrete
eigenvalues to 1e-10, evaluates the critical couplings where thresholds
turn into bound states, classifies threshold solutions (eigenvalue vs
virtual level), and assembles the global band picture.
"""

from .bands import ESSENTIAL_BAND, BandStructure, assemble_bands, branch_extrema
from .determinant import (
    InsideEssentialSpectrum,
    ModelParams,
    SpectralWindow,
    find_discrete_spectrum,
    fredholm_delta,
)
from .lattice import (
    ORIGIN,
    PI_POINT,
    TorusPoint,
    band_endpoints,
    epsilon,
    lambda_point,
    lambda_points,
    w0,
    w1,
)
from .oracle import DiscretizedOperator, discretize, extreme_eigenvalues
from .quadrature import IntegralResult, NonConvergence, ResolventKernel
from .thresholds import (
    CriticalCouplings,
    DomainError,
    ThresholdReport,
    ZeroCoupling,
    classify_threshold,
    critical_couplings,
    fredholm_delta_threshold,
    gamma_star,
    mu_left,
    mu_right,
)
from .vfunction import VFunction, VParseError, parse_v

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "TorusPoint",
    "ORIGIN",
    "PI_POINT",
    "epsilon",
    "w0",
    "w1",
    "band_endpoints",
    "lambda_points",
    "lambda_point",
    "VFunction",
    "VParseError",
    "parse_v",
    "IntegralResult",
    "NonConvergence",
    "ResolventKernel",
    "ModelParams",
    "SpectralWindow",
    "InsideEssentialSpectrum",
    "fredholm_delta",
    "fredholm_delta_threshold",
    "find_discrete_spectrum",
    "DomainError",
    "ZeroCoupling",
    "CriticalCouplings",
    "ThresholdReport",
    "mu_left",
    "mu_right",
    "gamma_star",
    "critical_couplings",
    "classify_threshold",
    "ESSENTIAL_BAND",
    "BandStructure",
    "assemble_bands",
    "branch_extrema",
    "DiscretizedOperator",
    "discretize",
    "extreme_eigenvalues",
]
