"""Exact K-stability invariants of toric Fano varieties from fan data.

Everything is computed in exact rational arithmetic: alpha and beta
invariants, volume functions of anticanonical twists, pseudo-effective and
nef thresholds, structural certificates, and a projective-space screen over
batteries of torus-invariant valuations.
"""

from .alpha import AlphaResult, alpha_invariant
from .errors import (
    BudgetExceeded,
    InvariantViolation,
    ParseError,
    ToricstabError,
)
from .fans import Fan
from .lattice import primitivize
from .piecewise import PiecewisePolynomial
from .polytopes import RationalPolytope
from .valuations import (
    CertificateResult,
    ToricValuation,
    ValuationProfile,
    beta_invariant,
    certify_equality_case,
    certify_extremal_volume,
    center_codim,
    integrated_volume,
    log_discrepancy,
    nef_threshold,
    pseff_threshold,
    restricted_volume,
    section_count,
    valuation_profile,
    volume_function,
)
from .workbench import (
    ScreenResult,
    StabilityReport,
    analyze,
    export_volume_csv,
    load_builtin_fan,
    load_fan,
    parse_fan_spec,
    screen_projective_space,
    valuation_battery,
)

__version__ = "0.1.0"

__all__ = [
    "AlphaResult",
    "BudgetExceeded",
    "CertificateResult",
    "Fan",
    "InvariantViolation",
    "ParseError",
    "PiecewisePolynomial",
    "RationalPolytope",
    "ScreenResult",
    "StabilityReport",
    "ToricValuation",
    "ToricstabError",
    "ValuationProfile",
    "alpha_invariant",
    "analyze",
    "beta_invariant",
    "center_codim",
    "certify_equality_case",
    "certify_extremal_volume",
    "export_volume_csv",
    "integrated_volume",
    "load_builtin_fan",
    "load_fan",
    "log_discrepancy",
    "nef_threshold",
    "parse_fan_spec",
    "primitivize",
    "pseff_threshold",
    "restricted_volume",
    "screen_projective_space",
    "section_count",
    "valuation_battery",
    "valuation_profile",
    "volume_function",
]
