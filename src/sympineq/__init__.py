"""Exact symmetric-polynomial families, majorization checks, and lp-mean
inequality verifiers, with an exact Gram-matrix pipeline and numerical
validation of the underlying Mellin identities."""

from .vectors import RationalVector, lp_mean, partial_sums_desc, to_fraction
from .series import TruncatedSeries, product_over_vector, tensor
from .families import f_kr_all, g_kr, gbar_kr, m_kr
from .majorize import (MajorizationVerdict, Theorem2Report, majorizes,
                       psi_compare, psi_sum, t_transform_pair, theorem2_scan)
from .theorem1 import (ConclusionReport, FullReport, HypothesisReport,
                       check_hypotheses, check_hypotheses_coeffs, full_report,
                       verify_conclusions)
from .spectral import SpectralSummary, gram, spectral_summary

__version__ = "0.1.0"

__all__ = [
    "RationalVector", "lp_mean", "partial_sums_desc", "to_fraction",
    "TruncatedSeries", "product_over_vector", "tensor",
    "f_kr_all", "g_kr", "gbar_kr", "m_kr",
    "MajorizationVerdict", "Theorem2Report", "majorizes", "psi_compare",
    "psi_sum", "t_transform_pair", "theorem2_scan",
    "ConclusionReport", "FullReport", "HypothesisReport", "check_hypotheses",
    "check_hypotheses_coeffs", "full_report", "verify_conclusions",
    "SpectralSummary", "gram", "spectral_summary",
]
