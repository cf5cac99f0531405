"""Exact symmetric-polynomial families, majorization checks, and lp-mean
inequality verifiers, with an exact Gram-matrix pipeline and numerical
validation of the underlying Mellin identities.

The package loads its modules on first use: ``import sympineq`` imports
none of them, and the first access to a public name (``sympineq.lp_mean``,
``from sympineq import gram``, ``from sympineq import *``) imports the one
module that defines it, through the table ``_HOMES`` and a module-level
``__getattr__`` (PEP 562).
"""

import sys

__version__ = "0.1.0"

# public name -> the module that defines it
_HOMES = {
    **dict.fromkeys(("RationalVector", "lp_mean", "partial_sums_desc",
                     "to_fraction"), "vectors"),
    **dict.fromkeys(("TruncatedSeries", "product_over_vector", "tensor"),
                    "series"),
    **dict.fromkeys(("f_kr_all", "g_kr", "gbar_kr", "m_kr"), "families"),
    **dict.fromkeys(("MajorizationVerdict", "Theorem2Report", "majorizes",
                     "psi_compare", "psi_sum", "t_transform_pair",
                     "theorem2_scan"), "majorize"),
    **dict.fromkeys(("ConclusionReport", "FullReport", "HypothesisReport",
                     "check_hypotheses", "check_hypotheses_coeffs",
                     "full_report", "verify_conclusions"), "theorem1"),
    **dict.fromkeys(("SpectralSummary", "gram", "spectral_summary"),
                    "spectral"),
}

__all__ = list(_HOMES)


def __getattr__(name: str):
    try:
        module = _HOMES[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    key = f"{__name__}.{module}"
    __import__(key)  # an import statement's route, which -X importtime logs
    value = getattr(sys.modules[key], name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
