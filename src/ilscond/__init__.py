"""Condition numbers of indefinite and total least squares problems.

Exact partial condition numbers (normwise, mixed, componentwise, unified),
their structured counterparts for Toeplitz/Hankel/symmetric data, the total
least squares bridge, and cheap statistical estimators.
"""

from .estimate import (
    NormInterval,
    SsceConfig,
    estimate_kappa2_pce,
    estimate_kappa2_ssce,
    estimate_kappa_inf_ssce,
    spectral_interval,
    wallis,
)
from .exact import (
    CondParams,
    ConditionReport,
    JacobianMg,
    UndefinedConditionNumber,
    kappa_2ils,
    kappa_componentwise,
    kappa_mixed,
    kappa_unified,
)
from .ils import (
    IllConditionedWarning,
    IlsProblem,
    IlsSolution,
    NotPositiveDefinite,
    NumericallySingular,
    SignatureSplit,
)
from .kron import entrywise_div, vec
from .probfile import load_problem, save_problem
from .structured import (
    StructureBasis,
    StructureMismatch,
    StructuredParams,
    kappa_2ils_structured,
    kappa_componentwise_structured,
    kappa_mixed_structured,
    make_basis,
)
from .tls import (
    TlsNotGeneric,
    TlsProblem,
    kappa_2tls,
    kappa_componentwise_tls,
    kappa_mixed_tls,
)

__all__ = [
    "CondParams",
    "ConditionReport",
    "IllConditionedWarning",
    "IlsProblem",
    "IlsSolution",
    "JacobianMg",
    "NormInterval",
    "NotPositiveDefinite",
    "NumericallySingular",
    "SignatureSplit",
    "SsceConfig",
    "StructureBasis",
    "StructureMismatch",
    "StructuredParams",
    "TlsNotGeneric",
    "TlsProblem",
    "UndefinedConditionNumber",
    "entrywise_div",
    "estimate_kappa2_pce",
    "estimate_kappa2_ssce",
    "estimate_kappa_inf_ssce",
    "kappa_2ils",
    "kappa_2ils_structured",
    "kappa_2tls",
    "kappa_componentwise",
    "kappa_componentwise_structured",
    "kappa_componentwise_tls",
    "kappa_mixed",
    "kappa_mixed_structured",
    "kappa_mixed_tls",
    "kappa_unified",
    "load_problem",
    "make_basis",
    "save_problem",
    "spectral_interval",
    "vec",
    "wallis",
]

__version__ = "0.1.0"
