"""Exact unit-ball volume ratios, gamma-quotient products, and bound checks.

The package computes Gamma(x+a)/Gamma(x) through its slowly convergent
joint-factor product, keeps the ball-volume ratios v_n and w_n exact as
rational-times-pi-power values, evaluates a catalog of lower/upper bounds
for both, and machine-verifies the sidedness, ordering, and crossover
claims attached to them.

The package has two layers. The exact one (ballvol's oracle, the bound
catalog, specfun's integer kernels, the sweeps, tables and crossovers) runs
in integers and doubles; the product layer (gautschi and truncation) needs
mpmath. The layering rule: importing the package or its CLI loads neither
mpmath nor the product layer. Each product function outside gautschi
(v_product, w_product, product_overtake_index, partials_below_upper_cap,
digamma_series and the two minorant checks) imports what it needs where it
runs, as do the two mpmath reads on shared paths (eval_bound_mp, and the
psi series above t = 256), and this module gives the five names of the
product layer on first access (PEP 562).
"""

import importlib

from .analysis import (
    BoundTally,
    CrossoverResult,
    EvaluationRecord,
    TableReport,
    VerifyTally,
    auxiliary_log_inequality,
    crossover,
    klein_rota_check,
    make_table,
    partials_below_upper_cap,
    product_overtake_index,
    verify_bounds,
    verify_tally,
    w_lower_p_vs_443_margin,
    w_upper_merkle_vs_alzer_margin,
    w_upper_refined_vs_51_margin,
)
from .ballvol import (
    ExactBallValue,
    omega_exact,
    v_exact,
    v_product,
    w_exact,
    w_product,
)
from .bounds import (
    BoundId,
    BoundSpec,
    V_LOWER_ALZER,
    V_LOWER_BORGWARDT,
    V_LOWER_D,
    V_LOWER_TRUNC,
    V_UPPER_ALZER,
    V_UPPER_BORGWARDT,
    V_UPPER_H,
    W_LOWER_443,
    W_LOWER_CLASSIC,
    W_LOWER_P,
    W_LOWER_TRIGAMMA,
    W_LOWER_TRUNC,
    W_UPPER_51,
    W_UPPER_ALZER,
    W_UPPER_MERKLE,
    W_UPPER_MERKLE_Q,
    W_UPPER_REFINED,
    catalog,
    eval_bound,
    eval_bound_mp,
    family_labels,
    parse_label,
)
from .errors import BallRatioError, DomainError, NonConvergenceError
from .specfun import (
    ALPHA,
    EULER_GAMMA,
    digamma_closed,
    digamma_series,
    psi_lower_ineq,
    trigamma_closed,
    trigamma_lower_ineq,
)

__version__ = "0.1.0"

# the product layer's names, each imported from its module on first access
_PRODUCT_LAYER = {
    "ProductResult": "gautschi",
    "gautschi_ratio": "gautschi",
    "joint_factor": "gautschi",
    "joint_factor_truncate": "gautschi",
    "TruncationControl": "truncation",
}


def __getattr__(name: str):
    if name not in _PRODUCT_LAYER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_PRODUCT_LAYER[name]}", __name__), name)
    globals()[name] = value
    return value


__all__ = [
    "ALPHA",
    "BallRatioError",
    "BoundId",
    "BoundSpec",
    "BoundTally",
    "CrossoverResult",
    "DomainError",
    "EULER_GAMMA",
    "EvaluationRecord",
    "ExactBallValue",
    "NonConvergenceError",
    "ProductResult",
    "TableReport",
    "TruncationControl",
    "V_LOWER_ALZER",
    "V_LOWER_BORGWARDT",
    "V_LOWER_D",
    "V_LOWER_TRUNC",
    "V_UPPER_ALZER",
    "V_UPPER_BORGWARDT",
    "V_UPPER_H",
    "VerifyTally",
    "W_LOWER_443",
    "W_LOWER_CLASSIC",
    "W_LOWER_P",
    "W_LOWER_TRIGAMMA",
    "W_LOWER_TRUNC",
    "W_UPPER_51",
    "W_UPPER_ALZER",
    "W_UPPER_MERKLE",
    "W_UPPER_MERKLE_Q",
    "W_UPPER_REFINED",
    "auxiliary_log_inequality",
    "catalog",
    "crossover",
    "digamma_closed",
    "digamma_series",
    "eval_bound",
    "eval_bound_mp",
    "family_labels",
    "gautschi_ratio",
    "joint_factor",
    "joint_factor_truncate",
    "klein_rota_check",
    "make_table",
    "omega_exact",
    "parse_label",
    "partials_below_upper_cap",
    "product_overtake_index",
    "psi_lower_ineq",
    "trigamma_closed",
    "trigamma_lower_ineq",
    "v_exact",
    "v_product",
    "verify_bounds",
    "verify_tally",
    "w_exact",
    "w_lower_p_vs_443_margin",
    "w_product",
    "w_upper_merkle_vs_alzer_margin",
    "w_upper_refined_vs_51_margin",
]
