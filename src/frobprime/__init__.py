"""Quadratic Frobenius primality testing over x^2 - c extensions.

Library layout:

- :mod:`frobprime.arith` — exact integer primitives (Jacobi symbol, integer
  roots, two-adic splits, counted modular powering);
- :mod:`frobprime.quadext` — arithmetic in Z[x]/(n, x^2 - b*x - c) with
  exact operation counting;
- :mod:`frobprime.frobenius` — the general-form and pure-form Frobenius
  tests, their parameter generators, and the Fermat/strong/Lucas baselines;
- :mod:`frobprime.nonresidue` — the bounded small-nonresidue search and
  symbol-statistics experiments;
- :mod:`frobprime.cost_model` — squaring-equivalent and Selfridge-unit cost
  accounting plus machine measurement;
- :mod:`frobprime.cli` — the ``frobprime`` command.

The package exports the API the README documents; every other name
(``jacobi``, ``trial_divide``, ``initial_screen``, ``step5_chain``, the
report records, ...) is imported from its submodule.
"""

from .arith import mod_pow
from .cost_model import (
    DELTA_STAR,
    CostWeights,
    Variant,
    cost_table,
    measure_m,
    per_op_cost,
    render_cost_table,
    summarize,
)
from .frobenius import (
    CompositeReason,
    FactorFound,
    ParamSearchExhausted,
    PhaseCounters,
    QftParams,
    RqftParams,
    Verdict,
    fermat_test,
    generate_qft_params,
    generate_rqft_params,
    lucas_test,
    lucas_uv,
    pure_form_of,
    qft,
    rqft,
    rqft_with_small_c,
    run_rounds,
    sample_nonresidue,
    strong_test,
)
from .nonresidue import (
    DEFAULT_DELTA,
    DELTA_THRESHOLD,
    SearchConfig,
    charsum_experiment,
    density_experiment,
    find_small_nonresidue,
)
from .quadext import ExtensionRing, OpCounter, QuadExtElement, ext_pow

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # arith
    "mod_pow",
    # quadext
    "ExtensionRing",
    "OpCounter",
    "QuadExtElement",
    "ext_pow",
    # frobenius
    "CompositeReason",
    "FactorFound",
    "ParamSearchExhausted",
    "PhaseCounters",
    "QftParams",
    "RqftParams",
    "Verdict",
    "fermat_test",
    "generate_qft_params",
    "generate_rqft_params",
    "lucas_test",
    "lucas_uv",
    "pure_form_of",
    "qft",
    "rqft",
    "rqft_with_small_c",
    "run_rounds",
    "sample_nonresidue",
    "strong_test",
    # nonresidue
    "DEFAULT_DELTA",
    "DELTA_THRESHOLD",
    "SearchConfig",
    "charsum_experiment",
    "density_experiment",
    "find_small_nonresidue",
    # cost_model
    "DELTA_STAR",
    "CostWeights",
    "Variant",
    "cost_table",
    "measure_m",
    "per_op_cost",
    "render_cost_table",
    "summarize",
]
