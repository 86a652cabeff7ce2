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
"""

from .arith import (
    SMALL_PRIMES,
    TRIAL_DIVISION_BOUND,
    TwoAdic,
    as_fraction,
    ceil_frac_pow,
    floor_frac_pow,
    iroot,
    is_perfect_square,
    jacobi,
    mod_pow,
    primes_up_to,
    trial_divide,
    two_adic_split,
)
from .cost_model import (
    DELTA_STAR,
    PRESET_MS,
    CostReport,
    CostWeights,
    MeasuredCosts,
    Variant,
    cost_table,
    measure_m,
    per_op_cost,
    render_cost_table,
    summarize,
)
from .frobenius import (
    RETRY_CAP,
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
    initial_screen,
    lucas_test,
    lucas_uv,
    pure_form_of,
    qft,
    rqft,
    rqft_with_small_c,
    sample_nonresidue,
    step5_chain,
    step5_naive,
    strong_test,
)
from .nonresidue import (
    DEFAULT_DELTA,
    DELTA_THRESHOLD,
    CharSumReport,
    DensityReport,
    NonresidueNotFound,
    SearchConfig,
    SearchOutcome,
    charsum_experiment,
    density_experiment,
    find_small_nonresidue,
)
from .quadext import (
    ExtensionRing,
    OpCounter,
    QuadExtElement,
    ext_add,
    ext_mul,
    ext_norm,
    ext_pow,
    ext_square,
    frobenius_conjugate,
    mul_by_x,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # arith
    "SMALL_PRIMES",
    "TRIAL_DIVISION_BOUND",
    "TwoAdic",
    "as_fraction",
    "ceil_frac_pow",
    "floor_frac_pow",
    "iroot",
    "is_perfect_square",
    "jacobi",
    "mod_pow",
    "primes_up_to",
    "trial_divide",
    "two_adic_split",
    # quadext
    "ExtensionRing",
    "OpCounter",
    "QuadExtElement",
    "ext_add",
    "ext_mul",
    "ext_norm",
    "ext_pow",
    "ext_square",
    "frobenius_conjugate",
    "mul_by_x",
    # frobenius
    "RETRY_CAP",
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
    "initial_screen",
    "lucas_test",
    "lucas_uv",
    "pure_form_of",
    "qft",
    "rqft",
    "rqft_with_small_c",
    "sample_nonresidue",
    "step5_chain",
    "step5_naive",
    "strong_test",
    # nonresidue
    "DEFAULT_DELTA",
    "DELTA_THRESHOLD",
    "CharSumReport",
    "DensityReport",
    "NonresidueNotFound",
    "SearchConfig",
    "SearchOutcome",
    "charsum_experiment",
    "density_experiment",
    "find_small_nonresidue",
    # cost_model
    "DELTA_STAR",
    "PRESET_MS",
    "CostReport",
    "CostWeights",
    "MeasuredCosts",
    "Variant",
    "cost_table",
    "measure_m",
    "per_op_cost",
    "render_cost_table",
    "summarize",
]
