"""Cost accounting for the extension-ring tests.

The unit is one modular squaring at the size of n.  A full modular
multiplication costs m >= 1 squaring-equivalents (machine dependent: about
2 for schoolbook ranges, approaching 1 with FFT-size operands), and a
multiplication by a delta-fraction-size operand costs delta * m.  Per
iteration of the dominant exponentiation ladder the four test variants
cost, in squaring-equivalents:

    general form               2 + m      (2 squarings + 1 full mult)
    pure form, random c        3m         (3 full mults)
    pure form, c = -1          2m         (2 full mults; needs extra symbol
                                           conditions that only a Riemann-
                                           hypothesis bound makes cheap)
    pure form, small c         (2 + delta) m

``summarize`` converts recorded operation counts into squaring-equivalents
and Selfridge units (cost / log2 n); ``measure_m`` estimates m for this
machine by timing actual bignum products; ``cost_table`` tabulates the
per-iteration costs for representative m.
"""

from __future__ import annotations

import math
import random
import statistics
import time
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from .arith import modulus_value
from .nonresidue import DELTA_THRESHOLD, _record
from .quadext import OpCounter

__all__ = [
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

#: ``nonresidue.DELTA_THRESHOLD``, 1/(3*sqrt(e)): the nonresidue search
#: succeeds above it for every large enough odd nonsquare n (an asymptotic
#: bound, not one for every n); the table prices small multiplications at
#: this ratio.
DELTA_STAR = DELTA_THRESHOLD

#: Representative multiplication-to-squaring ratios for the cost table.
PRESET_MS = (2.0, 1.3, 1.0)


class Variant(str, Enum):
    """The four test variants the per-iteration cost model covers."""

    QFT = "qft"
    RQFT = "rqft"
    RQFT_ERH = "rqft-erh"
    RQFT_SMALLC = "rqft-smallc"


@dataclass(frozen=True)
class CostWeights:
    """m = cost of a full multiplication, delta = small-operand size ratio,
    both relative to one squaring at the size of n."""

    m: float
    delta: float = DELTA_STAR

    def __post_init__(self) -> None:
        if not self.m > 0:
            raise ValueError("m must be positive")
        if not math.isfinite(self.m):
            raise ValueError("m must be finite")
        if not 0 < self.delta <= 1:
            raise ValueError("delta must lie in (0, 1]")


def per_op_cost(variant: Variant, weights: CostWeights) -> float:
    """Squaring-equivalents per iteration of the dominant ladder."""
    variant = Variant(variant)
    m = weights.m
    if variant is Variant.QFT:
        return 2.0 + m
    if variant is Variant.RQFT:
        return 3.0 * m
    if variant is Variant.RQFT_ERH:
        return 2.0 * m
    return (2.0 + weights.delta) * m


@dataclass(frozen=True)
class CostReport:
    """Aggregate cost of one run.

    msq_total
        squarings + m * full_mults + delta * m * small_mults;
    selfridge_units
        msq_total / log2(n), the cost in squaring-equivalents per bit;
    selfridges
        (squarings + full_mults + small_mults) / log2(n), the classical
        flat count of modular multiplications per bit;
    param_mults
        multiplications by the fixed ring parameters, reported separately
        and priced by neither total (a fixed-parameter product costs what
        its operand sizes say, which the per-iteration model does not fix).
    """

    msq_total: float
    selfridge_units: float
    selfridges: float
    param_mults: int

    def as_dict(self) -> dict:
        return _record(self)


def summarize(counter: OpCounter, n: int, weights: CostWeights) -> CostReport:
    """Price recorded operation counts against a modulus of size n."""
    n = modulus_value(n)
    lg = math.log2(n)
    msq = (
        counter.squarings
        + weights.m * counter.full_mults
        + weights.delta * weights.m * counter.small_mults
    )
    flat = counter.squarings + counter.full_mults + counter.small_mults
    return CostReport(
        msq_total=msq,
        selfridge_units=msq / lg,
        selfridges=flat / lg,
        param_mults=counter.param_mults,
    )


@dataclass(frozen=True)
class MeasuredCosts:
    """Median per-operation timings for this machine at one operand size."""

    bits: int
    trials: int
    reps: int
    seed: int
    delta: float
    square_ns: float
    full_mult_ns: float
    small_mult_ns: float

    @property
    def m(self) -> float:
        return self.full_mult_ns / self.square_ns

    @property
    def small_m(self) -> float:
        return self.small_mult_ns / self.square_ns

    def weights(self) -> CostWeights:
        return CostWeights(self.m, self.delta)

    def as_dict(self) -> dict:
        return _record(self, "m", "small_m")


def _time_products(pairs: Sequence[tuple], n: int, reps: int) -> float:
    """Nanoseconds per ``a * b % n`` over a fixed operand cycle."""
    k = len(pairs)
    i = 0
    start = time.perf_counter_ns()
    for _ in range(reps):
        a, b = pairs[i]
        _ = a * b % n
        i += 1
        if i == k:
            i = 0
    return (time.perf_counter_ns() - start) / reps


def measure_m(
    bits: int,
    trials: int,
    *,
    seed: Optional[int] = None,
    reps: Optional[int] = None,
) -> MeasuredCosts:
    """Estimate m on this machine by timing modular products at ``bits`` bits.

    Times x*x % n, x*y % n and x*s % n (s of ceil(bits*DELTA_STAR) bits)
    over random operands; each of ``trials`` rounds runs ``reps`` products
    and the median round is reported.  Interpreter overhead affects all three
    loops equally, so the ratios are meaningful even when each product is
    cheap.
    """
    if bits < 64:
        raise ValueError("bits must be at least 64")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if reps is not None and reps < 1:
        raise ValueError("reps must be at least 1")
    used_seed = seed if seed is not None else random.SystemRandom().getrandbits(64)
    rng = random.Random(used_seed)
    if reps is None:
        reps = max(500, 2_000_000 // bits)
    small_bits = max(2, math.ceil(bits * DELTA_STAR))

    def full_width(width: int) -> int:
        return rng.getrandbits(width) | (1 << (width - 1)) | 1

    n = full_width(bits)
    xs = [full_width(bits) % n for _ in range(32)]
    ys = [full_width(bits) % n for _ in range(32)]
    ss = [full_width(small_bits) for _ in range(32)]
    square_pairs = [(x, x) for x in xs]
    full_pairs = list(zip(xs, ys))
    small_pairs = list(zip(xs, ss))
    # Warm-up pass so allocator and cache state are comparable across loops.
    for pairs in (square_pairs, full_pairs, small_pairs):
        _time_products(pairs, n, max(1, reps // 4))
    sq_times, fm_times, sm_times = [], [], []
    for _ in range(trials):
        sq_times.append(_time_products(square_pairs, n, reps))
        fm_times.append(_time_products(full_pairs, n, reps))
        sm_times.append(_time_products(small_pairs, n, reps))
    return MeasuredCosts(
        bits=bits,
        trials=trials,
        reps=reps,
        seed=used_seed,
        delta=DELTA_STAR,
        square_ns=statistics.median(sq_times),
        full_mult_ns=statistics.median(fm_times),
        small_mult_ns=statistics.median(sm_times),
    )


def cost_table(ms: Optional[Sequence[float]] = None, delta: float = DELTA_STAR) -> list:
    """Per-iteration costs of all variants for each m; one dict per row.

    Raises ValueError when ms names no m.
    """
    if ms is None:
        ms = PRESET_MS
    rows = []
    for m in ms:
        weights = CostWeights(float(m), delta)
        row = {"m": float(m)}
        for variant in Variant:
            row[variant.value] = per_op_cost(variant, weights)
        rows.append(row)
    if not rows:
        raise ValueError("ms must name at least one m")
    return rows


def render_cost_table(rows: Sequence[dict]) -> str:
    """Fixed-point text table of ``cost_table`` rows."""
    headers = ["m"] + [variant.value for variant in Variant]
    cells = [[f"{row['m']:.2f}"] + [f"{row[v.value]:.2f}" for v in Variant] for row in rows]
    widths = [max(len(h), max(len(c[i]) for c in cells)) for i, h in enumerate(headers)]
    lines = ["  ".join(h.rjust(w) for h, w in zip(headers, widths))]
    for c in cells:
        lines.append("  ".join(v.rjust(w) for v, w in zip(c, widths)))
    return "\n".join(lines)
