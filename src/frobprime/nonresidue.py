"""Small quadratic nonresidue search and Jacobi-symbol statistics.

``find_small_nonresidue`` scans c = 2, 3, 5, 6, ... (perfect squares are
skipped: their symbol is never -1) for the first c with jacobi(c, n) = -1,
examining at most ceil(n^delta) candidates.  The bound behind the cap is
asymptotic: for delta above 1/(3*sqrt(e)) = 0.2021... the scan succeeds for
every odd nonsquare n beyond some size the theorem does not make explicit,
which is why the default exponent is the slightly larger 81/400 = 0.2025.
Below that size the cap can be too small: the prime 2929911599 has least
nonresidue 97, the 88th candidate, against a cap of 83.  A zero symbol
along the way yields a nontrivial factor instead.

``density_experiment`` and ``charsum_experiment`` measure the two facts the
guarantee rests on: non-residues are dense among small candidates, and
partial character sums over [1, n^gamma) cancel.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from fractions import Fraction
from typing import NamedTuple, Optional

from .arith import as_fraction, ceil_frac_pow, floor_frac_pow, is_perfect_square, jacobi, modulus_value

__all__ = [
    "DEFAULT_DELTA",
    "DELTA_THRESHOLD",
    "CharSumReport",
    "DensityReport",
    "SearchConfig",
    "SearchOutcome",
    "charsum_experiment",
    "density_experiment",
    "find_small_nonresidue",
]

#: Exponents strictly above this value make the search succeed for every
#: large enough odd nonsquare n; the bound is asymptotic, not for every n.
DELTA_THRESHOLD = 1.0 / (3.0 * math.sqrt(math.e))

#: Default search exponent: 81/400, the smallest round decimal above the threshold.
DEFAULT_DELTA = Fraction("0.2025")


def _record(report, *derived: str) -> dict:
    """A report's fields in order, then its ``derived`` properties, with each
    Fraction written as its exact string: the record ``--output`` prints."""
    record = {}
    for name in report._fields + derived:
        value = getattr(report, name)
        record[name] = str(value) if isinstance(value, Fraction) else value
    return record


class SearchConfig(NamedTuple):
    """Search budget: examine at most ``cap`` = ceil(n^delta) candidates."""

    delta: Fraction
    cap: int

    @classmethod
    def for_modulus(cls, n: int, delta=None) -> "SearchConfig":
        n = modulus_value(n)
        d = _search_delta(delta)
        return cls(d, ceil_frac_pow(n, d))


def _search_delta(delta) -> Fraction:
    """The search exponent (DEFAULT_DELTA when None), checked to lie above the
    asymptotic threshold DELTA_THRESHOLD and below 1."""
    d = as_fraction(delta) if delta is not None else DEFAULT_DELTA
    if not DELTA_THRESHOLD < float(d) < 1:
        raise ValueError(
            f"delta must lie in (1/(3*sqrt(e)), 1) = ({DELTA_THRESHOLD:.10f}, 1); got {d}"
        )
    return d


class SearchOutcome(NamedTuple):
    """Result of one search: exactly one of c / factor set, or neither.

    ``examined`` counts the candidates whose symbol was actually evaluated;
    skipped perfect squares are free and do not count against the cap.
    """

    c: Optional[int]
    factor: Optional[int]
    examined: int

    @property
    def kind(self) -> str:
        if self.c is not None:
            return "small-c"
        if self.factor is not None:
            return "factor"
        return "not-found"


def find_small_nonresidue(n: int, config: Optional[SearchConfig] = None, *, delta=None) -> SearchOutcome:
    """Scan upward from c = 2 for jacobi(c, n) = -1, skipping perfect squares.

    Returns the first hit as ``SearchOutcome(c=...)``; a zero symbol
    returns ``SearchOutcome(factor=gcd(c, n))``; hitting the cap returns a
    not-found outcome.  That happens for perfect squares (the symbol is
    never -1), can happen for other prime powers, and, the bound being
    asymptotic, for some smaller primes too; ``frobenius.run_rounds`` then
    falls back to a drawn full-size nonresidue.

    Without a ``config`` the exact cap ceil(n^delta) is computed only if the
    scan needs it.  n >= 2^(bits(n) - 1) gives the free lower bound
    2^floor((bits(n) - 1) * delta) <= n^delta <= ceil(n^delta), so the scan
    first runs against that bound and tightens it to the exact cap once
    ``examined`` reaches it.  The outcome is the one the exact cap gives;
    at 2048 bits the bound is 2^414 and the exact cap is never computed.
    """
    n = modulus_value(n)
    if config is None:
        d = _search_delta(delta)
        cap, exact = 1 << ((n.bit_length() - 1) * d.numerator // d.denominator), False
    elif delta is not None:
        raise ValueError("pass either a config or a delta, not both")
    else:
        cap, exact = config.cap, True
    examined = 0
    c = 2
    next_root, next_square = 2, 4
    while c < n:
        if examined >= cap:
            if exact:
                break
            cap, exact = ceil_frac_pow(n, d), True
            continue
        if c == next_square:
            next_root += 1
            next_square = next_root * next_root
            c += 1
            continue
        examined += 1
        j = jacobi(c, n)
        if j == -1:
            return SearchOutcome(c=c, factor=None, examined=examined)
        if j == 0:
            return SearchOutcome(c=None, factor=math.gcd(c, n), examined=examined)
        c += 1
    return SearchOutcome(c=None, factor=None, examined=examined)


#: ``density_experiment`` enumerates windows up to this size and samples larger ones.
_ENUMERATION_LIMIT = 10**6
#: The most terms ``charsum_experiment`` sums.
_MAX_TERMS = 10**7


class DensityReport(NamedTuple):
    """Counts of Jacobi symbols over the candidate window [2, ceil(n^delta)]."""

    n: int
    delta: Fraction
    mode: str  # "exhaustive" or "sampled"
    seed: Optional[int]
    candidates_examined: int
    count_minus_one: int
    count_zero: int
    count_not_plus_one: int

    @property
    def proportion(self) -> float:
        """Fraction of examined candidates with symbol != +1."""
        return self.count_not_plus_one / self.candidates_examined

    def as_dict(self) -> dict:
        return _record(self, "proportion")


def density_experiment(
    n: int,
    delta=None,
    *,
    seed: Optional[int] = None,
    sample_size: int = 100_000,
) -> DensityReport:
    """Measure how often jacobi(c, n) != +1 for c in [2, ceil(n^delta)].

    The window is enumerated exhaustively when it has at most
    ``_ENUMERATION_LIMIT`` candidates, otherwise ``sample_size`` candidates
    are drawn uniformly with the seeded generator.  Perfect squares stay in
    the window here (the point is the raw density).  Square n is rejected:
    its symbol is never -1 and the density statement does not apply.
    """
    n = modulus_value(n)
    if sample_size < 1:
        raise ValueError("sample_size must be at least 1")
    if is_perfect_square(n):
        raise ValueError("n must not be a perfect square")
    d = as_fraction(delta) if delta is not None else DEFAULT_DELTA
    if not 0 < float(d) < 1:
        raise ValueError("delta must lie in (0, 1)")
    cap = ceil_frac_pow(n, d)
    total = cap - 1  # candidates 2 .. cap inclusive
    if total <= 0:
        raise ValueError("window is empty; increase delta")
    if total <= _ENUMERATION_LIMIT:
        mode, used_seed = "exhaustive", None
        candidates = range(2, cap + 1)
    else:
        mode = "sampled"
        used_seed = seed if seed is not None else random.SystemRandom().getrandbits(64)
        rng = random.Random(used_seed)
        candidates = (rng.randint(2, cap) for _ in range(sample_size))
    symbols = Counter(jacobi(c, n) for c in candidates)
    return DensityReport(
        n=n,
        delta=d,
        mode=mode,
        seed=used_seed,
        candidates_examined=symbols.total(),
        count_minus_one=symbols[-1],
        count_zero=symbols[0],
        count_not_plus_one=symbols[-1] + symbols[0],
    )


class CharSumReport(NamedTuple):
    """Partial character sum S = sum(jacobi(k, n) for 1 <= k < cutoff)."""

    n: int
    gamma: Fraction
    cutoff: int
    charsum: int

    @property
    def ratio(self) -> float:
        """Cancellation measure |S| / cutoff; near 0 means strong cancellation."""
        return abs(self.charsum) / self.cutoff

    def as_dict(self) -> dict:
        return _record(self, "ratio")


def charsum_experiment(n: int, gamma) -> CharSumReport:
    """Sum jacobi(k, n) for k in [1, floor(n^gamma)) and report the total.

    gamma = 1 sums one step short of a full period; for odd nonsquare n
    the full-period sum is exactly 0 (and jacobi(n-1 + 1, n) would be the
    k = n term, which is 0), so the reported sum is 0 there.
    """
    n = modulus_value(n)
    g = as_fraction(gamma)
    if not 0 < g <= 1:
        raise ValueError("gamma must lie in (0, 1]")
    cutoff = floor_frac_pow(n, g)
    if cutoff > _MAX_TERMS:
        raise ValueError(f"cutoff {cutoff} exceeds max_terms={_MAX_TERMS}; lower gamma")
    total = 0
    for k in range(1, cutoff):
        total += jacobi(k, n)
    return CharSumReport(n=n, gamma=g, cutoff=cutoff, charsum=total)
