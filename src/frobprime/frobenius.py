"""Quadratic Frobenius compositeness tests and classical baselines.

The two main entry points are ``qft`` (the test in the general ring
Z[x]/(n, x^2 - b*x - c)) and ``rqft`` (the reformulation in the pure ring
Z[x]/(n, x^2 - c) with test element z = a*x + b).  Both execute the same
six steps, strictly in order:

1. trial division by primes <= min(B, isqrt(n)) with B = 50000;
2. perfect-square check;
3. z^((n+1)/2) must be a scalar (x-coefficient 0);
4. z^(n+1) must equal the norm N(z) (-c for z = x in the general form,
   b^2 - c*a^2 for z = a*x + b in the pure form);
5. with n^2 - 1 = 2^r * s (s odd): z^s = 1, or z^(2^j * s) = -1 for some
   0 <= j <= r - 2;
6. otherwise: probable prime.

Steps 1-2 fully decide any n <= B^2 (a composite there has a prime factor
<= isqrt(n) <= B), so by default the extension steps never run for such n;
pass ``force_extension_steps=True`` to exercise them anyway.

Every entry point decides n along one path.  The work that depends on n
alone runs first and once: steps 1-2 and the B^2 shortcut (``_screen``),
then, for the small-c variant, the nonresidue search.  The window plan of
the dominant ladder z^s2, s2 = (n + 1)/2^v2(n + 1), depends on n alone
too: the first round builds it and the later rounds reuse it
(``quadext._window_plan`` keeps the last two plans).  Only the parameter draw
and steps 3-5 (``_run_round``) repeat per round.
``qft`` and ``rqft`` run one round on parameters from the caller, which
they check first.  ``run_rounds`` decides n by rounds of any of the six
methods of ``frobprime test`` (the Fermat, strong and Lucas baselines have
no screen), and ``rqft_with_small_c`` is one round of its small-c
pipeline; both trust parameters their own samplers have just checked.

Parameter generation, the Fermat/strong/Lucas baseline tests, and the
change-of-form parameter map live here too.  Randomized helpers take an
injected ``random.Random``-style source so every behavior is reproducible
from a seed.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple, Optional

from .arith import (
    TRIAL_DIVISION_BOUND,
    isqrt,
    jacobi,
    mod_pow,
    modulus_value,
    trial_divide,
    two_adic_split,
)
from . import nonresidue
from .quadext import ExtensionRing, OpCounter, QuadExtElement, ext_norm, ext_pow, ext_square
from .quadext import _fold, _pure_form, _pure_power, _remember, _window_width

__all__ = [
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
    "run_rounds",
    "sample_nonresidue",
    "step5_chain",
    "step5_naive",
    "strong_test",
]

#: Retry cap for all rejection-sampling parameter searches.
RETRY_CAP = 64

#: The methods run_rounds decides: the three extension tests, then the baselines.
_METHODS = ("qft", "rqft", "rqft-smallc", "fermat", "strong", "lucas")
#: The methods that screen n (steps 1-2 and the B^2 shortcut) before any round.
_SCREENED_METHODS = _METHODS[:3]


class CompositeReason(str, Enum):
    """Why a verdict declared n composite."""

    SMALL_FACTOR = "small-factor"
    PERFECT_SQUARE = "perfect-square"
    STEP3 = "step3"
    STEP4 = "step4"
    STEP5 = "step5"
    JACOBI_ZERO_FACTOR = "jacobi-zero-factor"
    SHARED_FACTOR = "shared-factor"
    FERMAT = "fermat-congruence"
    STRONG = "strong-congruence"
    LUCAS = "lucas-congruence"


class _VerdictFields(NamedTuple):
    is_probable_prime: bool
    reason: Optional[CompositeReason] = None
    factor: Optional[int] = None


class Verdict(_VerdictFields):
    """Outcome of a single test run.

    ``factor``, when present, is a nontrivial divisor of n discovered along
    the way (trial division, a perfect-square root, or a zero Jacobi
    symbol's gcd).
    """

    __slots__ = ()

    def __new__(cls, is_probable_prime: bool, reason: Optional[CompositeReason] = None,
                factor: Optional[int] = None) -> "Verdict":
        if is_probable_prime and reason is not None:
            raise ValueError("a probable-prime verdict carries no reason")
        if not is_probable_prime and reason is None:
            raise ValueError("a composite verdict needs a reason")
        return super().__new__(cls, is_probable_prime, reason, factor)

    @classmethod
    def probable_prime(cls) -> "Verdict":
        return cls(True)

    @classmethod
    def composite(cls, reason: CompositeReason, factor: Optional[int] = None) -> "Verdict":
        return cls(False, reason, factor)

    def __str__(self) -> str:
        if self.is_probable_prime:
            return "probable prime"
        if self.factor is not None:
            return f"composite ({self.reason.value}, factor {self.factor})"
        return f"composite ({self.reason.value})"


class FactorFound(Exception):
    """A nontrivial factor of n surfaced during a parameter search."""

    def __init__(self, factor: int) -> None:
        super().__init__(f"nontrivial factor {factor}")
        self.factor = factor


class ParamSearchExhausted(Exception):
    """A rejection-sampling parameter search hit its retry cap."""


class QftParams(NamedTuple):
    """General-form parameters (b, c); valid for n when
    jacobi(b^2 + 4c, n) = -1 and jacobi(-c, n) = +1."""

    b: int
    c: int


class RqftParams(NamedTuple):
    """Pure-form parameters (a, b, c); valid for n when
    jacobi(b^2 - c*a^2, n) = +1 and jacobi(c, n) = -1."""

    a: int
    b: int
    c: int


class PhaseCounters:
    """Per-phase operation counters for one test run.

    squaring_steps
        the dominant exponentiation's squaring steps (and the trailing
        squarings that complete z^((n+1)/2));
    multiply_steps
        the ladder's multiply steps, one per set exponent bit;
    tail
        everything after step 3: the step-4 squaring and all step-5 work.

    Keeping the buckets separate lets the dominant-term cost contract be
    asserted on the squaring steps alone; ``total()`` aggregates all three.
    Equality compares the three counters; like them, the record is mutable
    and so unhashable.
    """

    __slots__ = ("squaring_steps", "multiply_steps", "tail")
    __hash__ = None

    def __init__(self, squaring_steps: OpCounter, multiply_steps: OpCounter, tail: OpCounter) -> None:
        self.squaring_steps = squaring_steps
        self.multiply_steps = multiply_steps
        self.tail = tail

    def __repr__(self) -> str:
        return (f"{self.__class__.__qualname__}(squaring_steps={self.squaring_steps!r}, "
                f"multiply_steps={self.multiply_steps!r}, tail={self.tail!r})")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.squaring_steps, self.multiply_steps, self.tail)
                == (other.squaring_steps, other.multiply_steps, other.tail))

    @classmethod
    def fresh(cls) -> "PhaseCounters":
        return cls(OpCounter(), OpCounter(), OpCounter())

    def total(self) -> OpCounter:
        return self.squaring_steps + self.multiply_steps + self.tail

    def __iadd__(self, other: "PhaseCounters") -> "PhaseCounters":
        self.squaring_steps += other.squaring_steps
        self.multiply_steps += other.multiply_steps
        self.tail += other.tail
        return self


def initial_screen(n: int) -> Optional[Verdict]:
    """Steps 1-2: trial division to min(B, isqrt(n)), then the square check.

    Returns a composite verdict when either fires, else None.  A None
    return for n <= B^2 proves n prime, since every composite has a prime
    factor <= isqrt(n).
    """
    n = modulus_value(n)
    root = isqrt(n)
    p = trial_divide(n, min(TRIAL_DIVISION_BOUND, root))
    if p is not None:
        return Verdict.composite(CompositeReason.SMALL_FACTOR, p)
    if root * root == n:
        return Verdict.composite(CompositeReason.PERFECT_SQUARE, root)
    return None


def _screen(n: int, force_extension_steps: bool = False) -> Optional[Verdict]:
    """Steps 1-2, then the B^2 shortcut: the verdict they reach, else None."""
    verdict = initial_screen(n)
    if verdict is None and n <= TRIAL_DIVISION_BOUND ** 2 and not force_extension_steps:
        return Verdict.probable_prime()
    return verdict


def generate_qft_params(n: int, rng) -> QftParams:
    """Sample (b, c) uniformly until the general-form symbol conditions hold.

    b is drawn from [0, n-1] and c from [1, n-1]; requiring b >= 1 would
    leave n = 3 with no valid pair at all.  A zero Jacobi symbol raises
    FactorFound with the nontrivial gcd; b^2 + 4c = 0 mod n is resampled
    (its gcd is n, which proves nothing).  jacobi(-c, n) is computed only
    for a draw whose jacobi(b^2 + 4c, n) is -1; on any other draw gcd(c, n)
    stands in for it, raising the same FactorFound where that symbol would
    be 0.  Gives up after RETRY_CAP draws.
    """
    n = modulus_value(n)
    for _ in range(RETRY_CAP):
        b = rng.randrange(n)
        c = rng.randrange(1, n)
        d = (b * b + 4 * c) % n
        if d == 0:
            continue
        jd = jacobi(d, n)
        if jd == 0:
            raise FactorFound(math.gcd(d, n))
        if jd != -1:
            # jacobi(-c, n) would only matter when 0, that is when gcd(c, n) > 1
            g = math.gcd(c, n)
            if g > 1:
                raise FactorFound(g)
            continue
        jc = jacobi(n - c, n)
        if jc == 0:
            raise FactorFound(math.gcd(c, n))
        if jc == 1:
            return QftParams(b, c)
    raise ParamSearchExhausted(f"no valid (b, c) for n={n} in {RETRY_CAP} draws")


def generate_rqft_params(n: int, c: Optional[int], rng) -> RqftParams:
    """Sample (a, b) until jacobi(b^2 - c*a^2, n) = +1, keeping c.

    A caller's c must have jacobi(c, n) = -1 (for example from the
    small-nonresidue search), and is checked: a zero symbol raises
    FactorFound, any other symbol but -1 ValueError.  With c=None, c is
    first drawn from ``rng`` by ``sample_nonresidue``, whose symbol is not
    computed again; the draws are then those of
    ``generate_rqft_params(n, sample_nonresidue(n, rng), rng)``.  A zero
    jacobi(b^2 - c*a^2, n) raises FactorFound too; for prime n about half
    of all (a, b) pairs are accepted, so two draws are expected on average.
    """
    n = modulus_value(n)
    if c is None:
        c = sample_nonresidue(n, rng)
    else:
        c %= n
        jc = jacobi(c, n)
        if jc == 0:
            raise FactorFound(math.gcd(c, n))
        if jc != -1:
            raise ValueError("c must be a nonresidue: jacobi(c, n) = -1 required")
    for _ in range(RETRY_CAP):
        a = rng.randrange(1, n)
        b = rng.randrange(n)
        e = (b * b - c * a * a) % n
        if e == 0:
            continue
        je = jacobi(e, n)
        if je == 0:
            raise FactorFound(math.gcd(e, n))
        if je == 1:
            return RqftParams(a, b, c)
    raise ParamSearchExhausted(f"no valid (a, b) for n={n}, c={c} in {RETRY_CAP} draws")


def sample_nonresidue(n: int, rng) -> int:
    """Sample c uniformly from [2, n-1] until jacobi(c, n) = -1.

    A zero symbol raises FactorFound.  Used by the plain pure-form test
    when no small c is wanted.
    """
    n = modulus_value(n)
    if n == 3:
        return 2
    for _ in range(RETRY_CAP):
        c = rng.randrange(2, n)
        j = jacobi(c, n)
        if j == -1:
            return c
        if j == 0:
            raise FactorFound(math.gcd(c, n))
    raise ParamSearchExhausted(f"no nonresidue found for n={n} in {RETRY_CAP} draws")


def _pick_base(n: int, rng, fixed: Optional[int]) -> int:
    """The Fermat/strong base: ``fixed`` when given, else uniform in [2, n-2] (2 for n <= 4)."""
    if fixed is not None:
        return fixed
    if n <= 4:
        return 2
    return rng.randrange(2, n - 1)


def _sample_lucas_params(n: int, rng) -> "tuple[int, int]":
    """Sample P and Q from [1, n-1] until P^2 - 4Q is nonzero mod n."""
    for _ in range(RETRY_CAP):
        P = rng.randrange(1, n)
        Q = rng.randrange(1, n)
        if (P * P - 4 * Q) % n != 0:
            return P, Q
    raise ParamSearchExhausted(f"no usable Lucas parameters for n={n}")


def _check_qft_params(n: int, params: QftParams) -> None:
    """Raise ValueError unless jacobi(b^2 + 4c, n) = -1 and jacobi(-c, n) = +1."""
    b, c = params.b % n, params.c % n
    d = (b * b + 4 * c) % n
    if jacobi(d, n) != -1:
        raise ValueError("invalid parameters: jacobi(b^2 + 4c, n) must be -1")
    if jacobi(n - c, n) != 1:
        raise ValueError("invalid parameters: jacobi(-c, n) must be +1")


def _check_rqft_params(n: int, params: RqftParams) -> None:
    """Raise ValueError unless jacobi(c, n) = -1 and jacobi(b^2 - c*a^2, n) = +1."""
    a, b, c = params.a % n, params.b % n, params.c % n
    if jacobi(c, n) != -1:
        raise ValueError("invalid parameters: jacobi(c, n) must be -1")
    if jacobi((b * b - c * a * a) % n, n) != 1:
        raise ValueError("invalid parameters: jacobi(b^2 - c*a^2, n) must be +1")


def _run_round(
    n: int,
    params: "QftParams | RqftParams",
    counter: Optional[OpCounter],
    phases: Optional[PhaseCounters] = None,
    small_c: bool = False,
) -> Verdict:
    """Steps 3-5 for parameters known to be valid for n.

    Builds the ring and the test element from the parameters: z = x in
    the general form, z = a*x + b in the pure form.  The round books into
    fresh buckets, which are then added to ``phases`` and ``counter``, so
    callers may share both across runs.
    """
    if isinstance(params, QftParams):
        ring = ExtensionRing.general(n, params.b, params.c)
        z = QuadExtElement(0, 1)
    else:
        ring = ExtensionRing.pure(n, params.c, small=small_c)
        z = QuadExtElement(params.b % n, params.a % n)
    ph = PhaseCounters.fresh()
    verdict = _extension_steps(z, ring, ph)
    if phases is not None:
        phases += ph
    if counter is not None:
        counter += ph.squaring_steps
        counter += ph.multiply_steps
        counter += ph.tail
    return verdict


def _extension_steps(z: QuadExtElement, ring: ExtensionRing, ph: PhaseCounters) -> Verdict:
    """Steps 3-5 on a prepared ring/element; assumes steps 1-2 already passed.

    Step 3's z^((n+1)/2) is the dominant ladder: with n + 1 = 2^r2 * s2, y =
    z^s2 and then w = y^(2^(r2-1)), the squaring-step count of a direct
    (n+1)/2 ladder.  Both powers book every step at the contract cost
    (generic_squares), even where an intermediate power is scalar.  Step 4
    checks z^(n+1) = w^2 against the norm N(z): -c for z = x in the general
    form, b^2 - c*a^2 for z = a*x + b in the pure form.

    With n - 1 = 2^r1 * s1, the ladder for y also hands back its prefix
    P = z^(s2 >> r1), r1 bits before its end.  Once step 4 passes, step 5's
    high power W = w^(s1 >> (r2-1)) is N(P) times w or 1, with no pow (see
    ``_step5_from_intermediates``), and this is the one place that stores
    it where step 5's ext_pow calls read it (``quadext._remember``).  Where
    2*r2 reaches bits(s1) (n = 2^k - 1, say), splitting saves less than the
    probe and the low ladder cost, so no W is derived.
    """
    n = ring.n
    r1, s1 = two_adic_split(n - 1)
    r2, s2 = two_adic_split(n + 1)
    derive = 2 * r2 < s1.bit_length()
    y, prefix = ext_pow(z, s2, ring, ph.squaring_steps, ph.multiply_steps, generic_squares=True,
                        prefix_shift=r1 if derive else 0)
    w = ext_pow(y, 1 << (r2 - 1), ring, ph.squaring_steps, generic_squares=True)
    if w.v != 0:
        return Verdict.composite(CompositeReason.STEP3)
    q = ext_square(w, ring, ph.tail)  # z^(n+1), one scalar squaring
    if q.u != ext_norm(z, ring):
        return Verdict.composite(CompositeReason.STEP4)
    if derive:
        high = s1 >> (r2 - 1)
        _remember(ring, w.u, high, ext_norm(prefix, ring) * (w.u if high & 1 else 1) % n)
    if not _step5_from_intermediates(y, w, r2, ring, ph.tail):
        return Verdict.composite(CompositeReason.STEP5)
    return Verdict.probable_prime()


def _step5_from_intermediates(
    y: QuadExtElement,
    w: QuadExtElement,
    r2: int,
    ring: ExtensionRing,
    counter: Optional[OpCounter],
) -> bool:
    """Step-5 chain given y = z^s2 and w = z^((n+1)/2) = y^(2^(r2-1)).

    With n - 1 = 2^r1 * s1 and n + 1 = 2^r2 * s2, the step-5 exponent splits
    as n^2 - 1 = 2^(r1+r2) * (s1*s2).  Let t = w^s1 = z^(2^(r2-1) * s).

    * If t != 1, then z^s = 1 is impossible and so is z^(2^j s) = -1 for any
      j < r2 - 1 (either would square up to t = 1); the test passes iff
      t^(2^i) = -1 for some 0 <= i <= r1 - 1, which covers exactly the
      levels j = r2 - 1 .. r1 + r2 - 2 of the original chain.
    * If t = 1, every level j >= r2 - 1 equals 1, so only z^s itself and the
      levels j <= r2 - 2 matter; z^s = y^s1 is recomputed directly.

    When steps 3-4 passed, w is a scalar, so t = w^s1 is scalar work and the
    usual (t != 1) chain runs entirely in the base ring.  Then t = 1 makes y
    a unit whose power y^(2^(r2-1)) = w is scalar, and y^s1 is W *
    y^(s1 mod 2^(r2-1)), a ladder of r2 - 1 bits.  Both powers split at
    j = r2 - 1 where the ring holds the high power W = w^(s1 >> j)
    (quadext.ExtensionRing._last_power), which ext_pow reads and never
    writes.  A round puts W there before this runs (``_extension_steps``):
    step 4 has shown z^(n+1) = N(z), and the norm is multiplicative mod
    any n, so with q = s1 >> r2 and b bit j of s1, W = w^(2q) * w^b =
    N(z)^q * w^b = N(z^q) * w^b, and z^q is the dominant ladder's prefix.
    So t costs pows of at most r2 bits, and a round runs no full-size pow,
    unless r2 reaches half of s1's bits (n = 2^k - 1, say): there no W is
    derived, t is one whole pow, and y^s1 is the plain ladder.  So is every
    call on a ring that holds no W (``step5_chain``).  Both powers book
    what the plain binary ladder books: with W, ext_pow derives y^s1's
    scalar steps in closed form from the least a with y^(2^a) scalar;
    without it, the ladder counts them.
    """
    one = QuadExtElement(1, 0)
    r1, s1 = two_adic_split(ring.n - 1)
    t = ext_pow(w, s1, ring, counter)
    if t != one:
        return _minus_one_first(t, r1, ring, counter)
    if r2 == 1:
        return True  # t = z^s = 1
    zeta = ext_pow(y, s1, ring, counter)
    return zeta == one or _minus_one_first(zeta, r2 - 1, ring, counter)


def _minus_one_first(x: QuadExtElement, k: int, ring: ExtensionRing, counter: Optional[OpCounter]) -> bool:
    """Whether -1 comes before 1 among x, x^2, ..., x^(2^(k-1)).

    Squares once after each element checked, the last one included, as the
    chain always has: bookings depend on it.
    """
    one = QuadExtElement(1, 0)
    minus_one = QuadExtElement(ring.n - 1, 0)
    for _ in range(k):
        if x == minus_one:
            return True
        if x == one:
            return False  # reached 1 without passing -1
        x = ext_square(x, ring, counter)
    return False


def step5_chain(z: QuadExtElement, ring: ExtensionRing, counter: Optional[OpCounter] = None) -> bool:
    """Step 5 via the optimized chain; value-equivalent to step5_naive for every z.

    Splits n^2 - 1 through the factors n - 1 and n + 1 and reuses the
    intermediates a full test run already has from step 3.  For an
    arbitrary z, w = z^((n+1)/2) need not be scalar; t = w^s1 is then an
    extension ladder.  No step 4 runs here to derive step 5's high power
    W, so t and y^s1 share nothing: a scalar t is one whole pow, and y^s1
    is the plain ladder.  Values and bookings are those of the plain
    ladders either way.
    """
    r2, s2 = two_adic_split(ring.n + 1)
    y = ext_pow(z, s2, ring, counter)
    w = ext_pow(y, 1 << (r2 - 1), ring, counter)
    return _step5_from_intermediates(y, w, r2, ring, counter)


def step5_naive(z: QuadExtElement, ring: ExtensionRing, counter: Optional[OpCounter] = None) -> bool:
    """Step 5 by direct exponentiation: the reference implementation.

    With n^2 - 1 = 2^r * s (s odd): passes iff z^s = 1 or z^(2^j * s) = -1
    for some 0 <= j <= r - 2.
    """
    n = ring.n
    r, s = two_adic_split(n * n - 1)
    one = QuadExtElement(1, 0)
    minus_one = QuadExtElement(n - 1, 0)
    zeta = ext_pow(z, s, ring, counter)
    if zeta == one:
        return True
    for _ in range(r - 1):
        if zeta == minus_one:
            return True
        zeta = ext_square(zeta, ring, counter)
    return False


def qft(
    n: int,
    params: QftParams,
    counter: Optional[OpCounter] = None,
    *,
    phases: Optional[PhaseCounters] = None,
    force_extension_steps: bool = False,
) -> Verdict:
    """The six-step test in the general ring Z[x]/(n, x^2 - b*x - c) with z = x.

    Steps 1-2 run first (they need no parameters and for composite n the
    symbol conditions may be unsatisfiable); the parameters are validated
    before any extension arithmetic.  ``counter`` receives the run's total
    operation counts; ``phases``, when given, receives the per-phase
    breakdown.
    """
    n = modulus_value(n)
    verdict = _screen(n, force_extension_steps)
    if verdict is not None:
        return verdict
    _check_qft_params(n, params)
    return _run_round(n, params, counter, phases)


def rqft(
    n: int,
    params: RqftParams,
    counter: Optional[OpCounter] = None,
    *,
    phases: Optional[PhaseCounters] = None,
    force_extension_steps: bool = False,
    small_c: bool = False,
) -> Verdict:
    """The six-step test in the pure ring Z[x]/(n, x^2 - c) with z = a*x + b.

    ``small_c=True`` books products by c as small multiplications of ratio
    bits(c)/bits(n); it changes accounting only, never values.
    """
    n = modulus_value(n)
    verdict = _screen(n, force_extension_steps)
    if verdict is not None:
        return verdict
    _check_rqft_params(n, params)
    return _run_round(n, params, counter, phases, small_c)


def rqft_with_small_c(
    n: int,
    rng,
    *,
    delta=None,
    counter: Optional[OpCounter] = None,
    phases: Optional[PhaseCounters] = None,
    force_extension_steps: bool = False,
):
    """One round of run_rounds' "rqft-smallc" pipeline.

    Returns (verdict, search_outcome, params).  The screen and the B^2
    shortcut run first; when either decides, the search and the draw do not
    run and the result is (verdict, None, None).  A factor surfaced by the
    search or by parameter sampling short-circuits to a composite verdict
    with params None.  If the search exhausts its candidate cap (squares,
    prime powers and some primes, 2929911599 among them, can make it), the
    outcome says not-found and the round falls back to rqft's ring: a
    nonresidue drawn by ``sample_nonresidue``, booked as full-size.  The
    drawn parameters are not checked again: the sampler has just checked
    them.
    """
    verdict, _, outcome, params = _decide(n, "rqft-smallc", rng, 1, counter, delta, None,
                                          phases, force_extension_steps)
    return verdict, outcome, params


def run_rounds(
    n: int,
    method: str,
    rng,
    rounds: int,
    counter: Optional[OpCounter],
    *,
    delta=None,
    base: Optional[int] = None,
) -> "tuple[Verdict, int]":
    """Decide n by up to ``rounds`` rounds of "qft", "rqft", "rqft-smallc", "fermat", "strong" or "lucas".

    Returns (verdict, rounds run).  The method, ``rounds``, n, ``delta``
    and ``base`` are checked before anything is drawn: ``delta`` applies to
    "rqft-smallc" only and ``base`` to "fermat" and "strong" only, and
    either one given to another method raises ValueError.  n = 2 is then a
    probable prime after 0 rounds; any other n must be odd and > 1.  For the
    extension methods the work that depends on n alone runs once: steps
    1-2 and the B^2 shortcut (either decides with 0 rounds), then for
    "rqft-smallc" the small-nonresidue search with exponent ``delta`` (a
    factor it finds decides after 1 round; after an exhausted search the
    rounds draw rqft's full-size nonresidue).  The baselines have no
    screen.  Each round draws parameters as the method's samplers do, in
    the same order from ``rng`` (fermat and strong take ``base`` instead
    when given), and runs the test; a factor found by a sampler or a
    composite verdict ends the run.  The rounds trust the symbols the
    samplers have just checked.  ``counter`` receives the ops of every
    round.
    """
    return _decide(n, method, rng, rounds, counter, delta, base)[:2]


def _decide(n, method, rng, rounds, counter, delta, base, phases=None, force_extension_steps=False):
    """The pipeline of run_rounds and rqft_with_small_c.

    Returns run_rounds' (verdict, rounds run), then the search outcome (None
    unless the search ran) and the last round's parameters (None unless that
    round drew them all).
    """
    _check_options(method, delta, base)
    if rounds < 1:
        raise ValueError("rounds must be at least 1")
    if n == 2:
        return Verdict.probable_prime(), 0, None, None
    n = modulus_value(n)
    outcome = small_c = None
    if method in _SCREENED_METHODS:
        verdict = _screen(n, force_extension_steps)
        if verdict is not None:
            return verdict, 0, None, None
        if method == "rqft-smallc":
            outcome = nonresidue.find_small_nonresidue(n, delta=delta)
            if outcome.factor is not None:
                return Verdict.composite(CompositeReason.JACOBI_ZERO_FACTOR, outcome.factor), 1, outcome, None
            small_c = outcome.c  # None after an exhausted search: rqft's ring
    for k in range(1, rounds + 1):
        verdict, params = _round(n, method, rng, counter, phases, small_c, base)
        if not verdict.is_probable_prime:
            return verdict, k, outcome, params
    return verdict, rounds, outcome, params


def _check_options(method: str, delta, base: Optional[int]) -> None:
    """Reject an unknown method, a delta or base that ``method`` does not take, and a bad delta."""
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}")
    if base is not None and method not in ("fermat", "strong"):
        raise ValueError(f"base applies to fermat and strong only, not {method}")
    if delta is not None:  # None is the default, valid exponent
        if method != "rqft-smallc":
            raise ValueError(f"delta applies to rqft-smallc only, not {method}")
        nonresidue._search_delta(delta)


def _round(n, method, rng, counter, phases, small_c, base):
    """One round of ``method``: (verdict, the parameters drawn, or None after a FactorFound)."""
    if method == "fermat" or method == "strong":
        base = _pick_base(n, rng, base)
        return (fermat_test if method == "fermat" else strong_test)(n, base, counter), base
    if method == "lucas":
        P, Q = _sample_lucas_params(n, rng)
        return lucas_test(n, P, Q, counter), (P, Q)
    try:
        if method == "qft":
            params = generate_qft_params(n, rng)
        else:
            params = generate_rqft_params(n, small_c, rng)
    except FactorFound as found:
        return Verdict.composite(CompositeReason.JACOBI_ZERO_FACTOR, found.factor), None
    return _run_round(n, params, counter, phases, small_c is not None), params


def pure_form_of(n: int, params: QftParams) -> RqftParams:
    """Map general-form (b, c) to the equivalent pure-form triple.

    Completing the square sends x to y + b/2 with y^2 = (b^2 + 4c)/4, so
    the same element is z = 1*y + b/2 over the pure ring; the symbol
    conditions transfer exactly, and both tests compute the same
    element powers, hence the same verdict.  ``ext_pow`` runs every
    general-form power through this map.
    """
    h, d = _pure_form(modulus_value(n), params.b, params.c)
    return RqftParams(1, h, d)


def _coprime_base(n: int, base: int) -> "tuple[int, Optional[Verdict]]":
    base %= n
    if base == 0:
        raise ValueError("base is a multiple of n")
    g = math.gcd(base, n)
    if g > 1:
        return base, Verdict.composite(CompositeReason.SHARED_FACTOR, g)
    return base, None


def fermat_test(n: int, base: int, counter: Optional[OpCounter] = None) -> Verdict:
    """Composite iff base^(n-1) != 1 mod n.

    A base sharing a factor with n yields that factor as a composite
    verdict immediately.
    """
    n = modulus_value(n)
    base, shared = _coprime_base(n, base)
    if shared is not None:
        return shared
    if mod_pow(base, n - 1, n, counter) != 1:
        return Verdict.composite(CompositeReason.FERMAT)
    return Verdict.probable_prime()


def strong_test(n: int, base: int, counter: Optional[OpCounter] = None) -> Verdict:
    """With n - 1 = 2^r * s (s odd): probable prime iff base^s = 1 or
    base^(2^j * s) = -1 for some 0 <= j <= r - 1."""
    n = modulus_value(n)
    base, shared = _coprime_base(n, base)
    if shared is not None:
        return shared
    r, s = two_adic_split(n - 1)
    v = mod_pow(base, s, n, counter)
    if v == 1 or v == n - 1:
        return Verdict.probable_prime()
    for _ in range(r - 1):
        v = v * v % n
        if counter is not None:
            counter.squarings += 1
        if v == n - 1:
            return Verdict.probable_prime()
        if v == 1:
            break  # reached 1 without passing -1; later levels stay 1
    return Verdict.composite(CompositeReason.STRONG)


def lucas_uv(P: int, Q: int, k: int, n: int, counter: Optional[OpCounter] = None) -> "tuple[int, int]":
    """(U_k, V_k) mod n for the sequences U_0=0, U_1=1, V_0=2, V_1=P,
    W_j = P*W_(j-1) - Q*W_(j-2), as a power of x in Z[x]/(n, x^2 - P*x + Q).

    Completing the square, x = y + P/2 with y^2 = D/4 and D = P^2 - 4Q, so
    x^k = (P/2 + y)^k = V_k/2 + U_k*y (Crandall-Pomerance, Prime Numbers,
    3.6.1) for every odd n, D = 0 included.  The power runs on the
    extension-power kernel at the dominant ladder's window width.  The
    counter books the contract of the binary doubling ladder this replaced
    (U_2j = U_j*V_j, V_2j = V_j^2 - 2*Q^j; one stepping per set bit), not
    what runs: 1 full multiplication and 2 squarings per doubling and 6 full
    multiplications per stepping, from k's bit length and popcount.
    """
    n = modulus_value(n)
    if k < 1:
        if k == 0:
            return 0, 2 % n
        raise ValueError("lucas_uv requires k >= 0")
    h, d = _pure_form(n, P, -Q)
    u, U = _pure_power(h, 1, k, n, d, _fold(n, d), _window_width(k.bit_length()))[0]
    if counter is not None:
        steps = k.bit_length() - 1
        counter.full_mults += steps + 6 * (k.bit_count() - 1)
        counter.squarings += 2 * steps
    return U, 2 * u % n


def lucas_test(n: int, P: int, Q: int, counter: Optional[OpCounter] = None) -> Verdict:
    """Composite iff U_(n - (D/n)) != 0 mod n, with D = P^2 - 4Q.

    Requires gcd(n, 2*Q*D) = 1: a shared factor strictly between 1 and n is
    returned as a composite verdict (where n divides Q*D, that of Q or of
    D), and degenerate parameters (n divides Q or D, or D = 0) are rejected.
    """
    n = modulus_value(n)
    D = P * P - 4 * Q
    if D == 0:
        raise ValueError("square discriminant: P^2 = 4Q degenerates the sequence")
    g = math.gcd(n, 2 * Q * D)
    if g == n:
        # n | Q*D (n is odd), but Q and D can each share just part of n
        g = next((h for h in (math.gcd(n, Q), math.gcd(n, D)) if 1 < h < n), n)
    if g == n:
        raise ValueError("parameters degenerate: n divides 2*Q*D")
    if g > 1:
        return Verdict.composite(CompositeReason.SHARED_FACTOR, g)
    jd = jacobi(D, n)
    m = n - jd
    U, _ = lucas_uv(P, Q, m, n, counter)
    if U != 0:
        return Verdict.composite(CompositeReason.LUCAS)
    return Verdict.probable_prime()
