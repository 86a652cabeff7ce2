"""Arithmetic in quadratic extension rings mod n, with exact operation booking.

Two ring forms are supported: the general form Z[x]/(n, x^2 - b*x - c) and
the pure form Z[x]/(n, x^2 - c).  Elements are pairs (u, v) representing
u + v*x with coefficients held fully reduced in [0, n).

What one step books is a row of ``_STEP_COSTS``, the cost table of the
cost model: per ring form, the counts of a non-scalar square, a non-scalar
product and an x-step, plus the rows of the scalar shortcuts.  Every
booking adds copies of one row through ``_book``.  The dominant ladder,
whose per-step cost is contractual (``ext_pow``'s ``generic_squares=True``),
skips the scalar shortcuts and books every step at its form's non-scalar
rows, whatever the base.

``ext_square``, ``ext_mul`` and ``mul_by_x`` book each call as it runs;
like ``ext_pow``'s loops, they reduce once per output coefficient.
``ext_pow`` books what the plain binary ladder of those calls would book,
computed once from the exponent's bit length and popcount, the ring's
rows and (without ``generic_squares``) the number of steps whose
accumulator was scalar.  Its executed code differs: outside the
dominant ladder a scalar base is the built-in ``pow``, and so is all but a
few bits of the power of a unit base with a scalar power e^(2^a).  Both
split at the top level j = v2(n + 1) - 1 and read the high power from the
ring (``ExtensionRing._last_power``).  In a round that passes step 4,
step 5's t = w^s1 and z^s = y^s1, with w = y^(2^j), share the high power
W = w^(s1 >> j), and ``frobenius._extension_steps`` puts it there without
a ``pow``: step 4 gives z^(n+1) = N(z), and the norm N is multiplicative
mod any n, so W = N(z^q) * w^b with q = s1 >> v2(n + 1) and b bit j of
s1, and z^q is the dominant ladder's prefix (``ext_pow``'s
``prefix_shift``).  Only an n where v2(n + 1) reaches half of s1's bits
(n = 2^k - 1, say; see ``_levels``) runs t as one whole ``pow``.  Every
other power runs one kernel, in the pure form, on local ints, reducing
once per output coefficient: 2 reductions per square in every form, since
c*v^2 is never reduced before the sum it joins.  A small c multiplies v^2
as it is, and so does a full-size c below ``_FOLD_MIN_BITS``; from there
on ``_fold`` trades the reduction of v^2 for one bare product.  A
general-form power reaches it by completing the square: x = y + b/2 maps
Z[x]/(n, x^2 - b*x - c) onto Z[y]/(n, y^2 - (b^2/4 + c)), and the result
is mapped back.  The kernel is a left-to-right sliding window whose width
comes from the exponent's length (``_window_width``): width 1 is the
binary ladder, and the dominant ladder (``generic_squares``), like
``frobenius.lucas_uv``, slides windows of 4 to 7 bits from 128 exponent
bits on, in every form and for every base, x included, for about
bits/(k+1) multiply steps by precomputed odd powers instead of one per
set bit.  The booked counts realize the per-operation cost model of
the caller's ring; the concrete bignum products and reductions differ,
which never changes values.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field
from operator import attrgetter
from typing import NamedTuple, Optional

from .arith import modulus_value

__all__ = [
    "ExtensionRing",
    "OpCounter",
    "QuadExtElement",
    "ext_mul",
    "ext_norm",
    "ext_pow",
    "ext_square",
    "frobenius_conjugate",
    "mul_by_x",
]


@dataclass(slots=True)
class OpCounter:
    """Mutable tally of modular products, by kind.

    squarings
        x*x products booked at squaring weight.
    full_mults
        generic x*y products (a squaring standing in for a generic product
        is booked here, at multiplication weight).
    small_mults
        products where one operand is the pure ring's designated small c;
        ``small_bits_ratio`` records that operand's size ratio
        bits(c)/bits(n) in (0, 1].
    param_mults
        products by the general ring's fixed parameters b and c, kept in
        their own bucket (excluded from MSQ totals, reported alongside
        them) so either accounting interpretation can be read off.

    Equality compares the four counts; ``small_bits_ratio`` is not one.
    """

    squarings: int = 0
    full_mults: int = 0
    small_mults: int = 0
    param_mults: int = 0
    small_bits_ratio: float = field(default=0.0, compare=False)

    def copy(self) -> "OpCounter":
        return OpCounter(*_op_counts(self))

    def __iadd__(self, other: "OpCounter") -> "OpCounter":
        self.squarings += other.squarings
        self.full_mults += other.full_mults
        self.small_mults += other.small_mults
        self.param_mults += other.param_mults
        if other.small_bits_ratio > self.small_bits_ratio:
            self.small_bits_ratio = other.small_bits_ratio
        return self

    def __add__(self, other: "OpCounter") -> "OpCounter":
        out = self.copy()
        out += other
        return out

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


#: The values of an ``OpCounter``'s fields, in the order of the slots that
#: the dataclass made from them, for ``copy``: with CPython 3.11 on a 2-core
#: x86-64 machine, ``dataclasses.replace`` took 0.8 us a call against 0.2 us
#: for this.
_op_counts = attrgetter(*OpCounter.__slots__)


class _StepCosts(NamedTuple):
    """One ring form's rows of ``_STEP_COSTS``."""

    square: tuple
    product: tuple
    x_step: tuple


#: The booked cost of one step, as (squarings, full_mults, small_mults,
#: param_mults), per ring form: a non-scalar square, a product of two
#: non-scalars, and an x-step (``mul_by_x``).  Priced by ``summarize``, the
#: squares are the cost model's 2 + m, 3m and (2 + delta) m.
_STEP_COSTS = {
    "general": _StepCosts((2, 1, 0, 2), (0, 3, 0, 2), (0, 0, 0, 2)),
    "pure": _StepCosts((0, 3, 0, 0), (0, 3, 0, 0), (0, 1, 0, 0)),
    "pure-smallc": _StepCosts((0, 2, 1, 0), (0, 2, 1, 0), (0, 0, 1, 0)),
}
#: The scalar shortcuts, in every form: a scalar's square, a scalar times a
#: scalar, and a scalar times a non-scalar.
_SCALAR_SQUARE = (1, 0, 0, 0)
_SCALAR_PRODUCT = (0, 1, 0, 0)
_SCALAR_TIMES_ELEMENT = (0, 2, 0, 0)


@dataclass(frozen=True)
class ExtensionRing:
    """A quadratic extension ring mod n.

    b is None for the pure form x^2 = c; otherwise x^2 = b*x + c.
    small_c_bits marks the pure form's c as a designated small nonresidue
    (it is then booked as a small multiplication of that bit size).
    """

    n: int
    b: Optional[int]
    c: int
    small_c_bits: Optional[int] = None
    #: bits(c)/bits(n) when c is designated small, else None.
    small_ratio: Optional[float] = field(init=False, repr=False, compare=False)
    #: (h, d, dh) with x = y + h, y^2 = d (see ``_pure_form``) and dh the
    #: kernel's ``_fold`` of d; (0, c, ch) in the pure form.
    _completed: "tuple[int, int, Optional[int]]" = field(init=False, repr=False, compare=False)
    #: (ch, bh), the ``_fold`` of c and of b; None for a small c or no b.
    _folds: "tuple[Optional[int], Optional[int]]" = field(init=False, repr=False, compare=False)
    #: This form's rows of ``_STEP_COSTS``.
    _steps: _StepCosts = field(init=False, repr=False, compare=False)
    #: ((base, exp), base^exp mod n) for the last high power stored in
    #: this ring (``_remember``): step 5's share.  Step 5 runs t = w^s1
    #: and, when t = 1, z^s = y^s1 with w = y^(2^j), j = v2(n + 1) - 1.
    #: ``ext_pow`` splits both at j: t = W^(2^j) * w^(s1 mod 2^j) with the
    #: high power W = w^(s1 >> j), and y^s1 = W * y^(s1 mod 2^j), and both
    #: read W here.  Once step 4 has shown z^(n+1) = N(z),
    #: ``frobenius._extension_steps`` stores W = N(z^q) * w^(bit j of s1),
    #: q = s1 >> (j + 1), from the dominant ladder's prefix z^q: N is
    #: multiplicative mod any n, so N(z^q) = z^((n+1) q) = w^(2q).  A round
    #: then makes no full-size ``pow``; where ``_levels`` gives 0 for s1
    #: (n = 2^k - 1, say), nothing is stored and t runs as one whole
    #: ``pow``.  ``frobenius._run_round`` builds one ring per round, so
    #: the entry lives as long as the round.  It is
    #: written and read as one tuple, so a thread sharing the ring pairs a
    #: key with its own value; and a value is a pure function of its key,
    #: so any hit is right.
    _last_power: "tuple[Optional[tuple], Optional[int]]" = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = modulus_value(self.n)
        if not 0 <= self.c < n:
            raise ValueError("c must be reduced into [0, n)")
        if self.b is not None and not 0 <= self.b < n:
            raise ValueError("b must be reduced into [0, n)")
        if self.small_c_bits is not None and self.b is not None:
            raise ValueError("small_c_bits applies to the pure form only")
        ch = None if self.small_c_bits is not None else _fold(n, self.c)
        if self.b is not None:
            h, d = _pure_form(n, self.b, self.c)
            completed, folds, form = (h, d, _fold(n, d)), (ch, _fold(n, self.b)), "general"
        else:
            form = "pure" if self.small_c_bits is None else "pure-smallc"
            completed, folds = (0, self.c, ch), (ch, None)
        ratio = None if self.small_c_bits is None else self.small_c_bits / n.bit_length()
        object.__setattr__(self, "small_ratio", ratio)
        object.__setattr__(self, "_completed", completed)
        object.__setattr__(self, "_folds", folds)
        object.__setattr__(self, "_steps", _STEP_COSTS[form])
        object.__setattr__(self, "_last_power", (None, None))

    @classmethod
    def general(cls, n: int, b: int, c: int) -> "ExtensionRing":
        """The ring Z[x]/(n, x^2 - b*x - c)."""
        n = modulus_value(n)
        return cls(n, b % n, c % n)

    @classmethod
    def pure(cls, n: int, c: int, *, small: bool = False) -> "ExtensionRing":
        """The ring Z[x]/(n, x^2 - c); small=True books c-products as small."""
        n = modulus_value(n)
        c %= n
        return cls(n, None, c, c.bit_length() if small else None)


class QuadExtElement(NamedTuple):
    """u + v*x with 0 <= u, v < n."""

    u: int
    v: int


def _book(counter: OpCounter, row: tuple, ring: ExtensionRing, times: int = 1) -> None:
    """Add ``times`` copies of a ``_STEP_COSTS`` row to ``counter``.

    Small products raise ``small_bits_ratio`` to the ring's ``small_ratio``;
    zero copies leave it as it is.
    """
    squarings, full_mults, small_mults, param_mults = row
    counter.squarings += squarings * times
    counter.full_mults += full_mults * times
    counter.param_mults += param_mults * times
    if small_mults and times:
        counter.small_mults += small_mults * times
        if ring.small_ratio > counter.small_bits_ratio:
            counter.small_bits_ratio = ring.small_ratio


def ext_square(
    e: QuadExtElement,
    ring: ExtensionRing,
    counter: Optional[OpCounter] = None,
) -> QuadExtElement:
    """e*e with the cheap squaring formula; equals ext_mul(e, e) in value.

    (u + v*x)^2 = (u^2 + c*v^2) + (2uv + b*v^2)*x, with 2uv recovered from
    (u+v)^2 - u^2 - v^2; each output coefficient is reduced once, and v^2
    never before it: ``_times`` folds it through the ring's ``_fold`` of a
    full-size c, and ``_plus_times`` through those of b and c from one
    split.  A scalar (v == 0) books exactly one squaring.
    """
    n = ring.n
    u, v = e
    if v == 0:
        if counter is not None:
            _book(counter, _SCALAR_SQUARE, ring)
        return QuadExtElement(u * u % n, 0)
    if counter is not None:
        _book(counter, ring._steps.square, ring)
    uu = u * u
    vv = v * v
    t = u + v
    two_uv = t * t - uu - vv
    ch, _ = ring._folds
    if ring.b is None:
        return QuadExtElement((uu + _times(ring.c, ch, vv, n)) % n, two_uv % n)
    return _plus_times(uu, two_uv, vv, ring)


def ext_mul(
    e1: QuadExtElement,
    e2: QuadExtElement,
    ring: ExtensionRing,
    counter: Optional[OpCounter] = None,
) -> QuadExtElement:
    """Ring product with x^2 reduced by the ring's form.

    (u1 + v1*x)(u2 + v2*x) = (u1*u2 + c*v1*v2) + (u1*v2 + v1*u2 + b*v1*v2)*x,
    with the cross term recovered Karatsuba-style from (u1+v1)(u2+v2) and
    reductions placed as in ``ext_square``.
    """
    n = ring.n
    u1, v1 = e1
    u2, v2 = e2
    if v1 == 0 and v2 == 0:
        if counter is not None:
            _book(counter, _SCALAR_PRODUCT, ring)
        return QuadExtElement(u1 * u2 % n, 0)
    if v1 == 0 or v2 == 0:
        if v1 == 0:
            s, u, v = u1, u2, v2
        else:
            s, u, v = u2, u1, v1
        if counter is not None:
            _book(counter, _SCALAR_TIMES_ELEMENT, ring)
        return QuadExtElement(s * u % n, s * v % n)
    if counter is not None:
        _book(counter, ring._steps.product, ring)
    p = u1 * u2
    q = v1 * v2
    cross = (u1 + v1) * (u2 + v2) - p - q
    ch, _ = ring._folds
    if ring.b is None:
        return QuadExtElement((p + _times(ring.c, ch, q, n)) % n, cross % n)
    return _plus_times(p, cross, q, ring)


def _times(c: int, ch: Optional[int], w: int, n: int) -> int:
    """c*w unreduced, folded through ch = ``_fold(n, c)`` where that is not
    None; below n*2^(bits(n) + 1) when folded and w < n^2."""
    if ch is None:
        return c * w
    bits = n.bit_length()
    return ch * (w >> bits) + c * (w & ((1 << bits) - 1))


def _plus_times(u: int, v: int, w: int, ring: ExtensionRing) -> QuadExtElement:
    """(u + c*w) + (v + b*w)*x in the general form, each coefficient reduced
    once, with c*w and b*w as ``_times`` gives them but from one split of w:
    ``_fold`` depends on n alone, so both fold or neither does."""
    n, b, c = ring.n, ring.b, ring.c
    ch, bh = ring._folds
    if ch is None:
        return QuadExtElement((u + c * w) % n, (v + b * w) % n)
    bits = n.bit_length()
    high, low = w >> bits, w & ((1 << bits) - 1)
    return QuadExtElement((u + ch * high + c * low) % n, (v + bh * high + b * low) % n)


def mul_by_x(e: QuadExtElement, ring: ExtensionRing, counter: Optional[OpCounter] = None) -> QuadExtElement:
    """e * x, the cheap multiply step for an x-power ladder.

    Pure form: (u + v*x)*x = c*v + u*x, one product by c.  General form:
    (u + v*x)*x = c*v + (u + b*v)*x, two products by the fixed parameters.
    """
    n = ring.n
    u, v = e
    if counter is not None:
        _book(counter, ring._steps.x_step, ring)
    if ring.b is None:
        return QuadExtElement(ring.c * v % n, u)
    return QuadExtElement(ring.c * v % n, (u + ring.b * v) % n)


def ext_pow(
    e: QuadExtElement,
    exp: int,
    ring: ExtensionRing,
    counter: Optional[OpCounter] = None,
    mult_counter: Optional[OpCounter] = None,
    *,
    generic_squares: bool = False,
    prefix_shift: Optional[int] = None,
):
    """e**exp, booked as the plain left-to-right binary ladder of ext_square steps.

    The booking is what the step-by-step ladder of ``ext_square``,
    ``ext_mul`` and ``mul_by_x`` calls would tally: squaring steps in
    ``counter``, multiply steps (one per set exponent bit after the leading
    bit) in ``mult_counter`` when given, else in ``counter`` as well.
    Keeping them separate lets the dominant-term contract be asserted on the
    squaring steps alone.  Each step books one row of ``_STEP_COSTS``.
    ``generic_squares=True`` books bits(exp) - 1 squaring steps and
    popcount(exp) - 1 multiply steps at the ring's non-scalar rows (the
    x-step row when e is x), whatever the base or the accumulator.  Without
    it a step on a scalar accumulator books a scalar row instead, and a
    scalar base books the scalar square and scalar product rows.

    The executed code is not that ladder: the loops work on local ints,
    reduce once per output coefficient (a full-size c multiplies the square
    of v through ``_fold``), and every bucket is booked once at the end.
    Without ``generic_squares`` a scalar base is the built-in ``pow`` (see
    ``_scalar_pow`` for how it splits); with it a scalar runs the kernel.

    One kernel, a left-to-right sliding window of width k whose width-1 case
    is the binary ladder, runs every power in the pure form: a general-form
    base u + v*x goes in as (u + h*v) + v*y, with x = y + h, h = b/2 and
    y^2 = h^2 + c, and the power comes back the same way.  The map keeps v,
    so a step meets a scalar in one ring exactly when it does in the other,
    and the booking follows the caller's ring.  The width comes from exp's
    bit length only.  ``generic_squares=True`` marks the dominant ladder:
    from 128 exponent bits on, in every form and for every base, x and
    scalars included, it slides windows of 4 to 7 bits, about bits/(k+1)
    multiply steps by precomputed odd powers instead of one per set bit.  A
    window never forms the binary ladder's prefix powers, which is why this
    booking tracks no scalar accumulator.  Every other ladder has width 1.
    With ``prefix_shift=k``, 0 <= k < bits(exp), the dominant ladder's
    windows end at bit k, its last k bits run as binary steps, and the call
    returns (e**exp, e**(exp >> k)), the second read off the accumulator k
    steps before the end; the booking is exp's, as without it.

    Otherwise the binary ladder counts the steps whose accumulator is
    scalar.  A base whose power e^(2^a) is a unit scalar for a small a
    (see ``_scalar_power``) skips most of the ladder: with s = e^(2^j) for
    j = max(a, v2(n + 1) - 1), e**exp = s^(exp >> j) * e^(exp mod 2^j), a
    ladder of j bits and at most one built-in ``pow``, none when the ring
    remembers s^(exp >> j) (``ExtensionRing._last_power``).  Such a base is
    a unit, so its scalar powers are exactly the multiples of 2^a, and the
    ladder's scalar steps follow from exp's bits and a in closed form.  The
    dominant ladder's base has no such power in practice, so it skips that
    probe.  The values are the ladder's.
    """
    if exp < 0:
        raise ValueError("ext_pow requires a nonnegative exponent")
    if prefix_shift is not None and not (generic_squares and 0 <= prefix_shift < exp.bit_length()):
        raise ValueError("prefix_shift needs generic_squares and 0 <= prefix_shift < bits(exp)")
    n = ring.n
    if exp == 0:
        return QuadExtElement(1 % n, 0)
    u, v = e[0] % n, e[1] % n
    if mult_counter is None:
        mult_counter = counter
    steps = exp.bit_length() - 1
    mults = exp.bit_count() - 1
    if v == 0 and not generic_squares:
        if counter is not None:
            _book(counter, _SCALAR_SQUARE, ring, steps)
        if mult_counter is not None:
            _book(mult_counter, _SCALAR_PRODUCT, ring, mults)
        return QuadExtElement(_scalar_pow(u, exp, ring), 0)
    h, d, dh = ring._completed
    yu = (u + h * v) % n
    scalar_squares = scalar_mults = 0
    if generic_squares:
        acc, _, _, prefix = _pure_power(yu, v, exp, n, d, dh, _window_width(steps + 1), low=prefix_shift or 0)
    else:
        split = _scalar_power(u, v, exp, ring)
        if split is None:
            acc, scalar_squares, scalar_mults, _ = _pure_power(yu, v, exp, n, d, dh, 1)
        else:
            a, j, s = split
            high = _remembered_pow(s, exp >> j, ring)
            low = exp & ((1 << j) - 1)
            if low:
                lu, lv = _pure_power(yu, v, low, n, d, dh, 1)[0]
                acc = QuadExtElement(high * lu % n, high * lv % n)
            else:
                acc = QuadExtElement(high, 0)
            scalar_squares, scalar_mults = _scalar_steps(exp, a)
    if h:
        acc = QuadExtElement((acc.u - h * acc.v) % n, acc.v)
    if counter is not None:
        _book(counter, _SCALAR_SQUARE, ring, scalar_squares)
        _book(counter, ring._steps.square, ring, steps - scalar_squares)
    if mult_counter is not None:
        if u == 0 and v == 1:
            _book(mult_counter, ring._steps.x_step, ring, mults)
        else:
            _book(mult_counter, _SCALAR_TIMES_ELEMENT, ring, scalar_mults)
            _book(mult_counter, ring._steps.product, ring, mults - scalar_mults)
    if prefix_shift is None:
        return acc
    return acc, QuadExtElement((prefix.u - h * prefix.v) % n, prefix.v)


def _levels(n: int, exp: int) -> int:
    """v2(n + 1), the most squarings ``ext_pow`` splits off a power of exp.

    0 where v2(n + 1) reaches half of exp's bits (n = 2^k - 1, say): there
    the probe and the low ladder can cost more than the ladder they replace.
    """
    levels = ((n + 1) & -(n + 1)).bit_length() - 1
    return 0 if 2 * levels >= exp.bit_length() else levels


def _remembered_pow(base: int, exp: int, ring: ExtensionRing) -> int:
    """base^exp mod n, from ``ring._last_power`` when it holds that key, else stored there."""
    last_key, power = ring._last_power
    if last_key != (base, exp):
        power = pow(base, exp, ring.n)
        _remember(ring, base, exp, power)
    return power


def _remember(ring: ExtensionRing, base: int, exp: int, power: int) -> None:
    """Store power = base^exp mod n as ``ring._last_power``, under (base, exp)."""
    object.__setattr__(ring, "_last_power", ((base, exp), power))


def _scalar_pow(u: int, exp: int, ring: ExtensionRing) -> int:
    """u^exp mod n, split at the top level j = v2(n + 1) - 1.

    u^exp = W^(2^j) * u^(exp mod 2^j) with the high power W = u^(exp >> j),
    which ``_remembered_pow`` reads from ``ring._last_power`` (step 5's
    share) under (u, exp >> j), or computes and stores there.  A scalar u
    first peeks under (u^(2^j), exp >> j), j more squarings, and on a hit
    u^exp is W * u^(exp mod 2^j).  At j = 0 (v2(n + 1) = 1) u^exp is W
    itself.  Powers with too few bits for ``_levels`` run whole.
    """
    n = ring.n
    j = _levels(n, exp) - 1
    if j < 1:
        return pow(u, exp, n) if j < 0 else _remembered_pow(u, exp, ring)
    high, low = exp >> j, pow(u, exp & ((1 << j) - 1), n)
    last_key, power = ring._last_power
    if last_key == (pow(u, 1 << j, n), high):
        return power * low % n
    return pow(_remembered_pow(u, high, ring), 1 << j, n) * low % n


def _scalar_power(u: int, v: int, exp: int, ring: ExtensionRing) -> "Optional[tuple[int, int, int]]":
    """(a, j, s) for the least a >= 1 with (u + v*x)^(2^a) a unit scalar; else None.

    j = max(a, v2(n + 1) - 1) is the level ``ext_pow`` splits the power at,
    and s = (u + v*x)^(2^j), so that e**exp = s^(exp >> j) * e^(exp mod 2^j);
    ``ext_pow`` takes s^(exp >> j) from ``ring._last_power`` (step 5's share).
    Only a <= v2(n + 1) is tried (see ``_levels``): for prime n the units
    modulo scalars of F_(n^2) form a cyclic group of order n + 1.  The
    squarings are not booked.
    """
    n = ring.n
    limit = _levels(n, exp)
    e = QuadExtElement(u, v)
    for a in range(1, limit + 1):
        e = ext_square(e, ring)
        if e.v == 0:
            if math.gcd(e.u, n) != 1:
                return None
            j = max(a, limit - 1)
            return a, j, pow(e.u, 1 << (j - a), n)
    return None


def _scalar_steps(exp: int, a: int) -> "tuple[int, int]":
    """Scalar squaring and multiply steps of exp's binary ladder when the
    base's scalar powers are exactly the multiples of 2^a, a >= 1.

    The squaring step at bit k - 1 (k = bits(exp) - 1 .. 1) squares the power
    at the prefix p = exp >> k, a scalar iff 2^a | p, that is, iff bits
    k .. k + a - 1 of exp are 0.  The multiply step after it, taken when bit
    k - 1 is set, meets the power at 2p, a scalar iff 2^(a - 1) | p.
    """
    squares = _zero_windows(exp, a) >> 1
    mults = (_zero_windows(exp, a - 1) & exp << 1) >> 1
    return squares.bit_count(), mults.bit_count()


def _zero_windows(exp: int, width: int) -> int:
    """The mask of bit positions k < bits(exp) with bits k .. k + width - 1 of exp all 0."""
    windows = (1 << exp.bit_length()) - 1
    for i in range(width):
        windows &= ~exp >> i
    return windows


def _pure_form(n: int, b: int, c: int) -> "tuple[int, int]":
    """(h, d) with x = y + h and y^2 = d, completing the square in x^2 - b*x - c mod n.

    h = b/2 and d = h^2 + c = (b^2 + 4c)/4, both reduced; n is odd, so 2
    has the inverse (n + 1)/2.  The map u + v*x -> (u + h*v) + v*y is a ring
    isomorphism onto Z[y]/(n, y^2 - d) that fixes scalars and the
    coefficient v.
    """
    h = b * ((n + 1) >> 1) % n
    return h, (h * h + c) % n


def _pure_power(u: int, v: int, exp: int, n: int, c: int, ch: Optional[int], k: int, *, low: int = 0):
    """u + v*x raised to exp in Z[x]/(n, x^2 - c) by left-to-right sliding
    windows of width k, with exp >= 1.

    Returns (power, squaring steps on a scalar, multiply steps on a scalar,
    prefix), where the prefix is the power of exp >> low, 0 <= low <
    bits(exp): the windows end at bit low, and the last low bits run as
    binary steps, so the accumulator passes through the prefix (the power
    itself for low = 0).
    This is the one power kernel: ``ext_pow`` and ``frobenius.lucas_uv``
    reach it from the general form through ``_pure_form``, x = y + b/2.
    Width 1 is the binary ladder; for k in 4..7 the odd powers z, z^3, ...,
    z^(2^k - 1) are precomputed, and each window multiplies by one of them
    after its last squaring step (Menezes-van Oorschot-Vanstone, Handbook of
    Applied Cryptography, Alg. 14.85).  The scalar counts mean something at
    width 1 only, where the accumulator runs through every prefix power of
    the binary ladder.  A square is u^2 + c*v^2 and
    ((u + v)^2 - u^2 - v^2)*x, each reduced once.  ch is ``_fold(n, c)``:
    None multiplies v^2 by c as it is, else c*v^2 is folded through it.  A
    product by an odd power zu + zv*x, stored as (zu, zv, zu + zv), uses the
    same Karatsuba cross term and the same rule for c.
    """
    table = [None, (u, v, u + v)]
    if k > 1:
        su, sv = (u * u + c * v * v) % n, 2 * u * v % n
        sc = c * sv % n
        for _ in range((1 << (k - 1)) - 1):
            u, v = (u * su + v * sc) % n, (u * sv + v * su) % n
            table.append((u, v, u + v))
    first, schedule = _schedule(exp, k, low)
    u, v, _ = table[first]
    bits = n.bit_length()
    mask = (1 << bits) - 1
    scalar_squares = scalar_mults = 0
    cut = len(schedule) - low
    powers = []
    for part in (schedule[:cut], schedule[cut:]):
        for i in part:
            if not v:
                scalar_squares += 1
            uu = u * u
            vv = v * v
            t = u + v
            v = (t * t - uu - vv) % n
            if ch is None:
                u = (uu + c * vv) % n
            else:
                u = (uu + ch * (vv >> bits) + c * (vv & mask)) % n
            if i:
                if not v:
                    scalar_mults += 1
                zu, zv, zs = table[i]
                p = u * zu
                q = v * zv
                v = ((u + v) * zs - p - q) % n
                if ch is None:
                    u = (p + c * q) % n
                else:
                    u = (p + ch * (q >> bits) + c * (q & mask)) % n
        powers.append(QuadExtElement(u, v))
    prefix, power = powers
    return power, scalar_squares, scalar_mults, prefix


#: Bit size of n from which ``_fold`` folds products by a full-size c.
#: Below it c*w, w < n^2, is added as it is and reduced with the rest.
#: Timed interleaved with CPython 3.11 on a 2-core x86-64 machine, on the
#: kernel at the dominant width: the fold ran 18% slower at 64 bits, about
#: 1% slower at 192 bits, about 1% faster at 208 bits and 14% faster at 2048.
_FOLD_MIN_BITS = 208


def _fold(n: int, c: int) -> Optional[int]:
    """c*2^K mod n, K = bits(n), from _FOLD_MIN_BITS on; else None.

    A product w < n^2 splits as w = (w >> K)*2^K + (w mod 2^K), so
    c*w = ch*(w >> K) + c*(w mod 2^K) mod n with ch = c*2^K mod n: two bare
    products below n*2^(K+1), which the one reduction of their sum absorbs,
    in place of reducing w before multiplying it by c.  Below
    _FOLD_MIN_BITS the 3K-bit c*w is cheaper to reduce whole.
    """
    bits = n.bit_length()
    return (c << bits) % n if bits >= _FOLD_MIN_BITS else None


#: Squaring steps from which ``_window_width`` slides windows, in every form.
#: Below it the binary ladder is as fast: timed interleaved with CPython 3.11
#: on a 2-core x86-64 machine, windows ran about 5% slower at 96-bit
#: exponents and about 5% faster at 128 bits.
_WINDOW_MIN_STEPS = 127

#: Per width k, the windows of a binary string: a 1, or up to k bits
#: from a 1 to a 1 (the greedy match is the longest).
_WINDOWS = {k: re.compile("1(?:[01]{0,%d}1)?" % (k - 2)) for k in range(4, 8)}

#: The binary digits "0" and "1" as the width-1 schedule's indices 0 and 1.
_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def _window_width(bits: int) -> int:
    """The dominant ladder's width for an exponent of ``bits`` bits: 1 below
    _WINDOW_MIN_STEPS + 1 bits, else the k in 4..7 with the fewest products,
    2^(k-1) table entries plus about bits/(k+1) multiply steps (4 at 128
    bits, 5 at 256, 7 at 2048).  ``ext_pow`` and ``lucas_uv`` both use it."""
    if bits <= _WINDOW_MIN_STEPS:
        return 1
    return min(_WINDOWS, key=lambda k: (1 << (k - 1)) + bits / (k + 1))


def _schedule(exp: int, k: int, low: int):
    """exp's left-to-right sliding windows of width k, as the kernels walk them.

    The kernels' table holds z^(2i - 1) at index i >= 1.  Returns the first
    window's index and, per later bit of exp (one squaring step each), the
    index of the entry to multiply by after that square, or 0, as bytes.
    Width 1 is the binary ladder: exp's digits after the leading 1.  No
    window spans bit low: the last low bits are binary steps.
    """
    if k == 1:
        return 1, bin(exp)[3:].encode().translate(_DIGITS)
    return _window_plan(exp, k, low)


#: ``_window_plan`` is a pure function of (exp, k, low), and a round's only
#: windowed power is its dominant ladder z^s2, s2 = (n + 1)/2^v2(n + 1):
#: the rounds of one n share one plan, built once.  ``lucas_uv``'s rounds
#: on one n alternate between the exponents n - 1 and n + 1, as the drawn
#: discriminant's symbol is -1 or +1, so the cache keeps two plans.
#: Width-1 schedules bypass the cache, so the round's other powers never
#: evict a plan.  ``lru_cache`` is thread-safe, and a plan is immutable
#: bytes, so threads may share it.
@functools.lru_cache(maxsize=2)
def _window_plan(exp: int, k: int, low: int) -> "tuple[int, bytes]":
    """``_schedule`` for k > 1: the sliding windows of width k over exp >> low,
    then the low bits of exp, one binary step each."""
    bits = bin(exp >> low)
    windows = _WINDOWS[k].finditer(bits, 2)
    first = next(windows)
    start = first.end()
    schedule = bytearray(len(bits) - start)
    for window in windows:
        schedule[window.end() - start - 1] = (int(window.group(), 2) + 1) >> 1
    tail = bin(exp)[len(bits):].encode().translate(_DIGITS)
    return (int(first.group(), 2) + 1) >> 1, bytes(schedule) + tail


def frobenius_conjugate(e: QuadExtElement, ring: ExtensionRing) -> QuadExtElement:
    """The conjugate u - v*x (pure form only, where x -> -x is the conjugation)."""
    if ring.b is not None:
        raise ValueError("frobenius_conjugate is defined for the pure form only")
    return QuadExtElement(e[0], (-e[1]) % ring.n)


def ext_norm(e: QuadExtElement, ring: ExtensionRing) -> int:
    """The norm e * conjugate(e), a scalar.

    Pure form: u^2 - c*v^2.  General form: u^2 + b*u*v - c*v^2 (the roots of
    X^2 - b*X - c have sum b and product -c).
    """
    n = ring.n
    u, v = e
    if ring.b is None:
        return (u * u - ring.c * v * v) % n
    return (u * u + ring.b * u * v - ring.c * v * v) % n
