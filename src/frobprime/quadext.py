"""Arithmetic in quadratic extension rings mod n, with exact operation booking.

Two ring forms are supported: the general form Z[x]/(n, x^2 - b*x - c) and
the pure form Z[x]/(n, x^2 - c).  Elements are pairs (u, v) representing
u + v*x with coefficients held fully reduced in [0, n).

Every element operation computes in one coordinate system, the pure form.
A general-form ring completes the square: x = y + h with h = b/2 maps
Z[x]/(n, x^2 - b*x - c) onto Z[y]/(n, y^2 - d), d = h^2 + c
(``_pure_form``), and a pure ring is its own square, h = 0 and d = c.  An
element u + v*x goes in as (u + h*v) + v*y, the pure-form formula runs with
d, and ``_from_pure`` maps the result back.  The map keeps v, so an
operation meets a scalar in one ring exactly when it does in the other.
The ring form decides only two things: its rows of ``_STEP_COSTS`` and
``ExtensionRing._completed`` = (h, d, dh), dh being ``_fold``'s fold of d.

What one step books is a row of ``_STEP_COSTS``, the cost table of the
cost model: per ring form, the counts of a non-scalar square, a non-scalar
product and an x-step, plus the rows of the scalar shortcuts.  Every
booking adds copies of one row through ``_book``, so a general-form ring
books its own form's rows whatever runs.  The dominant ladder, whose
per-step cost is contractual (``ext_pow``'s ``generic_squares=True``),
skips the scalar shortcuts and books every step at its form's non-scalar
rows, whatever the base.

``ext_square``, ``ext_mul`` and ``mul_by_x`` book each call as it runs;
like ``ext_pow``'s loops, they reduce once per output coefficient.
``ext_pow`` books what the plain binary ladder of those calls would book,
computed once from the exponent's bit length and popcount, the ring's
rows and (without ``generic_squares``) the number of steps whose
accumulator was scalar.  Its executed code differs: outside the
dominant ladder a scalar base is the built-in ``pow``.  One entry of ring
state shortens step 5.  In a round that passes step 4, step 5's t = w^s1
and z^s = y^s1, with w = y^(2^j) and j = v2(n + 1) - 1, share the high
power W = w^(s1 >> j), and ``frobenius._extension_steps`` stores it as
``ExtensionRing._last_power`` without a ``pow``: step 4 gives z^(n+1) =
N(z), and the norm N is multiplicative mod any n, so W = N(z^q) * w^b
with q = s1 >> v2(n + 1) and b bit j of s1, and z^q is the dominant
ladder's prefix (``ext_pow``'s ``prefix_shift``).  That is the entry's one
writer.  ``ext_pow`` only reads it (``_shared_power``): a power whose
exp >> j is the entry's exponent, of the entry's base or of a base whose
2^j-th power it is, splits at j into W or W^(2^j) times a power of j
bits.  Only an n where v2(n + 1) reaches half of s1's bits (n = 2^k - 1,
say) gets no entry and runs t as one whole ``pow``.  Every other
non-scalar power, and every power of the dominant ladder, runs one
kernel on local ints, reducing once per output
coefficient: 2 reductions per square, since d*v^2 is never reduced
before the sum it joins.  A small c multiplies v^2 as it is, and so does
a full-size d below ``_FOLD_MIN_BITS``; from there on ``_fold`` trades
the reduction of v^2 for one bare product.  From ``_HALF_FOLD_MIN_BITS``
on, each reduction first folds its sum through 2^(3K/2) mod n, K =
bits(n) (``_half_fold``), so one bare product of about K/2 by K bits
leaves a division of about 3K/2 bits in place of 2K.  The kernel is a
left-to-right sliding window whose width comes from the exponent's length
(``_window_width``): width 1 is the binary ladder, and the dominant ladder
(``generic_squares``), like ``frobenius.lucas_uv``, slides windows of 4 to
7 bits from 128 exponent bits on, in every form and for every base, x
included, for about bits/(k+1) multiply steps by precomputed odd powers
instead of one per set bit.  The booked counts realize the per-operation
cost model of the caller's ring; the concrete bignum products and
reductions differ, which never changes values.
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
    #: kernel's ``_fold`` of d, None for a small c; (0, c, ch) in the pure
    #: form.  Every element operation computes in these coordinates.
    _completed: "tuple[int, int, Optional[int]]" = field(init=False, repr=False, compare=False)
    #: This form's rows of ``_STEP_COSTS``.
    _steps: _StepCosts = field(init=False, repr=False, compare=False)
    #: ((base, exp), base^exp mod n), or (None, None): step 5's high power
    #: W = w^(s1 >> j), j = v2(n + 1) - 1, under the key (w, s1 >> j).
    #: ``frobenius._extension_steps`` is its one writer (``_remember``):
    #: once step 4 has shown z^(n+1) = N(z), it stores W = N(z^q) * w^(bit
    #: j of s1), q = s1 >> (j + 1), from the dominant ladder's prefix z^q,
    #: as N is multiplicative mod any n, so N(z^q) = z^((n+1) q) = w^(2q).
    #: ``ext_pow`` only reads it (``_shared_power``), and t = w^s1 and z^s =
    #: y^s1 then make no full-size ``pow``.  The entry exists only because
    #: step 5's powers must book inside ``ext_pow`` calls, where the
    #: benchmark's tracer diffs bookings; ROADMAP item 2 retires it, after
    #: which W can pass to step 5 as a local.  ``frobenius._run_round``
    #: builds one ring per round, so the entry lives as long as the round,
    #: and a thread sharing a ring reads key and value as one tuple.
    _last_power: "tuple[Optional[tuple], Optional[int]]" = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = modulus_value(self.n)
        if not 0 <= self.c < n:
            raise ValueError("c must be reduced into [0, n)")
        if self.b is not None and not 0 <= self.b < n:
            raise ValueError("b must be reduced into [0, n)")
        if self.small_c_bits is not None and self.b is not None:
            raise ValueError("small_c_bits applies to the pure form only")
        if self.b is not None:
            h, d = _pure_form(n, self.b, self.c)
            form = "general"
        else:
            h, d = 0, self.c
            form = "pure" if self.small_c_bits is None else "pure-smallc"
        dh = None if self.small_c_bits is not None else _fold(n, d)
        ratio = None if self.small_c_bits is None else self.small_c_bits / n.bit_length()
        object.__setattr__(self, "small_ratio", ratio)
        object.__setattr__(self, "_completed", (h, d, dh))
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

    In the ring's completed square, e = u + v*y with y^2 = d, and
    (u + v*y)^2 = (u^2 + d*v^2) + 2uv*y, with 2uv recovered from
    (u+v)^2 - u^2 - v^2; each output coefficient is reduced once, the map
    back included, and v^2 never before it: ``_times`` folds it through the
    ring's ``_fold`` of a full-size d.  A scalar (v == 0) books exactly one
    squaring.
    """
    n = ring.n
    u, v = e
    if v == 0:
        if counter is not None:
            _book(counter, _SCALAR_SQUARE, ring)
        return QuadExtElement(u * u % n, 0)
    if counter is not None:
        _book(counter, ring._steps.square, ring)
    h, d, dh = ring._completed
    u = (u + h * v) % n
    uu = u * u
    vv = v * v
    t = u + v
    return _from_pure(uu + _times(d, dh, vv, n), (t * t - uu - vv) % n, h, n)


def ext_mul(
    e1: QuadExtElement,
    e2: QuadExtElement,
    ring: ExtensionRing,
    counter: Optional[OpCounter] = None,
) -> QuadExtElement:
    """Ring product, computed in the ring's completed square y^2 = d.

    (u1 + v1*y)(u2 + v2*y) = (u1*u2 + d*v1*v2) + (u1*v2 + v1*u2)*y, with
    the cross term recovered Karatsuba-style from (u1+v1)(u2+v2) and
    reductions placed as in ``ext_square``.  A product with a scalar is
    the same in every form and skips the map.
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
    h, d, dh = ring._completed
    u1 = (u1 + h * v1) % n
    u2 = (u2 + h * v2) % n
    p = u1 * u2
    q = v1 * v2
    cross = (u1 + v1) * (u2 + v2) - p - q
    return _from_pure(p + _times(d, dh, q, n), cross % n, h, n)


def _times(c: int, ch: Optional[int], w: int, n: int) -> int:
    """c*w unreduced, folded through ch = ``_fold(n, c)`` where that is not
    None; below n*2^(bits(n) + 1) when folded and w < n^2."""
    if ch is None:
        return c * w
    bits = n.bit_length()
    return ch * (w >> bits) + c * (w & ((1 << bits) - 1))


def _from_pure(u: int, v: int, h: int, n: int) -> QuadExtElement:
    """u + v*y of the completed square, y = x - h, as the ring's own element
    (u - h*v) + v*x, u reduced on the way; v must be reduced already."""
    return QuadExtElement((u - h * v) % n, v)


def mul_by_x(e: QuadExtElement, ring: ExtensionRing, counter: Optional[OpCounter] = None) -> QuadExtElement:
    """e * x, the cheap multiply step for an x-power ladder.

    In the completed square, e*x = e*(y + h), which maps back to
    (u + v*x)*x = c*v + (u + 2h*v)*x: one product by c in the pure form
    (h = 0), and the general form's two products by its fixed parameters,
    as 2h = b.
    """
    n = ring.n
    u, v = e
    if counter is not None:
        _book(counter, ring._steps.x_step, ring)
    return QuadExtElement(ring.c * v % n, (u + 2 * ring._completed[0] * v) % n)


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
    of v through ``_fold``, and from _HALF_FOLD_MIN_BITS of n on each
    reduction folds first, ``_half_fold``), and every bucket is booked once
    at the end.
    Without ``generic_squares`` a scalar base is the built-in ``pow``, split
    as below where the ring's entry serves it; with it a scalar runs the
    kernel.

    One kernel, a left-to-right sliding window of width k whose width-1 case
    is the binary ladder, runs every power in the ring's completed square:
    the base u + v*x goes in as (u + h*v) + v*y, with x = y + h and y^2 = d,
    and the power comes back through ``_from_pure``.  The map keeps v, so a
    step meets a scalar in one ring exactly when it does in the other, and
    the booking follows the caller's ring.  The width comes from exp's
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
    scalar, and its width-1 tallies book them exactly, whatever the base.
    One split skips most of that ladder: where ``_shared_power`` finds that
    the ring's one entry (``ExtensionRing._last_power``, step 5's high power
    W, which only ``frobenius._extension_steps`` writes) holds the high
    power of exp, j = v2(n + 1) - 1 levels up, e**exp is W or W^(2^j) times
    e^(exp mod 2^j), a ladder or ``pow`` of j bits.  A non-scalar base split
    so is a unit whose least scalar power is e^(2^a), a <= j, so its scalar
    powers are exactly the multiples of 2^a, and the ladder's scalar steps
    follow from exp's bits and a in closed form (``_scalar_steps``).
    ``ext_pow`` never writes the entry, and the values are the ladder's.
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
    split = None if generic_squares else _shared_power(u, v, exp, ring)
    if v == 0 and not generic_squares:
        if counter is not None:
            _book(counter, _SCALAR_SQUARE, ring, steps)
        if mult_counter is not None:
            _book(mult_counter, _SCALAR_PRODUCT, ring, mults)
        if split is None:
            return QuadExtElement(pow(u, exp, n), 0)
        return QuadExtElement(split[1] * pow(u, split[2], n) % n, 0)
    h, d, dh = ring._completed
    yu = (u + h * v) % n
    scalar_squares = scalar_mults = 0
    if generic_squares:
        acc, _, _, prefix = _pure_power(yu, v, exp, n, d, dh, _window_width(steps + 1), low=prefix_shift or 0)
    elif split is None:
        acc, scalar_squares, scalar_mults, _ = _pure_power(yu, v, exp, n, d, dh, 1)
    else:
        a, high, low = split
        lu, lv = _pure_power(yu, v, low, n, d, dh, 1)[0] if low else (1, 0)
        acc = QuadExtElement(high * lu % n, high * lv % n)
        scalar_squares, scalar_mults = _scalar_steps(exp, a)
    acc = _from_pure(*acc, h, n)
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
    return acc, _from_pure(*prefix, h, n)


def _remember(ring: ExtensionRing, base: int, exp: int, power: int) -> None:
    """Store power = base^exp mod n as ``ring._last_power``, under (base, exp)."""
    object.__setattr__(ring, "_last_power", ((base, exp), power))


def _shared_power(u: int, v: int, exp: int, ring: ExtensionRing) -> "Optional[tuple[int, int, int]]":
    """(a, high, low) with (u + v*x)^exp = high * (u + v*x)^low, from the
    ring's shared high power W = base^E (``ExtensionRing._last_power``);
    else None.

    With j = v2(n + 1) - 1, W serves a power whose exp >> j is E, and low =
    exp mod 2^j.  A scalar u = base gives high = W^(2^j); any other base
    whose 2^j-th power is base gives high = W.  Only on that exponent match
    does the probe run: another scalar is raised to 2^j once (a = 0), and a
    non-scalar is squared up to j times for the least a >= 1 with (u +
    v*x)^(2^a) a unit scalar.  The squarings are not booked.
    """
    (key, power), n = ring._last_power, ring.n
    j = ((n + 1) & -(n + 1)).bit_length() - 2
    if key is None or key[1] != exp >> j:
        return None
    base, low = key[0], exp & ((1 << j) - 1)
    if not v:
        if u == base:
            return 0, pow(power, 1 << j, n), low
        return (0, power, low) if pow(u, 1 << j, n) == base else None
    e = QuadExtElement(u, v)
    for a in range(1, j + 1):
        e = ext_square(e, ring)
        if e.v == 0:
            if math.gcd(e.u, n) != 1 or pow(e.u, 1 << (j - a), n) != base:
                return None
            return a, power, low
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
    same Karatsuba cross term and the same rule for c.  From
    _HALF_FOLD_MIN_BITS of n on, ``_half_folded_power`` runs the same steps
    and reduces each sum through its half-width fold.
    """
    bits = n.bit_length()
    if bits >= _HALF_FOLD_MIN_BITS:
        return _half_folded_power(u, v, exp, n, c, ch, k, low)
    table = [None, (u, v, u + v)]
    if k > 1:
        su, sv = (u * u + c * v * v) % n, 2 * u * v % n
        sc = c * sv % n
        for _ in range((1 << (k - 1)) - 1):
            u, v = (u * su + v * sc) % n, (u * sv + v * su) % n
            table.append((u, v, u + v))
    first, schedule = _schedule(exp, k, low)
    u, v, _ = table[first]
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


#: Bit size of n from which ``_pure_power`` reduces through the half-width
#: fold (``_half_folded_power``).  Timed with CPython 3.11 on a 2-core x86-64
#: machine, best of 7, on x < 4n^2: the folded reduction took 1.28 times
#: as long as x % n at 256 bits, 1.08 at 384, 1.00 at 448, 0.95 at 512,
#: 0.82 at 1024 and 2048 and 0.77 at 4096.  On the kernel at the dominant
#: width, timed interleaved, best of 7, with c = 3 and with a full-size c,
#: the folded body took 1.06 and 1.05 times as long as the plain one at 384
#: bits, 1.00 and 1.03 at 448, 0.99 at 480, 0.95 at 512, 0.91 and 0.93 at
#: 1024 and 0.89 and 0.92 at 2048.
_HALF_FOLD_MIN_BITS = 512


def _half_fold(n: int) -> "tuple[int, int, int]":
    """(S, 2^S mod n, 2^S - 1) with S = K + K//2, K = bits(n): the constants
    of the half-width fold x -> (x >> S)*(2^S mod n) + (x mod 2^S).

    x = (x >> S)*2^S + (x mod 2^S), so the fold keeps x mod n.  For x below
    (c + 3)*n^2, c < n, x >> S has about K/2 + bits(c) bits: one bare
    product of that many bits by K buys a division of about 3K/2 +
    bits(c) bits in place of 2K + bits(c) (Hasenplaugh, Gaubatz and Gopal,
    Fast Modular Reduction, ARITH 2007; Crandall-Pomerance, Prime Numbers,
    9.2).
    """
    bits = n.bit_length()
    shift = bits + bits // 2
    return shift, (1 << shift) % n, (1 << shift) - 1


def _half_folded_power(u: int, v: int, exp: int, n: int, c: int, ch: Optional[int], k: int, low: int):
    """``_pure_power`` from _HALF_FOLD_MIN_BITS of n on: the same table,
    windows, steps, prefix and scalar tallies, and the same values, with
    every x % n taken as ``_half_fold``'s fold of x, reduced.

    The sums it reduces stay below (c + 3)*n^2, or 4n^2 where ch folds a
    full-size c, so each fold leaves about 3K/2 bits to divide.  The fold's
    constants are made once per call.
    """
    shift, r, low_mask = _half_fold(n)

    def mod(x: int) -> int:
        return ((x >> shift) * r + (x & low_mask)) % n

    table = [None, (u, v, u + v)]
    if k > 1:
        su, sv = mod(u * u + c * v * v), mod(2 * u * v)
        sc = mod(c * sv)
        for _ in range((1 << (k - 1)) - 1):
            u, v = mod(u * su + v * sc), mod(u * sv + v * su)
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
            t = t * t - uu - vv
            v = ((t >> shift) * r + (t & low_mask)) % n
            if ch is None:
                t = uu + c * vv
            else:
                t = uu + ch * (vv >> bits) + c * (vv & mask)
            u = ((t >> shift) * r + (t & low_mask)) % n
            if i:
                if not v:
                    scalar_mults += 1
                zu, zv, zs = table[i]
                p = u * zu
                q = v * zv
                t = (u + v) * zs - p - q
                v = ((t >> shift) * r + (t & low_mask)) % n
                if ch is None:
                    t = p + c * q
                else:
                    t = p + ch * (q >> bits) + c * (q & mask)
                u = ((t >> shift) * r + (t & low_mask)) % n
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

    In the completed square, e = u + v*y with y^2 = d, and the norm is
    u^2 - d*v^2.  The map fixes scalars, so this is the ring's own norm: in
    the general form u^2 + b*u*v - c*v^2 in the coordinates of x (the roots
    of X^2 - b*X - c have sum b and product -c).
    """
    n = ring.n
    h, d, _ = ring._completed
    u, v = e
    u = (u + h * v) % n
    return (u * u - d * v * v) % n
