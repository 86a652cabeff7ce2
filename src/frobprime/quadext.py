"""Arithmetic in quadratic extension rings mod n, with exact operation booking.

Two ring forms are supported: the general form Z[x]/(n, x^2 - b*x - c) and
the pure form Z[x]/(n, x^2 - c).  Elements are pairs (u, v) representing
u + v*x with coefficients held fully reduced in [0, n).

Operation counting follows the cost conventions used by the cost model:

* General form, squaring: computed as u^2, v^2, (u+v)^2 (the last standing
  in for the generic product 2uv = (u+v)^2 - u^2 - v^2) and booked as
  2 squarings + 1 full multiplication.  The additional products by the
  ring's fixed parameters b and c are tallied in a separate ``param_mults``
  bucket so cost summaries can include or exclude them explicitly.
* Pure form: each non-scalar multiplication or squaring is booked as
  3 full multiplications when c is a general residue, or as 2 full
  multiplications + 1 small multiplication when c is a designated small
  nonresidue (the small multiplication is weighted by
  bits(c)/bits(n) in cost summaries).
* Scalar fast paths: squaring a scalar (v == 0) books exactly 1 squaring;
  a scalar times a full element books 2 full multiplications; a scalar
  times a scalar books 1.  Chains whose per-step cost is contractual
  (``generic=True`` / ``generic_squares=True``) skip the scalar squaring
  shortcut and book every step at the full formula's cost.

``ext_square``, ``ext_mul`` and ``mul_by_x`` book each call as it runs;
like ``ext_pow``'s loop, they reduce once per output coefficient.
``ext_pow`` books what the plain binary ladder of those calls would book,
computed once from the exponent's bit length and popcount, the ring form,
the small-c flag and the number of steps whose accumulator was scalar.  Its
executed code differs: the ladder runs on local ints and reduces once per
output coefficient (2 reductions per pure-form operation with a small c,
3 where v^2 must be reduced before a full-size b or c multiplies it), a
scalar base is the built-in ``pow``, and so is all but a few bits of the
power of a unit base with a scalar power e^(2^a).  The booked counts
realize the per-operation cost model; the concrete bignum products and
reductions differ, which never changes values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from .arith import modulus_value

__all__ = [
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

    def record_small(self, ratio: float, count: int = 1) -> None:
        """Book ``count`` small multiplications with the given operand-size ratio."""
        if count <= 0:
            return
        self.small_mults += count
        if ratio > self.small_bits_ratio:
            self.small_bits_ratio = ratio

    def copy(self) -> "OpCounter":
        return OpCounter(
            self.squarings,
            self.full_mults,
            self.small_mults,
            self.param_mults,
            self.small_bits_ratio,
        )

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
        return {
            "squarings": self.squarings,
            "full_mults": self.full_mults,
            "small_mults": self.small_mults,
            "param_mults": self.param_mults,
            "small_bits_ratio": self.small_bits_ratio,
        }


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

    def __post_init__(self) -> None:
        n = modulus_value(self.n)
        if not 0 <= self.c < n:
            raise ValueError("c must be reduced into [0, n)")
        if self.b is not None and not 0 <= self.b < n:
            raise ValueError("b must be reduced into [0, n)")
        if self.small_c_bits is not None and self.b is not None:
            raise ValueError("small_c_bits applies to the pure form only")

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

    @property
    def bits(self) -> int:
        return self.n.bit_length()

    @property
    def small_ratio(self) -> Optional[float]:
        """bits(c)/bits(n) when c is designated small, else None."""
        if self.small_c_bits is None:
            return None
        return self.small_c_bits / self.bits


class QuadExtElement(NamedTuple):
    """u + v*x with 0 <= u, v < n."""

    u: int
    v: int


def ext_add(e1: QuadExtElement, e2: QuadExtElement, ring: ExtensionRing) -> QuadExtElement:
    """Ring addition (additions are free in the cost model)."""
    n = ring.n
    return QuadExtElement((e1[0] + e2[0]) % n, (e1[1] + e2[1]) % n)


def _book_op(ring: ExtensionRing, counter: OpCounter, ops: int = 1, *, square: bool) -> None:
    # ``ops`` non-scalar extension squarings (square=True) or products.
    if ring.b is not None:
        if square:
            counter.squarings += 2 * ops
            counter.full_mults += ops
        else:
            counter.full_mults += 3 * ops
        counter.param_mults += 2 * ops
    elif ring.small_c_bits is None:
        counter.full_mults += 3 * ops
    else:
        counter.full_mults += 2 * ops
        counter.record_small(ring.small_ratio, ops)


def _book_mul_by_x(ring: ExtensionRing, counter: OpCounter, ops: int = 1) -> None:
    # ``ops`` mul_by_x steps.
    if ring.b is not None:
        counter.param_mults += 2 * ops
    elif ring.small_c_bits is None:
        counter.full_mults += ops
    else:
        counter.record_small(ring.small_ratio, ops)


def ext_square(
    e: QuadExtElement,
    ring: ExtensionRing,
    counter: Optional[OpCounter] = None,
    *,
    generic: bool = False,
) -> QuadExtElement:
    """e*e with the cheap squaring formula; equals ext_mul(e, e) in value.

    (u + v*x)^2 = (u^2 + c*v^2) + (2uv + b*v^2)*x, with 2uv recovered from
    (u+v)^2 - u^2 - v^2; each output coefficient is reduced once, and v^2
    first only where a full-size b or c multiplies it.  A scalar (v == 0)
    books exactly one squaring,
    unless ``generic=True``: a chain with a fixed per-step cost contract
    runs branch-free at the full formula's cost instead of testing each
    intermediate for scalarness (an intermediate power can land in the
    base ring even when the chain's input does not).
    """
    n = ring.n
    u, v = e
    if v == 0 and not generic:
        if counter is not None:
            counter.squarings += 1
        return QuadExtElement(u * u % n, 0)
    if counter is not None:
        _book_op(ring, counter, square=True)
    uu = u * u
    vv = v * v
    t = u + v
    two_uv = t * t - uu - vv
    if ring.small_c_bits is None:
        vv %= n  # before the product by a full-size b or c
    if ring.b is None:
        return QuadExtElement((uu + ring.c * vv) % n, two_uv % n)
    return QuadExtElement((uu + ring.c * vv) % n, (two_uv + ring.b * vv) % n)


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
            counter.full_mults += 1
        return QuadExtElement(u1 * u2 % n, 0)
    if v1 == 0 or v2 == 0:
        if v1 == 0:
            s, u, v = u1, u2, v2
        else:
            s, u, v = u2, u1, v1
        if counter is not None:
            counter.full_mults += 2
        return QuadExtElement(s * u % n, s * v % n)
    if counter is not None:
        _book_op(ring, counter, square=False)
    p = u1 * u2
    q = v1 * v2
    cross = (u1 + v1) * (u2 + v2) - p - q
    if ring.small_c_bits is None:
        q %= n  # before the product by a full-size b or c
    if ring.b is None:
        return QuadExtElement((p + ring.c * q) % n, cross % n)
    return QuadExtElement((p + ring.c * q) % n, (cross + ring.b * q) % n)


def mul_by_x(e: QuadExtElement, ring: ExtensionRing, counter: Optional[OpCounter] = None) -> QuadExtElement:
    """e * x, the cheap multiply step for an x-power ladder.

    Pure form: (u + v*x)*x = c*v + u*x, one product by c.  General form:
    (u + v*x)*x = c*v + (u + b*v)*x, two products by the fixed parameters.
    """
    n = ring.n
    u, v = e
    if counter is not None:
        _book_mul_by_x(ring, counter)
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
) -> QuadExtElement:
    """e**exp, booked as the plain left-to-right binary ladder of ext_square steps.

    The booking is what the step-by-step ladder of ``ext_square``,
    ``ext_mul`` and ``mul_by_x`` calls would tally: squaring steps in
    ``counter``, multiply steps (one per set exponent bit after the leading
    bit) in ``mult_counter`` when given, else in ``counter`` as well.
    Keeping them separate lets the dominant-term contract be asserted on the
    squaring steps alone.  ``generic_squares=True`` books every squaring
    step at the full formula's cost (see ext_square); without it a step
    that squares a scalar accumulator books one squaring, and a multiply
    step on a scalar accumulator books two full multiplications (see
    ext_mul).  A scalar base books one squaring per squaring step and one
    full multiplication per multiply step.

    The executed code is not that ladder: the loop works on local ints,
    reduces once per output coefficient (the square of v is reduced first
    only where a full-size b or c multiplies it), counts the steps whose
    accumulator is scalar, and books every bucket once at the end.  A scalar
    base is the built-in ``pow``.  A base whose power e^(2^a) is a unit
    scalar s for a small a (see ``_scalar_power``) skips most of the
    ladder: e**exp = s^(exp >> a) * e^(exp mod 2^a), one built-in
    ``pow`` and a ladder of a bits.  Such a base is a unit, so its scalar
    powers are exactly the multiples of 2^a, and the ladder's scalar steps
    follow from exp's bits in closed form.  ``generic_squares=True`` marks
    the dominant ladder, whose base has no such power in practice, and
    skips the probe.  The values are the ladder's.
    """
    if exp < 0:
        raise ValueError("ext_pow requires a nonnegative exponent")
    n = ring.n
    if exp == 0:
        return QuadExtElement(1 % n, 0)
    u, v = e[0] % n, e[1] % n
    if mult_counter is None:
        mult_counter = counter
    steps = exp.bit_length() - 1
    mults = exp.bit_count() - 1
    if v == 0:
        if counter is not None:
            counter.squarings += steps
        if mult_counter is not None:
            mult_counter.full_mults += mults
        return QuadExtElement(pow(u, exp, n), 0)
    is_x = u == 0 and v == 1
    split = None if generic_squares else _scalar_power(u, v, exp, ring)
    if split is None:
        acc, scalar_squares, scalar_mults = _ladder(u, v, exp, ring, is_x)
    else:
        a, s = split
        high = pow(s, exp >> a, n)
        low = exp & ((1 << a) - 1)
        if low:
            lu, lv = _ladder(u, v, low, ring, is_x)[0]
            acc = QuadExtElement(high * lu % n, high * lv % n)
        else:
            acc = QuadExtElement(high, 0)
        scalar_squares, scalar_mults = _scalar_steps(exp, a)
    if counter is not None:
        if not generic_squares:
            counter.squarings += scalar_squares
            steps -= scalar_squares
        _book_op(ring, counter, steps, square=True)
    if mult_counter is not None:
        if is_x:
            _book_mul_by_x(ring, mult_counter, mults)
        else:
            mult_counter.full_mults += 2 * scalar_mults
            _book_op(ring, mult_counter, mults - scalar_mults, square=False)
    return acc


def _scalar_power(u: int, v: int, exp: int, ring: ExtensionRing) -> "Optional[tuple[int, int]]":
    """(a, s) for the least a >= 1 with (u + v*x)^(2^a) = s, a unit scalar; else None.

    Only a <= v2(n + 1) is tried: for prime n the units modulo scalars of
    F_(n^2) form a cyclic group of order n + 1.  Nothing is tried when
    v2(n + 1) exceeds half of exp's bits (n = 2^k - 1, say), where the
    probe and the a-bit ladder can cost more than the ladder they replace.
    The squarings are not booked.
    """
    n = ring.n
    limit = ((n + 1) & -(n + 1)).bit_length() - 1
    if 2 * limit >= exp.bit_length():
        return None
    e = QuadExtElement(u, v)
    for a in range(1, limit + 1):
        e = ext_square(e, ring)
        if e.v == 0:
            return (a, e.u) if math.gcd(e.u, n) == 1 else None
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


def _ladder(u: int, v: int, exp: int, ring: ExtensionRing, is_x: bool):
    """The form's ladder kernel: (power, scalar squaring steps, scalar multiply steps)."""
    if ring.b is None:
        return _pure_ladder(u, v, exp, ring.n, ring.c, ring.small_c_bits is None, is_x)
    return _general_ladder(u, v, exp, ring.n, ring.b, ring.c, is_x)


def _pure_ladder(u: int, v: int, exp: int, n: int, c: int, full_c: bool, is_x: bool):
    """u + v*x raised to exp in Z[x]/(n, x^2 - c), with exp >= 1 and v != 0.

    Returns (power, squaring steps on a scalar, multiply steps on a scalar).
    A square is u^2 + c*v^2 and ((u + v)^2 - u^2 - v^2)*x, each reduced once;
    a full-size c gets v^2 reduced first.  The multiply step by the base
    z = zu + zv*x uses the same Karatsuba cross term.
    """
    zu, zv = u, v
    zs = zu + zv
    scalar_squares = scalar_mults = 0
    for bit in bin(exp)[3:]:
        if not v:
            scalar_squares += 1
        uu = u * u
        vv = v * v
        t = u + v
        v = (t * t - uu - vv) % n
        if full_c:
            vv %= n
        u = (uu + c * vv) % n
        if bit == "1":
            if not v:
                scalar_mults += 1
            if is_x:
                u, v = c * v % n, u
            else:
                p = u * zu
                q = v * zv
                v = ((u + v) * zs - p - q) % n
                if full_c:
                    q %= n
                u = (p + c * q) % n
    return QuadExtElement(u, v), scalar_squares, scalar_mults


def _general_ladder(u: int, v: int, exp: int, n: int, b: int, c: int, is_x: bool):
    """u + v*x raised to exp in Z[x]/(n, x^2 - b*x - c), as ``_pure_ladder``.

    A square is u^2 + c*v^2 and 2uv + b*v^2 with 2uv = (u + v)^2 - u^2 - v^2;
    v^2 is reduced before the products by b and c.
    """
    zu, zv = u, v
    zs = zu + zv
    scalar_squares = scalar_mults = 0
    for bit in bin(exp)[3:]:
        if not v:
            scalar_squares += 1
        uu = u * u
        vv = v * v
        t = u + v
        t = t * t - uu - vv
        vv %= n
        u = (uu + c * vv) % n
        v = (t + b * vv) % n
        if bit == "1":
            if not v:
                scalar_mults += 1
            if is_x:
                u, v = c * v % n, (u + b * v) % n
            else:
                p = u * zu
                q = v * zv
                t = (u + v) * zs - p - q
                q %= n
                u = (p + c * q) % n
                v = (t + b * q) % n
    return QuadExtElement(u, v), scalar_squares, scalar_mults


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
