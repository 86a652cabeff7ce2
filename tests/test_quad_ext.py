"""Extension-ring arithmetic: values, ring axioms, and operation booking."""

import os
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import isprime, nextprime

from frobprime import frobenius, quadext
from frobprime.arith import jacobi, primes_up_to
from frobprime.quadext import (
    ExtensionRing,
    OpCounter,
    QuadExtElement,
    ext_mul,
    ext_norm,
    ext_pow,
    ext_square,
    frobenius_conjugate,
    mul_by_x,
)


def _ext_pow_by_steps(e, exp, ring, counter=None, mult_counter=None, *, generic_squares=False):
    """The reference ladder: one booked ext_square / ext_mul / mul_by_x call per step.

    ``generic_squares=True`` books every step at the contract cost, whatever
    the base: a step on a scalar accumulator books the square or product of
    the non-scalar 1 + x, not ext_square's or ext_mul's scalar shortcut.
    """
    n = ring.n
    if exp == 0:
        return QuadExtElement(1 % n, 0)
    u, v = e[0] % n, e[1] % n
    if mult_counter is None:
        mult_counter = counter
    if v == 0 and not generic_squares:
        r = u
        for bit in bin(exp)[3:]:
            r = r * r % n
            if counter is not None:
                counter.squarings += 1
            if bit == "1":
                r = r * u % n
                if mult_counter is not None:
                    mult_counter.full_mults += 1
        return QuadExtElement(r, 0)
    base = QuadExtElement(u, v)
    one_x = QuadExtElement(1, 1)  # booking its square or product books one contract step
    acc = base
    for bit in bin(exp)[3:]:
        if generic_squares and acc.v == 0:
            ext_square(one_x, ring, counter)
            acc = ext_square(acc, ring)
        else:
            acc = ext_square(acc, ring, counter)
        if bit == "1":
            if base == (0, 1):
                acc = mul_by_x(acc, ring, mult_counter)
            elif generic_squares and acc.v == 0:
                ext_mul(one_x, one_x, ring, mult_counter)
                acc = ext_mul(acc, base, ring)
            else:
                acc = ext_mul(acc, base, ring, mult_counter)
    return acc


def _rand_elem(rng, n):
    return QuadExtElement(rng.randrange(n), rng.randrange(n))


def _add(e1, e2, n):
    return QuadExtElement((e1[0] + e2[0]) % n, (e1[1] + e2[1]) % n)


def _rand_ring(rng, n):
    if rng.random() < 0.5:
        return ExtensionRing.general(n, rng.randrange(n), rng.randrange(n))
    return ExtensionRing.pure(n, rng.randrange(1, n))


def test_fixed_values():
    # x^13 mod (13, x^2 - 2): 2 is a nonresidue mod 13, so x^13 = -x
    ring = ExtensionRing.pure(13, 2)
    assert ext_pow(QuadExtElement(0, 1), 13, ring) == (0, 12)
    # (1 + x)^2 mod (7, x^2 - 3) = 1 + 2x + 3 = 4 + 2x
    ring = ExtensionRing.pure(7, 3)
    assert ext_square(QuadExtElement(1, 1), ring) == (4, 2)
    # general form: x^2 = b*x + c directly
    ring = ExtensionRing.general(11, 3, 5)
    assert ext_square(QuadExtElement(0, 1), ring) == (5, 3)
    assert ext_mul(QuadExtElement(0, 1), QuadExtElement(0, 1), ring) == (5, 3)


def test_ring_validation():
    with pytest.raises(ValueError):
        ExtensionRing(15, None, 20)  # c not reduced
    with pytest.raises(ValueError):
        ExtensionRing(15, 16, 2)  # b not reduced
    with pytest.raises(ValueError):
        ExtensionRing(14, None, 3)  # even modulus
    with pytest.raises(ValueError):
        ExtensionRing(15, 2, 3, small_c_bits=2)  # small c is a pure-form notion
    ring = ExtensionRing.pure(101, 2, small=True)
    assert ring.small_c_bits == 2
    assert ring.small_ratio == 2 / 7
    assert ExtensionRing.general(15, 31, 17) == ExtensionRing(15, 1, 2)


def test_ring_axioms_hold_on_random_samples():
    rng = random.Random(20240820)
    for _ in range(150):
        n = rng.randrange(3, 10**6) | 1
        ring = _rand_ring(rng, n)
        a, b, c = (_rand_elem(rng, n) for _ in range(3))
        ab = ext_mul(a, b, ring)
        assert ab == ext_mul(b, a, ring)
        assert ext_mul(ab, c, ring) == ext_mul(a, ext_mul(b, c, ring), ring)
        lhs = ext_mul(a, _add(b, c, n), ring)
        rhs = _add(ext_mul(a, b, ring), ext_mul(a, c, ring), n)
        assert lhs == rhs
        one = QuadExtElement(1, 0)
        assert ext_mul(a, one, ring) == a


def test_square_equals_self_multiplication():
    rng = random.Random(31)
    for _ in range(300):
        n = rng.randrange(3, 10**9) | 1
        ring = _rand_ring(rng, n)
        a = _rand_elem(rng, n)
        assert ext_square(a, ring) == ext_mul(a, a, ring)


def test_products_match_the_schoolbook_formula_in_every_form():
    # x^2 = b*x + c, with b = 0 for the pure form; the bit sizes straddle the
    # kernel's fold crossover, and small=True never folds.  Every operation
    # runs in the completed square, and this oracle never does; the norm is
    # u^2 + b*u*v - c*v^2, as the roots of X^2 - b*X - c have sum b and
    # product -c
    rng = random.Random(59)
    for bits in (8, 64, 256, 2048, quadext._FOLD_MIN_BITS - 1, quadext._FOLD_MIN_BITS):
        for _ in range(30):
            n = rng.getrandbits(bits) | 1 << (bits - 1) | 1
            rings = [
                ExtensionRing.general(n, rng.randrange(n), rng.randrange(n)),
                ExtensionRing.pure(n, rng.randrange(n)),
                ExtensionRing.pure(n, rng.randrange(2, 1 << 20), small=True),
            ]
            for ring in rings:
                b = ring.b or 0
                (u1, v1), (u2, v2) = _rand_elem(rng, n), _rand_elem(rng, n)
                vv = v1 * v2
                expected = ((u1 * u2 + ring.c * vv) % n, (u1 * v2 + v1 * u2 + b * vv) % n)
                assert ext_mul(QuadExtElement(u1, v1), QuadExtElement(u2, v2), ring) == expected
                vv = v1 * v1
                expected = ((u1 * u1 + ring.c * vv) % n, (2 * u1 * v1 + b * vv) % n)
                assert ext_square(QuadExtElement(u1, v1), ring) == expected
                assert ext_norm(QuadExtElement(u1, v1), ring) == (u1 * u1 + b * u1 * v1 - ring.c * vv) % n
                assert mul_by_x(QuadExtElement(u1, v1), ring) == (ring.c * v1 % n, (u1 + b * v1) % n)


def test_mul_by_x_matches_general_multiplication():
    rng = random.Random(47)
    x = QuadExtElement(0, 1)
    for _ in range(200):
        n = rng.randrange(3, 10**6) | 1
        ring = _rand_ring(rng, n)
        a = _rand_elem(rng, n)
        assert mul_by_x(a, ring) == ext_mul(a, x, ring)


def test_norm_is_multiplicative():
    rng = random.Random(53)
    for _ in range(200):
        n = rng.randrange(3, 10**6) | 1
        ring = _rand_ring(rng, n)
        a, b = _rand_elem(rng, n), _rand_elem(rng, n)
        assert ext_norm(ext_mul(a, b, ring), ring) == ext_norm(a, ring) * ext_norm(b, ring) % n


def test_power_map_conjugates_over_prime_fields():
    # over F_p with (c/p) = -1, raising to the p-th power is conjugation
    for p in primes_up_to(60):
        if p == 2:
            continue
        c = next(c for c in range(2, p) if jacobi(c, p) == -1)
        ring = ExtensionRing.pure(p, c)
        for u in range(p):
            for v in range(p):
                z = QuadExtElement(u, v)
                assert ext_pow(z, p, ring) == frobenius_conjugate(z, ring)
    rng = random.Random(61)
    for p in primes_up_to(200)[17:]:
        c = next(c for c in range(2, p) if jacobi(c, p) == -1)
        ring = ExtensionRing.pure(p, c)
        for _ in range(50):
            z = _rand_elem(rng, p)
            assert ext_pow(z, p, ring) == frobenius_conjugate(z, ring)


def test_conjugate_requires_pure_form():
    with pytest.raises(ValueError):
        frobenius_conjugate(QuadExtElement(1, 2), ExtensionRing.general(7, 1, 3))


def test_norm_values_both_forms():
    pure = ExtensionRing.pure(11, 2)
    assert ext_norm(QuadExtElement(3, 4), pure) == (9 - 2 * 16) % 11
    gen = ExtensionRing.general(11, 3, 5)
    assert ext_norm(QuadExtElement(3, 4), gen) == (9 + 3 * 12 - 5 * 16) % 11


def test_booking_general_form_square():
    ring = ExtensionRing.general(101, 7, 9)
    counter = OpCounter()
    ext_square(QuadExtElement(5, 6), ring, counter)
    assert counter.as_dict() == {
        "squarings": 2,
        "full_mults": 1,
        "small_mults": 0,
        "param_mults": 2,
        "small_bits_ratio": 0.0,
    }


def test_booking_general_form_full_product():
    ring = ExtensionRing.general(101, 7, 9)
    counter = OpCounter()
    ext_mul(QuadExtElement(5, 6), QuadExtElement(8, 9), ring, counter)
    assert (counter.full_mults, counter.param_mults) == (3, 2)
    assert counter.squarings == 0


def test_booking_pure_form_operations():
    ring = ExtensionRing.pure(101, 5)
    counter = OpCounter()
    ext_square(QuadExtElement(5, 6), ring, counter)
    assert (counter.full_mults, counter.squarings, counter.small_mults) == (3, 0, 0)
    counter = OpCounter()
    ext_mul(QuadExtElement(5, 6), QuadExtElement(8, 9), ring, counter)
    assert (counter.full_mults, counter.small_mults) == (3, 0)
    counter = OpCounter()
    mul_by_x(QuadExtElement(5, 6), ring, counter)
    assert (counter.full_mults, counter.small_mults) == (1, 0)


def test_booking_small_c_pure_form():
    ring = ExtensionRing.pure(101, 5, small=True)
    counter = OpCounter()
    ext_square(QuadExtElement(5, 6), ring, counter)
    assert (counter.full_mults, counter.small_mults) == (2, 1)
    assert counter.small_bits_ratio == pytest.approx(3 / 7)
    counter = OpCounter()
    mul_by_x(QuadExtElement(5, 6), ring, counter)
    assert (counter.full_mults, counter.small_mults) == (0, 1)


def test_booking_scalar_fast_paths():
    ring = ExtensionRing.general(101, 7, 9)
    counter = OpCounter()
    assert ext_square(QuadExtElement(10, 0), ring, counter) == (100 % 101, 0)
    assert counter.as_dict()["squarings"] == 1 and counter.full_mults == 0
    counter = OpCounter()
    ext_mul(QuadExtElement(10, 0), QuadExtElement(8, 9), ring, counter)
    assert (counter.full_mults, counter.squarings, counter.param_mults) == (2, 0, 0)
    counter = OpCounter()
    ext_mul(QuadExtElement(10, 0), QuadExtElement(8, 0), ring, counter)
    assert (counter.full_mults, counter.squarings) == (1, 0)


def test_generic_square_books_full_cost_on_scalars():
    ring = ExtensionRing.general(101, 7, 9)
    counter = OpCounter()
    value = ext_pow(QuadExtElement(10, 0), 2, ring, counter, generic_squares=True)
    assert value == (100 % 101, 0)
    assert (counter.squarings, counter.full_mults, counter.param_mults) == (2, 1, 2)
    pure = ExtensionRing.pure(101, 5)
    counter = OpCounter()
    assert ext_pow(QuadExtElement(10, 0), 2, pure, counter, generic_squares=True) == (100 % 101, 0)
    assert counter.full_mults == 3


def test_ext_pow_books_exact_ladder_counts():
    ring = ExtensionRing.general(10**9 + 9, 12345, 6789)
    rng = random.Random(71)
    base = QuadExtElement(rng.randrange(10**9), rng.randrange(1, 10**9))
    for exp in (2, 3, 0b1011, 2**20 - 1, 2**20 + 5):
        squares, mults = OpCounter(), OpCounter()
        ext_pow(base, exp, ring, squares, mults, generic_squares=True)
        steps = exp.bit_length() - 1
        set_bits = bin(exp).count("1") - 1
        assert (squares.squarings, squares.full_mults) == (2 * steps, steps)
        assert squares.param_mults == 2 * steps
        assert (mults.full_mults, mults.param_mults) == (3 * set_bits, 2 * set_bits)
        assert mults.squarings == 0


def test_ext_pow_multiply_steps_default_into_main_counter():
    ring = ExtensionRing.pure(101, 5)
    counter = OpCounter()
    ext_pow(QuadExtElement(3, 4), 0b1011, ring, counter, generic_squares=True)
    # 3 squaring steps + 2 multiply steps, all pure-form ops at 3 fm each
    assert counter.full_mults == 3 * 5
    assert counter.squarings == 0


def test_ext_pow_scalar_base_runs_in_base_ring():
    ring = ExtensionRing.pure(101, 5)
    counter = OpCounter()
    out = ext_pow(QuadExtElement(7, 0), 0b1011, ring, counter)
    assert out == (pow(7, 11, 101), 0)
    assert (counter.squarings, counter.full_mults) == (3, 2)


def test_ext_pow_x_base_uses_cheap_multiply_steps():
    ring = ExtensionRing.pure(101, 5)
    squares, mults = OpCounter(), OpCounter()
    out = ext_pow(QuadExtElement(0, 1), 13, ring, squares, mults)
    assert out == ext_pow(QuadExtElement(0, 1), 13, ring)
    assert mults.full_mults == bin(13).count("1") - 1  # one c-product per set bit
    assert mults.squarings == 0


def test_ext_pow_edge_exponents():
    ring = ExtensionRing.pure(101, 5)
    z = QuadExtElement(3, 4)
    assert ext_pow(z, 0, ring) == (1, 0)
    assert ext_pow(z, 1, ring) == z
    with pytest.raises(ValueError):
        ext_pow(z, -1, ring)


def test_ext_pow_matches_repeated_multiplication():
    rng = random.Random(83)
    for _ in range(100):
        n = rng.randrange(3, 10**4) | 1
        ring = _rand_ring(rng, n)
        z = _rand_elem(rng, n)
        exp = rng.randrange(1, 40)
        acc = QuadExtElement(1 % n, 0)
        for _ in range(exp):
            acc = ext_mul(acc, z, ring)
        assert ext_pow(z, exp, ring) == acc
        assert ext_pow(z, exp, ring, generic_squares=True) == acc


def test_op_counter_arithmetic():
    a = OpCounter(1, 2, 3, 4, 0.5)
    b = OpCounter(10, 20, 30, 40, 0.25)
    total = a + b
    assert total.as_dict() == {
        "squarings": 11,
        "full_mults": 22,
        "small_mults": 33,
        "param_mults": 44,
        "small_bits_ratio": 0.5,
    }
    a += b
    assert a == total
    assert a != b
    assert OpCounter() == OpCounter()
    # small_bits_ratio keeps the largest small operand booked, and zero
    # copies of a row book nothing, the ratio included
    c = OpCounter()
    x_step = quadext._STEP_COSTS["pure-smallc"].x_step
    quadext._book(c, x_step, ExtensionRing.pure(1023, 5, small=True))  # 3 of 10 bits
    quadext._book(c, x_step, ExtensionRing.pure(1023, 3, small=True))  # 2 of 10 bits
    assert c.small_mults == 2 and c.small_bits_ratio == 0.3
    quadext._book(c, x_step, ExtensionRing.pure(1023, 255, small=True), 0)
    assert c.small_mults == 2 and c.small_bits_ratio == 0.3
    assert "squarings=11" in repr(total)


def _field(rng, p, form):
    """A ring over the prime p that is the field F_(p^2), in the given form."""
    if form == "general":
        while True:
            b, c = rng.randrange(p), rng.randrange(1, p)
            if jacobi(b * b + 4 * c, p) == -1:
                return ExtensionRing.general(p, b, c)
    c = next(c for c in range(2, p) if jacobi(c, p) == -1)
    return ExtensionRing.pure(p, c, small=form == "pure-small")


def _kernel_cases():
    """(ring, base, exp) triples over every form, base kind and exponent size."""
    rng = random.Random(20261018)
    forms = ("general", "pure", "pure-small")
    for i in range(1500):
        form = forms[i % 3]
        n = rng.randrange(3, 3000) | 1 if i % 2 else rng.getrandbits(rng.randrange(8, 420)) | 3
        if form == "general":
            ring = ExtensionRing.general(n, rng.randrange(n), rng.randrange(n))
        elif form == "pure":
            ring = ExtensionRing.pure(n, rng.randrange(n))
        else:
            ring = ExtensionRing.pure(n, rng.randrange(2, 60) % n, small=True)
        kind = i // 3 % 3
        if kind == 0:
            base = QuadExtElement(rng.randrange(2 * n), n * rng.randrange(3))  # scalar, maybe unreduced
        elif kind == 1:
            base = QuadExtElement(0, 1)
        else:
            base = QuadExtElement(rng.randrange(2 * n), rng.randrange(1, 2 * n))
        yield ring, base, rng.getrandbits(rng.choice((2, 8, 64, 400)))
    # Exponents whose bit prefix is p + 1 in the field F_(p^2): the accumulator
    # there is z^(p + 1), the scalar norm, so later steps square and multiply
    # a scalar.
    for i in range(120):
        p = nextprime(rng.getrandbits(rng.choice((10, 64, 200))))
        ring = _field(rng, p, forms[i % 3])
        base = QuadExtElement(0, 1) if i % 2 else QuadExtElement(rng.randrange(p), rng.randrange(1, p))
        low = rng.randrange(4)
        yield ring, base, (p + 1) << low | rng.getrandbits(low)
    # General rings at the edges of the map x = y + b/2: b = 0 makes it the
    # identity, and x^2 - 6x + 9 = (x - 3)^2 maps to y^2 = 0, where x - 3 = y
    # squares to 0.
    n = 1000000007
    for ring in (ExtensionRing.general(n, 0, 5), ExtensionRing.general(n, 6, -9)):
        for base in ((0, 1), (n - 3, 1), (rng.randrange(n), rng.randrange(1, n)), (rng.randrange(1, n), 0)):
            for bits in (1, 2, 3, 64, 129, 400):
                yield ring, QuadExtElement(*base), rng.getrandbits(bits) | 1 << (bits - 1)
    yield ExtensionRing.pure(101, 5), QuadExtElement(3, 4), 0
    yield from _split_cases()


def _prime_with_v2(rng, k, bits):
    """A prime p with v2(p + 1) = k."""
    while True:
        p = (rng.getrandbits(bits) << (k + 1)) + (1 << k) - 1
        if p > 3 and isprime(p):
            return p


def _split_cases():
    """(ring, base, exp) whose base is a unit with a scalar power base^(2^a)."""
    rng = random.Random(20261019)
    forms = ("general", "pure", "pure-small")
    for i in range(900):
        k = 1 + i % 8
        p = _prime_with_v2(rng, k, rng.choice((8, 40, 120)))
        ring = _field(rng, p, forms[i % 3])
        # z^odd(p + 1) has 2-power order modulo scalars, so some a <= k makes it scalar
        base = ext_pow(QuadExtElement(rng.randrange(p), rng.randrange(1, p)), (p + 1) >> k, ring)
        if i % 5 == 0 and base[1]:
            if ring.b is None:
                base = QuadExtElement(0, 1)  # x^2 = c: a = 1
            else:
                # x plays base's part in the ring of base's minimal polynomial
                u, v = base
                trace, norm = 2 * u + ring.b * v, u * u + ring.b * u * v - ring.c * v * v
                ring = ExtensionRing.general(p, trace, -norm)
                base = QuadExtElement(0, 1)
        exp = rng.choice((1, 2, 3, 1 << rng.randrange(1, 12), (1 << rng.randrange(1, 12)) - 1,
                          rng.getrandbits(rng.choice((4, 16, 70, 300)))))
        yield ring, base, exp << rng.choice((0, 0, 1, 3, 9))
    # composite moduli, where base^(2^a) can be a scalar that is not a unit
    for i in range(300):
        p, q = (nextprime(2 + rng.getrandbits(rng.choice((8, 30)))) for _ in range(2))
        n = p * q
        if i % 3 == 0:
            ring = ExtensionRing.pure(n, rng.randrange(n))
            base = QuadExtElement(0, p * rng.randrange(1, q))  # base^2 = c*v^2 is 0 modulo p
        else:
            ring = _rand_ring(rng, n)
            base = ext_pow(QuadExtElement(rng.randrange(n), rng.randrange(1, n)), 1 << rng.randrange(6), ring)
        yield ring, base, rng.getrandbits(rng.choice((8, 60))) | 1


def test_ext_pow_kernel_matches_the_step_by_step_ladder():
    scalar_squares = scalar_mults = 0
    for ring, base, exp in _kernel_cases():
        for generic in (False, True):
            got = [OpCounter(), OpCounter()]
            want = [OpCounter(), OpCounter()]
            for counters in ((0, 1), (0, None), (None, 1), (None, None)):
                g = [None if k is None else got[k] for k in counters]
                w = [None if k is None else want[k] for k in counters]
                value = ext_pow(base, exp, ring, *g, generic_squares=generic)
                assert value == _ext_pow_by_steps(base, exp, ring, *w, generic_squares=generic)
                for mine, ref in zip(got, want):
                    assert mine.as_dict() == ref.as_dict(), (ring, base, exp, generic, counters)
            # With a non-scalar base in the pure form, only a squaring step on a
            # scalar books a squaring, and a multiply step by a general base books
            # 3 full products less one per scalar accumulator.  want[1] holds
            # the multiply steps twice, from the (0, 1) and (None, 1) runs.
            if not generic and base[1] % ring.n and ring.b is None:
                scalar_squares += want[0].squarings
                if ring.small_c_bits is None and base != (0, 1) and exp:
                    scalar_mults += 6 * (bin(exp).count("1") - 1) - want[1].full_mults
        # ext_pow only reads the ring's shared high power: no call stores one
        assert ring._last_power == (None, None), (ring, base, exp)
    # the scalar-accumulator steps were exercised
    assert scalar_squares > 1000 and scalar_mults > 100, (scalar_squares, scalar_mults)


def _window_exponents(rng, bits, k):
    """Exponents of ``bits`` bits that stress a width-k window split."""
    top = 1 << (bits - 1)
    yield top  # 2^j: one window, then only squarings
    yield 2 * top - 1  # 2^(j+1) - 1: every window full
    yield top | 1  # a zero run as long as the exponent
    yield top | top >> (k + 1) | 1  # top window of one bit, shorter than k
    yield top | (1 << (bits // 2)) | 1 << (bits // 3)  # windows that end before bit 0
    yield rng.getrandbits(bits) | top | 1  # random, last window ends at bit 0
    yield (rng.getrandbits(bits) | top) & ~((1 << (bits // 3)) - 1)  # trailing zero run


def _power(base, exp, ring, k):
    """The power kernel at width k, reached from the general form through
    x = y + b/2: (base^exp, scalar squares, scalar products)."""
    n = ring.n
    if ring.b is None:
        ch = None if ring.small_c_bits is not None else quadext._fold(n, ring.c)
        return quadext._pure_power(*base, exp, n, ring.c, ch, k)[:3]
    h, d = quadext._pure_form(n, ring.b, ring.c)
    (u, v), squares, mults, _ = quadext._pure_power((base.u + h * base.v) % n, base.v, exp, n, d, quadext._fold(n, d), k)
    return QuadExtElement((u - h * v) % n, v), squares, mults


def _scalar_steps_by_steps(base, exp, ring):
    """The squaring and multiply steps of the binary ladder of ext_square and
    ext_mul calls whose accumulator is a scalar."""
    acc, squares, mults = base, 0, 0
    for bit in bin(exp)[3:]:
        squares += acc.v == 0
        acc = ext_square(acc, ring)
        if bit == "1":
            mults += acc.v == 0
            acc = ext_mul(acc, base, ring)
    return squares, mults


def test_window_kernel_matches_the_step_by_step_ladder():
    rng = random.Random(20261019)
    assert [quadext._window_width(bits) for bits in (128, 256, 1024, 2048)] == [4, 5, 6, 7]
    widths = (1, *quadext._WINDOWS)
    for i, bits in enumerate((1, 2, 3, 8, 64, 127, 128, 129, 300, 383, 384, 385, 1024, 4096)):
        n = rng.getrandbits((16, 64, 256)[i % 3]) | 3
        # small and full-size c; in the general form a full-size b with a
        # small c, then a small b with a full-size c
        rings = [
            ExtensionRing.pure(n, rng.randrange(n)),
            ExtensionRing.pure(n, rng.randrange(2, 60), small=True),
            ExtensionRing.general(n, rng.randrange(n), rng.randrange(60)),
            ExtensionRing.general(n, rng.randrange(60), rng.randrange(n)),
        ]
        for ring in rings:
            exps = {1}.union(*(_window_exponents(rng, bits, k) for k in quadext._WINDOWS)) - {0}
            for base in (QuadExtElement(rng.randrange(n), rng.randrange(1, n)), QuadExtElement(0, 1)):
                for exp in sorted(exps):
                    want = _ext_pow_by_steps(base, exp, ring)
                    for k in widths:
                        assert _power(base, exp, ring, k)[0] == want, (ring, base, exp, k)
    # width 1 counts the binary ladder's scalar steps: in F_(p^2) an exponent
    # with the prefix p + 1 puts z^(p + 1), the scalar norm, in the accumulator
    scalar_steps = 0
    for i in range(90):
        p = nextprime(rng.getrandbits((10, 64, 200)[i % 3]))
        ring = _field(rng, p, ("general", "pure", "pure-small")[i // 3 % 3])
        base = QuadExtElement(0, 1) if i % 2 else QuadExtElement(rng.randrange(p), rng.randrange(1, p))
        low = rng.randrange(1, 6)
        exp = (p + 1) << low | rng.getrandbits(low)
        power, squares, mults = _power(base, exp, ring, 1)
        assert power == _ext_pow_by_steps(base, exp, ring)
        assert (squares, mults) == _scalar_steps_by_steps(base, exp, ring), (ring, base, exp)
        for k in quadext._WINDOWS:
            assert _power(base, exp, ring, k)[0] == power
        scalar_steps += squares + mults
    assert scalar_steps > 200
    # a full-size modulus at the dominant ladder's exponent, n + 1 over its power of 2
    n = rng.getrandbits(2048) | 1 << 2047 | 1
    exp = (n + 1) >> ((n + 1) & -(n + 1)).bit_length() - 1
    base = QuadExtElement(rng.randrange(n), rng.randrange(1, n))
    ring = ExtensionRing.pure(n, rng.randrange(n))
    assert _power(base, exp, ring, 7)[0] == _ext_pow_by_steps(base, exp, ring)
    ring = ExtensionRing.general(n, rng.randrange(n), rng.randrange(n))
    for z in (base, QuadExtElement(0, 1)):
        assert _power(z, exp, ring, 7)[0] == _ext_pow_by_steps(z, exp, ring)
    # moduli around the fold crossover, and at K = bits(n) boundaries, where
    # w >> K and w mod 2^K of w < n^2 reach their extremes; the operand n - 1
    # with c = 1 and c = n - 1 gives the largest w and c*w
    fold = quadext._FOLD_MIN_BITS
    moduli = [rng.getrandbits(bits) | 1 << (bits - 1) | 1 for bits in (fold - 1, fold, fold + 1)]
    moduli += [m for K in (64, 256, 2048) for m in ((1 << K) - 1, (1 << (K - 1)) + 1)]
    for n in moduli:
        rings = [ExtensionRing.pure(n, c) for c in (1, n - 1, rng.randrange(n))]
        rings += [ExtensionRing.general(n, b, c) for b, c in ((n - 1, n - 1), (rng.randrange(n), 1))]
        exps = ((1 << 130) - 1, rng.getrandbits(160) | 1 << 159)
        for ring in rings:
            for base in (QuadExtElement(n - 1, n - 1), QuadExtElement(rng.randrange(n), rng.randrange(1, n))):
                for exp in exps:
                    want = _ext_pow_by_steps(base, exp, ring)
                    for k in widths:
                        assert _power(base, exp, ring, k)[0] == want, (ring, base, exp, k)


def test_both_multiply_forms_give_the_same_values(monkeypatch):
    """Every product by a full-size c, or by the general form's completed
    square d, folds when _FOLD_MIN_BITS is 0, and none does when no modulus
    reaches it; the values stay the same."""
    kernels = []

    def recorded(*args, **kwargs):
        power = kernel(*args, **kwargs)
        kernels.append((*args[4:6], power))  # (c, ch, power)
        return power

    kernel = quadext._pure_power
    monkeypatch.setattr(quadext, "_pure_power", recorded)
    monkeypatch.setattr(frobenius, "_pure_power", recorded)

    def run():
        rng = random.Random(20261019)
        folds, values = [], []
        for bits in (8, 64, 207, 208, 209, 256, 1024):
            n = rng.getrandbits(bits) | 1 << (bits - 1) | 1
            rings = [
                ExtensionRing.pure(n, rng.randrange(60, n)),
                ExtensionRing.pure(n, n - 1),
                ExtensionRing.pure(n, rng.randrange(2, 60), small=True),
                ExtensionRing.general(n, rng.randrange(60, n), rng.randrange(60, n)),
            ]
            elements = [QuadExtElement(n - 1, n - 1), QuadExtElement(rng.randrange(n), rng.randrange(1, n))]
            for ring in rings:
                if ring.small_c_bits is None:
                    folds.append(ring._completed[2])
                for e in elements:
                    values.append(ext_square(e, ring))
                    values += [ext_mul(e, f, ring) for f in elements]
                    for exp in (rng.getrandbits(100), n + 1):
                        values += [ext_pow(e, exp, ring, generic_squares=g) for g in (False, True)]
            values.append(frobenius.lucas_uv(rng.randrange(n), rng.randrange(n), n + 1, n))
        return folds, values

    results = []
    for crossover in (0, 1 << 20):
        monkeypatch.setattr(quadext, "_FOLD_MIN_BITS", crossover)
        kernels.clear()
        folds, values = run()
        # one home for the crossover: every ring and every kernel call follows it
        assert {ch is not None for ch in folds} == {crossover == 0}
        assert {ch is not None for c, ch, _ in kernels if c >= 60} == {crossover == 0}
        results.append((values, [power for _, _, power in kernels]))
    assert results[0] == results[1]


def test_both_reduction_bodies_give_the_same_results(monkeypatch):
    """Every kernel call reduces through the half-width fold from
    _HALF_FOLD_MIN_BITS of n on and no call below it, with the crossover
    at 0, where it is, and past every modulus; the powers, prefixes and
    scalar tallies of _pure_power, ext_pow and lucas_uv stay the same."""
    kernels, folded = [], []

    def recorded(*args, **kwargs):
        kernels.append(args[3])  # n
        return kernel(*args, **kwargs)

    def recorded_fold(*args):
        folded.append(args[3])
        return half_folded(*args)

    kernel, half_folded = quadext._pure_power, quadext._half_folded_power
    monkeypatch.setattr(quadext, "_pure_power", recorded)
    monkeypatch.setattr(frobenius, "_pure_power", recorded)
    monkeypatch.setattr(quadext, "_half_folded_power", recorded_fold)
    rng = random.Random(20261020)
    # primes around the crossover, where a power of (p + 1)*2^low passes
    # through the scalar norm, then the K-bit extremes 2^K - 1 and 2^(K-1) + 1
    primes = [nextprime(1 << (bits - 1) | rng.getrandbits(bits - 2)) for bits in (511, 512, 513)]
    assert [p.bit_length() for p in primes] == [511, 512, 513]
    moduli = primes + [m for K in (512, 1024, 2048) for m in ((1 << K) - 1, (1 << (K - 1)) + 1)]

    def run():
        rng = random.Random(20261021)
        values, scalar_steps = [], 0
        for n in moduli:
            # small, full-size and general rings; the operand n - 1 meets
            # c = 1 and c = n - 1, and a c of n - 1 booked small is never folded
            rings = [ExtensionRing.pure(n, c) for c in (1, n - 1)]
            rings += [ExtensionRing.pure(n, c, small=True) for c in (rng.randrange(2, 60), n - 1)]
            rings.append(ExtensionRing.general(n, rng.randrange(n), rng.randrange(n)))
            low = rng.randrange(1, 6)
            if n in primes:
                rings += [_field(rng, n, form) for form in ("general", "pure", "pure-small")]
                exp = (n + 1) << low | rng.getrandbits(low)
            else:
                exp = rng.getrandbits(160) | 1 << 159
            for ring in rings:
                h, d, dh = ring._completed
                for e in (QuadExtElement(n - 1, n - 1), QuadExtElement(rng.randrange(n), rng.randrange(1, n))):
                    for generic, shift in ((False, None), (True, None), (True, low)):
                        counters = [OpCounter(), OpCounter()]
                        power = ext_pow(e, exp, ring, *counters, generic_squares=generic, prefix_shift=shift)
                        values.append((power, [c.as_dict() for c in counters]))
                    for k in (1, quadext._window_width(exp.bit_length())):
                        got = quadext._pure_power((e.u + h * e.v) % n, e.v, exp, n, d, dh, k, low=low)
                        values.append(got)
                        scalar_steps += got[1] + got[2]
            values.append(frobenius.lucas_uv(rng.randrange(n), rng.randrange(n), n + 1, n))
        return values, scalar_steps

    results = []
    for crossover in (0, quadext._HALF_FOLD_MIN_BITS, 1 << 20):
        monkeypatch.setattr(quadext, "_HALF_FOLD_MIN_BITS", crossover)
        kernels.clear()
        folded.clear()
        results.append(run())
        # one home for the crossover: every kernel call follows it
        assert folded == [n for n in kernels if n.bit_length() >= crossover]
        assert set(folded) == {n for n in moduli if n.bit_length() >= crossover}
    assert results[0] == results[1] == results[2]
    # the scalar tallies were exercised
    assert results[0][1] > 1000


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_the_half_width_fold_keeps_every_kernel_sum_mod_n(data):
    """For odd n of 512-4096 bits and x up to the largest sum the kernel
    reduces, (c + 3)*n^2, the fold of x is x mod n, in about 3K/2 + bits(c)
    bits."""
    bits = data.draw(st.integers(512, 4096))
    n = data.draw(st.integers(1 << (bits - 1), (1 << bits) - 1)) | 1
    c = data.draw(st.integers(0, 60) | st.integers(0, n - 1))
    x = data.draw(st.integers(0, (c + 3) * n * n))
    shift, r, low_mask = quadext._half_fold(n)
    folded = (x >> shift) * r + (x & low_mask)
    assert folded % n == x % n
    assert folded < (c + 5) * n << (bits + 1) // 2


_PRODUCT_COST = {  # (squarings, full_mults, small_mults, param_mults) of one non-scalar op
    "general": {"square": (2, 1, 0, 2), "product": (0, 3, 0, 2), "by_x": (0, 0, 0, 2)},
    "pure": {"square": (0, 3, 0, 0), "product": (0, 3, 0, 0), "by_x": (0, 1, 0, 0)},
    "pure-small": {"square": (0, 2, 1, 0), "product": (0, 2, 1, 0), "by_x": (0, 0, 1, 0)},
}


def _form(ring):
    return "general" if ring.b is not None else "pure" if ring.small_c_bits is None else "pure-small"


def test_generic_ext_pow_books_every_step_at_the_contract_cost(monkeypatch):
    windows, case = [], {}
    kernel = quadext._pure_power

    def recorded(*args, **kwargs):
        if args[-1] > 1:
            windows.append((case["form"], case["is_x"], args[2].bit_length()))
        return kernel(*args, **kwargs)

    monkeypatch.setattr(quadext, "_pure_power", recorded)
    rng = random.Random(20261020)
    cases = list(_kernel_cases())
    # both sides of the crossover, with accumulators that pass through a
    # scalar, and scalar bases
    for bits in (8, 64, 126, 127, 128, 129, 200, 382, 383, 384, 385, 600):
        p = nextprime(rng.getrandbits(bits))
        for form in _PRODUCT_COST:
            ring = _field(rng, p, form)
            base = QuadExtElement(rng.randrange(p), rng.randrange(1, p))
            scalar = QuadExtElement(rng.randrange(1, p), 0)
            cases += [(ring, base, (p + 1) << low | rng.getrandbits(low)) for low in (0, 3)]
            cases += [(ring, z, rng.getrandbits(bits) | 1 << (bits - 1)) for z in (base, QuadExtElement(0, 1), scalar)]
    for ring, base, exp in cases:
        if not exp:
            continue
        case.update(form=_form(ring), is_x=base == (0, 1))
        steps, mults = exp.bit_length() - 1, bin(exp).count("1") - 1
        cost = _PRODUCT_COST[_form(ring)]
        by = "by_x" if base == (0, 1) else "product"
        want_squares = [steps * k for k in cost["square"]]
        want_mults = [mults * k for k in cost[by]]
        value = _ext_pow_by_steps(base, exp, ring)
        for counters in ((0, 1), (0, None), (None, 1), (None, None)):
            got = [OpCounter(), OpCounter()]
            g = [None if k is None else got[k] for k in counters]
            assert ext_pow(base, exp, ring, *g, generic_squares=True) == value, (ring, base, exp)
            want = [[0] * 4, [0] * 4]
            squares_to, mults_to = counters[0], counters[0] if counters[1] is None else counters[1]
            if squares_to is not None:
                want[squares_to] = [w + s for w, s in zip(want[squares_to], want_squares)]
            if mults_to is not None:
                want[mults_to] = [w + m for w, m in zip(want[mults_to], want_mults)]
            for counter, expected in zip(got, want):
                tally = [counter.squarings, counter.full_mults, counter.small_mults, counter.param_mults]
                assert tally == expected, (ring, base, exp, counters)
    # windows ran from 128 bits on in every form, for x as for other bases
    for form in _PRODUCT_COST:
        for is_x in (False, True):
            assert min(bits for f, x, bits in windows if (f, x) == (form, is_x)) == 128, (form, is_x)
        assert max(bits for f, _, bits in windows if f == form) > 400


def _memo_pairs(rng, k, bits, form, count):
    """(ring, w, y, exp) over a prime p with v2(p + 1) = k: y has a power
    y^(2^a), a <= k - 1, that is a unit scalar, and w = y^(2^(k-1)), the
    top power that ``ext_pow`` splits y's powers at.  So ext_pow(w, exp)
    followed by ext_pow(y, exp) is step 5's t = w^s1 and z^s = y^s1."""
    p = _prime_with_v2(rng, k, bits)
    ring = _field(rng, p, form)
    for _ in range(count):
        z = QuadExtElement(rng.randrange(p), rng.randrange(1, p))
        y = ext_pow(z, (p + 1) >> (k - 1), ring)
        w = ext_pow(y, 1 << (k - 1), ring)
        yield ring, w, y, rng.getrandbits(bits) | 1 << (bits - 1)


def _minimal_ring(y, ring):
    """The general ring of y's minimal polynomial, where x plays y's part."""
    b = ring.b or 0
    trace, norm = 2 * y.u + b * y.v, y.u * y.u + b * y.u * y.v - ring.c * y.v * y.v
    return ExtensionRing.general(ring.n, trace, -norm)


def test_a_planted_high_power_serves_step_5s_pairs_and_nothing_else(monkeypatch):
    # The entry that frobenius._extension_steps plants, W = w^(exp >> j) with
    # j = v2(p + 1) - 1, splits w^exp and y^exp, and x^exp in the ring of y's
    # minimal polynomial, at every a from 1 to 7 in every form, with no pow of
    # more than bits(p)/2 exponent bits.  Near-miss keys, planted with a wrong
    # power, are never read: where the key's exponent differs, not even the
    # probe runs.  Values and bookings stay the ladder's either way, and no
    # call changes the entry.
    pows, squares, reads = [], [], []
    shared, square = quadext._shared_power, quadext.ext_square

    def counted_pow(base, exp, mod):
        pows.append(exp)
        return pow(base, exp, mod)

    def counted_square(*args, **kwargs):
        squares.append(args[0])
        return square(*args, **kwargs)

    def recorded(*args):
        split = shared(*args)
        reads.append(split)
        return split

    monkeypatch.setattr(quadext, "pow", counted_pow, raising=False)
    monkeypatch.setattr(quadext, "ext_square", counted_square)
    monkeypatch.setattr(quadext, "_shared_power", recorded)
    rng = random.Random(20261027)
    forms = ("general", "pure", "pure-small")
    seen = set()
    for i in range(42):
        k, form = 2 + i % 7, forms[i % 3]
        for ring, w, y, exp in _memo_pairs(rng, k, (40, 130)[i // 21], form, 4):
            n, j = ring.n, k - 1
            key = (w.u, exp >> j)
            cases = [(ring, w), (ring, y)]
            if y.v:
                cases.append((_minimal_ring(y, ring), QuadExtElement(0, 1)))
            for case_ring, base in cases:
                is_x = base == (0, 1)
                near = [(key[0] + 1, key[1]), (key[0] + n, key[1]), (key[0], key[1] + 1), (key[0], key[1] >> 1)]
                for planted in [(key, pow(*key, n))] + [(miss, 2) for miss in near]:
                    quadext._remember(case_ring, *planted[0], planted[1])
                    entry = case_ring._last_power
                    for generic in (False, True):
                        got, want = [OpCounter(), OpCounter()], [OpCounter(), OpCounter()]
                        pows.clear(), squares.clear(), reads.clear()
                        value = ext_pow(base, exp, case_ring, *got, generic_squares=generic)
                        assert value == _ext_pow_by_steps(base, exp, case_ring, *want, generic_squares=generic)
                        assert [c.as_dict() for c in got] == [c.as_dict() for c in want], (case_ring, base, exp)
                        assert case_ring._last_power is entry
                        if generic:
                            assert reads == [], reads
                            continue
                        (split,) = reads
                        if planted[0] == key:
                            assert split is not None and (split[0] == 0) == (base.v == 0), (base, split)
                            assert all(e.bit_length() <= n.bit_length() // 2 for e in pows), (n, pows)
                            seen.add((form if not is_x else "x", split[0]))
                        else:
                            assert split is None, (planted, split)
                            if planted[0][1] != key[1]:
                                assert squares == [] and pows == ([exp] if not base.v else []), (pows, squares)
    want = {(f, a) for f in (*forms, "x") for a in range(1, 8)} | {(f, 0) for f in forms}
    assert seen >= want, want - seen


def test_threads_sharing_one_ring_get_the_ladders_values():
    # More threads than cores share one ring and alternate w and y powers,
    # each thread by its own exponents, and each thread's dominant ladders
    # (130-bit exponents, windows of 4 bits) evict the window plan another
    # thread is walking: a plan read for another exponent would change a
    # value.  The shared ring is read-only to ext_pow, so its entry for
    # step 5's high power stays empty.
    rng = random.Random(20261028)
    workers = max(4, (os.cpu_count() or 1) + 1)
    pairs = list(_memo_pairs(rng, 3, 130, "general", 3 * workers))
    ring = pairs[0][0]
    jobs = [
        [(base, exp, generic, _ext_pow_by_steps(base, exp, ring))
         for _, w, y, exp in pairs[k::workers] for base in (w, y) for generic in (False, True)]
        for k in range(workers)
    ]
    wrong = []
    done = []

    def run(work):
        for _ in range(600 // workers):
            for base, exp, generic, want in work:
                if ext_pow(base, exp, ring, generic_squares=generic) != want:
                    wrong.append((base, exp, generic))
        done.append(work)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(work,)) for work in jobs]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads) and len(done) == len(jobs)
    assert not wrong, wrong[:3]
    assert ring._last_power == (None, None)


def test_the_rounds_of_one_n_build_one_window_plan():
    # The plan of the dominant ladder z^s2 depends on n alone: 4 rounds
    # build it once and reuse it 3 times, in every form.  The round's
    # width-1 powers (w = y^(2^(r2-1)), step 5) bypass the cache.
    p = nextprime(random.Random(20261020).getrandbits(256) | 1 << 255)
    for method in ("qft", "rqft", "rqft-smallc"):
        quadext._window_plan.cache_clear()
        assert frobenius.run_rounds(p, method, random.Random(1), 4, OpCounter()) == (
            frobenius.Verdict.probable_prime(), 4)
        info = quadext._window_plan.cache_info()
        assert (info.misses, info.hits) == (1, 3), (method, info)



def test_lucas_rounds_on_one_n_keep_both_window_plans():
    # A lucas round's exponent is n + 1 or n - 1 as jacobi(D, n) is -1 or +1:
    # four rounds whose symbols alternate build two plans and reuse both.
    rng = random.Random(20261031)
    p = nextprime(rng.getrandbits(256) | 1 << 255)
    pairs = []
    while len(pairs) < 4:
        P, Q = rng.randrange(1, p), rng.randrange(1, p)
        if jacobi((P * P - 4 * Q) % p, p) == (-1, 1)[len(pairs) % 2]:
            pairs.append((P, Q))
    quadext._window_plan.cache_clear()
    for P, Q in pairs:
        assert frobenius.lucas_test(p, P, Q).is_probable_prime
    info = quadext._window_plan.cache_info()
    assert (info.misses, info.hits) == (2, 2), info


def test_the_dominant_ladder_hands_back_the_prefix_where_its_windows_end():
    # ext_pow(..., generic_squares=True, prefix_shift=k) returns (e^exp,
    # e^(exp >> k)) and books exp's contract, for every cut k < bits(exp),
    # below and above the window crossover; the kernel does so at every width.
    rng = random.Random(20261031)
    widths = (1, *quadext._WINDOWS)
    for bits in (1, 2, 9, 127, 128, 129, 300, 700):
        n = rng.getrandbits(64) | 1 << 63 | 1
        rings = [
            ExtensionRing.pure(n, rng.randrange(n)),
            ExtensionRing.pure(n, rng.randrange(2, 60), small=True),
            ExtensionRing.general(n, rng.randrange(n), rng.randrange(n)),
        ]
        exps = (rng.getrandbits(bits) | 1 << (bits - 1), (1 << bits) - 1)
        for ring in rings:
            for base in (QuadExtElement(rng.randrange(n), rng.randrange(1, n)), QuadExtElement(0, 1)):
                for exp in exps:
                    power = _ext_pow_by_steps(base, exp, ring)
                    want = [OpCounter(), OpCounter()]
                    ext_pow(base, exp, ring, *want, generic_squares=True)
                    for shift in sorted({0, 1, 2, 3, bits // 2, bits - 1} & set(range(bits))):
                        prefix = _ext_pow_by_steps(base, exp >> shift, ring)
                        got = [OpCounter(), OpCounter()]
                        assert ext_pow(base, exp, ring, *got, generic_squares=True,
                                       prefix_shift=shift) == (power, prefix), (ring, base, exp, shift)
                        assert [c.as_dict() for c in got] == [c.as_dict() for c in want]
                        if ring.b is None:
                            ch = None if ring.small_c_bits is not None else quadext._fold(n, ring.c)
                            for k in widths:
                                kernel = quadext._pure_power(*base, exp, n, ring.c, ch, k, low=shift)
                                assert (kernel[0], kernel[3]) == (power, prefix), (ring, base, exp, shift, k)
    ring = ExtensionRing.pure(101, 2)
    for exp, shift, generic in ((5, 3, True), (5, -1, True), (0, 0, True), (5, 1, False)):
        with pytest.raises(ValueError):
            ext_pow(QuadExtElement(3, 4), exp, ring, generic_squares=generic, prefix_shift=shift)
