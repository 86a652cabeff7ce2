"""Integer primitives: Jacobi symbol, roots, splits, counted powering."""

import math
import random
from fractions import Fraction

import pytest
from sympy import integer_nthroot

from frobprime.arith import (
    SMALL_PRIMES,
    TRIAL_DIVISION_BOUND,
    OddModulus,
    as_fraction,
    ceil_frac_pow,
    floor_frac_pow,
    iroot,
    is_perfect_square,
    isqrt,
    jacobi,
    mod_pow,
    primes_up_to,
    trial_divide,
    two_adic_split,
)
from frobprime.quadext import OpCounter


def test_primes_up_to_matches_known_counts():
    primes = primes_up_to(100)
    assert primes[:10] == (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
    assert len(primes) == 25
    assert len(primes_up_to(10**4)) == 1229
    assert primes_up_to(1) == ()


def test_small_primes_cover_the_trial_division_bound():
    assert SMALL_PRIMES[0] == 2
    assert SMALL_PRIMES[-1] <= TRIAL_DIVISION_BOUND
    assert len(SMALL_PRIMES) == 5133  # pi(50000)


def test_jacobi_fixed_values():
    # classical table entries, computable by quadratic reciprocity by hand
    assert jacobi(1, 3) == 1
    assert jacobi(2, 3) == -1
    assert jacobi(2, 7) == 1
    assert jacobi(3, 7) == -1
    assert jacobi(2, 15) == 1
    assert jacobi(3, 15) == 0
    assert jacobi(5, 21) == 1  # both factors see 5 as a nonresidue
    assert jacobi(0, 9) == 0
    assert jacobi(14, 15) == -1  # (-1/15) = -1 since 15 = 3 mod 4


def test_jacobi_rejects_bad_modulus():
    with pytest.raises(ValueError):
        jacobi(3, 10)
    with pytest.raises(ValueError):
        jacobi(3, -7)
    with pytest.raises(ValueError):
        jacobi(3, 0)


def _legendre(a, p):
    # Euler criterion; p an odd prime
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def test_jacobi_matches_legendre_product_on_small_moduli():
    primes = [p for p in primes_up_to(60) if p % 2 == 1]
    rng = random.Random(20240817)
    for _ in range(400):
        factors = rng.choices(primes, k=rng.randint(1, 3))
        n = math.prod(factors)
        a = rng.randrange(n)
        expected = math.prod(_legendre(a, p) for p in factors)
        assert jacobi(a, n) == expected, (a, n, factors)


def test_jacobi_is_multiplicative_and_periodic():
    rng = random.Random(99)
    for _ in range(300):
        n = rng.randrange(3, 10**6) | 1
        a = rng.randrange(2 * n)
        b = rng.randrange(2 * n)
        assert jacobi(a * b, n) == jacobi(a, n) * jacobi(b, n)
        assert jacobi(a + n, n) == jacobi(a, n)


def test_jacobi_accepts_odd_modulus_wrapper():
    m = OddModulus.of(341)
    assert jacobi(2, m) == jacobi(2, 341)


def test_odd_modulus_validation():
    assert OddModulus.of(341).bits == 9
    assert int(OddModulus.of(7)) == 7
    with pytest.raises(ValueError):
        OddModulus.of(8)
    with pytest.raises(ValueError):
        OddModulus.of(1)


def test_perfect_square_detection():
    squares = {k * k for k in range(1000)}
    for x in range(10**4):
        assert is_perfect_square(x) == (x in squares)


def test_iroot_brackets_the_true_root():
    rng = random.Random(7)
    for _ in range(500):
        x = rng.randrange(10**18)
        k = rng.randint(1, 9)
        r = iroot(x, k)
        assert r**k <= x < (r + 1) ** k, (x, k, r)
    assert iroot(0, 3) == 0
    assert iroot(1, 5) == 1
    assert iroot(2**90, 9) == 2**10


def test_iroot_is_exact_at_perfect_powers_from_a_few_bits_to_170k_bits():
    # sympy's integer_nthroot shares no code with iroot
    rng = random.Random(20261018)
    for k in (3, 5, 81, 400):
        for x_bits in (4, 30, 64, 200, 1000, 10_000, 50_000, 170_000):
            r = rng.getrandbits(max(1, x_bits // k)) | 1
            for x in (r**k - 1, r**k, r**k + 1):
                assert iroot(x, k) == integer_nthroot(x, k)[0], (k, x_bits, x - r**k)
    n = rng.getrandbits(4096) | (1 << 4095) | 1  # the search cap's root at 4096 bits
    for x in (n**81 - 1, n**81, n**81 + 1):
        assert iroot(x, 400) == integer_nthroot(x, 400)[0]


def test_frac_pow_at_the_default_exponent_around_exact_powers():
    e = Fraction(81, 400)
    for m in (2, 3, 7, 33, 1000):
        n = m**400
        assert floor_frac_pow(n, e) == ceil_frac_pow(n, e) == m**81
        assert floor_frac_pow(n - 1, e) == m**81 - 1
        assert ceil_frac_pow(n - 1, e) == m**81
        assert floor_frac_pow(n + 1, e) == m**81
        assert ceil_frac_pow(n + 1, e) == m**81 + 1


def test_isqrt_agrees_with_iroot():
    for x in (0, 1, 2, 3, 4, 15, 16, 17, 10**12, 10**12 + 1):
        assert isqrt(x) == iroot(x, 2)


def test_fractional_powers_are_exact():
    assert floor_frac_pow(100, Fraction(1, 2)) == 10
    assert ceil_frac_pow(100, Fraction(1, 2)) == 10
    assert floor_frac_pow(101, Fraction(1, 2)) == 10
    assert ceil_frac_pow(101, Fraction(1, 2)) == 11
    assert floor_frac_pow(10**12, Fraction(1, 3)) == 10**4
    assert ceil_frac_pow(7, 1) == 7
    # 15^(3/10): 15^3 = 3375, 2^10 = 1024 < 3375 < 3^10
    assert floor_frac_pow(15, Fraction(3, 10)) == 2
    assert ceil_frac_pow(15, Fraction(3, 10)) == 3


def test_frac_pow_cross_check_against_floats():
    rng = random.Random(13)
    for _ in range(200):
        n = rng.randrange(3, 10**9)
        num = rng.randint(1, 5)
        den = rng.randint(num, 12)
        e = Fraction(num, den)
        f = floor_frac_pow(n, e)
        assert f**den <= n**num < (f + 1) ** den


def test_as_fraction_parses_exact_inputs_only():
    assert as_fraction("0.2025") == Fraction(81, 400)
    assert as_fraction(Fraction(1, 3)) == Fraction(1, 3)
    assert as_fraction(2) == 2
    assert as_fraction("1/2") == Fraction(1, 2)
    with pytest.raises(TypeError):
        as_fraction(0.2025)


def test_two_adic_split():
    assert two_adic_split(340) == (2, 85)
    assert two_adic_split(2046) == (1, 1023)
    assert two_adic_split(2048) == (11, 1)
    assert two_adic_split(7) == (0, 7)
    r, s = two_adic_split(104729**2 - 1)
    assert (2**r) * s == 104729**2 - 1 and s % 2 == 1
    with pytest.raises(ValueError):
        two_adic_split(0)


def test_trial_divide_examples():
    assert trial_divide(341, 18) == 11
    assert trial_divide(101, 10) is None
    assert trial_divide(25, 5) == 5
    assert trial_divide(25, 4) is None
    # with bound >= n a prime reports itself; callers cap the bound at isqrt(n)
    assert trial_divide(5, 5) == 5
    assert trial_divide(5, 2) is None
    assert trial_divide(15, 50000) == 3
    with pytest.raises(ValueError):
        trial_divide(10**12 + 1, 50001)


def test_trial_divide_agrees_with_direct_scan():
    for n in range(2, 3000):
        expected = None
        for p in SMALL_PRIMES:
            if p > 53:
                break
            if n % p == 0:
                expected = p
                break
        assert trial_divide(n, 53) == expected


def test_mod_pow_matches_builtin_pow():
    rng = random.Random(5)
    for n in range(3, 2000, 2):
        for base in (2, 7, n - 2):
            exp = rng.randrange(100)
            assert mod_pow(base, exp, n) == pow(base, exp, n)


def test_mod_pow_counts_ladder_steps():
    # t-bit exponent: t-1 squarings, one multiply per set bit after the first
    for exp in (1, 2, 3, 10, 0b101101, 2**64 - 1, 2**64):
        counter = OpCounter()
        assert mod_pow(3, exp, 10**9 + 7, counter) == pow(3, exp, 10**9 + 7)
        assert counter.squarings == exp.bit_length() - 1
        assert counter.full_mults == bin(exp).count("1") - 1
        assert counter.small_mults == 0 and counter.param_mults == 0
    counter = OpCounter()
    assert mod_pow(3, 0, 101, counter) == 1
    assert counter == OpCounter()
