"""Integer primitives: Jacobi symbol, roots, splits, counted powering."""

import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import integer_nthroot, jacobi_symbol, nextprime, primerange

from frobprime import arith
from frobprime.arith import (
    SMALL_PRIMES,
    TRIAL_DIVISION_BOUND,
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
    assert primes_up_to(10**4) == tuple(primerange(2, 10**4 + 1))
    assert primes_up_to(1) == primes_up_to(0) == ()
    assert primes_up_to(2) == (2,) and primes_up_to(3) == (2, 3) and primes_up_to(4) == (2, 3)


def test_small_primes_cover_the_trial_division_bound():
    assert SMALL_PRIMES[0] == 2
    assert SMALL_PRIMES[-1] <= TRIAL_DIVISION_BOUND
    assert len(SMALL_PRIMES) == 5133  # pi(50000)
    assert SMALL_PRIMES == tuple(primerange(2, TRIAL_DIVISION_BOUND + 1))
    assert all(type(p) is int for p in SMALL_PRIMES)


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


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_jacobi_matches_sympy(data):
    bits = data.draw(st.integers(2, 2100))
    n = data.draw(st.integers(max(3, 1 << (bits - 1)), (1 << bits) - 1)) | 1
    a = data.draw(st.integers(-(1 << 2200), 1 << 2200) | st.integers(-n, n))
    assert jacobi(a, n) == jacobi_symbol(a % n, n)


def test_jacobi_is_multiplicative_and_periodic():
    rng = random.Random(99)
    for _ in range(300):
        n = rng.randrange(3, 10**6) | 1
        a = rng.randrange(2 * n)
        b = rng.randrange(2 * n)
        assert jacobi(a * b, n) == jacobi(a, n) * jacobi(b, n)
        assert jacobi(a + n, n) == jacobi(a, n)


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
        # and against sympy: the ceiling is the root of n**81, plus one unless exact
        for x in (n - 1, n, n + 1):
            root, exact = integer_nthroot(x**81, 400)
            assert ceil_frac_pow(x, e) == (root if exact else root + 1)
    n = random.Random(400).getrandbits(2048) | (1 << 2047) | 1
    assert ceil_frac_pow(n, e) == integer_nthroot(n**81, 400)[0] + 1


def test_root_exactness_holds_when_the_final_walk_moves_the_root(monkeypatch):
    # a seed below the root makes Newton stop at once and the (r + 1)**k walk
    # climb to the root, so the walk's powers must carry the exactness
    monkeypatch.setattr(arith, "_root_seed", lambda x, k: max(1, integer_nthroot(x, k)[0] - 3))
    for k in (3, 5, 81):
        for r in (5, 2**20 + 7, 3**50):
            for x in (r**k - 1, r**k, r**k + 1):
                assert arith._iroot_exact(x, k) == integer_nthroot(x, k), (k, r, x - r**k)
    assert ceil_frac_pow(7**400, Fraction(81, 400)) == 7**81
    assert ceil_frac_pow(7**400 + 1, Fraction(81, 400)) == 7**81 + 1


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
    # (r + 1) * r**(k-1) is a multiple of r**(k-1) but not a k-th power
    for k in (3, 5, 81):
        for r in (10, 2**40 + 1):
            assert ceil_frac_pow((r + 1) * r ** (k - 1), Fraction(1, k)) == r + 1
            assert ceil_frac_pow(r**k, Fraction(1, k)) == r


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
    assert as_fraction(" -3/6 ") == Fraction(-1, 2)
    assert as_fraction(True) == 1  # bool is an int
    for inexact in (0.2025, Decimal("0.2"), None, complex(1), [1, 2]):
        with pytest.raises(TypeError):
            as_fraction(inexact)
    with pytest.raises(ValueError):
        as_fraction("0.2.5")


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
    # the same above isqrt(B) = 223, where one gcd replaces the loop
    assert trial_divide(227, 227) == trial_divide(227, 50000) == 227
    assert trial_divide(227, 226) is None and trial_divide(223, 226) == 223
    assert trial_divide(49999, 49999) == trial_divide(49999, 50000) == 49999
    assert trial_divide(49999, 49998) is None
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


def _trial_divide_by_loop(n, bound):
    """The plain loop over every sieve prime that trial_divide replaced."""
    for p in SMALL_PRIMES:
        if p > bound:
            return None
        if n % p == 0:
            return p
    return None


_HEAD_PRIMES = [p for p in SMALL_PRIMES if p <= 223]  # the primes <= isqrt(B)
_REST_PRIMES = [p for p in SMALL_PRIMES if p > 223]


def test_trial_divide_matches_the_plain_loop_on_every_odd_n_below_400001():
    # The loop returns the smallest prime factor when it is <= bound, else
    # None; the loop run to isqrt(n) finds that factor (n itself if prime).
    bounds = (0, 1, 2, 3, 222, 223, 224, 226, 227, 228, 49999, 50000)
    for n in range(1, 400001, 2):
        root = isqrt(n)
        least = _trial_divide_by_loop(n, root) or n
        for bound in bounds + (min(TRIAL_DIVISION_BOUND, root),):
            expected = least if 1 < least <= bound else None
            assert trial_divide(n, bound) == expected, (n, bound)


def test_trial_divide_finds_the_least_of_several_sieve_primes_above_223():
    rng = random.Random(227)
    cofactor = nextprime(2**200)  # no prime factor <= B
    for _ in range(300):
        ps = sorted(rng.sample(_REST_PRIMES, rng.randint(2, 4)))
        product = math.prod(ps)
        for n in (product, product * cofactor, product * ps[0], ps[0] ** 2 * cofactor):
            for bound in (226, ps[0] - 1, ps[0], ps[1] - 1, ps[1], ps[-1], TRIAL_DIVISION_BOUND):
                assert trial_divide(n, bound) == _trial_divide_by_loop(n, bound), (ps, n, bound)
            assert trial_divide(n, TRIAL_DIVISION_BOUND) == ps[0]
            assert trial_divide(n, ps[0] - 1) is None


def test_trial_divide_above_the_bit_length_of_the_sieve_product():
    # n longer than the product R of the primes above 223, so R % n == R
    rest_bits = math.prod(_REST_PRIMES).bit_length()
    n = (1 << (rest_bits + 8000)) + 1
    while _trial_divide_by_loop(n, TRIAL_DIVISION_BOUND) is not None:
        n += 2
    assert trial_divide(n, TRIAL_DIVISION_BOUND) is None
    for factors, bound, expected in (
        ((227, 229), TRIAL_DIVISION_BOUND, 227),
        ((227, 229), 228, 227),
        ((229, 49999), 40000, 229),
        ((49999,), TRIAL_DIVISION_BOUND, 49999),
        ((49999,), 49998, None),
        ((3, 49999), 2, None),
    ):
        assert trial_divide(n * math.prod(factors), bound) == expected, (factors, bound)


@st.composite
def _odd_numbers_with_planted_sieve_primes(draw):
    bits = draw(st.integers(2, 2100))
    n = draw(st.integers(1 << (bits - 1), (1 << bits) - 1)) | 1
    for p in draw(st.lists(st.sampled_from(_HEAD_PRIMES[1:] + _REST_PRIMES), max_size=2)):
        n *= p
    return n


@settings(max_examples=150, deadline=None)
@given(n=_odd_numbers_with_planted_sieve_primes(), bound=st.integers(0, TRIAL_DIVISION_BOUND))
def test_trial_divide_matches_a_sympy_prime_scan(n, bound):
    expected = next((p for p in primerange(2, bound + 1) if n % p == 0), None)
    assert trial_divide(n, bound) == expected


def test_rest_prefix_products_are_the_products_of_the_first_k_primes_above_223():
    for k in (1, 2, 3, 4, 5, 7, 8, 9, 120, 1023, 1024, 1025, 2600, len(_REST_PRIMES) - 1):
        assert arith._rest_prefix_product(k) == math.prod(_REST_PRIMES[:k]), k
    assert arith._rest_tree()[-1] == [math.prod(_REST_PRIMES)]


_REST_PRODUCT = math.prod(_REST_PRIMES)


def _needs_residue(n):
    """The n that trial_divide takes to the gcd with the full product: n > B^2, no prime <= 223."""
    return n > TRIAL_DIVISION_BOUND**2 and math.gcd(n, math.prod(_HEAD_PRIMES)) == 1


def _residue_batch(rng, size, bits):
    """``size`` distinct n that need a residue, mixed with n that do not and a repeat."""
    wanted = set()
    while len(wanted) < size:
        n = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if _needs_residue(n):
            wanted.add(n)
    wanted = sorted(wanted)
    if rng.getrandbits(1):
        p = rng.choice(_REST_PRIMES)
        wanted[0] = p * (wanted[0] // p | 1)  # a sieve factor above 223 for the tree to find
    others = [wanted[0], 227 * 229, 1000003, 3 * wanted[-1], 223 * wanted[-1]]
    batch = wanted + others
    rng.shuffle(batch)
    return batch, {n for n in wanted if _needs_residue(n)}


def test_batch_residues_are_the_rest_product_mod_each_n(monkeypatch):
    monkeypatch.setattr(arith, "_residues", {})
    rng = random.Random(20261019)
    longer = (1 << (_REST_PRODUCT.bit_length() + 100)) + 1  # R % n == R
    while not _needs_residue(longer):
        longer += 2
    for size in (1, 2, 3, 255, 256, 257):
        for bits in (64, 256, 2048, 4096):
            batch, wanted = _residue_batch(rng, size, bits)
            if bits == 4096:
                batch.append(longer)
                wanted.add(longer)
            arith._load_batch_residues(batch)
            table = arith._residues
            # a batch with one such n keeps no table: trial_divide computes R % n
            assert set(table) == (wanted if len(wanted) > 1 else set()), (size, bits)
            for n, r in table.items():
                assert r == _REST_PRODUCT % n, (size, bits, n)


def test_trial_divide_matches_the_plain_loop_with_and_without_a_batch_table(monkeypatch):
    monkeypatch.setattr(arith, "_residues", {})
    rng = random.Random(227)
    cofactor = nextprime(2**64)
    batch = [math.prod(rng.sample(_REST_PRIMES, rng.randint(1, 3))) * cofactor for _ in range(40)]
    batch += [nextprime(rng.getrandbits(64)) for _ in range(40)] + [15 * cofactor, 227 * 229, 49999]
    bounds = (226, 227, 1000, 49998, TRIAL_DIVISION_BOUND)
    expected = {(n, b): _trial_divide_by_loop(n, b) for n in batch for b in bounds}
    assert {(n, b): trial_divide(n, b) for n in batch for b in bounds} == expected
    arith._load_batch_residues(batch)
    assert len(arith._residues) == 80
    assert {(n, b): trial_divide(n, b) for n in batch for b in bounds} == expected
    # the table is what trial_divide reads: a planted residue of 1 hides 227
    n = 227 * cofactor
    monkeypatch.setattr(arith, "_residues", {n: 1})
    assert trial_divide(n, TRIAL_DIVISION_BOUND) is None
    assert trial_divide(n, 49998) == 227  # below B the prefix products answer


def test_the_next_batch_replaces_the_residue_table(monkeypatch):
    monkeypatch.setattr(arith, "_residues", {})
    rng = random.Random(5)
    first, wanted_first = _residue_batch(rng, 8, 64)
    second, wanted_second = _residue_batch(rng, 8, 256)
    arith._load_batch_residues(first)
    assert set(arith._residues) == wanted_first
    arith._load_batch_residues(second)
    assert set(arith._residues) == wanted_second
    arith._load_batch_residues([2, 101, 1000003])  # nothing above B^2
    assert arith._residues == {}
    arith._load_batch_residues(first)
    arith._load_batch_residues([max(wanted_second)])  # one n: trial_divide computes R % n
    assert arith._residues == {}


def test_mod_pow_matches_builtin_pow():
    rng = random.Random(5)
    for n in range(3, 2000, 2):
        for base in (2, 7, n - 2):
            exp = rng.randrange(100)
            assert mod_pow(base, exp, n) == pow(base, exp, n)


def _mod_pow_by_loop(base, exp, n, counter=None):
    """The reference: one booked squaring and multiply per ladder step."""
    base %= n
    if exp == 0:
        return 1 % n
    r = base
    for bit in bin(exp)[3:]:
        r = r * r % n
        if counter is not None:
            counter.squarings += 1
        if bit == "1":
            r = r * base % n
            if counter is not None:
                counter.full_mults += 1
    return r


def test_mod_pow_books_the_reference_ladder():
    rng = random.Random(20261018)
    for _ in range(400):
        n = rng.getrandbits(rng.randrange(2, 600)) | 1
        base = rng.randrange(-2 * n, 2 * n)
        exp = rng.getrandbits(rng.choice((0, 1, 2, 8, 64, 400)))
        got, want = OpCounter(3, 5, 7, 11, 0.5), OpCounter(3, 5, 7, 11, 0.5)
        assert mod_pow(base, exp, n, got) == _mod_pow_by_loop(base, exp, n, want)
        assert got.as_dict() == want.as_dict()
        assert mod_pow(base, exp, n) == _mod_pow_by_loop(base, exp, n)


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
