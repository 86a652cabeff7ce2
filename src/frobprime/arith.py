"""Exact integer primitives.

Jacobi symbols, integer square/k-th roots, exact rational powers, 2-adic
decompositions, trial division, and modular exponentiation by the
built-in ``pow``, booked as the binary ladder.  Trial division takes one
gcd with the product of the primes up to sqrt(B) and one with the product
R of the other sieve primes up to the bound: below B that is a prefix
product from a cached product tree, and at B the residues R % n of a
whole batch come from remainder trees (Borodin-Moenck 1974; Bernstein,
"Scaled remainder trees", 2004), one per chunk of about an eighth of R's
bits.  Every result is exact integer arithmetic; fractional exponents
are taken as `Fraction`s and evaluated by integer root extraction.  A
float estimate only picks the starting point of the root's Newton
iteration; the iteration and its final check are exact, so boundary cases
(floor/ceil of n**delta) cannot be misjudged.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from fractions import Fraction
from itertools import compress
from typing import NamedTuple, Optional

__all__ = [
    "TRIAL_DIVISION_BOUND",
    "SMALL_PRIMES",
    "TwoAdic",
    "as_fraction",
    "ceil_frac_pow",
    "floor_frac_pow",
    "gcd",
    "iroot",
    "is_perfect_square",
    "isqrt",
    "jacobi",
    "mod_pow",
    "modulus_value",
    "primes_up_to",
    "trial_divide",
    "two_adic_split",
]

#: Trial-division sieve bound; step 1 of the quadratic tests divides by all
#: primes <= min(TRIAL_DIVISION_BOUND, isqrt(n)).
TRIAL_DIVISION_BOUND = 50000

isqrt = math.isqrt
gcd = math.gcd


def primes_up_to(limit: int) -> tuple[int, ...]:
    """All primes <= limit, by the sieve of Eratosthenes."""
    if limit < 2:
        return ()
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return tuple(compress(range(limit + 1), flags))


# Computed once at import time and treated as read-only afterwards, so
# concurrent readers never observe partial initialization.  The product tree
# of the primes above sqrt(B) is built on first use instead (see _rest_tree):
# a thread that races another to build it computes the same levels, and the
# cache only ever hands out a finished value.
SMALL_PRIMES = primes_up_to(TRIAL_DIVISION_BOUND)
# trial_divide tries the primes <= isqrt(B) = 223 (48 of them) first, and
# the rest with one gcd: 227**2 > B, so a gcd <= B is a single prime.
_HEAD_PRIMES = SMALL_PRIMES[: bisect_right(SMALL_PRIMES, isqrt(TRIAL_DIVISION_BOUND))]
_REST_PRIMES = SMALL_PRIMES[len(_HEAD_PRIMES) :]
_HEAD_PRODUCT = math.prod(_HEAD_PRIMES)  # 288 bits

#: R % n for the n of the last batch given to ``_load_batch_residues``.  Each
#: value is a pure function of its key, and a new batch rebinds the name to a
#: new dict rather than editing this one, so a reader in any thread sees
#: either table and finds a right residue or none.
_residues: dict = {}


def _product_tree(leaves: list) -> "list[list[int]]":
    """Levels of pairwise products: leaves first, the single root last.

    Node i of a level is the product of nodes 2i and 2i + 1 of the level
    below (or of node 2i alone, at the end of an odd level), so big factors
    meet big factors rather than one growing product times each leaf.
    """
    levels = [list(leaves)]
    while len(levels[-1]) > 1:
        below = levels[-1]
        levels.append([math.prod(below[i : i + 2]) for i in range(0, len(below), 2)])
    return levels


@functools.cache
def _rest_tree() -> "list[list[int]]":
    """The product tree of the primes in (isqrt(B), B]; its root R has about 71.5k bits."""
    return _product_tree(_REST_PRIMES)


@functools.lru_cache(maxsize=64)
def _rest_prefix_product(k: int) -> int:
    """The product of the first k primes in (isqrt(B), B], 0 < k <= 5085.

    All 5085 of them is the tree's root.  Otherwise the binary digits of k
    pick the tree nodes that tile the prefix: an odd count at some level
    leaves its last node out of every pair above.
    """
    tree = _rest_tree()
    if k == len(_REST_PRIMES):
        return tree[-1][0]
    product = 1
    for level in tree:
        if k & 1:
            product *= level[k - 1]
        k >>= 1
    return product


def _remainders(r: int, moduli: list) -> "list[int]":
    """r % m for each m in moduli: r reduced once at the root of their
    product tree, then down the tree (Borodin-Moenck 1974)."""
    rems = [r]
    for level in reversed(_product_tree(moduli)):
        rems = [rems[i >> 1] % m for i, m in enumerate(level)]
    return rems


def _load_batch_residues(ns: list) -> None:
    """Replace the residue table with R % n for the n of this batch that need one.

    Those are the n > B^2 with no prime factor <= isqrt(B): ``trial_divide``
    takes exactly them to the gcd with R.  A batch with one such n leaves
    the table empty, since a tree of one leaf is R % n itself.  Longer
    batches go in chunks whose product has about an eighth of R's bits, one
    remainder tree each: past that the top division and the product tree
    cost more than they save.
    """
    global _residues
    table = {}
    wanted = [n for n in dict.fromkeys(ns) if n > TRIAL_DIVISION_BOUND**2 and gcd(n, _HEAD_PRODUCT) == 1]
    if len(wanted) > 1:
        r = _rest_tree()[-1][0]
        cap = r.bit_length() >> 3
        chunk, bits = [], 0
        for n in wanted:
            chunk.append(n)
            bits += n.bit_length()
            if bits >= cap:
                table.update(zip(chunk, _remainders(r, chunk)))
                chunk, bits = [], 0
        table.update(zip(chunk, _remainders(r, chunk)))
    _residues = table


def modulus_value(n: int) -> int:
    """Validate a modulus: an odd int n > 1."""
    n = int(n)
    if n < 3 or n % 2 == 0:
        raise ValueError(f"modulus must be odd and > 1, got {n}")
    return n


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0.

    Computed by quadratic reciprocity with the factor-of-two extraction
    rule; a is reduced mod n first (so negative a is handled by
    periodicity).  Returns 0 exactly when gcd(a, n) > 1.
    """
    if n <= 0 or n % 2 == 0:
        raise ValueError("Jacobi symbol requires a positive odd denominator")
    a %= n
    result = 1
    while a:
        tz = (a & -a).bit_length() - 1
        # (2/n) = -1 iff n = +-3 mod 8; applied once per extracted factor 2.
        if tz & 1 and (n & 7) in (3, 5):
            result = -result
        a >>= tz
        # reciprocity flip: both = 3 mod 4.
        if (a & 3) == 3 and (n & 3) == 3:
            result = -result
        a, n = n % a, a
    return result if n == 1 else 0


def is_perfect_square(x: int) -> bool:
    """True iff x is a perfect square (x >= 0 assumed meaningful)."""
    if x < 0:
        return False
    r = isqrt(x)
    return r * r == x


def iroot(x: int, k: int) -> int:
    """floor(x ** (1/k)) for x >= 0, k >= 1, by integer Newton iteration.

    Newton starts from ``_root_seed``, a float estimate that provably lies
    above the root, by a relative error near (bits(x) / k) * 2**-40.
    Integer Newton from above decreases monotonically and never drops below
    the floor of the root, so the loop stops exactly there.  The relative
    error roughly squares at every step, so the loop runs a handful of times
    (6 for the 415-bit root of n**81 at 2048-bit n), not the hundreds a
    power-of-two seed costs when it overshoots a root with large k.  The
    exit test itself proves r**k <= x, and the exact (r + 1)**k check below
    confirms the floor: floats never decide the result, only its cost.
    """
    return _iroot_exact(x, k)[0]


def _iroot_exact(x: int, k: int) -> "tuple[int, bool]":
    """(floor(x ** (1/k)), whether that root is exact), as in ``iroot``.

    The last Newton step already divides x by r**(k-1): x = q * r**(k-1) + rem
    with 0 <= rem < r**(k-1), so r**k == x exactly when q == r and rem == 0.
    Exactness therefore costs no extra power, unless the final (r + 1)**k
    walk moves r, and then the walk's own power answers it.
    """
    if x < 0 or k < 1:
        raise ValueError("iroot requires x >= 0 and k >= 1")
    if k == 1 or x < 2:
        return x, True
    if k == 2:
        r = isqrt(x)
        return r, r * r == x
    if x.bit_length() <= k:
        return 1, False  # 1 < x < 2**k
    r = _root_seed(x, k)
    while True:
        q, rem = divmod(x, r ** (k - 1))
        nr = ((k - 1) * r + q) // k
        if nr >= r:
            break
        r = nr
    # nr >= r means q >= r, that is r**k <= x, whatever the seed
    exact = q == r and rem == 0
    while (up := (r + 1) ** k) <= x:
        r += 1
        exact = up == x
    return r, exact


def _root_seed(x: int, k: int) -> int:
    """An integer above x ** (1/k) by a relative error near (bits(x) / k) * 2**-40.

    x < (top + 1) * 2**shift with top the leading 64 bits of x, so
    log2(x) / k < (shift + log2(top + 1)) / k = e.  The float log, sum,
    division, subtraction and power below are each off by a few ulps, under
    (e + 1) * 2**-50 in all; the margin (e + 1) * 2**-40 added to e covers
    that a thousand times over, so the seed is never below the root.
    """
    shift = max(0, x.bit_length() - 64)
    e = (shift + math.log2((x >> shift) + 1)) / k
    e += (e + 1) * 2.0 ** -40
    q = max(0, int(e) - 52)
    return (int(2.0 ** (e - q)) + 1) << q


def as_fraction(value: "Fraction | int | str") -> Fraction:
    """Coerce an exact exponent (Fraction, int, or numeric string) to Fraction.

    Floats are rejected on purpose: a binary float silently misstates a
    decimal exponent like 0.2025, and the root-extraction code below needs
    the exponent exactly.
    """
    if not isinstance(value, (Fraction, int, str)):
        raise TypeError(
            f"exact exponent expected (Fraction, int, or str), got {type(value).__name__}"
        )
    return Fraction(value)


def floor_frac_pow(n: int, exponent: "Fraction | int | str") -> int:
    """floor(n ** exponent), exactly, for n >= 0 and a positive rational exponent."""
    e = as_fraction(exponent)
    if n < 0 or e <= 0:
        raise ValueError("floor_frac_pow requires n >= 0 and exponent > 0")
    return iroot(n ** e.numerator, e.denominator)


def ceil_frac_pow(n: int, exponent: "Fraction | int | str") -> int:
    """ceil(n ** exponent), exactly, for n >= 0 and a positive rational exponent."""
    e = as_fraction(exponent)
    if n < 0 or e <= 0:
        raise ValueError("ceil_frac_pow requires n >= 0 and exponent > 0")
    r, exact = _iroot_exact(n ** e.numerator, e.denominator)
    return r if exact else r + 1


class TwoAdic(NamedTuple):
    """m = 2**r * s with s odd."""

    r: int
    s: int


def two_adic_split(m: int) -> TwoAdic:
    """Split m >= 1 as 2**r * s with s odd."""
    if m < 1:
        raise ValueError("two_adic_split requires m >= 1")
    r = (m & -m).bit_length() - 1
    return TwoAdic(r, m >> r)


def trial_divide(n: int, bound: int) -> Optional[int]:
    """Smallest prime divisor of n that is <= bound, or None.

    bound must not exceed TRIAL_DIVISION_BOUND (the cached sieve's limit).
    g = gcd(n, H), with H the product of the primes <= isqrt(B), is 1 for
    most n that pass; otherwise those primes are tried on g one by one.
    The primes in (isqrt(B), bound] are then tried at once: g = gcd(R, n),
    with R their product, is the product of those that divide n.  Two of
    them multiply to more than B, so a g <= B is a single prime; a larger
    g is searched for its smallest prime.

    R is a prefix product from a cached product tree of the primes in
    (isqrt(B), B], and for bound < B (every n <= B^2 that the screen sees)
    it holds the primes up to bound only.  For bound >= B, R % n comes from
    the table of the last ``_load_batch_residues`` batch when n is in it;
    its chunked remainder trees never cost more per n than the division
    ``_rest_prefix_product(k) % n`` that answers otherwise.
    """
    if bound > TRIAL_DIVISION_BOUND:
        raise ValueError(f"trial division bound is capped at {TRIAL_DIVISION_BOUND}")
    g = gcd(n, _HEAD_PRODUCT)
    if g > 1:
        for p in _HEAD_PRIMES:
            if p > bound:
                return None
            if g % p == 0:
                return p
    k = bisect_right(_REST_PRIMES, bound)
    if k == 0:
        return None
    r = _residues.get(n) if k == len(_REST_PRIMES) else None
    g = gcd(_rest_prefix_product(k) % n if r is None else r, n)
    if g == 1:
        return None
    if g <= TRIAL_DIVISION_BOUND:
        return g if g <= bound else None
    for p in _REST_PRIMES:
        if p > bound:
            return None
        if g % p == 0:
            return p
    return None


def mod_pow(base: int, exp: int, n: int, counter=None) -> int:
    """base**exp mod n, booked as plain left-to-right binary exponentiation.

    When a counter is supplied it is incremented by one squaring per ladder
    step (one step per exponent bit after the leading bit) and one full
    multiplication per set bit after the leading bit, so the count is exact
    and checkable.  The value comes from the built-in ``pow``, whatever
    ladder that runs: the booking is computed from the exponent alone.
    """
    if exp < 0:
        raise ValueError("mod_pow requires a nonnegative exponent")
    r = pow(base, exp, n)
    if counter is not None and exp:
        counter.squarings += exp.bit_length() - 1
        counter.full_mults += exp.bit_count() - 1
    return r
