"""Small-nonresidue search and the symbol-statistics experiments."""

import math
import random
from fractions import Fraction

import pytest
from sympy import isprime, legendre_symbol
from sympy.ntheory.primetest import is_square

from frobprime.arith import TRIAL_DIVISION_BOUND, ceil_frac_pow, is_perfect_square, jacobi
from frobprime.nonresidue import (
    DEFAULT_DELTA,
    DELTA_THRESHOLD,
    SearchConfig,
    SearchOutcome,
    charsum_experiment,
    density_experiment,
    find_small_nonresidue,
)


def test_threshold_and_default_values():
    assert DELTA_THRESHOLD == pytest.approx(1 / (3 * math.sqrt(math.e)), abs=1e-12)
    assert DELTA_THRESHOLD == pytest.approx(0.2021768866, abs=1e-9)
    assert DEFAULT_DELTA == Fraction(81, 400)
    assert float(DEFAULT_DELTA) > DELTA_THRESHOLD


def test_search_config_caps_candidates():
    assert SearchConfig.for_modulus(13).cap == 2
    assert SearchConfig.for_modulus(169).cap == 3
    cfg = SearchConfig.for_modulus(10**12 + 39, "0.25")
    assert cfg.cap == ceil_frac_pow(10**12 + 39, Fraction(1, 4))
    assert cfg.delta == Fraction(1, 4)
    assert repr(SearchConfig.for_modulus(13)) == "SearchConfig(delta=Fraction(81, 400), cap=2)"
    assert cfg == SearchConfig(Fraction(1, 4), cfg.cap) and hash(cfg) == hash(SearchConfig(Fraction(1, 4), cfg.cap))
    for name in ("delta", "cap", "other"):
        with pytest.raises(AttributeError):
            setattr(cfg, name, 1)


def test_search_config_rejects_unsupported_exponents():
    with pytest.raises(ValueError):
        SearchConfig.for_modulus(101, "0.2")  # below the guarantee threshold
    with pytest.raises(ValueError):
        SearchConfig.for_modulus(101, 1)
    with pytest.raises(TypeError):
        SearchConfig.for_modulus(101, 0.2025)  # floats are not exact
    # the search without a config checks delta the same way
    for bad, error in (("0.2", ValueError), (1, ValueError), (0.2025, TypeError)):
        with pytest.raises(error):
            find_small_nonresidue(101, delta=bad)


def test_find_small_nonresidue_examples():
    assert find_small_nonresidue(13) == SearchOutcome(c=2, factor=None, examined=1)
    # 2 is a residue mod 7, so the search must move on and examine 3
    assert find_small_nonresidue(7) == SearchOutcome(c=3, factor=None, examined=2)
    # a zero symbol surfaces the shared factor instead
    assert find_small_nonresidue(15) == SearchOutcome(c=None, factor=3, examined=2)
    assert find_small_nonresidue(9) == SearchOutcome(c=None, factor=3, examined=2)
    # squares have no nonresidue at all: the cap is reached
    assert find_small_nonresidue(169) == SearchOutcome(c=None, factor=None, examined=3)
    # a nonsquare can also exhaust a tiny cap: 2, 3, 5 are all residues mod 119
    assert find_small_nonresidue(119) == SearchOutcome(c=None, factor=None, examined=3)


def test_find_small_nonresidue_skips_perfect_squares():
    # mod 17: 2 is a residue (17 = 1 mod 8); 3 is the least nonresidue,
    # and 4 would never be examined anyway
    out = find_small_nonresidue(17, SearchConfig(Fraction(1, 2), 10))
    assert out.c == 3 and out.examined == 2
    # mod 73: 2 (res), 3 (res), skip 4, 5 is the least nonresidue
    out = find_small_nonresidue(73, SearchConfig(Fraction(1, 2), 10))
    assert out.c == 5 and out.examined == 3


def test_find_small_nonresidue_rejects_double_configuration():
    with pytest.raises(ValueError):
        find_small_nonresidue(13, SearchConfig(Fraction(1, 4), 5), delta="0.25")


def test_found_c_is_the_least_nonsquare_nonresidue():
    rng = random.Random(20240825)
    for _ in range(150):
        n = rng.randrange(3, 10**9) | 1
        if is_perfect_square(n):
            continue
        out = find_small_nonresidue(n)
        assert out.examined <= SearchConfig.for_modulus(n).cap
        if out.c is None:
            continue
        assert jacobi(out.c, n) == -1
        for c in range(2, out.c):
            if is_perfect_square(c):
                continue
            assert jacobi(c, n) != -1, (n, c, out)


def test_search_always_concludes_for_wide_nonsquares():
    # between 32 and 64 bits the default cap is far beyond the least
    # nonresidue in practice; the search must never come back empty
    rng = random.Random(20240826)
    for _ in range(200):
        n = rng.randrange(2**32, 2**64) | 1
        if is_perfect_square(n):
            continue
        out = find_small_nonresidue(n)
        assert (out.c is not None) or (out.factor is not None), n
        if out.factor is not None:
            assert 1 < out.factor < n and n % out.factor == 0


def test_a_prime_above_the_screen_can_exhaust_the_default_cap():
    # the cap's bound is asymptotic: this prime's least nonresidue, 97, is
    # the 88th nonsquare candidate, and ceil(n^0.2025) is only 83
    n = 2929911599
    assert isprime(n) and n > TRIAL_DIVISION_BOUND**2
    assert next(c for c in range(2, n) if legendre_symbol(c, n) == -1) == 97
    assert sum(1 for c in range(2, 97) if not is_square(c)) == 87
    assert SearchConfig.for_modulus(n).cap == 83
    assert find_small_nonresidue(n) == SearchOutcome(c=None, factor=None, examined=83)


def test_lazy_cap_search_equals_the_exact_cap_search():
    rng = random.Random(20261018)
    moduli = list(range(3, 20000, 2)) + [169, 7**6, 3**40, 104729**2]
    moduli += [rng.getrandbits(bits) | (1 << (bits - 1)) | 1 for bits in (64, 65, 128, 256, 512, 1024, 2048)]
    for delta in (None, "0.25", "1/2"):
        for n in moduli:
            exact = find_small_nonresidue(n, SearchConfig.for_modulus(n, delta))
            assert find_small_nonresidue(n, delta=delta) == exact, (n, delta)


def test_density_rejects_squares_and_bad_exponents():
    with pytest.raises(ValueError):
        density_experiment(9)
    with pytest.raises(ValueError):
        density_experiment(15, "1")
    with pytest.raises(TypeError):
        density_experiment(15, 0.3)
    # an empty sample, in the sampled and in the exhaustive mode
    for n, delta in ((1000000007, "0.9"), (15, "0.3")):
        for sample_size in (0, -1):
            with pytest.raises(ValueError, match="sample_size"):
                density_experiment(n, delta, seed=1, sample_size=sample_size)


def test_density_exhaustive_example():
    report = density_experiment(15, "0.3")
    assert report.mode == "exhaustive"
    assert report.candidates_examined == 2  # candidates {2, 3}
    assert report.count_minus_one == 0
    assert report.count_zero == 1  # jacobi(3, 15) = 0
    assert report.count_not_plus_one == 1
    assert report.proportion == 0.5
    assert report.seed is None
    d = report.as_dict()
    assert d["delta"] == "3/10" and d["n"] == 15
    assert repr(report) == (
        "DensityReport(n=15, delta=Fraction(3, 10), mode='exhaustive', seed=None, candidates_examined=2, "
        "count_minus_one=0, count_zero=1, count_not_plus_one=1)"
    )
    assert list(d) == [
        "n", "delta", "mode", "seed", "candidates_examined", "count_minus_one", "count_zero",
        "count_not_plus_one", "proportion",
    ]
    assert hash(report) == hash(density_experiment(15, "0.3"))
    for name in ("n", "mode", "proportion", "other"):
        with pytest.raises(AttributeError):
            setattr(report, name, 1)


def test_density_counts_match_direct_enumeration():
    n, delta = 104729, Fraction(1, 4)
    report = density_experiment(n, delta)
    cap = ceil_frac_pow(n, delta)
    expect_minus = sum(1 for c in range(2, cap + 1) if jacobi(c, n) == -1)
    expect_zero = sum(1 for c in range(2, cap + 1) if jacobi(c, n) == 0)
    assert report.count_minus_one == expect_minus
    assert report.count_zero == expect_zero
    assert report.candidates_examined == cap - 1


def test_density_sampled_mode_is_seed_deterministic():
    n = 10**12 + 39
    a = density_experiment(n, "0.55", seed=7, sample_size=500)
    b = density_experiment(n, "0.55", seed=7, sample_size=500)
    assert a == b
    assert a.mode == "sampled" and a.seed == 7 and a.candidates_examined == 500
    c = density_experiment(n, "0.55", seed=8, sample_size=500)
    assert c.mode == "sampled"  # different seed may or may not change counts


def test_charsum_examples():
    r = charsum_experiment(15, 1)
    assert (r.cutoff, r.charsum, r.ratio) == (15, 0, 0.0)
    r = charsum_experiment(9, 1)
    assert r.charsum == 6  # principal-character case: the sum counts units
    assert r.ratio == pytest.approx(6 / 9)
    assert repr(r) == "CharSumReport(n=9, gamma=Fraction(1, 1), cutoff=9, charsum=6)"
    assert r.as_dict() == {"n": 9, "gamma": "1", "cutoff": 9, "charsum": 6, "ratio": 6 / 9}
    assert r == charsum_experiment(9, 1) and hash(r) == hash(charsum_experiment(9, 1))
    for name in ("n", "charsum", "ratio", "other"):
        with pytest.raises(AttributeError):
            setattr(r, name, 1)


def test_charsum_matches_direct_summation():
    rng = random.Random(20240827)
    for _ in range(40):
        n = rng.randrange(3, 2 * 10**4) | 1
        gamma = Fraction(rng.randint(1, 4), 4)
        r = charsum_experiment(n, gamma)
        cutoff = r.cutoff
        assert cutoff ** gamma.denominator <= n ** gamma.numerator < (cutoff + 1) ** gamma.denominator
        assert r.charsum == sum(jacobi(k, n) for k in range(1, cutoff))


def test_charsum_full_period_vanishes_for_nonsquares():
    for n in range(3, 200, 2):
        if is_perfect_square(n):
            continue
        assert charsum_experiment(n, 1).charsum == 0, n


def test_charsum_guards():
    with pytest.raises(ValueError):
        charsum_experiment(15, "3/2")
    with pytest.raises(ValueError):
        charsum_experiment(15, "0")
    with pytest.raises(TypeError):
        charsum_experiment(15, 0.5)
    with pytest.raises(ValueError):
        charsum_experiment(10**15 + 1, 1)  # cutoff over the term limit
