"""The quadratic tests, their parameter generators, and the classical baselines."""

import json
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import factorint, isprime, nextprime, prevprime
from sympy.ntheory.primetest import is_lucas_prp

from frobprime import frobenius, nonresidue, quadext
from frobprime.arith import TRIAL_DIVISION_BOUND, jacobi, primes_up_to, two_adic_split
from frobprime.cli import main
from frobprime.frobenius import (
    RETRY_CAP,
    CompositeReason,
    FactorFound,
    ParamSearchExhausted,
    PhaseCounters,
    QftParams,
    RqftParams,
    Verdict,
    fermat_test,
    generate_qft_params,
    generate_rqft_params,
    initial_screen,
    lucas_test,
    lucas_uv,
    pure_form_of,
    qft,
    rqft,
    rqft_with_small_c,
    run_rounds,
    sample_nonresidue,
    step5_chain,
    step5_naive,
    strong_test,
)
from frobprime.nonresidue import SearchConfig, SearchOutcome, find_small_nonresidue
from frobprime.quadext import ExtensionRing, OpCounter, QuadExtElement, ext_pow, ext_square

from test_quad_ext import _ext_pow_by_steps, _field, _prime_with_v2


# a 2048-bit prime (checked with sympy.isprime)
PRIME_2048 = int(
    "a30a2487ebde8e05f35ce545469a56bb13162ca886dc9416018c8ff726f130ee"
    "c7eaeac5871074cea2c0e5be2cc9c5a9855589a6a403b9ca91ce4e3f31230012"
    "53bf7f62fb6983fcd10161dfb4fa941d40f2eacb7b530231b7fced64ff16ae3c"
    "d1719df01bbc0c5cba261a8f41dfd47064bc21885e813e19736616f9c6b52e31"
    "6749eba319c7864415ff7cb47b17e7672e1bdacc82c7eaa9368a4f6209355c9e"
    "857191f11737c67443f16096d2e16e0c7e8041ed485d65409839deb3eb3d59ca"
    "5d6f26414111724ef3bfccab011a4a31026e330d65d3b01631930af828bf35a9"
    "e268fe6bc6d399957de080de226e2cea1b2ab92be210cfe947dfab723a6dbf59",
    16,
)


class StubRng:
    """Feeds a fixed value sequence to randrange-based samplers."""

    def __init__(self, values):
        self.values = list(values)

    def randrange(self, start, stop=None):
        return self.values.pop(0)


def test_verdict_construction_rules():
    v = Verdict.probable_prime()
    assert v.is_probable_prime and v.reason is None and v.factor is None
    assert str(v) == "probable prime"
    c = Verdict.composite(CompositeReason.SMALL_FACTOR, 11)
    assert str(c) == "composite (small-factor, factor 11)"
    assert str(Verdict.composite(CompositeReason.STEP3)) == "composite (step3)"
    with pytest.raises(ValueError, match="^a probable-prime verdict carries no reason$"):
        Verdict(True, CompositeReason.STEP3)
    with pytest.raises(ValueError, match="^a composite verdict needs a reason$"):
        Verdict(False)
    with pytest.raises(ValueError, match="^a composite verdict needs a reason$"):
        Verdict(is_probable_prime=False, factor=3)
    assert repr(v) == "Verdict(is_probable_prime=True, reason=None, factor=None)"
    assert repr(c) == "Verdict(is_probable_prime=False, reason=<CompositeReason.SMALL_FACTOR: 'small-factor'>, factor=11)"
    assert c == Verdict(False, CompositeReason.SMALL_FACTOR, 11)
    assert hash(c) == hash(Verdict.composite(CompositeReason.SMALL_FACTOR, 11))
    assert c != Verdict.composite(CompositeReason.SMALL_FACTOR, 13)
    for name in ("is_probable_prime", "reason", "factor", "other"):
        with pytest.raises(AttributeError):
            setattr(c, name, None)


def test_params_are_immutable_hashable_records():
    qp, rp = QftParams(3, 5), RqftParams(c=7, a=1, b=2)
    assert (qp.b, qp.c, rp.a, rp.b, rp.c) == (3, 5, 1, 2, 7)
    assert repr(qp) == "QftParams(b=3, c=5)" and repr(rp) == "RqftParams(a=1, b=2, c=7)"
    assert qp == QftParams(b=3, c=5) and hash(qp) == hash(QftParams(3, 5))
    assert rp == RqftParams(1, 2, 7) and hash(rp) == hash(RqftParams(1, 2, 7))
    assert qp != QftParams(5, 3) and rp != RqftParams(2, 1, 7)
    for params, names in ((qp, ("b", "c", "other")), (rp, ("a", "b", "c", "other"))):
        for name in names:
            with pytest.raises(AttributeError):
                setattr(params, name, 0)


def test_initial_screen_decides_small_inputs():
    assert initial_screen(25) == Verdict.composite(CompositeReason.SMALL_FACTOR, 5)
    assert initial_screen(341) == Verdict.composite(CompositeReason.SMALL_FACTOR, 11)
    assert initial_screen(7) is None
    assert initial_screen(104729) is None
    with pytest.raises(ValueError):
        initial_screen(10)


def test_initial_screen_flags_large_squares():
    # a square of a prime beyond the division bound survives step 1
    n = 104729**2
    v = initial_screen(n)
    assert v == Verdict.composite(CompositeReason.PERFECT_SQUARE, 104729)


def test_qft_screen_runs_before_parameter_validation():
    # (b^2+4c/25) = -1 is unsatisfiable, yet composites are still reported
    v = qft(25, QftParams(1, 1))
    assert v == Verdict.composite(CompositeReason.SMALL_FACTOR, 5)
    v = qft(341, QftParams(1, 340))
    assert v == Verdict.composite(CompositeReason.SMALL_FACTOR, 11)


def test_qft_rejects_invalid_parameters_when_reached():
    # d = 4 is a square, so its symbol is +1, not -1
    with pytest.raises(ValueError):
        qft(101, QftParams(0, 1), force_extension_steps=True)
    # c = 5 is a residue mod 101, so -c has symbol -1
    with pytest.raises(ValueError):
        rqft(101, RqftParams(1, 0, 5), force_extension_steps=True)


def test_qft_trial_division_shortcut_for_small_inputs():
    # below the bound squared the screen is exhaustive, no ring work needed
    counter = OpCounter()
    v = qft(101, QftParams(0, 1), counter)  # params invalid, never consulted
    assert v.is_probable_prime
    assert counter == OpCounter()


def test_qft_exhaustive_parameters_on_a_small_prime():
    p = 13
    seen = 0
    for b in range(p):
        for c in range(1, p):
            d = (b * b + 4 * c) % p
            if d == 0 or jacobi(d, p) != -1 or jacobi(p - c, p) != 1:
                continue
            seen += 1
            v = qft(p, QftParams(b, c), force_extension_steps=True)
            assert v.is_probable_prime, (b, c, v)
    assert seen > 0


def test_qft_three_is_testable():
    # the only valid pair for n = 3 has b = 0
    assert qft(3, QftParams(0, 2), force_extension_steps=True).is_probable_prime
    params = generate_qft_params(3, random.Random(0))
    assert (params.b, params.c) == (0, 2)


def test_rqft_exhaustive_pairs_on_a_small_prime():
    p, c = 101, 2
    assert jacobi(c, p) == -1
    accepted = total = 0
    for a in range(1, p):
        for b in range(p):
            e = (b * b - c * a * a) % p
            if e == 0:
                continue
            total += 1
            if jacobi(e, p) != 1:
                continue
            accepted += 1
            v = rqft(p, RqftParams(a, b, c), force_extension_steps=True)
            assert v.is_probable_prime, (a, b, v)
    # valid pairs are about half of all pairs for a prime modulus
    assert 0.45 < accepted / total < 0.55


def test_generated_parameters_satisfy_their_conditions():
    rng = random.Random(20240821)
    for p in (101, 104729, 10**9 + 7):
        for _ in range(5):
            qp = generate_qft_params(p, rng)
            assert jacobi((qp.b**2 + 4 * qp.c) % p, p) == -1
            assert jacobi(p - qp.c, p) == 1
            c = sample_nonresidue(p, rng)
            assert jacobi(c, p) == -1
            rp = generate_rqft_params(p, c, rng)
            assert rp.c == c
            assert jacobi((rp.b**2 - c * rp.a**2) % p, p) == 1
    # c=None draws c by sample_nonresidue first, from the same rng
    for n in (3, 101, 104729, 10**9 + 7):
        for seed in range(5):
            rng, ref_rng = random.Random(seed), random.Random(seed)
            assert generate_rqft_params(n, None, rng) == generate_rqft_params(n, sample_nonresidue(n, ref_rng), ref_rng)
            assert rng.getstate() == ref_rng.getstate()


def test_parameter_generation_is_deterministic_given_a_seed():
    a = generate_qft_params(10**9 + 7, random.Random(5))
    b = generate_qft_params(10**9 + 7, random.Random(5))
    assert a == b
    x = sample_nonresidue(10**9 + 7, random.Random(6))
    y = sample_nonresidue(10**9 + 7, random.Random(6))
    assert x == y


def test_parameter_search_surfaces_factors_via_zero_symbols():
    with pytest.raises(FactorFound) as info:
        generate_qft_params(15, StubRng([3, 5]))
    assert info.value.factor == 5


def _qft_params_with_both_symbols(n, rng, stood_in):
    """generate_qft_params as it was: both symbols on every draw.  Counts in
    ``stood_in`` the factors that jacobi(-c, n) = 0 raised on a draw that
    jacobi(b^2 + 4c, n) had already rejected."""
    for _ in range(RETRY_CAP):
        b = rng.randrange(n)
        c = rng.randrange(1, n)
        d = (b * b + 4 * c) % n
        if d == 0:
            continue
        jd = jacobi(d, n)
        if jd == 0:
            raise FactorFound(math.gcd(d, n))
        jc = jacobi(n - c, n)
        if jc == 0:
            stood_in[0] += jd == 1
            raise FactorFound(math.gcd(c, n))
        if jd == -1 and jc == 1:
            return QftParams(b, c)
    raise ParamSearchExhausted(f"no valid (b, c) for n={n} in {RETRY_CAP} draws")


def _outcome(sampler, *args):
    try:
        return sampler(*args)
    except FactorFound as found:
        return "factor", found.factor
    except ParamSearchExhausted as exhausted:
        return "exhausted", str(exhausted)


def test_qft_sampler_matches_the_one_computing_both_symbols_on_every_draw():
    stood_in = [0]
    kinds = set()
    for n in range(3, 5000, 2):
        for seed in range(3):
            rng, ref_rng = random.Random(seed * 5000 + n), random.Random(seed * 5000 + n)
            got = _outcome(generate_qft_params, n, rng)
            assert got == _outcome(_qft_params_with_both_symbols, n, ref_rng, stood_in), (n, seed)
            assert rng.getstate() == ref_rng.getstate(), (n, seed)
            kinds.add("params" if isinstance(got, QftParams) else got[0])
    # the gcd stood in for a zero jacobi(-c, n) on a rejected draw
    assert stood_in[0] > 500 and kinds == {"params", "factor", "exhausted"}, (stood_in, kinds)


def test_parameter_search_exhausts_on_a_prime_square():
    n = 104729**2  # no d can have symbol -1 mod a square
    with pytest.raises(ParamSearchExhausted):
        generate_qft_params(n, random.Random(0))
    with pytest.raises(ParamSearchExhausted):
        sample_nonresidue(n, random.Random(0))


def test_rqft_param_generation_validates_c():
    with pytest.raises(ValueError):
        generate_rqft_params(101, 5, random.Random(0))  # 5 is a residue
    with pytest.raises(FactorFound) as info:
        generate_rqft_params(15, 3, random.Random(0))  # shared factor
    assert info.value.factor == 3
    assert sample_nonresidue(3, random.Random(0)) == 2


def test_small_c_wrapper_screens_first():
    rng = random.Random(1)
    verdict, outcome, params = rqft_with_small_c(15, rng)
    assert verdict == Verdict.composite(CompositeReason.SMALL_FACTOR, 3)
    assert outcome is None and params is None
    # a large prime square is caught by the square check, not the search
    verdict, outcome, params = rqft_with_small_c(104729**2, rng)
    assert verdict.reason is CompositeReason.PERFECT_SQUARE
    assert verdict.factor == 104729


def test_small_c_wrapper_on_primes():
    rng = random.Random(2)
    verdict, outcome, params = rqft_with_small_c(1000003, rng, force_extension_steps=True)
    assert verdict.is_probable_prime
    assert outcome.kind == "small-c"
    assert params.c == outcome.c
    assert jacobi(outcome.c, 1000003) == -1


def _chernick_carmichaels(count):
    """(6k+1)(12k+1)(18k+1) with all three factors prime and above the trial-division bound."""
    found = []
    k = TRIAL_DIVISION_BOUND // 6 + 1
    while len(found) < count:
        factors = (6 * k + 1, 12 * k + 1, 18 * k + 1)
        if all(isprime(f) for f in factors):
            found.append(factors[0] * factors[1] * factors[2])
        k += 1
    return found


def _buckets(phases):
    return [b.as_dict() for b in (phases.squaring_steps, phases.multiply_steps, phases.tail)]


def test_small_c_wrapper_screens_once_and_runs_rqft(monkeypatch):
    rng = random.Random(20261018)
    cases = [(nextprime(rng.getrandbits(bits)), False) for bits in (40, 64, 256)]
    cases += [(n, False) for n in _chernick_carmichaels(3)] + [(1000003, True)]
    screen = frobenius.initial_screen
    for n, force in cases:
        screened = []
        monkeypatch.setattr(frobenius, "initial_screen", lambda m: screened.append(m) or screen(m))
        phases = PhaseCounters.fresh()
        verdict, outcome, params = rqft_with_small_c(
            n, random.Random(n), phases=phases, force_extension_steps=force
        )
        monkeypatch.undo()
        assert screened == [n]
        assert verdict.is_probable_prime == isprime(n)
        assert outcome == find_small_nonresidue(n)
        assert params == generate_rqft_params(n, outcome.c, random.Random(n))
        ref_phases = PhaseCounters.fresh()
        assert rqft(n, params, phases=ref_phases, force_extension_steps=force, small_c=True) == verdict
        assert _buckets(phases) == _buckets(ref_phases)

    # below B^2 the shortcut decides a prime unless forced: no search, no draw
    def no_search(*args, **kwargs):
        raise AssertionError("the search ran")

    for n in (1000003, prevprime(TRIAL_DIVISION_BOUND**2)):
        rng = random.Random(n)
        state = rng.getstate()
        monkeypatch.setattr(nonresidue, "find_small_nonresidue", no_search)
        assert rqft_with_small_c(n, rng) == (Verdict.probable_prime(), None, None)
        monkeypatch.undo()
        assert rng.getstate() == state


def test_small_c_wrapper_never_computes_the_exact_cap_at_2048_bits(monkeypatch):
    expected = rqft_with_small_c(PRIME_2048, random.Random(5))
    assert expected[0].is_probable_prime
    assert expected[1] == find_small_nonresidue(PRIME_2048, SearchConfig.for_modulus(PRIME_2048))

    def no_exact_cap(*args):
        raise AssertionError("the exact search cap was computed")

    monkeypatch.setattr(nonresidue, "ceil_frac_pow", no_exact_cap)
    assert rqft_with_small_c(PRIME_2048, random.Random(5)) == expected


def _rounds_by_calls(n, method, rng, rounds, counter):
    """The reference: every round is a full qft / rqft / rqft_with_small_c call."""
    verdict = initial_screen(n)
    if verdict is not None:
        return verdict, 0
    if n <= TRIAL_DIVISION_BOUND**2:
        return Verdict.probable_prime(), 0
    for k in range(1, rounds + 1):
        try:
            if method == "qft":
                verdict = qft(n, generate_qft_params(n, rng), counter)
            elif method == "rqft":
                verdict = rqft(n, generate_rqft_params(n, sample_nonresidue(n, rng), rng), counter)
            else:
                verdict = rqft_with_small_c(n, rng, counter=counter)[0]
        except FactorFound as found:
            verdict = Verdict.composite(CompositeReason.JACOBI_ZERO_FACTOR, found.factor)
        if not verdict.is_probable_prime:
            return verdict, k
    return verdict, rounds


def test_run_rounds_matches_a_call_per_round():
    rng = random.Random(20261018)
    numbers = [nextprime(rng.getrandbits(bits)) for bits in (40, 64, 64, 256)]
    numbers += _chernick_carmichaels(3) + [1729, 1000003, 104729**2, 1000003 * 1000033, 3 * numbers[1]]
    numbers += [rng.getrandbits(64) | 1 for _ in range(40)]
    for n in numbers:
        for method in ("qft", "rqft", "rqft-smallc"):
            for rounds in (1, 4):
                counter, ref_counter = OpCounter(), OpCounter()
                got = run_rounds(n, method, random.Random(n), rounds, counter)
                assert got == _rounds_by_calls(n, method, random.Random(n), rounds, ref_counter), (n, method)
                assert counter.as_dict() == ref_counter.as_dict()


def test_run_rounds_reports_a_search_factor_after_one_round(monkeypatch):
    n = 1000003 * 1000033
    monkeypatch.setattr(nonresidue, "find_small_nonresidue", lambda m, delta=None: SearchOutcome(None, 1000003, 5))
    verdict, rounds_run = run_rounds(n, "rqft-smallc", random.Random(1), 4, None)
    assert (verdict, rounds_run) == (Verdict.composite(CompositeReason.JACOBI_ZERO_FACTOR, 1000003), 1)
    # an exhausted search is no verdict: the rounds run in rqft's ring
    monkeypatch.setattr(nonresidue, "find_small_nonresidue", lambda m, delta=None: SearchOutcome(None, None, 5))
    counter, ref_counter = OpCounter(), OpCounter()
    got = run_rounds(n, "rqft-smallc", random.Random(1), 4, counter)
    assert got == run_rounds(n, "rqft", random.Random(1), 4, ref_counter)
    assert counter.as_dict() == ref_counter.as_dict()


def test_an_exhausted_search_falls_back_to_the_rqft_ring():
    # a prime above B^2 whose least nonresidue, 97, lies past the cap of 83
    n = 2929911599
    counter, ref_counter = OpCounter(), OpCounter()
    got = run_rounds(n, "rqft-smallc", random.Random(1), 4, counter)
    assert got == run_rounds(n, "rqft", random.Random(1), 4, ref_counter) == (Verdict.probable_prime(), 4)
    assert counter.as_dict() == ref_counter.as_dict()
    assert counter.small_mults == 0 and counter.full_mults > 0
    verdict, outcome, params = rqft_with_small_c(n, random.Random(1))
    assert verdict.is_probable_prime
    assert outcome == SearchOutcome(c=None, factor=None, examined=83) and outcome.kind == "not-found"
    rng = random.Random(1)
    assert params == generate_rqft_params(n, sample_nonresidue(n, rng), rng)


def test_run_rounds_rejects_bad_arguments():
    with pytest.raises(ValueError, match="unknown method"):
        run_rounds(2500000033, "miller-rabin", random.Random(1), 1, None)
    with pytest.raises(ValueError):
        run_rounds(2500000033, "qft", random.Random(1), 0, None)
    # a bad delta is rejected before the screen: 11 and 15 are decided there,
    # 2500000033 only after the search; nothing is drawn
    for n in (11, 15, 2500000033):
        for call in (
            lambda rng: run_rounds(n, "rqft-smallc", rng, 1, None, delta="0.1"),
            lambda rng: rqft_with_small_c(n, rng, delta="0.1"),
        ):
            rng = random.Random(1)
            state = rng.getstate()
            with pytest.raises(ValueError, match="delta must lie in"):
                call(rng)
            assert rng.getstate() == state
    # a delta or base the method does not take is rejected before the screen
    # too, in range or not, and nothing is drawn
    methods = frobenius._METHODS
    options = [(m, {"delta": d}) for m in methods if m != "rqft-smallc" for d in ("0.1", "0.25")]
    options += [(m, {"base": 2}) for m in methods if m not in ("fermat", "strong")]
    for n in (11, 2500000033):
        for method, kw in options:
            rng = random.Random(1)
            state = rng.getstate()
            with pytest.raises(ValueError, match="applies to .* only, not " + method):
                run_rounds(n, method, rng, 1, None, **kw)
            assert rng.getstate() == state


def test_run_rounds_decides_two_after_checking_the_options():
    rng = random.Random(1)
    state = rng.getstate()
    for method in frobenius._METHODS:
        counter = OpCounter()
        assert run_rounds(2, method, rng, 3, counter) == (Verdict.probable_prime(), 0)
        assert counter == OpCounter()
        with pytest.raises(ValueError, match="rounds must be at least 1"):
            run_rounds(2, method, rng, 0, None)
    with pytest.raises(ValueError, match="base applies to fermat and strong only, not lucas"):
        run_rounds(2, "lucas", rng, 1, None, base=3)
    # run_rounds' one-round pipeline agrees; the rounds with given parameters
    # have no ring mod 2
    assert rqft_with_small_c(2, rng) == (Verdict.probable_prime(), None, None)
    for call in (lambda: qft(2, QftParams(1, 1)), lambda: rqft(2, RqftParams(1, 1, 2))):
        with pytest.raises(ValueError, match="modulus must be odd and > 1, got 2"):
            call()
    assert rng.getstate() == state


def test_rounds_book_once_when_callers_share_phases_and_counter():
    n = 2**127 - 1
    rng = random.Random(7)
    qft_params = generate_qft_params(n, rng)
    rqft_params = generate_rqft_params(n, sample_nonresidue(n, rng), rng)
    runs = {
        "qft": lambda counter, phases: qft(n, qft_params, counter, phases=phases),
        "rqft": lambda counter, phases: rqft(n, rqft_params, counter, phases=phases),
        "rqft_with_small_c": lambda counter, phases: rqft_with_small_c(
            n, random.Random(3), counter=counter, phases=phases
        ),
    }
    for name, run in runs.items():
        one = OpCounter()
        run(one, None)
        counter, phases = OpCounter(), PhaseCounters.fresh()
        run(counter, phases)
        run(counter, phases)
        assert counter.squarings == 2 * one.squarings > 0, name  # qft: 756, not 1134
        assert counter == phases.total() == one + one, name


@pytest.mark.parametrize("n", [-7, 0, 1, 4, 2**64])
def test_edge_inputs_fail_alike_at_every_entry_point(n):
    calls = {
        "qft": lambda rng: qft(n, QftParams(1, 1)),
        "rqft": lambda rng: rqft(n, RqftParams(1, 1, 2)),
        "rqft_with_small_c": lambda rng: rqft_with_small_c(n, rng),
    }
    for method in ("qft", "rqft", "rqft-smallc", "fermat", "strong", "lucas"):
        calls[f"run_rounds/{method}"] = lambda rng, method=method: run_rounds(n, method, rng, 2, OpCounter())
    for name, call in calls.items():
        rng = random.Random(1)
        state = rng.getstate()
        with pytest.raises(ValueError) as info:
            call(rng)
        assert str(info.value) == f"modulus must be odd and > 1, got {n}", name
        assert rng.getstate() == state, name


@st.composite
def _odd_64_to_512_bits(draw):
    """An odd n of 64-512 bits: any odd number, a prime, or a product of two primes above B."""
    kind = draw(st.sampled_from(("odd", "prime", "two primes above B")))
    if kind == "two primes above B":
        p = nextprime(draw(st.integers(TRIAL_DIVISION_BOUND, 2**256)))
        q = nextprime(draw(st.integers(max(TRIAL_DIVISION_BOUND, 2**63 // p), 2**511 // p)))
        return p * q
    bits = draw(st.integers(64, 512))
    n = draw(st.integers(2 ** (bits - 1), 2**bits - 1)) | 1
    return nextprime(n) if kind == "prime" else n


@settings(max_examples=150, deadline=None, derandomize=True)
@given(n=_odd_64_to_512_bits(), seed=st.integers(0, 2**32))
def test_run_rounds_agrees_with_an_independent_primality_oracle(n, seed):
    expected = isprime(n)
    for method in ("qft", "rqft", "rqft-smallc"):
        verdict, rounds_run = run_rounds(n, method, random.Random(seed), 2, OpCounter())
        assert verdict.is_probable_prime == expected, (n, method)
        assert 0 <= rounds_run <= 2
        if verdict.factor is not None:
            assert 1 < verdict.factor < n and n % verdict.factor == 0, (n, method)


def test_rqft_rounds_compute_each_symbol_once(monkeypatch):
    # sample_nonresidue computes the drawn c's symbol; generate_rqft_params
    # must not compute it again
    p = nextprime(random.Random(257).getrandbits(256) | 1 << 255)
    pairs = []

    def recorded(a, n, _jacobi=frobenius.jacobi):
        pairs.append((a, n))
        return _jacobi(a, n)

    monkeypatch.setattr(frobenius, "jacobi", recorded)
    assert run_rounds(p, "rqft", random.Random(3), 4, OpCounter()) == (Verdict.probable_prime(), 4)
    assert len(pairs) >= 8 and len(set(pairs)) == len(pairs), pairs


def test_each_n_is_screened_and_searched_once_and_symbols_come_from_the_samplers(monkeypatch, capsys):
    p = nextprime(random.Random(256).getrandbits(256) | 1 << 255)
    for method in ("qft", "rqft", "rqft-smallc"):
        calls = {"screen": 0, "search": 0, "sampler_jacobi": 0, "other_jacobi": 0}
        in_sampler = []

        def count(name, fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return counted

        def sampler(fn):
            def wrapped(*args, **kwargs):
                in_sampler.append(fn)
                try:
                    return fn(*args, **kwargs)
                finally:
                    in_sampler.pop()

            return wrapped

        def jacobi_by_caller(a, n, _jacobi=frobenius.jacobi):
            calls["sampler_jacobi" if in_sampler else "other_jacobi"] += 1
            return _jacobi(a, n)

        monkeypatch.setattr(frobenius, "initial_screen", count("screen", frobenius.initial_screen))
        monkeypatch.setattr(nonresidue, "find_small_nonresidue", count("search", nonresidue.find_small_nonresidue))
        for name in ("generate_qft_params", "generate_rqft_params", "sample_nonresidue"):
            monkeypatch.setattr(frobenius, name, sampler(getattr(frobenius, name)))
        monkeypatch.setattr(frobenius, "jacobi", jacobi_by_caller)
        code = main(["test", str(p), "--method", method, "--rounds", "4", "--seed", "3", "--output", "json"])
        monkeypatch.undo()
        assert code == 0
        assert json.loads(capsys.readouterr().out)["rounds_run"] == 4
        assert calls["screen"] == 1
        assert calls["search"] == (method == "rqft-smallc")
        assert calls["other_jacobi"] == 0
        assert calls["sampler_jacobi"] >= 8  # each round's accepted draw checks two symbols
    # direct calls still check their parameters
    pairs = [(x, y) for x in range(40) for y in range(1, 40)]
    b, c = next((b, c) for b, c in pairs if jacobi(b * b + 4 * c, p) == 1)
    with pytest.raises(ValueError, match="b\\^2 \\+ 4c"):
        qft(p, QftParams(b, c))
    b, c = next((b, c) for b, c in pairs if jacobi(b * b + 4 * c, p) == jacobi(-c, p) == -1)
    with pytest.raises(ValueError, match="-c, n"):
        qft(p, QftParams(b, c))
    with pytest.raises(ValueError, match="jacobi\\(c, n\\)"):
        rqft(p, RqftParams(1, 0, 4))
    c = find_small_nonresidue(p).c
    b, a = next((b, a) for b, a in pairs if jacobi(b * b - c * a * a, p) == -1)
    with pytest.raises(ValueError, match="b\\^2 - c\\*a\\^2"):
        rqft(p, RqftParams(a, b, c), small_c=True)


def test_search_outcome_kinds():
    assert SearchOutcome(2, None, 1).kind == "small-c"
    assert SearchOutcome(None, 3, 2).kind == "factor"
    assert SearchOutcome(None, None, 3).kind == "not-found"
    found = SearchOutcome(c=2, factor=None, examined=1)
    assert repr(found) == "SearchOutcome(c=2, factor=None, examined=1)"
    assert found == SearchOutcome(2, None, 1) and hash(found) == hash(SearchOutcome(2, None, 1))
    for name in ("c", "factor", "examined", "kind", "other"):
        with pytest.raises(AttributeError):
            setattr(found, name, 3)


def test_step5_chain_matches_naive_on_random_rings():
    rng = random.Random(20240822)
    tried = 0
    while tried < 60:
        n = rng.randrange(3, 2000) | 1
        ring = ExtensionRing.pure(n, rng.randrange(1, n))
        for _ in range(20):
            z = QuadExtElement(rng.randrange(n), rng.randrange(n))
            assert step5_chain(z, ring) == step5_naive(z, ring), (n, ring.c, z)
        tried += 1


def test_step5_counters_favor_the_chain_for_test_elements():
    # for an element passing steps 3-4 of a real run the chain's extra
    # exponentiation happens in the base ring, so it stays cheap
    p = 2500000001 + 32  # 2500000033 is prime (verified below via the test itself)
    rng = random.Random(3)
    params = generate_qft_params(p, rng)
    assert qft(p, params).is_probable_prime
    ring = ExtensionRing.general(p, params.b, params.c)
    z = QuadExtElement(0, 1)
    chain_counter, naive_counter = OpCounter(), OpCounter()
    assert step5_chain(z, ring, chain_counter) == step5_naive(z, ring, naive_counter)
    chain_cost = chain_counter.squarings + chain_counter.full_mults
    naive_cost = naive_counter.squarings + naive_counter.full_mults
    assert chain_cost < naive_cost


def _step5_by_ladders(y, w, r2, ring, counter):
    """Step 5 from y = z^s2 and w = y^(2^(r2-1)) with t = w^s1 and z^s = y^s1
    both by the step-by-step ladder: the tail before ext_pow split a power
    at a scalar power of its base."""
    n = ring.n
    one, minus_one = QuadExtElement(1, 0), QuadExtElement(n - 1, 0)
    r1, s1 = two_adic_split(n - 1)
    t = _ext_pow_by_steps(w, s1, ring, counter)
    if t != one:
        for _ in range(r1):
            if t == minus_one:
                return True
            if t == one:
                return False
            t = ext_square(t, ring, counter)
        return False
    if r2 == 1:
        return True
    zeta = _ext_pow_by_steps(y, s1, ring, counter)
    if zeta == one:
        return True
    for _ in range(r2 - 1):
        if zeta == minus_one:
            return True
        if zeta == one:
            return False
        zeta = ext_square(zeta, ring, counter)
    return False


def _tail_against_the_ladders(y, ring):
    """Run the step-5 tail from y and its ladder reference; compare the verdict
    and the booked ops.  Returns (whether w is scalar, a), with a the least j
    with y^(2^j) scalar when the tail reached z^s (t = 1), else None."""
    n = ring.n
    r2, _ = two_adic_split(n + 1)
    w = y
    for _ in range(r2 - 1):
        w = ext_square(w, ring)
    got, want = OpCounter(), OpCounter()
    passed = frobenius._step5_from_intermediates(y, w, r2, ring, got)
    assert passed == _step5_by_ladders(y, w, r2, ring, want), (ring, y)
    assert got.as_dict() == want.as_dict(), (ring, y)
    if w[1] or r2 == 1 or pow(w[0], two_adic_split(n - 1)[1], n) != 1:
        return w[1] == 0, None
    a = 0
    while y[1]:
        y = ext_square(y, ring)
        a += 1
    return True, a


def test_step5_tail_matches_the_ladders_for_each_scalar_power():
    rng = random.Random(20261020)
    forms = ("general", "pure", "pure-small")
    seen = {form: set() for form in forms}
    for i in range(1400):
        k = 2 + i % 7  # v2(n + 1), so a reaches k - 1
        p = _prime_with_v2(rng, k, rng.choice((16, 48, 130)))
        ring = _field(rng, p, forms[i % 3])
        y = ext_pow(QuadExtElement(rng.randrange(p), rng.randrange(1, p)), (p + 1) >> k, ring)
        _, a = _tail_against_the_ladders(y, ring)
        if a is not None:
            seen[forms[i % 3]].add(a)
    for form in forms:
        assert seen[form] >= set(range(6)), (form, seen[form])


def test_step5_tail_matches_the_ladders_where_y_is_x():
    # n + 1 = 2^k makes s2 = 1, so the qft element z = x is y itself, and
    # z^s = x^s1 books its multiply steps as mul_by_x
    rng = random.Random(61)
    for k in (61, 89, 127):
        n = 2**k - 1
        reached = 0
        for _ in range(12):
            params = generate_qft_params(n, rng)
            ph = PhaseCounters.fresh()
            assert qft(n, params, phases=ph).is_probable_prime
            ring = ExtensionRing.general(n, params.b, params.c)
            x = QuadExtElement(0, 1)
            w = x
            for _ in range(k - 1):
                w = ext_square(w, ring)
            tail = OpCounter()
            ext_square(w, ring, tail)  # step 4
            assert _step5_by_ladders(x, w, k, ring, tail)
            assert ph.tail.as_dict() == tail.as_dict()
            reached += pow(w[0], (n - 1) // 2, n) == 1
        assert reached >= 3, (k, reached)


def test_step5_tail_matches_the_ladders_in_the_pure_forms_on_mersenne_primes():
    # n + 1 = 2^k makes y = z and 2 * v2(n + 1) >= bits(s1), so ext_pow runs
    # z^s = y^s1 without its scalar-power probe, on the width-1 kernel that
    # counts the scalar steps.  Half the z are e^(2^(k - j)), whose power
    # y^(2^j) = N(e) is scalar, so t = 1 and the tail reaches z^s.  The
    # prefixes of s1 = 2^(k-1) - 1 are odd, so only a = 1 (y^2 scalar) has
    # scalar steps there: every multiply step.
    rng = random.Random(20261024)
    for k in (61, 89, 127):
        n = 2**k - 1
        small_c = next(c for c in range(2, 100) if jacobi(c, n) == -1)
        reached = set()
        for i in range(24):
            small = i % 2 == 1
            ring = ExtensionRing.pure(n, small_c if small else sample_nonresidue(n, rng), small=small)
            z = QuadExtElement(rng.randrange(n), rng.randrange(1, n))
            if i % 4 >= 2:
                j = rng.choice((1, 2, rng.randrange(3, k - 1)))
                z = ext_pow(z, 1 << (k - j), ring)
            _, a = _tail_against_the_ladders(z, ring)
            if a is not None:
                reached.add((small, a == 1))
        assert reached == {(False, False), (False, True), (True, False), (True, True)}, (k, reached)


def _drawn_round(p, form, rng):
    """A round's parameters at the prime p in the given form, drawn as the
    samplers do, with (a, t): the least a with y^(2^a) scalar for y = z^s2,
    and t = w^s1 for w = y^(2^(r2-1)), both by the step-by-step ladder."""
    if form == "general":
        params, small = generate_qft_params(p, rng), False
    else:
        small = form == "pure-small"
        c = next(c for c in range(2, p) if jacobi(c, p) == -1) if small else sample_nonresidue(p, rng)
        params = generate_rqft_params(p, c, rng)
    ring, z = _round_ring(p, params, small)
    r2, s2 = two_adic_split(p + 1)
    y, a = _ext_pow_by_steps(z, s2, ring), 0
    while y.v:
        y, a = ext_square(y, ring), a + 1
    w = _ext_pow_by_steps(z, (p + 1) >> 1, ring)
    assert w.v == 0 and a < r2
    return params, small, a, pow(w.u, two_adic_split(p - 1)[1], p)


def _round_ring(n, params, small):
    """The ring and the element z that ``frobenius._run_round`` builds from params."""
    if isinstance(params, QftParams):
        return ExtensionRing.general(n, params.b, params.c), QuadExtElement(0, 1)
    return ExtensionRing.pure(n, params.c, small=small), QuadExtElement(params.b, params.a)


def _count_pows(monkeypatch):
    """The exponents of quadext's built-in pow calls, as they run."""
    exps = []

    def counted(base, exp, mod):
        exps.append(exp)
        return pow(base, exp, mod)

    monkeypatch.setattr(quadext, "pow", counted, raising=False)
    return exps


def test_a_round_on_a_non_mersenne_n_runs_no_full_size_pow(monkeypatch):
    # Step 5's high power W = w^(s1 >> (r2-1)) comes from the norm of the
    # dominant ladder's prefix, so no round makes a built-in pow with an
    # exponent of more than bits(p)/2 bits: not t = w^s1, nor z^s = y^s1
    # when t = 1.  v2(p + 1) = 1 with p = 5 mod 8 (r1 = 2) gives t = 1 in
    # about a quarter of the rounds, and t = w^s1 reads W whole; v2(p + 1) = 3
    # splits t and z^s at j = 2, where a t = 1 round has y scalar (a = 0) or
    # y^2 not but y^4 = w scalar (a = 1), since at a = j, t = -1.
    exps = _count_pows(monkeypatch)
    rng = random.Random(20261025)
    p1 = _prime_with_v2(rng, 1, 256)
    while p1 % 8 != 5:
        p1 = _prime_with_v2(rng, 1, 256)
    forms = ("general", "pure", "pure-small")
    seen = set()
    for p in (p1, _prime_with_v2(rng, 3, 256)):
        r2 = two_adic_split(p + 1)[0]
        for i in range(150):
            form = forms[i % 3]
            params, small, a, t = _drawn_round(p, form, rng)
            exps.clear()
            assert frobenius._run_round(p, params, None, small_c=small).is_probable_prime
            assert all(e.bit_length() <= p.bit_length() // 2 for e in exps), (p, form, a, t, exps)
            seen.add((r2, form, a if t == 1 else None))
    want = {(r2, form, a) for form in forms for r2, a in ((1, None), (1, 0), (3, None), (3, 0), (3, 1))}
    assert seen == want, seen ^ want


def test_a_repeated_round_makes_the_same_pows(monkeypatch):
    # The high power that step 5 shares lives on the round's ring, and only
    # the round writes it, so a round run again with the same parameters
    # finds nothing of the first run and makes the same built-in pow calls.
    exps = _count_pows(monkeypatch)
    rng = random.Random(20261029)
    p = _prime_with_v2(rng, 2, 256)
    forms = ("general", "pure", "pure-small")
    for i in range(30):
        params, small, _, _ = _drawn_round(p, forms[i % 3], rng)
        runs = []
        for _ in range(2):
            exps.clear()
            assert frobenius._run_round(p, params, None, small_c=small).is_probable_prime
            runs.append(list(exps))
        assert runs[0] == runs[1], (forms[i % 3], runs)


def test_a_mersenne_round_runs_t_as_one_whole_pow(monkeypatch):
    # n = 2^k - 1 has s2 >> r1 = 0 and 2 * v2(n + 1) >= bits(s1): no high
    # power is derived or remembered, t = w^s1 is one pow of the whole
    # exponent, and a t = 1 round runs z^s on the kernel.
    exps = _count_pows(monkeypatch)
    rng = random.Random(20261026)
    n = 2**127 - 1
    s1 = two_adic_split(n - 1)[1]
    t_one = 0
    for i in range(30):
        params, small, _, t = _drawn_round(n, ("general", "pure", "pure-small")[i % 3], rng)
        exps.clear()
        assert frobenius._run_round(n, params, None, small_c=small).is_probable_prime
        assert exps == [s1], exps
        ring, z = _round_ring(n, params, small)
        assert step5_chain(z, ring) and ring._last_power == (None, None)
        t_one += t == 1
    assert t_one >= 3, t_one


def _composite_tail_elements(n, rng, count):
    """Elements y for the step-5 tail over a composite n: z^odd(n + 1) as in a
    run, and z^(2^j * m) with m the odd part of a multiple of the unit group's
    exponent.  The latter have 2-power order, so w and t are scalar and t = 1
    far more often."""
    g = 1
    for f in factorint(n):
        g *= (f * f - 1) * f
    e, m = two_adic_split(g)
    s2 = two_adic_split(n + 1)[1]
    for i in range(count):
        z = QuadExtElement(rng.randrange(n), rng.randrange(1, n))
        yield z, s2 if i % 2 else m << rng.randrange(e + 1)


def test_step5_tail_matches_the_ladders_on_chernick_and_p_2p_minus_1_composites():
    rng = random.Random(20261021)
    cases = [("chernick", n) for n in _chernick_carmichaels(3)]
    p = TRIAL_DIVISION_BOUND
    while len(cases) < 6:
        p = nextprime(p)
        # v2(n + 1) >= 3 leaves room for y^(2^a) with 1 <= a < r2
        if isprime(2 * p - 1) and p * (2 * p - 1) % 8 == 7:
            cases.append(("p(2p-1)", p * (2 * p - 1)))
    scalar_w = {"chernick": 0, "p(2p-1)": 0}
    split = 0
    # Forced qft rounds on these numbers end at step 3, so the tail is driven
    # directly, from elements whose w is scalar far more often.
    for family, n in cases:
        for form in ("general", "pure", "pure-small"):
            if form == "general":
                ring = ExtensionRing.general(n, rng.randrange(n), rng.randrange(1, n))
            else:
                ring = ExtensionRing.pure(n, rng.randrange(2, 60), small=form == "pure-small")
            for z, e in _composite_tail_elements(n, rng, 100):
                w_scalar, a = _tail_against_the_ladders(ext_pow(z, e, ring), ring)
                scalar_w[family] += w_scalar
                split += bool(a)
    # Both families ran the scalar tail.  A Chernick number is 1 mod 4, so
    # r2 = 1 and z^s is never needed; for p(2p-1), z^s ran through a split
    # at y^(2^a), a >= 1.
    assert min(scalar_w.values()) >= 50 and split >= 20, (scalar_w, split)


def _high_power_rounds(rng):
    """(family, ring, z) for rounds of steps 3-5 in all three forms: drawn
    rounds on primes with v2(p + 1) from 1 to 8 and on 2^127 - 1, elements
    of Chernick and p(2p - 1) composites that often pass steps 3-4, and at
    n = 35 every element with c = 2 and z = x in every general ring, whose
    forced rounds have liars."""
    forms = ("general", "pure", "pure-small")
    for i in range(8 * 3 * 6):
        p = _prime_with_v2(rng, 1 + i % 8, rng.choice((40, 130)))
        params, small, _, _ = _drawn_round(p, forms[i % 3], rng)
        yield "prime", *_round_ring(p, params, small)
    for i in range(12):
        params, small, _, _ = _drawn_round(2**127 - 1, forms[i % 3], rng)
        yield "mersenne", *_round_ring(2**127 - 1, params, small)
    composites = _chernick_carmichaels(2)
    p = TRIAL_DIVISION_BOUND
    while len(composites) < 4:
        p = nextprime(p)
        if isprime(2 * p - 1) and p * (2 * p - 1) % 8 == 7:
            composites.append(p * (2 * p - 1))
    for n in composites:
        for form in forms:
            if form == "general":
                ring = ExtensionRing.general(n, rng.randrange(n), rng.randrange(1, n))
            else:
                ring = ExtensionRing.pure(n, rng.randrange(2, 60), small=form == "pure-small")
            for z, e in _composite_tail_elements(n, rng, 40):
                yield "composite", ring, ext_pow(z, e, ring)
    for small in (False, True):
        ring = ExtensionRing.pure(35, 2, small=small)
        for a in range(35):
            for b in range(35):
                yield "n = 35", ring, QuadExtElement(b, a)
    for b in range(35):
        for c in range(35):
            yield "n = 35", ExtensionRing.general(35, b, c), QuadExtElement(0, 1)


def test_the_ladder_prefix_gives_step_5s_high_power(monkeypatch):
    # With n - 1 = 2^r1 * s1 and n + 1 = 2^r2 * s2, the dominant ladder
    # hands back P = z^(s2 >> r1), and a round that passes step 4 remembers
    # W = N(P) * w^b as w^(s1 >> (r2 - 1)), for prime and composite n alike.
    # n = 2^127 - 1 derives nothing.  Verdicts are step5_naive's.
    prefixes, remembered = [], []
    ladder, remember = frobenius.ext_pow, frobenius._remember

    def recorded_pow(*args, **kwargs):
        power = ladder(*args, **kwargs)
        if kwargs.get("prefix_shift") is not None:
            prefixes.append((kwargs["prefix_shift"], power[1]))
        return power

    def recorded_remember(ring, *entry):
        remembered.append(entry)
        remember(ring, *entry)

    monkeypatch.setattr(frobenius, "ext_pow", recorded_pow)
    monkeypatch.setattr(frobenius, "_remember", recorded_remember)
    passed = {}
    for family, ring, z in _high_power_rounds(random.Random(20261030)):
        n = ring.n
        r1, s1 = two_adic_split(n - 1)
        r2, s2 = two_adic_split(n + 1)
        derives = 2 * r2 < s1.bit_length()
        assert derives == (family != "mersenne")
        prefixes.clear()
        remembered.clear()
        verdict = frobenius._extension_steps(z, ring, PhaseCounters.fresh())
        shift, prefix = prefixes.pop()
        assert (shift, prefixes) == (r1 if derives else 0, [])
        assert prefix == _ext_pow_by_steps(z, s2 >> shift, ring), (ring, z)
        if verdict.reason in (CompositeReason.STEP3, CompositeReason.STEP4):
            assert remembered == []
            continue
        w = _ext_pow_by_steps(z, (n + 1) >> 1, ring)
        high = s1 >> (r2 - 1)
        assert remembered == ([(w.u, high, pow(w.u, high, n))] if derives else []), (ring, z)
        assert verdict.is_probable_prime == step5_naive(z, ring), (ring, z)
        key = (family, r2 if family == "prime" else None, verdict.is_probable_prime)
        passed[key] = passed.get(key, 0) + 1
    want = {("prime", k, True) for k in range(1, 9)} | {("mersenne", None, True)}
    want |= {(family, None, ok) for family in ("composite", "n = 35") for ok in (False, True)}
    assert set(passed) == want, passed
    assert min(passed.values()) >= 5, passed


def test_step5_chain_matches_the_ladders_with_a_non_scalar_w():
    rng = random.Random(20261022)
    non_scalar_w = reached = 0
    for i in range(3000):
        n = rng.randrange(3, 3000) | 1
        if i % 3 == 0:
            ring = ExtensionRing.general(n, rng.randrange(n), rng.randrange(n))
        else:
            ring = ExtensionRing.pure(n, rng.randrange(1, n), small=i % 3 == 2)
        z = QuadExtElement(rng.randrange(n), rng.randrange(n))
        r2, s2 = two_adic_split(n + 1)
        got, want = OpCounter(), OpCounter()
        y = _ext_pow_by_steps(z, s2, ring, want)
        w = y
        for _ in range(r2 - 1):
            w = ext_square(w, ring, want)
        assert step5_chain(z, ring, got) == _step5_by_ladders(y, w, r2, ring, want), (ring, z)
        assert got.as_dict() == want.as_dict(), (ring, z)
        non_scalar_w += w[1] != 0
        reached += bool(_tail_against_the_ladders(y, ring)[1])
    assert non_scalar_w > 2000 and reached >= 10, (non_scalar_w, reached)


def test_a_scalar_y_books_the_ladder_contract():
    # for p = 3 mod 4, w = y^(2^(r2-1)) squares y = z^s2 at least once; with
    # y scalar each of those steps still books a full extension square
    rng = random.Random(20261021)
    x = QuadExtElement(0, 1)
    for k in (2, 3, 4, 6):
        p = _prime_with_v2(rng, k, 16)
        r2, s2 = two_adic_split(p + 1)
        steps, mults = (p + 1).bit_length() - 2, bin(s2).count("1") - 1
        # pure form: z = e^(2^r2) makes y = e^(p+1) = N(e) a scalar
        c = sample_nonresidue(p, rng)
        for small in (False, True):
            ring = ExtensionRing.pure(p, c, small=small)
            z = QuadExtElement(0, 0)
            while z.v == 0:
                z = ext_pow(QuadExtElement(rng.randrange(p), rng.randrange(1, p)), 1 << r2, ring)
            assert ext_pow(z, s2, ring).v == 0
            ph = PhaseCounters.fresh()
            verdict = rqft(p, RqftParams(z.v, z.u, c), phases=ph, force_extension_steps=True, small_c=small)
            assert verdict.is_probable_prime
            full, tiny = (2, 1) if small else (3, 0)
            assert ph.squaring_steps == OpCounter(full_mults=full * steps, small_mults=tiny * steps), (p, small)
            assert ph.multiply_steps == OpCounter(full_mults=full * mults, small_mults=tiny * mults), (p, small)
        # general form: small (b, c) with x^s2 scalar
        pairs = [
            (b, c) for b in range(40) for c in range(1, 40)
            if jacobi(b * b + 4 * c, p) == -1 and jacobi(p - c, p) == 1
            and ext_pow(x, s2, ExtensionRing.general(p, b, c)).v == 0
        ]
        assert pairs, p
        for b, c in pairs[:3]:
            ph = PhaseCounters.fresh()
            assert qft(p, QftParams(b, c), phases=ph, force_extension_steps=True).is_probable_prime
            assert ph.squaring_steps == OpCounter(squarings=2 * steps, full_mults=steps, param_mults=2 * steps)
            assert ph.multiply_steps == OpCounter(param_mults=2 * mults), (p, b, c)


def test_phase_counters_split_and_total():
    ph = PhaseCounters.fresh()
    ph.squaring_steps.squarings += 4
    ph.multiply_steps.param_mults += 2
    ph.tail.full_mults += 3
    total = ph.total()
    assert (total.squarings, total.full_mults, total.param_mults) == (4, 3, 2)
    zero = "OpCounter(squarings=0, full_mults=0, small_mults=0, param_mults=0, small_bits_ratio=0.0)"
    assert repr(PhaseCounters.fresh()) == f"PhaseCounters(squaring_steps={zero}, multiply_steps={zero}, tail={zero})"
    # equality compares the three counters; mutable, so unhashable
    assert PhaseCounters.fresh() == PhaseCounters(OpCounter(), OpCounter(), OpCounter())
    assert ph != PhaseCounters.fresh()
    assert ph == PhaseCounters(OpCounter(4), OpCounter(param_mults=2), OpCounter(full_mults=3))
    with pytest.raises(TypeError, match="unhashable type: 'PhaseCounters'"):
        hash(ph)


def test_qft_phases_cover_the_counter_total():
    p = 2500000033
    rng = random.Random(4)
    params = generate_qft_params(p, rng)
    counter = OpCounter()
    ph = PhaseCounters.fresh()
    assert qft(p, params, counter, phases=ph).is_probable_prime
    assert counter == ph.total()


def test_pure_form_mapping_preserves_conditions_and_verdicts():
    rng = random.Random(20240823)
    checked = 0
    while checked < 60:
        n = rng.randrange(5, 10**5) | 1
        try:
            params = generate_qft_params(n, rng)
        except (FactorFound, ParamSearchExhausted):
            continue
        mapped = pure_form_of(n, params)
        assert mapped.a == 1
        assert jacobi(mapped.c, n) == -1
        assert (mapped.b**2 - mapped.c) % n == (n - params.c) % n
        v1 = qft(n, params, force_extension_steps=True)
        v2 = rqft(n, mapped, force_extension_steps=True)
        assert v1 == v2, (n, params, mapped)
        checked += 1


def test_forcing_extension_steps_never_changes_the_answer():
    rng = random.Random(9)
    for p in primes_up_to(1000):
        if p == 2:
            continue
        params = generate_qft_params(p, rng)
        assert qft(p, params, force_extension_steps=True) == qft(p, params)


def test_boundary_window_above_the_division_bound():
    # all composites in (B^2, B^2 + 10^4) have a prime factor <= B, so the
    # sieve survivors are exactly the primes there; the quadratic tests
    # must accept every one of them with extension steps actually running
    lo = TRIAL_DIVISION_BOUND**2 + 1
    hi = TRIAL_DIVISION_BOUND**2 + 10**4
    width = hi - lo + 1
    flags = bytearray([1]) * width
    for p in primes_up_to(TRIAL_DIVISION_BOUND):
        start = (-lo) % p
        flags[start::p] = bytes(len(range(start, width, p)))
    survivors = [lo + i for i in range(width) if flags[i]]
    assert 350 < len(survivors) < 600  # prime density sanity
    rng = random.Random(20240824)

    def mr_is_prime(n):
        d, r = n - 1, 0
        while d % 2 == 0:
            d //= 2
            r += 1
        for a in (2, 3, 5, 7):  # deterministic below 3215031751
            x = pow(a, d, n)
            if x in (1, n - 1):
                continue
            for _ in range(r - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
        return True

    for n in survivors:
        assert mr_is_prime(n)
        counter = OpCounter()
        params = generate_qft_params(n, rng)
        assert qft(n, params, counter).is_probable_prime, (n, params)
        assert counter.squarings > 0  # the extension steps really ran
        c = sample_nonresidue(n, rng)
        rp = generate_rqft_params(n, c, rng)
        assert rqft(n, rp).is_probable_prime, (n, rp)


def test_fermat_fixtures():
    assert fermat_test(341, 2).is_probable_prime  # the classical base-2 liar
    v = fermat_test(341, 3)
    assert v == Verdict.composite(CompositeReason.FERMAT)
    assert fermat_test(7, 5).is_probable_prime
    v = fermat_test(341, 33)
    assert v.reason is CompositeReason.SHARED_FACTOR and v.factor == 11
    with pytest.raises(ValueError):
        fermat_test(341, 682)


def test_strong_fixtures():
    assert strong_test(2047, 2).is_probable_prime  # strong liar base 2
    assert strong_test(341, 2) == Verdict.composite(CompositeReason.STRONG)
    assert strong_test(104729, 2).is_probable_prime
    v = strong_test(341, 33)
    assert v.reason is CompositeReason.SHARED_FACTOR and v.factor == 11


def test_strong_agrees_with_reference_on_odd_numbers():
    def reference(n, a):
        d, r = n - 1, 0
        while d % 2 == 0:
            d //= 2
            r += 1
        x = pow(a, d, n)
        if x in (1, n - 1):
            return True
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                return True
        return False

    rng = random.Random(12)
    for _ in range(300):
        n = rng.randrange(5, 10**6) | 1
        a = rng.randrange(2, n - 1)
        if a % n == 0 or __import__("math").gcd(a, n) > 1:
            continue
        assert strong_test(n, a).is_probable_prime == reference(n, a), (n, a)


def test_lucas_sequence_values():
    # U_0 = 0, U_1 = 1, U_2 = P; V_0 = 2, V_1 = P
    assert lucas_uv(3, 7, 0, 101) == (0, 2)
    assert lucas_uv(3, 7, 1, 101) == (1, 3)
    assert lucas_uv(3, 7, 2, 101) == (3, (9 - 14) % 101)


def test_lucas_uv_matches_naive_recurrence():
    def naive(P, Q, k, n):
        u0, u1, v0, v1 = 0, 1, 2 % n, P % n
        for _ in range(k):
            u0, u1 = u1, (P * u1 - Q * u0) % n
            v0, v1 = v1, (P * v1 - Q * v0) % n
        return u0, v0

    rng = random.Random(17)
    for _ in range(150):
        n = rng.randrange(3, 10**6) | 1
        P, Q = rng.randrange(n), rng.randrange(n)
        k = rng.randrange(500)
        assert lucas_uv(P, Q, k, n) == naive(P, Q, k, n), (P, Q, k, n)


def _lucas_uv_by_inverse(P, Q, k, n, counter=None):
    """The reference doubling ladder, halving by a product with the inverse of 2."""
    if k == 0:
        return 0, 2 % n
    P %= n
    Q %= n
    D = (P * P - 4 * Q) % n
    inv2 = (n + 1) // 2
    U, V, Qk = 1, P, Q
    for bit in bin(k)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if counter is not None:
            counter.full_mults += 1
            counter.squarings += 2
        if bit == "1":
            U, V, Qk = (P * U + V) * inv2 % n, (D * U + P * V) * inv2 % n, Qk * Q % n
            if counter is not None:
                counter.full_mults += 6
    return U, V


def _lucas_cases(rng):
    """(P, Q, k, n): random, then 2048-bit n with k = n -+ 1, k around the
    window crossover, the degenerate P = 0 mod n and P^2 = 4Q mod n, and n
    around the kernel's fold crossover."""
    for i in range(400):
        n = max(3, rng.getrandbits(rng.randrange(2, 600)) | 1) if i % 4 else rng.randrange(3, 100) | 1
        P, Q = rng.randrange(-n, 2 * n), rng.randrange(-n, 2 * n)
        yield P, Q, i if i < 4 else rng.getrandbits(rng.choice((1, 2, 8, 64, 400))), n
    n = rng.getrandbits(2048) | 1 << 2047 | 1
    for k in (n - 1, n + 1):
        yield rng.randrange(n), rng.randrange(n), k, n
    for bits in (126, 127, 128, 129):
        n = rng.getrandbits(bits) | 1 << (bits - 1) | 1
        for k in (1 << (bits - 1), rng.getrandbits(bits) | 1 << (bits - 1), (1 << bits) - 1):
            P, Q = rng.randrange(n), rng.randrange(n)
            yield from ((P, Q, k, n), (n * rng.randrange(-2, 3), Q, k, n), (2 * P, P * P + n * 4, k, n))
    for bits in range(quadext._FOLD_MIN_BITS - 1, quadext._FOLD_MIN_BITS + 2):
        n = rng.getrandbits(bits) | 1 << (bits - 1) | 1
        for k in (n - 1, n + 1, rng.getrandbits(100)):
            yield rng.randrange(n), rng.randrange(n), k, n
        yield n - 2, n - 1, n + 1, n  # D = 8, d = D/4 = 2


def test_lucas_uv_matches_the_inverse_of_two_ladder():
    rng = random.Random(20261018)
    for P, Q, k, n in _lucas_cases(rng):
        got, want = OpCounter(), OpCounter()
        assert lucas_uv(P, Q, k, n, got) == _lucas_uv_by_inverse(P, Q, k, n, want), (P, Q, k, n)
        assert got.as_dict() == want.as_dict()


def test_lucas_uv_and_ext_pow_share_the_window_crossover(monkeypatch):
    widths, kernel = {"lucas_uv": [], "ext_pow": []}, quadext._pure_power

    def recorder(caller):
        def recorded(*args, **kwargs):
            widths[caller].append((args[2].bit_length(), args[-1]))
            return kernel(*args, **kwargs)

        return recorded

    monkeypatch.setattr(quadext, "_pure_power", recorder("ext_pow"))
    monkeypatch.setattr(frobenius, "_pure_power", recorder("lucas_uv"))
    rng = random.Random(20261019)
    for bits in (126, 127, 128, 129):
        n = rng.getrandbits(bits) | 1 << (bits - 1) | 1
        k = rng.getrandbits(bits) | 1 << (bits - 1)
        lucas_uv(rng.randrange(n), rng.randrange(n), k, n)
        ring = ExtensionRing.general(n, rng.randrange(n), rng.randrange(n))
        ext_pow(QuadExtElement(0, 1), k, ring, generic_squares=True)
    assert widths["lucas_uv"] == widths["ext_pow"] == [(126, 1), (127, 1), (128, 4), (129, 4)]


def test_lucas_test_matches_sympy_selfridge_oracle():
    def selfridge(n):
        """Selfridge's D and Q, or None where the search meets a D sharing a
        factor with n (the oracle's search decides those n by itself)."""
        D = 5
        while (j := jacobi(D, n)) != -1:
            if j == 0:
                return None
            D = -D - 2 if D > 0 else -D + 2
        return D, (1 - D) // 4

    disagree, pseudoprimes, compared = [], [], 0
    for n in range(5, 10**5, 2):
        if math.isqrt(n) ** 2 == n or (params := selfridge(n)) is None:
            continue
        D, Q = params
        if math.gcd(n, Q * D) != 1:
            continue
        compared += 1
        verdict = lucas_test(n, 1, Q).is_probable_prime
        if verdict != is_lucas_prp(n):
            disagree.append(n)
        if verdict and not isprime(n):
            pseudoprimes.append(n)
    assert disagree == [] and compared > 30000
    assert pseudoprimes[:3] == [323, 377, 1159] and len(pseudoprimes) > 50


def test_lucas_fixtures():
    assert lucas_test(11, 1, -1).is_probable_prime
    assert lucas_test(323, 1, -1).is_probable_prime  # smallest (1,-1) pseudoprime
    assert lucas_test(341, 1, -1) == Verdict.composite(CompositeReason.LUCAS)
    v = lucas_test(341, 1, 11)
    assert v.reason is CompositeReason.SHARED_FACTOR and v.factor == 11
    with pytest.raises(ValueError):
        lucas_test(11, 2, 1)  # D = 0
    with pytest.raises(ValueError):
        lucas_test(7, 1, 7)  # n divides 2QD
    # 15 | Q*D with D = -24, but gcd(15, Q) = 5 is a proper factor
    assert lucas_test(15, 4, 10) == Verdict.composite(CompositeReason.SHARED_FACTOR, 5)
    assert lucas_test(15, 3, -21) == Verdict.composite(CompositeReason.SHARED_FACTOR, 3)
    with pytest.raises(ValueError):
        lucas_test(15, 1, 15)  # n divides Q
    with pytest.raises(ValueError):
        lucas_test(15, 8, 1)  # n divides D = 60


def test_lucas_rounds_report_a_factor_shared_with_q_or_d():
    # small composites often draw n | Q*D with neither Q nor D a multiple of n
    for seed in range(200):
        for n in (15, 21, 35, 45, 1729):
            verdict, _ = run_rounds(n, "lucas", random.Random(seed), 4, OpCounter())
            if verdict.factor is not None:
                assert 1 < verdict.factor < n and n % verdict.factor == 0


def _baseline_rounds_by_calls(n, method, rng, rounds, counter, base=None):
    """The reference: draw each round's base or (P, Q) and make one baseline test call."""
    for k in range(1, rounds + 1):
        if method == "lucas":
            while True:
                P, Q = rng.randrange(1, n), rng.randrange(1, n)
                if (P * P - 4 * Q) % n:
                    break
            verdict = lucas_test(n, P, Q, counter)
        else:
            b = base if base is not None else rng.randrange(2, n - 1) if n > 4 else 2
            verdict = (fermat_test if method == "fermat" else strong_test)(n, b, counter)
        if not verdict.is_probable_prime:
            return verdict, k
    return verdict, rounds


def test_run_rounds_matches_a_baseline_call_per_round():
    rng = random.Random(20261018)
    numbers = [3, 5, 7, 9, 15, 341, 561, 1729, 2047, 3215031751, 1000003 * 1000033]
    numbers += [nextprime(rng.getrandbits(bits)) for bits in (20, 64, 256)] + _chernick_carmichaels(2)
    numbers += [rng.getrandbits(64) | 1 for _ in range(30)]
    # seed 193 draws Lucas parameters for 45 with 45 | 2*Q*D in its first round: gcd(45, Q) = 15
    for n, seed in [(n, n) for n in numbers] + [(45, 193)]:
        for method in ("fermat", "strong", "lucas"):
            for rounds in (1, 4):
                counter, ref_counter = OpCounter(), OpCounter()
                rng, ref_rng = random.Random(seed), random.Random(seed)
                try:
                    expected = _baseline_rounds_by_calls(n, method, ref_rng, rounds, ref_counter)
                except ValueError as exc:  # lucas parameters that n divides 2*Q*D for
                    with pytest.raises(ValueError, match=re.escape(str(exc))):
                        run_rounds(n, method, rng, rounds, counter)
                else:
                    assert run_rounds(n, method, rng, rounds, counter) == expected, (n, method)
                assert counter.as_dict() == ref_counter.as_dict()
                assert rng.getstate() == ref_rng.getstate()
    # a fixed base draws nothing
    for method in ("fermat", "strong"):
        rng = random.Random(1)
        state = rng.getstate()
        expected = _baseline_rounds_by_calls(341, method, rng, 3, None, base=2)
        assert run_rounds(341, method, rng, 3, None, base=2) == expected
        assert rng.getstate() == state


def test_lucas_accepts_primes_with_random_parameters():
    rng = random.Random(23)
    for p in (101, 10007, 104729):
        for _ in range(10):
            P = rng.randrange(1, p)
            Q = rng.randrange(1, p)
            if (P * P - 4 * Q) % p == 0:
                continue
            v = lucas_test(p, P, Q)
            assert v.is_probable_prime, (p, P, Q)


def test_composite_verdict_factors_are_nontrivial():
    rng = random.Random(29)
    for _ in range(200):
        n = rng.randrange(9, 10**6) | 1
        v = qft(n, QftParams(1, 1))
        if v.factor is not None:
            assert 1 < v.factor < n and n % v.factor == 0
