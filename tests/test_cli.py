"""Command-line behavior: subcommands, output formats, exit codes."""

import argparse
import contextlib
import io
import json
import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobprime import arith, cli, frobenius, nonresidue
from frobprime.cli import main
from frobprime.frobenius import CompositeReason, Verdict
from frobprime.nonresidue import SearchOutcome
from frobprime.quadext import OpCounter

DATA = Path(__file__).parent / "data"
GOLDEN = json.loads((DATA / "golden_test_stdin.json").read_text())
GOLDEN_SCAN = json.loads((DATA / "golden_scan_stdin.json").read_text())
GOLDEN_SUBCOMMANDS = json.loads((DATA / "golden_subcommands.json").read_text())["cases"]
README = Path(__file__).parents[1] / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fermat_liar_exits_zero(capsys):
    code, out, _ = run(capsys, "test", "341", "--method", "fermat", "--base", "2")
    assert code == 0
    assert "verdict=probable-prime" in out


def test_fermat_witness_exits_one(capsys):
    code, out, _ = run(capsys, "test", "341", "--method", "fermat", "--base", "3")
    assert code == 1
    assert "reason=fermat-congruence" in out


def test_quadratic_methods_screen_composites(capsys):
    code, out, _ = run(capsys, "test", "25", "--method", "rqft")
    assert code == 1
    assert "reason=small-factor" in out and "factor=5" in out


def test_even_and_tiny_inputs_are_usage_errors(capsys):
    code, _, err = run(capsys, "test", "4")
    assert code == 2 and "odd" in err
    code, _, err = run(capsys, "test", "1")
    assert code == 2 and "at least 2" in err
    code, _, _ = run(capsys, "test", "abc")
    assert code == 2


def test_two_is_probable_prime(capsys):
    code, out, _ = run(capsys, "test", "2")
    assert code == 0
    assert "verdict=probable-prime" in out


def test_a_small_n_builds_no_sieve_product(capsys):
    # the start-up probe of the benchmark: 101 needs no prime above 223
    arith._rest_tree.cache_clear()
    arith._rest_prefix_product.cache_clear()
    assert run(capsys, "test", "101")[0] == 0
    assert arith._rest_tree.cache_info().currsize == 0
    assert arith._rest_prefix_product.cache_info().currsize == 0


def test_missing_and_conflicting_inputs(capsys):
    code, _, err = run(capsys, "test")
    assert code == 2 and "stdin" in err
    code, _, err = run(capsys, "test", "25", "--stdin")
    assert code == 2


def test_extension_run_above_the_screen_range(capsys):
    code, out, _ = run(capsys, "test", "2500000033", "--method", "qft", "--seed", "1")
    assert code == 0
    assert "verdict=probable-prime" in out
    assert "seed=1" in out
    assert re.search(r"ops\.squarings=[1-9]", out)  # ring work actually happened


def test_seed_is_echoed_when_not_given(capsys):
    code, out, _ = run(capsys, "test", "2500000033", "--method", "rqft")
    assert code == 0
    assert re.search(r"seed=\d+", out)


def test_seeded_runs_are_reproducible(capsys):
    args = ("test", "2500000033", "--method", "rqft", "--seed", "99", "--output", "json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert (code1, code2) == (0, 0)
    assert out1 == out2


def test_json_and_plain_report_the_same_numbers(capsys):
    base = ("test", "341", "--method", "strong", "--base", "2")
    _, plain, _ = run(capsys, *base)
    _, as_json, _ = run(capsys, *base, "--output", "json")
    doc = json.loads(as_json)
    assert f"n={doc['n']}" in plain
    assert f"verdict={doc['verdict']}" in plain
    for key, value in doc["ops"].items():
        assert f"ops.{key}={value}" in plain


def test_stdin_accepts_batches(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("7919\n341\n"))
    code, out, _ = run(capsys, "test", "--stdin", "--method", "strong", "--seed", "11")
    assert code == 1  # 341 is composite
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert "n=7919" in lines[0] and "verdict=probable-prime" in lines[0]
    assert "n=341" in lines[1] and "verdict=composite" in lines[1]


def test_stdin_rejects_garbage(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("seven\n"))
    code, _, err = run(capsys, "test", "--stdin")
    assert code == 2 and "seven" in err


@pytest.mark.parametrize("text", ["", " \n\t\n\n"], ids=["empty", "whitespace-only"])
def test_an_empty_batch_is_a_usage_error(capsys, monkeypatch, text):
    def drawn(*_):
        raise AssertionError("a batch with no n drew a seed or built a remainder tree")

    monkeypatch.setattr(cli.random, "SystemRandom", drawn)
    monkeypatch.setattr(cli, "_load_batch_residues", drawn)
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert run(capsys, "test", "--stdin", "--method", "rqft") == (2, "", "error: no n given on stdin\n")


_RATIOS = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
_OPS = st.builds(OpCounter, *[st.integers(0, 10**9)] * 4, small_bits_ratio=_RATIOS)


@settings(max_examples=300, deadline=None)
@given(
    n=st.one_of(st.integers(2, 2**70), st.integers(10**4300, 10**4320)),
    method=st.sampled_from(cli._METHODS),
    factor=st.one_of(st.none(), st.integers(2, 10**30)),
    reason=st.one_of(st.none(), st.sampled_from(CompositeReason)),
    rounds_run=st.integers(0, 100),
    seed=st.integers(-2**70, 2**70),
    ops=_OPS,
)
def test_the_record_writer_matches_json_and_the_plain_rule(n, method, factor, reason, rounds_run, seed, ops):
    # json.dumps of the whole record and _emit of it with ops spread into
    # dotted keys are the reference for both lines
    record = {
        "n": n,
        "method": method,
        "verdict": "probable-prime" if reason is None else "composite",
        "reason": None if reason is None else reason.value,
        "factor": factor,
        "rounds_run": rounds_run,
        "seed": seed,
        "ops": ops.as_dict(),
    }
    flat = {key: value for key, value in record.items() if key != "ops"}
    flat.update((f"ops.{key}", value) for key, value in record["ops"].items())
    verdict = Verdict(reason is None, reason, factor)
    # n runs past the 4300-digit int/str limit, lifted here as main lifts it
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        plain = io.StringIO()
        with contextlib.redirect_stdout(plain):
            cli._emit(flat, "plain")
        assert cli._json_line(n, method, verdict, rounds_run, seed, ops) == json.dumps(record, sort_keys=True)
        assert cli._plain_line(n, method, verdict, rounds_run, seed, ops) + "\n" == plain.getvalue()
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def test_stdin_reports_each_bad_line_and_tests_the_rest(capsys, monkeypatch):
    good = ["7919", "2500000033", "341", "1000000007"]
    batch = "-5\n7919\nseven\n2500000033 4\n\n341\n1\n1000000007\n"
    for method in ("rqft", "rqft-smallc", "lucas"):
        argv = ("test", "--stdin", "--method", method, "--seed", "11", "--rounds", "2", "--output", "json")
        monkeypatch.setattr("sys.stdin", io.StringIO(batch))
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert err.splitlines() == [
            "error: line 1: n must be at least 2; got -5",
            "error: line 3: invalid literal for int() with base 10: 'seven'",
            "error: line 4: n must be odd (or exactly 2); got 4",
            "error: line 7: n must be at least 2; got 1",
        ]
        # skipped lines draw nothing from the seeded generator
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(good) + "\n"))
        clean_code, clean_out, clean_err = run(capsys, *argv)
        assert (clean_code, clean_err) == (1, "")  # 341 is composite
        assert out == clean_out
        assert [json.loads(line)["n"] for line in out.splitlines()] == [int(n) for n in good]
    # bad lines between 64-bit n that share one remainder tree: the batch
    # step skips them, and 1009 * p is still found by the tree's residue
    good = ["9223372036855775839", "18176528096067482287", "18446744073708551551"]
    batch = f"{good[0]}\nabc\n{good[1]} 18446744073709551614\n-5\n{good[2]}\n"
    argv = ("test", "--stdin", "--method", "qft", "--seed", "11", "--rounds", "2", "--output", "json")
    monkeypatch.setattr("sys.stdin", io.StringIO(batch))
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.splitlines() == [
        "error: line 2: invalid literal for int() with base 10: 'abc'",
        "error: line 3: n must be odd (or exactly 2); got 18446744073709551614",
        "error: line 4: n must be at least 2; got -5",
    ]
    monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(good) + "\n"))
    assert run(capsys, *argv) == (1, out, "")
    assert [(r["n"], r["verdict"], r["factor"]) for r in map(json.loads, out.splitlines())] == [
        (int(good[0]), "probable-prime", None),
        (int(good[1]), "composite", 1009),
        (int(good[2]), "probable-prime", None),
    ]


def test_a_bad_delta_is_rejected_before_the_first_line(capsys, monkeypatch):
    error = "error: delta must lie in (1/(3*sqrt(e)), 1) = (0.2021768866, 1); got 1/10\n"
    # 11 is decided by the screen and 2**100 + 277 only after the search
    for n in ("11", str(2**100 + 277)):
        code, out, err = run(capsys, "test", n, "--method", "rqft-smallc", "--delta", "0.1")
        assert (code, out, err) == (2, "", error)
    monkeypatch.setattr("sys.stdin", io.StringIO("11\n13\n2500000033\n"))
    code, out, err = run(capsys, "test", "--stdin", "--method", "rqft-smallc", "--delta", "0.1")
    assert (code, out, err) == (2, "", error)



def test_an_option_the_method_does_not_take_is_rejected_before_the_first_line(capsys, monkeypatch):
    for method in ("qft", "rqft", "fermat", "strong", "lucas"):
        for delta in ("0.1", "0.25"):  # in range or not
            assert run(capsys, "test", "11", "--method", method, "--delta", delta) == (
                2, "", f"error: delta applies to rqft-smallc only, not {method}\n"
            )
    for method in ("qft", "rqft", "rqft-smallc", "lucas"):
        error = f"error: base applies to fermat and strong only, not {method}\n"
        assert run(capsys, "test", "11", "--method", method, "--base", "7") == (2, "", error)
        monkeypatch.setattr("sys.stdin", io.StringIO("2\n11\n2500000033\n"))
        assert run(capsys, "test", "--stdin", "--method", method, "--base", "7") == (2, "", error)
    # n = 2 is decided without a round, but the options are checked first
    assert run(capsys, "test", "2", "--method", "lucas", "--base", "3")[0] == 2


def test_a_base_that_is_a_multiple_of_one_line_is_reported_for_that_line(capsys, monkeypatch):
    for method in ("fermat", "strong"):
        argv = ("test", "--stdin", "--method", method, "--base", "7", "--seed", "1")
        monkeypatch.setattr("sys.stdin", io.StringIO("7 11\n13\n"))
        code, out, err = run(capsys, *argv)
        assert (code, err) == (2, "error: line 1: base is a multiple of n\n")
        monkeypatch.setattr("sys.stdin", io.StringIO("11\n13\n"))
        assert run(capsys, *argv) == (0, out, "")
        assert [line.split()[0] for line in out.splitlines()] == ["n=11", "n=13"]
        # a single n still prints the bare error and exits 2
        assert run(capsys, "test", "7", "--method", method, "--base", "14") == (
            2, "", "error: base is a multiple of n\n"
        )


@pytest.mark.parametrize("golden, run_key", [
    *(pytest.param(GOLDEN, key, id=key) for key in sorted(GOLDEN["runs"])),
    *(pytest.param(GOLDEN_SCAN, key, id=f"scan/{key}") for key in sorted(GOLDEN_SCAN["runs"])),
])
def test_stdin_batch_matches_the_golden_output(capsys, monkeypatch, golden, run_key):
    # expected output recorded before each n was decided in one pass; the
    # batch mixes primes = 1 and 3 mod 4 at 64 and 256 bits, a prime below
    # B^2, Chernick Carmichael numbers, a step-3 semiprime, small-factor
    # composites and 2.  The scan batch was recorded before a batch shared
    # one remainder tree: 256 consecutive odd 64-bit n, products of sieve
    # primes above 223 with a 64-bit prime, a repeated n, a 2048-bit prime.
    method, output = run_key.split("/")
    expected = golden["runs"][run_key]
    monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(golden["batch"]) + "\n"))
    code, out, err = run(capsys, "test", "--stdin", "--method", method, "--rounds", str(golden["rounds"]),
                         "--seed", str(golden["seed"]), "--output", output)
    assert (code, err) == (expected["exit"], "")
    assert out.splitlines() == expected["stdout"]


def test_an_exhausted_line_is_reported_and_the_batch_goes_on(capsys, monkeypatch):
    batch = "4611686018427388039\n15\n1000036000099\n"  # prime, 3 * 5, 1000003 * 1000033
    errors = {
        "qft": "no valid (b, c) for n={n} in 0 draws",
        "rqft": "no nonresidue found for n={n} in 0 draws",
        # the exhausted search falls back to rqft's sampler, which is exhausted too
        "rqft-smallc": "no nonresidue found for n={n} in 0 draws",
    }
    monkeypatch.setattr(frobenius, "RETRY_CAP", 0)
    # the search is looked up on its module at call time, so this stub is seen
    monkeypatch.setattr(nonresidue, "find_small_nonresidue", lambda n, delta=None: SearchOutcome(None, None, 7))
    for method, error in errors.items():
        monkeypatch.setattr("sys.stdin", io.StringIO(batch))
        code, out, err = run(capsys, "test", "--stdin", "--method", method, "--seed", "5", "--rounds", "2")
        assert code == 3
        assert err.splitlines() == [
            "error: line 1: " + error.format(n=4611686018427388039),
            "error: line 3: " + error.format(n=1000036000099),
        ]
        assert out.splitlines() == [
            f"n=15 method={method} verdict=composite reason=small-factor factor=3 rounds_run=0 seed=5 "
            "ops.squarings=0 ops.full_mults=0 ops.small_mults=0 ops.param_mults=0 ops.small_bits_ratio=0.0"
        ]
        # a single n still prints the bare error and exits 3
        code, out, err = run(capsys, "test", "1000036000099", "--method", method)
        assert (code, out) == (3, "")
        assert err == "error: " + error.format(n=1000036000099) + "\n"


def test_numbers_over_4300_digits(capsys, monkeypatch):
    # Python's int/str conversion limit is lifted inside main only
    n = 5 * (2**15000 + 1)  # 4517 digits; 3 does not divide 2**15000 + 1
    saved = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        digits = str(n)
        sys.set_int_max_str_digits(4300)
        code, out, _ = run(capsys, "test", digits, "--seed", "3", "--output", "json")
        assert code == 1
        assert f'"n": {digits},' in out
        assert '"factor": 5,' in out and '"reason": "small-factor"' in out
        assert sys.get_int_max_str_digits() == 4300
        monkeypatch.setattr("sys.stdin", io.StringIO(f"{digits}\n"))
        code, out, err = run(capsys, "test", "--stdin", "--seed", "3")
        assert (code, err) == (1, "")
        assert out.startswith(f"n={digits} method=qft verdict=composite reason=small-factor factor=5 ")
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(saved)


def test_lucas_method_runs(capsys):
    code, out, _ = run(capsys, "test", "2500000033", "--method", "lucas", "--seed", "5", "--rounds", "2")
    assert code == 0
    assert "rounds_run=2" in out


def test_lucas_parameters_sharing_a_factor_with_n_report_it(capsys):
    # seed 3 draws P = 4, Q = 10 for n = 15: 15 | 2*Q*D, and gcd(15, Q) = 5
    code, out, err = run(capsys, "test", "15", "--method", "lucas", "--seed", "3")
    assert (code, err) == (1, "")
    assert "reason=shared-factor factor=5 rounds_run=1" in out


def test_small_c_method_reports_probable_prime(capsys):
    code, out, _ = run(capsys, "test", "2500000033", "--method", "rqft-smallc", "--seed", "3")
    assert code == 0
    assert "verdict=probable-prime" in out


def test_find_c_success(capsys):
    code, out, _ = run(capsys, "find-c", "13")
    assert code == 0
    assert "outcome=small-c" in out and "c=2" in out and "examined=1" in out


def test_find_c_factor(capsys):
    code, out, _ = run(capsys, "find-c", "15")
    assert code == 1
    assert "outcome=factor" in out and "factor=3" in out


def test_find_c_cap_reached(capsys):
    code, out, _ = run(capsys, "find-c", "169")
    assert code == 3
    assert "outcome=not-found" in out
    code, out, _ = run(capsys, "find-c", "119")
    assert code == 3


def test_find_c_rejects_low_delta(capsys):
    code, _, err = run(capsys, "find-c", "101", "--delta", "0.2")
    assert code == 2 and "delta" in err


def test_density_json_output(capsys):
    code, out, _ = run(capsys, "density", "--n", "15", "--delta", "0.3", "--output", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["proportion"] == 0.5 and doc["mode"] == "exhaustive"


def test_density_rejects_square_modulus(capsys):
    code, _, err = run(capsys, "density", "--n", "9")
    assert code == 2 and "square" in err


def test_density_sampled_output_is_byte_deterministic(capsys):
    args = (
        "density", "--n", "1000000000039", "--delta", "0.55",
        "--sample-size", "400", "--seed", "7", "--output", "json",
    )
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert (code1, code2) == (0, 0)
    assert out1 == out2
    assert json.loads(out1)["mode"] == "sampled"


def test_charsum_full_period(capsys):
    code, out, _ = run(capsys, "charsum", "--n", "15", "--gamma", "1")
    assert code == 0
    assert "charsum=0" in out


def test_charsum_rejects_bad_gamma(capsys):
    code, _, _ = run(capsys, "charsum", "--n", "15", "--gamma", "1.5")
    assert code == 2


def test_cost_table_contains_reference_entries(capsys):
    code, out, _ = run(capsys, "cost-table")
    assert code == 0
    assert "rqft-smallc" in out
    assert "2.86" in out and "3.90" in out and "4.40" in out


def test_cost_table_custom_rows(capsys):
    code, out, _ = run(capsys, "cost-table", "--m", "1.5")
    assert code == 0
    assert "3.50" in out  # qft column at m = 1.5


def test_bench_smoke(capsys):
    code, out, _ = run(capsys, "bench", "--bits", "64", "--trials", "1", "--reps", "30", "--seed", "1", "--output", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["bits"] == 64 and doc["m"] > 0


@pytest.mark.parametrize("case", GOLDEN_SUBCOMMANDS, ids=[" ".join(case["argv"]) for case in GOLDEN_SUBCOMMANDS])
def test_experiment_subcommands_match_the_golden_output(capsys, case):
    # recorded before the reports built their records from their fields and
    # the CLI passed --delta, --gamma, --seed and --m through unparsed; where
    # the output holds timings or a fresh seed, only its plain keys are pinned
    code, out, err = run(capsys, *case["argv"])
    assert (code, err) == (case["exit"], case["stderr"])
    if "keys" in case:
        assert [token.split("=")[0] for token in out.split()] == case["keys"]
    else:
        assert out == case["stdout"]


def test_a_two_fault_argv_reports_the_librarys_first_error(capsys):
    # --delta and --gamma reach the library unparsed, so its first check speaks
    cases = [
        (("find-c", "14", "--delta", "abc"), lambda: nonresidue.SearchConfig.for_modulus(14, "abc")),
        (("density", "--n", "9", "--delta", "abc"), lambda: nonresidue.density_experiment(9, "abc")),
        (("charsum", "--n", "16", "--gamma", "abc"), lambda: nonresidue.charsum_experiment(16, "abc")),
    ]
    for argv, call in cases:
        with pytest.raises(ValueError) as exc:
            call()
        assert run(capsys, *argv) == (2, "", f"error: {exc.value}\n")


def test_the_readme_synopsis_lists_each_subcommands_options():
    text = README.read_text()
    block = text.split("## Command line", 1)[1].split("```text\n", 1)[1].split("```", 1)[0]
    synopsis = {}
    for line in block.splitlines():
        line = line.split("#", 1)[0]
        if line.startswith("frobprime "):
            name = line.split()[1]
            synopsis[name] = set()
        synopsis[name] |= set(re.findall(r"--[a-z][a-z-]*", line))
    parsers = {}
    for name, (_, add_arguments) in cli._COMMANDS.items():
        parser = argparse.ArgumentParser()
        add_arguments(parser)
        parsers[name] = {option for action in parser._actions for option in action.option_strings} - {"-h", "--help"}
    assert synopsis == parsers


def test_help_and_bad_usage_exit_codes(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "no-such-command")[0] == 2
    assert run(capsys, "test", "15", "--method", "bogus")[0] == 2
    assert run(capsys, "test", "15", "--rounds", "0")[0] == 2
    assert run(capsys, "bench", "--bits", "64", "--trials", "1", "--reps", "0")[0] == 2
    assert run(capsys, "density", "--n", "1000000007", "--delta", "0.9", "--sample-size", "0", "--seed", "1")[0] == 2


def test_a_command_first_argv_builds_one_parser_and_reads_as_the_full_one(capsys, monkeypatch):
    def full_parser_run(*argv):
        try:
            args = cli.build_parser().parse_args(list(argv))
        except SystemExit as exc:
            code = 0 if exc.code in (0, None) else 2
        else:
            code = args.func(args)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    batch = "15\nseven\n1000003\n2500000033\n"
    argvs = [
        ("test", "--help"),
        ("test", "7", "--method", "nope"),
        ("test", "15", "--bogus"),  # leftovers: the full parser's usage line
        ("test", "15", "extra"),
        ("test", "--stdin", "--method", "rqft-smallc", "--rounds", "2", "--seed", "4", "--output", "json"),
        ("find-c", "119", "--output", "json"),
        ("density",),
        ("cost-table", "--m", "2", "--m", "1.3"),
    ]
    for argv in argvs:
        monkeypatch.setattr("sys.stdin", io.StringIO(batch))
        expected = full_parser_run(*argv)
        monkeypatch.setattr("sys.stdin", io.StringIO(batch))
        assert run(capsys, *argv) == expected, argv

    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert run(capsys, "test", "1000003", "--seed", "1")[0] == 0
    assert built == ["frobprime test"]
