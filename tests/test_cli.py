"""Command-line behavior: subcommands, output formats, exit codes."""

import io
import json
import re
import sys
from pathlib import Path

import pytest

from frobprime import frobenius, nonresidue
from frobprime.cli import main
from frobprime.nonresidue import SearchOutcome

GOLDEN = json.loads((Path(__file__).parent / "data" / "golden_test_stdin.json").read_text())


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


def test_a_bad_delta_is_rejected_before_the_first_line(capsys, monkeypatch):
    error = "error: delta must lie in (1/(3*sqrt(e)), 1) = (0.2021768866, 1); got 1/10\n"
    # 11 is decided by the screen and 2**100 + 277 only after the search
    for n in ("11", str(2**100 + 277)):
        code, out, err = run(capsys, "test", n, "--method", "rqft-smallc", "--delta", "0.1")
        assert (code, out, err) == (2, "", error)
    monkeypatch.setattr("sys.stdin", io.StringIO("11\n13\n2500000033\n"))
    code, out, err = run(capsys, "test", "--stdin", "--method", "rqft-smallc", "--delta", "0.1")
    assert (code, out, err) == (2, "", error)
    # the other methods do not search and ignore --delta, as before
    code, out, _ = run(capsys, "test", "11", "--method", "qft", "--delta", "0.1")
    assert code == 0 and "verdict=probable-prime" in out


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


@pytest.mark.parametrize("run_key", sorted(GOLDEN["runs"]))
def test_stdin_batch_matches_the_golden_output(capsys, monkeypatch, run_key):
    # expected output recorded before each n was decided in one pass; the
    # batch mixes primes = 1 and 3 mod 4 at 64 and 256 bits, a prime below
    # B^2, Chernick Carmichael numbers, a step-3 semiprime, small-factor
    # composites and 2
    method, output = run_key.split("/")
    expected = GOLDEN["runs"][run_key]
    monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(GOLDEN["batch"]) + "\n"))
    code, out, err = run(capsys, "test", "--stdin", "--method", method, "--rounds", str(GOLDEN["rounds"]),
                         "--seed", str(GOLDEN["seed"]), "--output", output)
    assert (code, err) == (expected["exit"], "")
    assert out.splitlines() == expected["stdout"]


def test_an_exhausted_line_is_reported_and_the_batch_goes_on(capsys, monkeypatch):
    batch = "4611686018427388039\n15\n1000036000099\n"  # prime, 3 * 5, 1000003 * 1000033
    errors = {
        "qft": "no valid (b, c) for n={n} in 0 draws",
        "rqft": "no nonresidue found for n={n} in 0 draws",
        "rqft-smallc": "no nonresidue below the cap for n={n} (7 candidates examined)",
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


def test_help_and_bad_usage_exit_codes(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "no-such-command")[0] == 2
    assert run(capsys, "test", "15", "--method", "bogus")[0] == 2
    assert run(capsys, "test", "15", "--rounds", "0")[0] == 2
