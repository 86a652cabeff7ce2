"""Command-line interface.

Subcommands: ``test`` (run a primality test), ``find-c`` (small nonresidue
search), ``density`` / ``charsum`` (symbol statistics), ``bench`` (measure
the multiplication-to-squaring ratio), ``cost-table`` (per-iteration cost
model).  Exit status: 0 probable prime / success, 1 composite or factor
found, 2 usage error, 3 search or sampling exhausted.

``test`` decides each n of every method with one ``frobenius.run_rounds``
call and prints its record: for the extension methods the screen, the B^2
shortcut and the small-c search run once per n, and each of ``--rounds``
rounds only draws parameters and runs steps 3-5; the baselines (fermat,
strong, lucas) draw and test once per round.  n = 2 is decided here, as
probable prime with no rounds.  A bad ``--delta`` for rqft-smallc is
rejected before the first n.  With ``--stdin``, a bad line, a ``--base``
that is a multiple of that n, or an exhausted search or sampler is
reported as ``error: line K: ...`` and the rest of the batch is still
tested; the exit status is the worst one seen.

Every randomized subcommand accepts ``--seed`` and echoes the seed it used,
so any run can be reproduced byte for byte.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from typing import Optional

from .arith import as_fraction
from .cost_model import DELTA_STAR, cost_table, measure_m, render_cost_table
# initial_screen, qft, rqft, rqft_with_small_c, strong_test, lucas_test and
# the three samplers are not called here; benchmarks/tracing.py wraps them
# under these names.
from .frobenius import (  # noqa: F401
    ParamSearchExhausted,
    Verdict,
    generate_qft_params,
    generate_rqft_params,
    initial_screen,
    lucas_test,
    qft,
    rqft,
    rqft_with_small_c,
    run_rounds,
    sample_nonresidue,
    strong_test,
    _METHODS,
)
from .nonresidue import (
    NonresidueNotFound,
    SearchConfig,
    charsum_experiment,
    density_experiment,
    find_small_nonresidue,
    _search_delta,
)
from .quadext import OpCounter

EXIT_PROBABLE_PRIME = 0
EXIT_COMPOSITE = 1
EXIT_USAGE = 2
EXIT_EXHAUSTED = 3


def _emit(report: dict, output: str) -> None:
    if output == "json":
        print(json.dumps(report, sort_keys=True))
    else:
        parts = []
        for key, value in report.items():
            if value is None:
                continue
            if isinstance(value, dict):
                parts.extend(f"{key}.{k}={v}" for k, v in value.items())
            else:
                parts.append(f"{key}={value}")
        print(" ".join(parts))


def _test_one(n: int, args, rng: random.Random, seed: Optional[int]) -> "tuple[dict, int]":
    counter = OpCounter()
    if n == 2:
        verdict, rounds_run = Verdict.probable_prime(), 0
    else:
        verdict, rounds_run = run_rounds(n, args.method, rng, args.rounds, counter,
                                         delta=args.delta, base=args.base)
    report = {
        "n": n,
        "method": args.method,
        "verdict": "probable-prime" if verdict.is_probable_prime else "composite",
        "reason": verdict.reason.value if verdict.reason is not None else None,
        "factor": verdict.factor,
        "rounds_run": rounds_run,
        "seed": seed,
        "ops": counter.as_dict(),
    }
    code = EXIT_PROBABLE_PRIME if verdict.is_probable_prime else EXIT_COMPOSITE
    return report, code


def cmd_test(args) -> int:
    if args.stdin and args.n is not None:
        print("error: give n either as an argument or on stdin, not both", file=sys.stderr)
        return EXIT_USAGE
    if not args.stdin and args.n is None:
        print("error: no n given (pass it as an argument or use --stdin)", file=sys.stderr)
        return EXIT_USAGE
    if args.rounds < 1:
        print("error: --rounds must be at least 1", file=sys.stderr)
        return EXIT_USAGE
    if args.method == "rqft-smallc":
        _search_delta(args.delta)  # a ValueError here is a usage error before any output
    if args.stdin:
        entries = [
            (f"line {k}: ", token)
            for k, line in enumerate(sys.stdin.read().splitlines(), 1)
            for token in line.split()
        ]
    else:
        entries = [("", args.n)]
    seed = args.seed if args.seed is not None else random.SystemRandom().getrandbits(64)
    rng = random.Random(seed)
    worst = EXIT_PROBABLE_PRIME
    for where, token in entries:
        # a bad entry, or a --base that is a multiple of it, is reported and
        # skipped; it draws nothing from rng.  An exhausted search or sampler
        # is reported too, after its draws.
        try:
            report, code = _test_one(_valid_n(token), args, rng, seed)
        except ValueError as exc:
            print(f"error: {where}{exc}", file=sys.stderr)
            worst = max(worst, EXIT_USAGE)
            continue
        except (NonresidueNotFound, ParamSearchExhausted) as exc:
            print(f"error: {where}{exc}", file=sys.stderr)
            worst = max(worst, EXIT_EXHAUSTED)
            continue
        _emit(report, args.output)
        worst = max(worst, code)
    return worst


def _valid_n(token: "str | int") -> int:
    n = int(token)
    if n < 2:
        raise ValueError(f"n must be at least 2; got {n}")
    if n > 2 and n % 2 == 0:
        raise ValueError(f"n must be odd (or exactly 2); got {n}")
    return n


def cmd_find_c(args) -> int:
    delta = as_fraction(args.delta) if args.delta is not None else None
    config = SearchConfig.for_modulus(args.n, delta)
    outcome = find_small_nonresidue(args.n, config)
    report = {
        "n": args.n,
        "outcome": outcome.kind,
        "c": outcome.c,
        "factor": outcome.factor,
        "examined": outcome.examined,
        "cap": config.cap,
        "delta": str(config.delta),
    }
    _emit(report, args.output)
    if outcome.c is not None:
        return EXIT_PROBABLE_PRIME
    if outcome.factor is not None:
        return EXIT_COMPOSITE
    return EXIT_EXHAUSTED


def cmd_density(args) -> int:
    delta = as_fraction(args.delta) if args.delta is not None else None
    seed = args.seed if args.seed is not None else random.SystemRandom().getrandbits(64)
    report = density_experiment(args.n, delta, seed=seed, sample_size=args.sample_size)
    _emit(report.as_dict(), args.output)
    return 0


def cmd_charsum(args) -> int:
    report = charsum_experiment(args.n, as_fraction(args.gamma))
    _emit(report.as_dict(), args.output)
    return 0


def cmd_bench(args) -> int:
    seed = args.seed if args.seed is not None else random.SystemRandom().getrandbits(64)
    measured = measure_m(args.bits, args.trials, seed=seed, reps=args.reps)
    _emit(measured.as_dict(), args.output)
    return 0


def cmd_cost_table(args) -> int:
    ms = args.m if args.m else None
    print(render_cost_table(cost_table(ms, args.delta)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frobprime",
        description="Quadratic Frobenius primality testing and its cost model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_test = sub.add_parser("test", help="test one n (or many, with --stdin) for primality")
    p_test.add_argument("n", nargs="?", type=int, default=None, help="the number to test")
    p_test.add_argument("--stdin", action="store_true", help="read numbers from stdin, one per line")
    p_test.add_argument("--method", choices=_METHODS, default="qft")
    p_test.add_argument("--rounds", type=int, default=1, help="independent parameter draws per n")
    p_test.add_argument("--seed", type=int, default=None, help="seed for parameter sampling")
    p_test.add_argument("--base", type=int, default=None, help="fixed base for fermat/strong")
    p_test.add_argument("--delta", default=None, help="search exponent for rqft-smallc (exact, e.g. 0.2025)")
    p_test.add_argument("--output", choices=("plain", "json"), default="plain")
    p_test.set_defaults(func=cmd_test)

    p_findc = sub.add_parser("find-c", help="search for the least nonresidue below ceil(n^delta)")
    p_findc.add_argument("n", type=int)
    p_findc.add_argument("--delta", default=None, help="search exponent (exact, e.g. 0.2025)")
    p_findc.add_argument("--output", choices=("plain", "json"), default="plain")
    p_findc.set_defaults(func=cmd_find_c)

    p_density = sub.add_parser("density", help="measure the density of symbols != +1 below ceil(n^delta)")
    p_density.add_argument("--n", type=int, required=True)
    p_density.add_argument("--delta", default=None, help="window exponent (exact, e.g. 0.2025)")
    p_density.add_argument("--seed", type=int, default=None)
    p_density.add_argument("--sample-size", type=int, default=100_000)
    p_density.add_argument("--output", choices=("plain", "json"), default="plain")
    p_density.set_defaults(func=cmd_density)

    p_charsum = sub.add_parser("charsum", help="sum jacobi(k, n) for k below floor(n^gamma)")
    p_charsum.add_argument("--n", type=int, required=True)
    p_charsum.add_argument("--gamma", required=True, help="cutoff exponent in (0, 1] (exact, e.g. 1/2)")
    p_charsum.add_argument("--output", choices=("plain", "json"), default="plain")
    p_charsum.set_defaults(func=cmd_charsum)

    p_bench = sub.add_parser("bench", help="time modular products to estimate m on this machine")
    p_bench.add_argument("--bits", type=int, default=2048)
    p_bench.add_argument("--trials", type=int, default=9)
    p_bench.add_argument("--reps", type=int, default=None)
    p_bench.add_argument("--seed", type=int, default=None)
    p_bench.add_argument("--output", choices=("plain", "json"), default="plain")
    p_bench.set_defaults(func=cmd_bench)

    p_table = sub.add_parser("cost-table", help="print per-iteration costs for representative m")
    p_table.add_argument("--m", action="append", type=float, default=None, help="append one m value (repeatable)")
    p_table.add_argument("--delta", type=float, default=DELTA_STAR, help="small-operand size ratio")
    p_table.set_defaults(func=cmd_cost_table)

    return parser


def main(argv=None) -> int:
    # n may run past Python's 4300-digit int/str conversion limit (argparse's
    # int(), --stdin's int(token), str/json output); lift it for this call only.
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return _main(argv)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def _main(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
