"""Command-line interface.

Subcommands: ``test`` (run a primality test), ``find-c`` (small nonresidue
search), ``density`` / ``charsum`` (symbol statistics), ``bench`` (measure
the multiplication-to-squaring ratio), ``cost-table`` (per-iteration cost
model).  Exit status: 0 probable prime / success, 1 composite or factor
found, 2 usage error, 3 a parameter sampler (``test``) or the search
(``find-c``) exhausted.

``test`` decides each n of every method with one ``frobenius.run_rounds``
call and prints its record: for the extension methods the screen, the B^2
shortcut and the small-c search run once per n, and each of ``--rounds``
rounds only draws parameters and runs steps 3-5; the baselines (fermat,
strong, lucas) draw and test once per round.  ``run_rounds`` decides
n = 2 as probable prime with no rounds, and an exhausted small-c search
falls back to rqft's drawn nonresidue.  A bad ``--delta`` for
rqft-smallc, and a ``--delta`` or ``--base`` that the method does not
take, are rejected before the first n.  Before it, the extension methods
hand every valid n to ``arith._load_batch_residues``, so the screen's
residues come from one remainder tree per chunk of the batch rather than
one long division per n.  With ``--stdin``, a bad line, a
``--base`` that is a multiple of that n, or an exhausted sampler is
reported as ``error: line K: ...`` and the rest of the batch is still
tested; the exit status is the worst one seen.  An empty ``--stdin``
batch is a usage error.

Each ``test`` record is written straight from its fields by one fixed
template per output mode: ``_json_line`` gives the bytes of
``json.dumps(record, sort_keys=True)`` and ``_plain_line`` the
``key=value`` line ``_emit`` would print with the op counts spread into
``ops.<field>`` keys.  ``_emit`` serves only the experiment subcommands,
which print one flat record per process.

Every randomized subcommand accepts ``--seed`` and echoes the seed it used,
so any run can be reproduced byte for byte.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from .arith import _load_batch_residues
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
    _SCREENED_METHODS,
    _check_options,
)
from .nonresidue import SearchConfig, _record, charsum_experiment, density_experiment, find_small_nonresidue
from .quadext import OpCounter

EXIT_PROBABLE_PRIME = 0
EXIT_COMPOSITE = 1
EXIT_USAGE = 2
EXIT_EXHAUSTED = 3


def _emit(report: dict, output: str) -> None:
    """Print an experiment subcommand's one flat record: JSON with sorted
    keys, or ``key=value`` pairs in record order with ``None`` left out."""
    if output == "json":
        print(json.dumps(report, sort_keys=True))
    else:
        print(" ".join(f"{key}={value}" for key, value in report.items() if value is not None))


def _json_line(n: int, method: str, verdict: Verdict, rounds_run: int, seed: int, ops: OpCounter) -> str:
    """One ``test`` record as ``json.dumps(record, sort_keys=True)`` prints it.

    The keys are in sorted order, ``None`` is ``null``, the ratio is its
    ``repr`` and the reason its ``.value`` (from Python 3.11 on, an enum
    mixed with ``str`` formats as ``CompositeReason.STEP3``).
    """
    factor = "null" if verdict.factor is None else verdict.factor
    reason = "null" if verdict.reason is None else '"' + verdict.reason.value + '"'
    status = "probable-prime" if verdict.is_probable_prime else "composite"
    return (f'{{"factor": {factor}, "method": "{method}", "n": {n}, "ops": {{"full_mults": {ops.full_mults}, '
            f'"param_mults": {ops.param_mults}, "small_bits_ratio": {ops.small_bits_ratio!r}, '
            f'"small_mults": {ops.small_mults}, "squarings": {ops.squarings}}}, "reason": {reason}, '
            f'"rounds_run": {rounds_run}, "seed": {seed}, "verdict": "{status}"}}')


def _plain_line(n: int, method: str, verdict: Verdict, rounds_run: int, seed: int, ops: OpCounter) -> str:
    """One ``test`` record by ``_emit``'s ``key=value`` rule: record order, ``None`` fields left out,
    and the op counts as ``ops.<field>`` keys."""
    reason = "" if verdict.reason is None else " reason=" + verdict.reason.value
    factor = "" if verdict.factor is None else f" factor={verdict.factor}"
    status = "probable-prime" if verdict.is_probable_prime else "composite"
    return (f"n={n} method={method} verdict={status}{reason}{factor} rounds_run={rounds_run} seed={seed} "
            f"ops.squarings={ops.squarings} ops.full_mults={ops.full_mults} ops.small_mults={ops.small_mults} "
            f"ops.param_mults={ops.param_mults} ops.small_bits_ratio={ops.small_bits_ratio!r}")


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
    # a ValueError here is a usage error before any output
    _check_options(args.method, args.delta, args.base)
    if args.stdin:
        entries = [
            (f"line {k}: ", token)
            for k, line in enumerate(sys.stdin.read().splitlines(), 1)
            for token in line.split()
        ]
        if not entries:
            print("error: no n given on stdin", file=sys.stderr)
            return EXIT_USAGE
    else:
        entries = [("", args.n)]
    parsed = []
    for where, token in entries:
        try:
            parsed.append((where, _valid_n(token)))
        except ValueError as exc:
            parsed.append((where, exc))
    if args.method in _SCREENED_METHODS:
        # R % n for the whole batch at once; trial_divide looks each n up
        _load_batch_residues([n for _, n in parsed if isinstance(n, int)])
    seed = args.seed if args.seed is not None else random.SystemRandom().getrandbits(64)
    rng = random.Random(seed)
    render = _json_line if args.output == "json" else _plain_line
    worst = EXIT_PROBABLE_PRIME
    for where, n in parsed:
        # a bad entry, or a --base that is a multiple of it, is reported and
        # skipped; it draws nothing from rng.  An exhausted sampler is
        # reported too, after its draws.
        try:
            if isinstance(n, ValueError):
                raise n
            counter = OpCounter()
            verdict, rounds_run = run_rounds(n, args.method, rng, args.rounds, counter,
                                             delta=args.delta, base=args.base)
        except ValueError as exc:
            print(f"error: {where}{exc}", file=sys.stderr)
            worst = max(worst, EXIT_USAGE)
            continue
        except ParamSearchExhausted as exc:
            print(f"error: {where}{exc}", file=sys.stderr)
            worst = max(worst, EXIT_EXHAUSTED)
            continue
        print(render(n, args.method, verdict, rounds_run, seed, counter))
        worst = max(worst, EXIT_PROBABLE_PRIME if verdict.is_probable_prime else EXIT_COMPOSITE)
    return worst


def _valid_n(token: "str | int") -> int:
    n = int(token)
    if n < 2:
        raise ValueError(f"n must be at least 2; got {n}")
    if n > 2 and n % 2 == 0:
        raise ValueError(f"n must be odd (or exactly 2); got {n}")
    return n


def cmd_find_c(args) -> int:
    config = SearchConfig.for_modulus(args.n, args.delta)
    outcome = find_small_nonresidue(args.n, config)
    report = {"n": args.n, "outcome": outcome.kind, **_record(outcome),
              "cap": config.cap, "delta": str(config.delta)}
    _emit(report, args.output)
    if outcome.c is not None:
        return EXIT_PROBABLE_PRIME
    if outcome.factor is not None:
        return EXIT_COMPOSITE
    return EXIT_EXHAUSTED


def cmd_density(args) -> int:
    report = density_experiment(args.n, args.delta, seed=args.seed, sample_size=args.sample_size)
    _emit(report.as_dict(), args.output)
    return 0


def cmd_charsum(args) -> int:
    _emit(charsum_experiment(args.n, args.gamma).as_dict(), args.output)
    return 0


def cmd_bench(args) -> int:
    measured = measure_m(args.bits, args.trials, seed=args.seed, reps=args.reps)
    _emit(measured.as_dict(), args.output)
    return 0


def cmd_cost_table(args) -> int:
    print(render_cost_table(cost_table(args.m, args.delta)))
    return 0


def _test_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("n", nargs="?", type=int, default=None, help="the number to test")
    p.add_argument("--stdin", action="store_true", help="read numbers from stdin, separated by whitespace; errors name the line")
    p.add_argument("--method", choices=_METHODS, default="qft")
    p.add_argument("--rounds", type=int, default=1, help="independent parameter draws per n")
    p.add_argument("--seed", type=int, default=None, help="seed for parameter sampling")
    p.add_argument("--base", type=int, default=None, help="fixed base for fermat/strong")
    p.add_argument("--delta", default=None, help="search exponent for rqft-smallc (exact, e.g. 0.2025)")
    p.add_argument("--output", choices=("plain", "json"), default="plain")
    p.set_defaults(func=cmd_test)


def _find_c_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("n", type=int)
    p.add_argument("--delta", default=None, help="search exponent (exact, e.g. 0.2025)")
    p.add_argument("--output", choices=("plain", "json"), default="plain")
    p.set_defaults(func=cmd_find_c)


def _density_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", default=None, help="window exponent (exact, e.g. 0.2025)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--sample-size", type=int, default=100_000)
    p.add_argument("--output", choices=("plain", "json"), default="plain")
    p.set_defaults(func=cmd_density)


def _charsum_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--gamma", required=True, help="cutoff exponent in (0, 1] (exact, e.g. 1/2)")
    p.add_argument("--output", choices=("plain", "json"), default="plain")
    p.set_defaults(func=cmd_charsum)


def _bench_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--bits", type=int, default=2048)
    p.add_argument("--trials", type=int, default=9)
    p.add_argument("--reps", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--output", choices=("plain", "json"), default="plain")
    p.set_defaults(func=cmd_bench)


def _cost_table_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--m", action="append", type=float, default=None, help="append one m value (repeatable)")
    p.add_argument("--delta", type=float, default=DELTA_STAR, help="small-operand size ratio")
    p.set_defaults(func=cmd_cost_table)


#: subcommand -> (help line, function adding its arguments), in help order
_COMMANDS = {
    "test": ("test one n (or many, with --stdin) for primality", _test_arguments),
    "find-c": ("search for the least nonresidue below ceil(n^delta)", _find_c_arguments),
    "density": ("measure the density of symbols != +1 below ceil(n^delta)", _density_arguments),
    "charsum": ("sum jacobi(k, n) for k below floor(n^gamma)", _charsum_arguments),
    "bench": ("time modular products to estimate m on this machine", _bench_arguments),
    "cost-table": ("print per-iteration costs for representative m", _cost_table_arguments),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frobprime",
        description="Quadratic Frobenius primality testing and its cost model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_arguments) in _COMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_line))
    return parser


def _parse(argv: list) -> argparse.Namespace:
    """Parse ``argv`` as ``build_parser()`` does, building less when it can.

    When ``argv`` starts with a subcommand name, the full parser hands all
    of ``argv[1:]`` to that subcommand's parser and only adds an error for
    leftover arguments; so that parser alone, as ``add_parser`` would make
    it, parses the call, with the same help and errors.  Any other ``argv``,
    or leftover arguments, go to the full parser.
    """
    if argv and argv[0] in _COMMANDS:
        parser = argparse.ArgumentParser(prog=f"frobprime {argv[0]}")
        _COMMANDS[argv[0]][1](parser)
        args, extra = parser.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not extra:
            return args
    return build_parser().parse_args(argv)


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
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
