"""End-to-end benchmark of ``frobprime test``, with an optional traced run.

Usage (from the repository root)::

    python3 benchmarks/run.py --workload scan-64 --seed 1 --seconds 25 --trace 0

The benchmark drives the public CLI entry point ``frobprime.cli.main`` in
this one process, for each method in METHODS, on numbers it generates from
``--seed`` and checks against ``sympy.isprime``.  With ``--trace 0`` it
reports the end-to-end metrics; with ``--trace 1`` it reports the per-layer
metrics of ``tracing.py`` instead.  Every metric is printed as
``name = value unit``; the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

The exit status is 0 when every verdict checked out, 1 when any failed, and
2 when the benchmark could not run (for example, no ``src/frobprime`` next
to this directory).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

METHODS = ("qft", "rqft", "rqft-smallc", "strong", "lucas")

#: n for the set-up probe: tiny, so the answer costs nothing beyond start-up.
SETUP_N = 101
SETUP_REPEATS = 9
#: Nominal time of a bare ``python3 -c pass``, the reference speed for ``setup_s``.
BARE_START_S = 0.06


@dataclass(frozen=True)
class Workload:
    """One input family.

    ``kind`` is "scan" (runs of consecutive odd integers from seeded
    full-width starts), "prime" (``sympy.nextprime`` of seeded full-width
    starts) or "pool" (a seeded sample of primes-<bits>.txt, which
    make_pool.py generates the "prime" way).  The inputs are ``batches``
    lists of ``batch`` numbers each; one list is one CLI call (``--stdin``
    when ``batch`` > 1).  The traced run uses the first ``trace_batches``
    lists.  ``probe_ms`` is the nominal
    time of this size's SpeedProbe, the reference speed that the untraced
    run's times are scaled to.
    """

    name: str
    kind: str
    bits: int
    rounds: int
    batch: int
    batches: int
    trace_batches: int
    probe_ms: float
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "scan-64", "scan", 64, 4, 256, 128, 8, 1.0,
            "Next-prime scan of 64-bit odds: about 89% die in the trial-division screen, so screen and CLI "
            "costs dominate; ladder and bignum gains should not move it.",
        ),
        Workload(
            "prime-256", "prime", 256, 4, 8, 32, 4, 0.5,
            "256-bit primes run all 4 rounds: cheap products leave the ladder bound by interpreter overhead, "
            "and the per-round screen and search-cap repeats show.",
        ),
        Workload(
            "prime-2048", "pool", 2048, 1, 1, 16, 3, 1.4,
            "2048-bit primes, one call each: the paper's regime, bound by bignum products in the ladder and "
            "tail; screen and CLI gains should not move it.",
        ),
    )
}


@dataclass
class Inputs:
    """A workload's generated numbers and their oracle verdicts."""

    workload: Workload
    seed: int
    batches: list  # of lists of int
    expected: dict  # n -> sympy.isprime(n)

    @property
    def count(self) -> int:
        return sum(len(b) for b in self.batches)

    def digest(self) -> str:
        text = "\n".join(str(n) for b in self.batches for n in b)
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def make_inputs(workload: Workload, seed: int) -> Inputs:
    """Generate the workload's numbers from ``seed`` and confirm them with sympy."""
    import sympy

    rng = random.Random(f"{workload.name}/{seed}")
    bits, size = workload.bits, workload.batch
    batches = []
    if workload.kind == "scan":
        for _ in range(workload.batches):
            start = rng.randrange(1 << (bits - 1), (1 << bits) - 2 * size) | 1
            batches.append([start + 2 * i for i in range(size)])
    elif workload.kind == "pool":
        pool = [int(line) for line in (HERE / f"primes-{bits}.txt").read_text().split()]
        picked = rng.sample(pool, workload.batches * size)
        batches = [picked[i : i + size] for i in range(0, len(picked), size)]
    else:
        for _ in range(workload.batches):
            batch = []
            while len(batch) < size:
                p = sympy.nextprime(rng.getrandbits(bits) | (1 << (bits - 1)))
                if p.bit_length() == bits:
                    batch.append(int(p))
            batches.append(batch)
    expected = {n: bool(sympy.isprime(n)) for b in batches for n in b}
    return Inputs(workload, seed, batches, expected)


def cli_seed(seed: int, call: int) -> int:
    """The CLI ``--seed`` of the run's ``call``-th round of calls.

    Each round draws fresh parameters: a prime's cost depends on them
    (step 5 sometimes needs a second extension ladder), so repeating one
    draw per prime would make a run's figures hinge on a few draws.
    """
    return seed * 100_000 + call


def cli_argv(workload: Workload, method: str, batch: list, seed: int) -> "tuple[list, str]":
    """The ``frobprime test`` arguments and stdin text for one batch, with CLI seed ``seed``."""
    argv = ["test", "--method", method, "--rounds", str(workload.rounds), "--seed", str(seed), "--output", "json"]
    if len(batch) == 1:
        return argv[:1] + [str(batch[0])] + argv[1:], ""
    return argv + ["--stdin"], "\n".join(str(n) for n in batch) + "\n"


def call_cli(argv: list, stdin_text: str) -> "tuple[Optional[int], str, float]":
    """Run ``frobprime.cli.main`` in-process; returns (exit code or None, stdout, seconds).

    Only the ``main`` call sits inside the timed interval.  An exception
    escaping ``main`` is reported as exit code None, with its traceback on
    standard error.
    """
    from frobprime import cli

    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    code: Optional[int] = None
    crash = None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            except Exception:  # a crash fails the batch; the run goes on
                crash = traceback.format_exc()
            elapsed = time.perf_counter() - start
    finally:
        sys.stdin = saved_stdin
    if crash:
        print(f"frobprime {' '.join(argv[:4])} raised:\n{crash}", file=sys.stderr)
    return code, out.getvalue(), elapsed


def check_batch(batch: list, expected: dict, code: Optional[int], output: str) -> "tuple[list, int]":
    """Parse the CLI's JSON records and count failed numbers.

    A number fails when its record is missing or malformed, its verdict
    disagrees with the oracle, or its composite factor is not a nontrivial
    divisor.  Exit code 2 or 3, or an exception, fails the whole batch.
    """
    if code not in (0, 1):
        return [], len(batch)
    try:
        records = [json.loads(line) for line in output.splitlines() if line.strip()]
    except json.JSONDecodeError:
        return [], len(batch)
    failed = max(0, len(batch) - len(records))
    for n, rec in zip(batch, records):
        prime = rec.get("verdict") == "probable-prime"
        factor = rec.get("factor")
        ok = rec.get("n") == n and prime == expected[n]
        if ok and not prime and factor is not None:
            ok = 1 < factor < n and n % factor == 0
        failed += not ok
    return records, failed


class SpeedProbe:
    """A fixed computation timed next to every measured call.

    The machine's speed drifts by tens of percent over seconds (other
    tenants share its cores); a Python square-and-multiply loop at the
    workload's bit size slows down by the same factor as the program, so
    scaling each call by probe_ms / probe time cancels the drift.  The
    probe uses nothing from the package, so no change to the program can
    move it.
    """

    def __init__(self, bits: int) -> None:
        self.n = ((1 << (bits - 1)) + 0x2545F4914F6CDD1D) | 1
        self.x = self.n // 3
        self.steps = max(40, 200_000 // bits)

    def ms(self, repeats: int = 3) -> float:
        """The fastest of ``repeats`` timings, so one preemption does not count."""
        n, x = self.n, self.x
        best = None
        for _ in range(repeats):
            start = time.perf_counter_ns()
            r = 3
            for _ in range(self.steps):
                r = r * r % n
                r = r * x % n
            elapsed = time.perf_counter_ns() - start
            best = elapsed if best is None else min(best, elapsed)
        return best / 1e6


def measure_setup() -> "tuple[float, float]":
    """Median seconds from interpreter start to the first ``frobprime test`` answer.

    Each sample is a fresh interpreter that imports the package (with its
    import-time sieve), builds the argument parser and answers ``test`` on a
    tiny n.  Like the calls, each sample is scaled to the reference speed:
    by BARE_START_S over the mean time of the bare interpreter starts just
    before and just after it, which drift with the machine as start-up does.
    One untimed start first fills the bytecode cache, which is written even
    where the environment turns it off, as an installed package's would be.
    Returns the scaled and the unscaled median.
    """
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    code = "import sys; from frobprime.cli import main; sys.exit(main(sys.argv[1:]))"
    setup_cmd = [sys.executable, "-c", code, "test", str(SETUP_N)]
    bare_cmd = [sys.executable, "-c", "pass"]

    def start(cmd):
        begin = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
        elapsed = time.perf_counter() - begin
        if proc.returncode != 0 or (cmd is setup_cmd and "verdict=probable-prime" not in proc.stdout):
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode}): {proc.stderr.strip()}")
        return elapsed

    start(setup_cmd)
    raw, scaled = [], []
    before = start(bare_cmd)
    for _ in range(SETUP_REPEATS):
        elapsed = start(setup_cmd)
        after = start(bare_cmd)
        raw.append(elapsed)
        scaled.append(elapsed * 2 * BARE_START_S / (before + after))
        before = after
    return statistics.median(scaled), statistics.median(raw)


def measure(inputs: Inputs, seconds: float) -> dict:
    """Untraced end-to-end run: every method, round-robin over the batches.

    Batches cycle in order until ``seconds`` have been spent inside the CLI
    calls; each round gives every method the same batch.  Each call's time
    is scaled to the reference speed by the SpeedProbe timings just before
    and just after it.  Returns the end-to-end metrics, the number attempted
    and failed, and per-method notes with the sample count and raw figures.
    """
    workload, seed = inputs.workload, inputs.seed
    for m in METHODS:  # warm-up: first-call imports and allocator state
        call_cli(*cli_argv(workload, m, inputs.batches[0], cli_seed(seed, 0)))
    probe = SpeedProbe(workload.bits)
    raw_busy = {m: 0.0 for m in METHODS}
    busy = {m: 0.0 for m in METHODS}
    raw_ms = {m: [] for m in METHODS}
    per_number_ms = {m: [] for m in METHODS}
    decided = {m: 0 for m in METHODS}
    probe_ms = []
    attempted = failed = 0
    before = probe.ms()
    i = 0
    while i == 0 or sum(raw_busy.values()) < seconds:
        batch = inputs.batches[i % len(inputs.batches)]
        for m in METHODS:
            code, output, elapsed = call_cli(*cli_argv(workload, m, batch, cli_seed(seed, i)))
            after = probe.ms()
            scaled = elapsed * 2 * workload.probe_ms / (before + after)
            probe_ms.append(before)
            before = after
            _, bad = check_batch(batch, inputs.expected, code, output)
            raw_busy[m] += elapsed
            busy[m] += scaled
            raw_ms[m].append(elapsed * 1e3 / len(batch))
            per_number_ms[m].append(scaled * 1e3 / len(batch))
            decided[m] += len(batch)
            attempted += len(batch)
            failed += bad
        i += 1
    metrics, notes = {}, {}
    for m in METHODS:
        metrics[f"{m}.per_s"] = (decided[m] / busy[m], "numbers/s")
        notes[f"{m}.per_s"] = f"{decided[m]} numbers; unscaled {decided[m] / raw_busy[m]:.6g}"
    for m in METHODS:
        metrics[f"{m}.ms_p50"] = (statistics.median(per_number_ms[m]), "ms")
        notes[f"{m}.ms_p50"] = (f"median of {len(per_number_ms[m])} calls of {workload.batch} numbers; "
                                f"unscaled {statistics.median(raw_ms[m]):.6g}")
    print(f"# speed probe: median {statistics.median(probe_ms):.4f} ms against nominal {workload.probe_ms} ms "
          f"({min(probe_ms):.4f} to {max(probe_ms):.4f} over {len(probe_ms)} samples)")
    return {"metrics": metrics, "attempted": attempted, "failed": failed, "notes": notes}


def emit(result: dict) -> None:
    """Print each metric as a line, then the one-line JSON result."""
    notes = result.get("notes", {})
    for name, (value, unit) in result["metrics"].items():
        note = notes.get(name)
        print(f"{name} = {value!r} {unit}" + (f"  ({note})" if note else ""))
    attempted, failed = result["attempted"], result["failed"]
    print(f"failed_ratio = {failed / attempted!r} ratio ({failed} of {attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Generate the inputs, then run the untraced or the traced benchmark."""
    workload = WORKLOADS[workload_name]
    inputs = make_inputs(workload, seed)
    print(
        f"# {workload.name}: {inputs.count} numbers of {workload.bits} bits in {len(inputs.batches)} "
        f"calls of {workload.batch}, sha256 {inputs.digest()}, "
        f"cli --seed {cli_seed(seed, 0)} + round --rounds {workload.rounds}"
    )
    if trace:
        from tracing import traced_run

        return traced_run(inputs, seconds)
    setup_s, raw_setup_s = measure_setup()
    result = measure(inputs, seconds)
    result["metrics"] = {"setup_s": (setup_s, "s"), **result["metrics"]}
    result["notes"]["setup_s"] = f"median of {SETUP_REPEATS} starts; unscaled {raw_setup_s:.6g}"
    return result


def import_package() -> None:
    """Import frobprime from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "frobprime" / "cli.py").is_file():
        raise ImportError(f"no frobprime package under {SRC}")
    sys.path.insert(0, str(SRC))
    import frobprime

    if Path(frobprime.__file__).resolve().parent != (SRC / "frobprime").resolve():
        raise ImportError(f"frobprime was imported from {frobprime.__file__}, not {SRC}")
    import sympy  # noqa: F401  (the oracle; fail before any output if it is missing)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="time to spend inside the measured calls")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_package()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    emit(result)
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
