"""Traced run: per-layer self time, exact counts and the booked-vs-measured model check.

Spans are recorded in memory around calls into the package's module
attributes, patched from here for the duration of one traced pass, and
turned into per-layer figures when the run ends.  A layer's self time is
its spans' time minus the time of the spans they contain; the benchmark's
own span around each ``cli.main`` call is the ``cli`` layer, so per method
the self times add up to the traced wall time.

Layers (span names):

    cli        parsing, the rounds loop and record emission (cli.main's self time)
    steps      the frobenius test functions' own code: parameter checks, ring
               set-up and step bookkeeping (cli.qft, cli.rqft, ... as cli calls them)
    screen     initial_screen: trial division, isqrt, the square check
    params     generate_qft_params, generate_rqft_params, sample_nonresidue
    search.cap nonresidue.SearchConfig.for_modulus (ceil(n^delta))
    search.scan nonresidue.find_small_nonresidue
    ladder     frobenius.ext_pow / ext_square with generic squares: z^((n+1)/2)
    tail       every other ext_pow / ext_square call: steps 4-5
    mod_pow    frobenius.mod_pow (strong)
    lucas_uv   frobenius.lucas_uv (lucas)

``frobenius.jacobi`` and ``nonresidue.jacobi`` are counted, not timed.
"""

from __future__ import annotations

import math
import random
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from frobprime import cli, cost_model, frobenius, nonresidue, quadext
from frobprime.quadext import OpCounter

from run import METHODS, call_cli, check_batch, cli_argv, cli_seed

EXTENSION_METHODS = ("qft", "rqft", "rqft-smallc")
LAYERS = ("cli", "steps", "screen", "params", "search.cap", "search.scan", "ladder", "tail", "mod_pow", "lucas_uv")
TEST_FUNCTIONS = ("qft", "rqft", "rqft_with_small_c", "strong_test", "lucas_test")
SAMPLERS = ("generate_qft_params", "generate_rqft_params", "sample_nonresidue")
BOOKED = ("squarings", "full_mults", "small_mults", "param_mults")

#: Verdict reasons reported as ``<method>.decided.<reason>`` (all others are printed only).
DECIDED = {
    "qft": ("small-factor", "step3", "jacobi-zero-factor", "probable-prime"),
    "rqft": ("small-factor", "step3", "jacobi-zero-factor", "probable-prime"),
    "rqft-smallc": ("small-factor", "step3", "jacobi-zero-factor", "probable-prime"),
    "strong": ("strong-congruence", "probable-prime"),
    "lucas": ("lucas-congruence", "probable-prime"),
}

#: Booked products are priced at this m for ``ops.msq_per_bit``, so the
#: figure is an exact function of the counts (cost_model's schoolbook preset).
MSQ_WEIGHTS = cost_model.CostWeights(cost_model.PRESET_MS[0])


class Tracer:
    """In-memory spans plus the counts taken at the same boundaries."""

    def __init__(self) -> None:
        self.spans = []  # [name, start_ns, end_ns, parent index or -1]
        self._open = []
        self.jacobi = Counter()  # calls by the innermost open layer
        self.booked = {"ladder": OpCounter(), "tail": OpCounter()}
        self.ladder_steps = 0
        self.searches = 0
        self.examined = 0

    def span(self, name, fn, *args, **kwargs):
        record = [name, 0, 0, self._open[-1] if self._open else -1]
        self._open.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter_ns()
            self._open.pop()

    def layer(self) -> str:
        return self.spans[self._open[-1]][0] if self._open else "none"

    def self_ns(self) -> dict:
        out = defaultdict(int)
        for name, start, end, parent in self.spans:
            out[name] += end - start
            if parent >= 0:
                out[self.spans[parent][0]] -= end - start
        return out

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


@contextmanager
def patched(tracer: Tracer):
    """Wrap the traced module attributes for the duration of the block."""
    saved = []

    def put(owner, attr, value):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def timed(name, fn):
        return lambda *a, **k: tracer.span(name, fn, *a, **k)

    scan = nonresidue.find_small_nonresidue

    def traced_scan(*args, **kwargs):
        outcome = tracer.span("search.scan", scan, *args, **kwargs)
        tracer.searches += 1
        tracer.examined += outcome.examined
        return outcome

    def ext(fn, flag, slots, steps):
        # slots: (positional index, keyword) of each counter argument
        def traced(*args, **kwargs):
            phase = "ladder" if kwargs.get(flag) else "tail"
            counters = {id(c): c for c in (_arg(args, kwargs, i, k) for i, k in slots) if c is not None}
            before = [(c, c.copy()) for c in counters.values()]
            result = tracer.span(phase, fn, *args, **kwargs)
            book = tracer.booked[phase]
            for c, old in before:
                for field in BOOKED:
                    setattr(book, field, getattr(book, field) + getattr(c, field) - getattr(old, field))
            if phase == "ladder":
                tracer.ladder_steps += steps(args, kwargs)
            return result

        return traced

    try:
        for module in (cli, frobenius):
            put(module, "initial_screen", timed("screen", module.initial_screen))
            for attr in SAMPLERS:
                put(module, attr, timed("params", getattr(module, attr)))
        for attr in TEST_FUNCTIONS:
            put(cli, attr, timed("steps", getattr(cli, attr)))
        put(frobenius, "mod_pow", timed("mod_pow", frobenius.mod_pow))
        put(frobenius, "lucas_uv", timed("lucas_uv", frobenius.lucas_uv))

        for_modulus = nonresidue.SearchConfig.for_modulus
        put(nonresidue.SearchConfig, "for_modulus",
            classmethod(lambda cls, n, delta=None: tracer.span("search.cap", for_modulus, n, delta)))

        put(nonresidue, "find_small_nonresidue", traced_scan)

        for module in (frobenius, nonresidue):
            jacobi = module.jacobi

            def counted(a, n, _jacobi=jacobi):
                tracer.jacobi[tracer.layer()] += 1
                return _jacobi(a, n)

            put(module, "jacobi", counted)

        put(frobenius, "ext_pow", ext(frobenius.ext_pow, "generic_squares", ((3, "counter"), (4, "mult_counter")),
                                      lambda a, k: _arg(a, k, 1, "exp").bit_length() - 1))
        put(frobenius, "ext_square", ext(frobenius.ext_square, "generic", ((2, "counter"),), lambda a, k: 1))
        yield tracer
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def _pass(inputs, method, batches, tracer=None):
    """One pass of ``method`` over ``batches``: (records, failed, wall seconds)."""
    workload, seed = inputs.workload, inputs.seed
    records, failed, wall = [], 0, 0.0
    for i, batch in enumerate(batches):
        argv, stdin_text = cli_argv(workload, method, batch, cli_seed(seed, i))
        if tracer is None:
            code, output, elapsed = call_cli(argv, stdin_text)
        else:
            code, output, elapsed = tracer.span("cli", call_cli, argv, stdin_text)
        recs, bad = check_batch(batch, inputs.expected, code, output)
        records += recs
        failed += bad
        wall += elapsed
    return records, failed, wall


def _counts(records, tracer, numbers):
    """The exact counts of one traced pass: identical on every pass of the same inputs."""
    ops = OpCounter()
    msq_per_bit = []
    decided = Counter()
    for rec in records:
        decided[rec["reason"] or "probable-prime"] += 1
        booked = OpCounter(*(rec["ops"][f] for f in BOOKED))
        ops += booked
        if rec["rounds_run"]:
            report = cost_model.summarize(booked, rec["n"], MSQ_WEIGHTS)
            msq_per_bit.append(report.selfridge_units / rec["rounds_run"])
    return {
        "ops": {f: getattr(ops, f) for f in BOOKED},
        "msq_per_bit": statistics.fmean(msq_per_bit) if msq_per_bit else 0.0,
        "decided": dict(sorted(decided.items())),
        "screen_calls": tracer.count("screen") / numbers,
        "jacobi_calls": tracer.jacobi["params"] / numbers,
        "jacobi_by_layer": dict(sorted(tracer.jacobi.items())),
        "examined": tracer.examined / tracer.searches if tracer.searches else 0.0,
        "booked": {phase: {f: getattr(c, f) for f in BOOKED} for phase, c in tracer.booked.items()},
        "ladder_steps": tracer.ladder_steps,
    }


def _priced_ns(booked: dict, costs: cost_model.MeasuredCosts) -> float:
    """Booked ops priced with measured per-product times; param_mults at full size
    (the general form's b and c are drawn uniformly, so they are full-width)."""
    return (
        booked["squarings"] * costs.square_ns
        + (booked["full_mults"] + booked["param_mults"]) * costs.full_mult_ns
        + booked["small_mults"] * costs.small_mult_ns
    )


def _ns_per_call(fn, arg_cycle, reps: int, trials: int) -> float:
    """Median over ``trials`` of the mean ns per ``fn(*args)`` over ``reps`` calls."""
    k = len(arg_cycle)
    samples = []
    for _ in range(trials):
        start = time.perf_counter_ns()
        for i in range(reps):
            fn(*arg_cycle[i % k])
        samples.append((time.perf_counter_ns() - start) / reps)
    return statistics.median(samples)


def primitive_timings(n: int, seed: int, trials: int = 9) -> dict:
    """ns per ext_square / ext_mul / mul_by_x (counter=None) for each ring form at the prime n."""
    rng = random.Random(seed)
    bits = n.bit_length()
    small_c = nonresidue.find_small_nonresidue(n).c
    rings = {
        "general": quadext.ExtensionRing.general(n, rng.randrange(n), rng.randrange(1, n)),
        "pure": quadext.ExtensionRing.pure(n, rng.randrange(2, n)),
        "pure-smallc": quadext.ExtensionRing.pure(n, small_c, small=True),
    }
    elems = [quadext.QuadExtElement(rng.randrange(n), rng.randrange(1, n)) for _ in range(16)]
    reps = max(200, 400_000 // bits)
    out = {}
    for form, ring in rings.items():
        singles = [(e, ring) for e in elems]
        pairs = [(e, elems[(i + 1) % len(elems)], ring) for i, e in enumerate(elems)]
        out[f"quadext.ext_square_ns.{form}"] = _ns_per_call(quadext.ext_square, singles, reps, trials)
        out[f"quadext.ext_mul_ns.{form}"] = _ns_per_call(quadext.ext_mul, pairs, reps, trials)
        out[f"quadext.mul_by_x_ns.{form}"] = _ns_per_call(quadext.mul_by_x, singles, reps, trials)
    return out


def pow_ms(numbers: list) -> float:
    """Median over ``numbers`` of the time of pow(2, n-1, n), in ms."""
    samples = []
    for n in numbers:
        reps = max(1, 20_000_000 // n.bit_length() ** 2)
        start = time.perf_counter_ns()
        for _ in range(reps):
            pow(2, n - 1, n)
        samples.append((time.perf_counter_ns() - start) / reps / 1e6)
    return statistics.median(samples)


def traced_run(inputs, seconds: float) -> dict:
    """Alternate untraced and traced passes per method until ``seconds`` have passed.

    Each pass covers the workload's first ``trace_batches`` batches.  Times
    are averaged over passes; the exact counts must repeat on every pass.
    """
    workload = inputs.workload
    batches = inputs.batches[: workload.trace_batches]
    numbers = sum(len(b) for b in batches)
    for m in METHODS:  # warm-up, as in the untraced run
        _pass(inputs, m, batches[:1])
    plain = {m: 0.0 for m in METHODS}
    traced = {m: 0.0 for m in METHODS}
    self_ns = {m: defaultdict(int) for m in METHODS}
    counts = {}
    attempted = failed = passes = 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        for m in METHODS:
            _, bad, wall = _pass(inputs, m, batches)
            plain[m] += wall
            tracer = Tracer()
            with patched(tracer):
                records, bad2, _ = _pass(inputs, m, batches, tracer)
            for name, ns in tracer.self_ns().items():
                self_ns[m][name] += ns
            traced[m] += sum(e - s for name, s, e, _ in tracer.spans if name == "cli") / 1e9
            pass_counts = _counts(records, tracer, numbers)
            if counts.setdefault(m, pass_counts) != pass_counts:
                raise RuntimeError(f"{m}: exact counts differ between passes of the same inputs")
            attempted += 2 * numbers
            failed += bad + bad2
        passes += 1

    n_ref = next((n for b in batches for n in b if inputs.expected[n]), None)
    if n_ref is None:
        raise RuntimeError("the traced batches hold no prime to time the primitives at")
    costs = cost_model.measure_m(workload.bits, 9, seed=inputs.seed)
    metrics = {}
    notes = []
    per_number = 1e6 * passes * numbers  # ns -> ms per number, averaged over passes
    for m in METHODS:
        own = self_ns[m]
        c = counts[m]
        wall_ms = traced[m] * 1e3 / (passes * numbers)
        metrics[f"{m}.trace.wall_ms"] = (wall_ms, "ms/number")
        metrics[f"{m}.cli.self_ms"] = (own["cli"] / per_number, "ms/number")
        metrics[f"{m}.steps.ms"] = (own["steps"] / per_number, "ms/number")
        if m in EXTENSION_METHODS:
            ladder_ms = own["ladder"] / per_number
            model_ms = _priced_ns(c["booked"]["ladder"], costs) / (1e6 * numbers)
            screen_decided = sum(c["decided"].get(r, 0) for r in ("small-factor", "perfect-square"))
            metrics[f"{m}.screen.ms"] = (own["screen"] / per_number, "ms/number")
            metrics[f"{m}.screen.calls"] = (c["screen_calls"], "calls/number")
            metrics[f"{m}.screen.decided_share"] = (screen_decided / numbers, "ratio")
            metrics[f"{m}.params.ms"] = (own["params"] / per_number, "ms/number")
            metrics[f"{m}.jacobi.calls"] = (c["jacobi_calls"], "calls/number")
            metrics[f"{m}.ladder.ms"] = (ladder_ms, "ms/number")
            metrics[f"{m}.ladder.ns_per_bit"] = (own["ladder"] / (passes * c["ladder_steps"]), "ns")
            metrics[f"{m}.ladder.model_ms"] = (model_ms, "ms/number")
            metrics[f"{m}.ladder.model_gap"] = (ladder_ms / model_ms, "ratio")
            metrics[f"{m}.tail.ms"] = (own["tail"] / per_number, "ms/number")
            tail_model_ms = _priced_ns(c["booked"]["tail"], costs) / (1e6 * numbers)
            notes.append(f"# {m}: ladder {ladder_ms:.4f} ms measured vs {model_ms:.4f} ms booked-and-priced; "
                         f"tail {own['tail'] / per_number:.4f} ms vs {tail_model_ms:.4f} ms; booked {c['booked']}")
            booked_total = {f: c["booked"]["ladder"][f] + c["booked"]["tail"][f] for f in BOOKED}
            if booked_total != c["ops"]:
                raise RuntimeError(f"{m}: ladder + tail bookings {booked_total} != CLI records {c['ops']}")
        if m == "rqft-smallc":
            metrics[f"{m}.search.cap_ms"] = (own["search.cap"] / per_number, "ms/number")
            metrics[f"{m}.search.scan_ms"] = (own["search.scan"] / per_number, "ms/number")
            metrics[f"{m}.search.examined"] = (c["examined"], "cand/search")
        if m == "strong":
            metrics[f"{m}.mod_pow.ms"] = (own["mod_pow"] / per_number, "ms/number")
        if m == "lucas":
            metrics[f"{m}.lucas_uv.ms"] = (own["lucas_uv"] / per_number, "ms/number")
        metrics[f"{m}.ops.squarings"] = (c["ops"]["squarings"], "count")
        metrics[f"{m}.ops.full_mults"] = (c["ops"]["full_mults"], "count")
        if m == "qft":
            metrics[f"{m}.ops.param_mults"] = (c["ops"]["param_mults"], "count")
        if m == "rqft-smallc":
            metrics[f"{m}.ops.small_mults"] = (c["ops"]["small_mults"], "count")
        metrics[f"{m}.ops.msq_per_bit"] = (c["msq_per_bit"], "msq/bit")
        for reason in DECIDED[m]:
            metrics[f"{m}.decided.{reason}"] = (c["decided"].get(reason, 0), "count")
        layer_sum = sum(own[layer] for layer in LAYERS) / per_number
        unknown = set(own) - set(LAYERS)
        if unknown or not math.isclose(layer_sum, wall_ms, rel_tol=1e-9, abs_tol=1e-9):
            raise RuntimeError(f"{m}: layer self times {layer_sum} ms do not add up to {wall_ms} ms ({unknown})")
        shares = ", ".join(f"{layer} {own[layer] / per_number / wall_ms:.1%}" for layer in LAYERS if own[layer])
        notes.append(f"# {m}: traced {wall_ms:.4f} ms/number = {shares}; untraced "
                     f"{plain[m] * 1e3 / (passes * numbers):.4f} ms/number; decided {c['decided']}; "
                     f"jacobi calls by layer {c['jacobi_by_layer']}")

    metrics["cost_model.m"] = (costs.m, "ratio")
    metrics["cost_model.square_ns"] = (costs.square_ns, "ns")
    metrics["cost_model.full_mult_ns"] = (costs.full_mult_ns, "ns")
    metrics["cost_model.small_mult_ns"] = (costs.small_mult_ns, "ns")
    for name, value in primitive_timings(n_ref, inputs.seed).items():
        metrics[name] = (value, "ns")
    ref_ms = pow_ms([n for b in batches for n in b][:8])
    metrics["ref.pow_ms"] = (ref_ms, "ms")
    smallc_vs_rqft = metrics["rqft-smallc.ladder.ns_per_bit"][0] / metrics["rqft.ladder.ns_per_bit"][0]
    metrics["model.smallc_vs_rqft"] = (smallc_vs_rqft, "ratio")
    overhead = sum(traced.values()) / sum(plain.values()) - 1
    metrics["trace.overhead"] = (overhead, "ratio")

    per_number_ms = {m: plain[m] * 1e3 / (passes * numbers) for m in METHODS}
    delta = float(nonresidue.DEFAULT_DELTA)
    notes.append(f"# model: smallc/rqft ladder ns per bit {smallc_vs_rqft:.4f} (base: rqft ladder); "
                 f"paper (2+delta)/3 = {(2 + delta) / 3:.4f} at delta = {delta}")
    notes.append("# untraced ms per number: " + ", ".join(f"{m} {v:.3f}" for m, v in per_number_ms.items())
                 + f"; over pow(2, n-1, n) = {ref_ms:.4f} ms: "
                 + ", ".join(f"{m} {v / ref_ms:.2f}x" for m, v in per_number_ms.items())
                 + f"; rqft-smallc/rqft {per_number_ms['rqft-smallc'] / per_number_ms['rqft']:.3f}x")
    notes.append(f"# {passes} traced passes of {numbers} numbers per method; measure_m {costs.as_dict()}")
    for line in notes:
        print(line)
    return {"metrics": metrics, "attempted": attempted, "failed": failed}
