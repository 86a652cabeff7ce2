"""Tests of the benchmark itself: run them with ``python3 -m pytest benchmarks``.

Each workload runs on a few numbers of its real size.  The checks: the
output carries every metric BENCHMARK.json names, no verdict fails, and
the exact counts of the traced run repeat for the same seed.
"""

import dataclasses
import json
import re

import pytest

import run

run.import_package()

import tracing  # noqa: E402  (needs the package on sys.path)

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = {
    "scan-64": dict(batch=128, batches=2, trace_batches=1),
    "prime-256": dict(batch=3, batches=2, trace_batches=1),
    "prime-2048": dict(batch=1, batches=1, trace_batches=1),
}
EXACT = re.compile(r"\.(ops\.|decided\.|screen\.calls$|search\.examined$|jacobi\.calls$)")


@pytest.fixture(scope="module", params=sorted(TINY))
def inputs(request):
    workload = dataclasses.replace(run.WORKLOADS[request.param], **TINY[request.param])
    return run.make_inputs(workload, seed=5)


def test_inputs_are_seeded_and_checked_by_the_oracle(inputs):
    again = run.make_inputs(inputs.workload, seed=5)
    assert again.batches == inputs.batches and again.digest() == inputs.digest()
    numbers = [n for b in inputs.batches for n in b]
    assert all(n.bit_length() == inputs.workload.bits and n % 2 for n in numbers)
    if inputs.workload.kind != "scan":
        assert all(inputs.expected[n] for n in numbers)
    assert run.make_inputs(inputs.workload, seed=6).digest() != inputs.digest()


def test_untraced_run_reports_every_end_to_end_metric(inputs):
    result = run.measure(inputs, seconds=0.01)
    result["metrics"] = {"setup_s": (1.0, "s"), **result["metrics"]}
    assert result["failed"] == 0 and result["attempted"] >= inputs.count
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: u for k, (_, u) in result["metrics"].items()} == expected
    assert all(v > 0 for v, _ in result["metrics"].values())


def test_traced_run_reports_every_layer_metric_and_repeats_its_counts(inputs):
    first = tracing.traced_run(inputs, seconds=0.01)
    second = tracing.traced_run(inputs, seconds=0.01)
    assert first["failed"] == second["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: u for k, (_, u) in first["metrics"].items()} == expected
    exact = {k for k in expected if EXACT.search(k)}
    assert len(exact) > 30
    assert {k: first["metrics"][k] for k in exact} == {k: second["metrics"][k] for k in exact}


def test_main_prints_the_result_as_its_last_line(capsys):
    code = run.main(["--workload", "scan-64", "--seed", "3", "--seconds", "0.01", "--trace", "0"])
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    for name, metric in result["metrics"].items():
        assert f"{name} = {metric['value']!r} {metric['unit']}" in "\n".join(lines)
    assert any(line.startswith("failed_ratio = 0.0 ") for line in lines)


def test_check_batch_counts_every_kind_of_failure():
    expected = {15: False, 17: True, 21: False}
    batch = [15, 17, 21]

    def records(*recs):
        return "\n".join(json.dumps(r) for r in recs)

    good = records(
        {"n": 15, "verdict": "composite", "factor": 3},
        {"n": 17, "verdict": "probable-prime", "factor": None},
        {"n": 21, "verdict": "composite", "factor": None},
    )
    assert run.check_batch(batch, expected, 1, good)[1] == 0
    wrong = records(
        {"n": 15, "verdict": "probable-prime", "factor": None},  # wrong verdict
        {"n": 17, "verdict": "probable-prime", "factor": None},
        {"n": 21, "verdict": "composite", "factor": 21},  # trivial factor
    )
    assert run.check_batch(batch, expected, 1, wrong)[1] == 2
    assert run.check_batch(batch, expected, 1, good.splitlines()[0])[1] == 2  # missing records
    assert run.check_batch(batch, expected, 3, good)[1] == 3
    assert run.check_batch(batch, expected, None, good)[1] == 3


def test_call_cli_turns_a_crash_into_a_failed_batch(monkeypatch):
    from frobprime import cli

    def crash(argv):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "main", crash)
    code, output, _ = run.call_cli(["test", "7"], "")
    assert code is None and output == ""
    assert run.check_batch([7], {7: True}, code, output)[1] == 1


def test_tracing_restores_every_patched_attribute():
    from frobprime import frobenius, nonresidue

    before = (frobenius.ext_pow, frobenius.jacobi, nonresidue.SearchConfig.__dict__["for_modulus"])
    with tracing.patched(tracing.Tracer()):
        assert frobenius.ext_pow is not before[0]
    assert (frobenius.ext_pow, frobenius.jacobi, nonresidue.SearchConfig.__dict__["for_modulus"]) == before
