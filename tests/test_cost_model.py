"""Cost accounting: per-iteration model, summaries, table, measurement."""

import math

import pytest

from frobprime.cost_model import (
    DELTA_STAR,
    PRESET_MS,
    CostWeights,
    Variant,
    cost_table,
    measure_m,
    per_op_cost,
    render_cost_table,
    summarize,
)
from frobprime import quadext
from frobprime.nonresidue import DELTA_THRESHOLD
from frobprime.quadext import OpCounter


def test_delta_star_value():
    assert DELTA_STAR == pytest.approx(1 / (3 * math.sqrt(math.e)), abs=1e-15)
    assert DELTA_STAR == pytest.approx(0.2021768866, abs=1e-9)
    assert DELTA_STAR == DELTA_THRESHOLD


def test_per_op_costs_at_reference_ratios():
    w = CostWeights(1.3, DELTA_STAR)
    assert per_op_cost(Variant.QFT, w) == pytest.approx(3.3)
    assert per_op_cost(Variant.RQFT, w) == pytest.approx(3.9)
    assert per_op_cost(Variant.RQFT_ERH, w) == pytest.approx(2.6)
    assert per_op_cost(Variant.RQFT_SMALLC, w) == pytest.approx(2.8628, abs=5e-4)
    assert per_op_cost("qft", CostWeights(2.0)) == 4.0  # string names resolve


def test_weights_validation():
    with pytest.raises(ValueError):
        CostWeights(0)
    with pytest.raises(ValueError):
        CostWeights(-1.0)
    with pytest.raises(ValueError):
        CostWeights(float("inf"))
    with pytest.raises(ValueError):
        CostWeights(1.0, 0.0)
    with pytest.raises(ValueError):
        CostWeights(1.0, 1.5)
    CostWeights(1.0, 1.0)  # boundary delta allowed


def test_variant_ordering_invariants():
    for m in (1.0, 1.3, 2.0, 5.0):
        for delta in (0.05, DELTA_STAR, 0.5, 1.0):
            w = CostWeights(m, delta)
            erh = per_op_cost(Variant.RQFT_ERH, w)
            smallc = per_op_cost(Variant.RQFT_SMALLC, w)
            full = per_op_cost(Variant.RQFT, w)
            assert erh <= smallc <= full + 1e-12
            # the small-c premium over the conditional variant is exactly delta/2
            assert smallc == pytest.approx(erh * (1 + delta / 2))
        # a full multiplication never beats 2 squarings + 1 multiplication
        assert per_op_cost(Variant.QFT, CostWeights(m)) <= per_op_cost(Variant.RQFT, CostWeights(m)) + 1e-12


def test_cost_table_reproduces_reference_values():
    rows = cost_table(delta=DELTA_STAR)
    assert [row["m"] for row in rows] == list(PRESET_MS)
    expected = {
        2.0: (4.0, 6.0, 4.0, 4.40),
        1.3: (3.3, 3.9, 2.6, 2.86),
        1.0: (3.0, 3.0, 2.0, 2.20),
    }
    for row in rows:
        want = expected[row["m"]]
        got = (row["qft"], row["rqft"], row["rqft-erh"], row["rqft-smallc"])
        for g, w in zip(got, want):
            assert g == pytest.approx(w, abs=0.01), (row["m"], got, want)


def test_cost_table_custom_ms():
    rows = cost_table([1.5], delta=0.5)
    assert rows[0]["qft"] == 3.5
    assert rows[0]["rqft-smallc"] == pytest.approx(2.5 * 1.5)


def test_cost_table_rejects_an_empty_ms():
    # no m is no table: an empty ms fails here, not later in render_cost_table
    for empty in ([], (), iter([])):
        with pytest.raises(ValueError, match="at least one m"):
            cost_table(empty)


def test_render_cost_table_layout():
    text = render_cost_table(cost_table())
    lines = text.splitlines()
    assert lines[0].split() == ["m", "qft", "rqft", "rqft-erh", "rqft-smallc"]
    assert len(lines) == 1 + len(PRESET_MS)
    assert "2.86" in text and "3.90" in text and "4.40" in text


def test_summarize_formula_is_exact():
    counter = OpCounter(squarings=10, full_mults=4, small_mults=6, param_mults=99)
    report = summarize(counter, 2**255 + 1, CostWeights(2.0, 0.25))
    assert report.msq_total == pytest.approx(10 + 2.0 * 4 + 0.25 * 2.0 * 6)
    lg = math.log2(2**255 + 1)
    assert report.selfridge_units == pytest.approx(report.msq_total / lg)
    assert report.selfridges == pytest.approx((10 + 4 + 6) / lg)
    assert report.param_mults == 99
    assert set(report.as_dict()) == {"msq_total", "selfridge_units", "selfridges", "param_mults"}


def test_the_booked_square_of_each_ring_form_is_its_per_iteration_cost():
    # quadext's cost table against the paper's formulas, written out apart
    forms = {"general": Variant.QFT, "pure": Variant.RQFT, "pure-smallc": Variant.RQFT_SMALLC}
    assert set(forms) == set(quadext._STEP_COSTS)
    for form, variant in forms.items():
        square = OpCounter(*quadext._STEP_COSTS[form].square)
        for m in (1.0, 1.3, 2.0, 3.7):
            for delta in (DELTA_STAR, 0.5, 1.0):
                w = CostWeights(m, delta)
                booked = summarize(square, 10**9 + 7, w).msq_total
                assert booked == pytest.approx(per_op_cost(variant, w)), (form, m, delta)


def test_summarize_one_selfridge_is_one_squaring_per_bit():
    n = (1 << 255) | 1
    counter = OpCounter(squarings=n.bit_length(), full_mults=0)
    report = summarize(counter, n, CostWeights(1.0))
    assert report.selfridge_units == pytest.approx(1.0, abs=0.01)
    assert report.selfridges == pytest.approx(1.0, abs=0.01)


def test_summarize_is_additive_over_counters():
    a = OpCounter(5, 3, 2, 1)
    b = OpCounter(7, 1, 0, 4)
    w = CostWeights(1.7, 0.3)
    n = 10**9 + 7
    total = summarize(a + b, n, w)
    parts = summarize(a, n, w), summarize(b, n, w)
    assert total.msq_total == pytest.approx(parts[0].msq_total + parts[1].msq_total)
    assert total.param_mults == parts[0].param_mults + parts[1].param_mults


def test_measure_m_smoke():
    measured = measure_m(64, 1, seed=1, reps=40)
    assert measured.bits == 64 and measured.trials == 1 and measured.reps == 40
    assert measured.seed == 1
    assert measured.square_ns > 0 and measured.full_mult_ns > 0 and measured.small_mult_ns > 0
    assert measured.m > 0 and measured.small_m > 0
    w = measured.weights()
    assert w.m == measured.m and w.delta == measured.delta
    d = measured.as_dict()
    assert d["m"] == measured.m and "square_ns" in d


def test_measure_m_validation():
    with pytest.raises(ValueError):
        measure_m(32, 1)
    with pytest.raises(ValueError):
        measure_m(64, 0)
    for reps in (0, -3):
        with pytest.raises(ValueError, match="reps"):
            measure_m(64, 1, reps=reps)
