"""Fast checks of the benchmark's own arithmetic and declarations (no
workload runs here; the whole file takes well under two seconds)."""

import json
import re
from pathlib import Path

import pytest

import compare
import harness
import layers
import loadgen
from measure import Span, SpanRecorder, per_request_ms, percentile, self_times, spread
from wl_frag_relational import FragRelational
from wl_svc_image_rank import SvcImageRank
from wl_text_rank import TextRank
from wl_txn_mixed import TxnMixed

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# -- seeded generators ---------------------------------------------------
GENERATORS = {
    "text_rank": lambda seed: loadgen.text_queries(seed, 50),
    "svc_image_rank": lambda seed: loadgen.image_queries(seed, 50, 40),
    "frag_relational": lambda seed: loadgen.relational_ops(seed, 50),
    "txn_mixed": lambda seed: loadgen.txn_commits(seed, 20),
}


@pytest.mark.parametrize("workload", sorted(GENERATORS))
def test_ops_are_a_pure_function_of_the_seed(workload):
    generate = GENERATORS[workload]
    assert loadgen.ops_hash(generate(7)) == loadgen.ops_hash(generate(7))
    assert loadgen.ops_hash(generate(7)) != loadgen.ops_hash(generate(8))


def test_relational_arrays_are_seeded():
    a, b, c = (loadgen.relational_arrays(seed, 1000) for seed in (3, 3, 4))
    assert all((a[name] == b[name]).all() for name in a)
    assert any((a[name] != c[name]).any() for name in a)


def test_queries_hold_distinct_terms():
    assert all(len(set(q)) == 3 for q in loadgen.text_queries(1, 200))
    assert all(len(set(q)) == 6 for q in loadgen.image_queries(1, 200, 40))


# -- percentile and span arithmetic --------------------------------------
def test_percentile_is_nearest_rank():
    sample = [15, 20, 35, 40, 50]
    assert percentile(sample, 5) == 15
    assert percentile(sample, 30) == 20
    assert percentile(sample, 40) == 20
    assert percentile(sample, 50) == 35
    assert percentile(sample, 90) == 50
    assert percentile(sample, 100) == 50
    assert percentile([4, 1, 3, 2], 50) == 2  # lower middle, never interpolated
    assert percentile(list(range(1, 101)), 90) == 90
    with pytest.raises(ValueError):
        percentile([], 50)


def test_spread_is_iqr_over_median():
    values = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19]
    assert spread(values) == pytest.approx((17.25 - 11.75) / 14.5)
    assert spread([5]) == 0.0


def test_self_time_is_duration_minus_child_cover():
    spans = [
        Span(0, None, 1, "request", 0.0, 10.0),
        Span(1, 0, 1, "a", 1.0, 4.0),
        Span(2, 0, 1, "b", 3.0, 6.0),    # overlaps a: the union 1..6 counts once
        Span(3, 0, 1, "c", 9.0, 12.0),   # clipped to the parent's end
        Span(4, 1, 1, "a.leaf", 2.0, 3.0),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs[1] == pytest.approx(2.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(1.0)


def test_per_request_sums_same_named_spans():
    spans = [
        Span(0, None, 1, "join", 0.0, 0.002),
        Span(1, None, 1, "join", 0.002, 0.005),
        Span(2, None, 2, "join", 0.0, 0.001),
        Span(3, None, None, "probe", 0.0, 0.004),
        Span(4, None, None, "probe", 0.0, 0.006),
    ]
    ms = per_request_ms(spans)
    assert ms["join"] == pytest.approx({1: 5.0, 2: 1.0})
    assert sorted(ms["probe"].values()) == pytest.approx([4.0, 6.0])


def test_recorder_nests_and_inherits_the_request():
    rec = SpanRecorder()
    with rec.span("request", 42) as outer:
        with rec.span("child"):
            rec.add("late-named", 0.0, 1.0)
    by_name = {s.name: s for s in rec.spans}
    assert by_name["child"].parent == outer
    assert by_name["child"].request == 42
    assert by_name["late-named"].parent == by_name["child"].span_id
    assert [row[0] for row in rec.dump()] == [0, 1, 2]


def test_dissection_starts_with_the_first_op_and_has_a_floor():
    items = list(harness.dissect_items("first", iter(range(1000)), seconds=0.0))
    assert items[0] == "first"
    assert len(items) == harness.MIN_DISSECT_OPS


def test_span_metrics_report_only_declared_names():
    rec = SpanRecorder()
    with rec.span("dissect", 1):
        with rec.span("moa.parse"):
            pass
        with rec.span("not.declared"):
            pass
    metrics = layers.span_metrics(rec, harness.PER_LAYER)
    assert set(metrics) == {
        "moa.parse_ms", "executor.reconstruct_ms", "trace.spans"
    }
    assert metrics["trace.spans"] == 3


def test_statement_classes():
    assert layers.statement_class({"join": 1, "reverse": 1}) == "join"
    assert layers.statement_class({"mirror": 1, "mark": 1, "oid": 1}) == "positional"
    assert layers.statement_class({"[*]": 1}) == "multiplex"
    assert layers.statement_class({"{sum}": 1, "count": 1}) == "pump"
    assert layers.statement_class({"dbl": 1, "+": 1}) == "other"


# -- declarations ----------------------------------------------------------
def test_names_and_units_are_well_formed_and_unique():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in SPEC["workloads"]]
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    assert all(UNIT.match(m["unit"]) for m in metrics)
    assert all(m["better"] in ("higher", "lower") for m in metrics)
    assert all(NAME.match(name) for name in harness.EXTRA_END_TO_END)


def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["paths"] == ["benchmarks/mirrorbench"]
    assert SPEC["command"][-1].startswith(SPEC["paths"][0] + "/")
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200
               for w in SPEC["workloads"])
    assert all(set(m) == {"name", "unit", "better", "bound"}
               for m in SPEC["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in SPEC["per_layer"])
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_code_and_benchmark_json_name_the_same_things():
    classes = (TextRank, SvcImageRank, FragRelational, TxnMixed)
    assert [cls.name for cls in classes] == [w["name"] for w in SPEC["workloads"]]
    assert list(harness.END_TO_END) == [
        "setup_s", "op_p50_ms", "op_p90_ms", "ops_per_s", "peak_rss_mb"
    ]
    assert {f"txn.{name}" for name in harness.EXTRA_END_TO_END} - {
        "txn.failed_frac"
    } <= set(harness.PER_LAYER)


# -- compare ---------------------------------------------------------------
def test_verdicts():
    steady = [100, 101, 99, 100, 102, 100]
    assert compare.verdict(steady, [x * 1.2 for x in steady], "lower", 0.10) == "regressed"
    assert compare.verdict(steady, [x * 0.8 for x in steady], "lower", 0.10) == "improved"
    assert compare.verdict(steady, [x * 1.05 for x in steady], "lower", 0.10) == "unchanged"
    assert compare.verdict(steady, [x * 0.8 for x in steady], "higher", 0.10) == "regressed"
    noisy = [60, 100, 140, 80, 120, 100]
    assert compare.verdict(noisy, steady, "lower", 0.10) == "unresolved"
    # Single runs carry no spread: only a move beyond the bound counts.
    assert compare.verdict([100], [95], "lower", 0.10) == "unchanged"
    assert compare.verdict([100], [85], "lower", 0.10) == "improved"
    # Absolute bounds: any worsening regresses.
    assert compare.verdict([0.0], [0.01], "lower", 0) == "regressed"
    assert compare.verdict([0.0], [0.0], "lower", 0) == "unchanged"
    assert compare.verdict([5.0], [6.0], "lower", None) == "-"
