"""Tests of the benchmark harness itself.  Run: python3 -m pytest -q bench"""

import json
import random
import shutil
import subprocess
import sys
from argparse import Namespace
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from linquant import parse_quantity, qelim  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
INPUTS = {"inputs_digest": "ab" * 32, "base_seed": 40_000}

# First 16 hex digits of each corpus' input digest.  A change here means the
# generator or the pair construction changed, so results before and after it
# measure different inputs.
PINNED_INPUTS = {"single": "6f3e8ac3ff418f4d", "nested": "71483281bcd6c9f0", "interp": "a8ca23983de84368"}


def test_percentile_is_nearest_rank():
    values = list(range(1, 151))
    assert run.percentile(values, 90) == 135
    assert run.percentile(values, 50) == 75
    assert run.percentile([3.0], 90) == 3.0


def test_self_time_subtracts_child_spans():
    spans = [("a", -1, 0.0, 10.0), ("b", 0, 1.0, 4.0), ("c", 1, 2.0, 3.0), ("b", 0, 5.0, 6.0)]
    assert tracing.self_times(spans) == {"a": 6.0, "b": 3.0, "c": 1.0}


def _traced_elimination():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        workloads.elim_op(("sup x : [x <= y && x > 0] * x + [x > y] * y",))
    finally:
        metrics = tracer.metrics()
        tracer.uninstall()
    return tracer, metrics


def test_tracer_reports_every_layer_metric_and_restores_names():
    original = qelim.to_gnf
    tracer, metrics = _traced_elimination()
    assert qelim.to_gnf is original
    assert list(metrics) == tracing.METRICS
    assert tracer.absent == []
    assert metrics["qelim.rounds"] == 1
    assert metrics["qelim.disjuncts"] == metrics["qelim.combine_in_bodies"] >= 1
    assert metrics["normalform.gnf_s"] > 0
    assert metrics["logic.sat_calls"] > 0


def test_missing_trace_target_is_recorded_absent(monkeypatch):
    monkeypatch.setitem(tracing.SPANS, "qelim.merge_s", [("linquant.qelim", "no_such_function")])
    tracer, metrics = _traced_elimination()
    assert tracer.absent == ["linquant.qelim.no_such_function"]
    assert metrics["qelim.merge_s"] == 0.0


def test_corpora_are_pinned():
    for name, workload in workloads.WORKLOADS.items():
        assert workloads.inputs_digest(workload.corpus())[:16] == PINNED_INPUTS[name], name


def test_checks_accept_the_engine_and_reject_a_wrong_result():
    constant = parse_quantity("[true] * 12345")
    for name, workload in workloads.WORKLOADS.items():
        texts = workload.corpus()[0]
        _, results = workload.op(texts)
        assert workload.check(texts, results, random.Random(0)), name
        wrong = (constant,) * len(results)
        assert not workload.check(texts, wrong, random.Random(0)), name


def _fake_pass(traced: bool, status=("ok", "ok"), digests=("d0", "d1"), check=None) -> dict:
    report = {
        "latency_s": [0.010, 0.030],
        "status": list(status),
        "digests": list(digests),
        "out_width": 7,
        "out_depth": 9,
        "peak_rss_mb": 50.0,
        "traced": traced,
    }
    if traced:
        report["layers"] = {name: 1.0 for name in tracing.METRICS}
        report["absent"] = []
    if check is not None:
        report["check"] = list(check)
        report["check_s"] = 0.5
    return report


def test_result_metrics_match_benchmark_json():
    reports = [_fake_pass(False), _fake_pass(True, check=(True, True))]
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        args = Namespace(seed=1, base_seed=None, trace=trace)
        _, result = run.summarize("single", args, [0.2, 0.3, 0.25], INPUTS, reports)
        units = {name: metric["unit"] for name, metric in result["metrics"].items()}
        assert units == {m["name"]: m["unit"] for m in SPEC[section]}
        assert result["correct"] and result["attempted"] == 4 and result["failed"] == 0


def test_failures_and_hash_seed_differences_are_counted():
    args = Namespace(seed=1, base_seed=None, trace=0)
    reports = [_fake_pass(False, status=("cap", "ok")), _fake_pass(False, check=(True, False))]
    _, result = run.summarize("single", args, [0.2], INPUTS, reports)
    # op 0 hit the cap in the first pass; op 1's output fails its check in both
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 4, 3)

    reports = [_fake_pass(False), _fake_pass(False, digests=("d0", "dX"), check=(True, True))]
    _, result = run.summarize("single", args, [0.2], INPUTS, reports)
    assert result["failed"] == 0 and not result["correct"]


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "single", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
