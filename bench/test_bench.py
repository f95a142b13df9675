"""Smoke test of the benchmark at tiny sizes (Kerdock m = 3, a few trials).

Checks that every run reports every metric of BENCHMARK.json with its unit,
that this code passes its own output checks, and that a corrupted reference
drives error_rate above 0.
"""

import copy
import json

import pytest

import run as bench

SECONDS = 0.05  # every loop still runs at least one operation


def _declared(kind: str) -> dict[str, str]:
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def test_declared_metrics_match_the_harness():
    assert _declared("end_to_end") == dict(bench.END_TO_END)
    per_layer = {name: unit for name, (unit, _) in bench.LAYER_TIMES.items()}
    per_layer.update(bench.COUNTS)
    per_layer[bench.OVERHEAD[0]] = bench.OVERHEAD[1]
    assert _declared("per_layer") == per_layer


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", bench.WORKLOADS)
def test_tiny_run_reports_every_metric(name, trace):
    detail, result, _ = bench.run_workload(name, seconds=SECONDS, trace=trace, sizes=bench.TINY)
    assert result["correct"], detail["checks"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    assert units == _declared("per_layer" if trace else "end_to_end")
    named = {"setup_s": "s", "peak_rss_mb": "MB", "error_rate": "ratio"}
    named.update({
        "simulate_tone": {"detections_per_s": "1/s"},
        "simulate_group": {"detections_per_s": "1/s"},
        "coherence_kerdock5": {"report_s": "s"},
        "detect_stream": {"detections_per_s": "1/s", "detect_p50_us": "us", "detect_p99_us": "us"},
    }[name])
    reported = detail["end_to_end"]
    assert {k: reported[k]["unit"] for k in named} == named
    assert reported["error_rate"]["value"] == 0.0
    fp = detail["fingerprint"]
    assert fp["workload_seed"] == bench.DEFAULT_SEED and fp["matrix_sha256"]
    if trace:
        # self times partition the traced operations
        assert detail["traced_self_sum_s"] > 0


@pytest.mark.parametrize("name", ["simulate_tone", "coherence_kerdock5"])
def test_corrupted_reference_raises_error_rate(name):
    reference = copy.deepcopy(json.loads(bench.REFERENCE_PATH.read_text(encoding="ascii")))
    tiny = reference["tiny"]
    row = tiny["simulate_tone"]["report_csv"][1]
    tiny["simulate_tone"]["report_csv"][1] = row[:-1] + ("1" if row[-1] != "1" else "0")
    tiny["coherence_kerdock5"]["nu"] *= 1.001
    detail, result, _ = bench.run_workload(name, seconds=SECONDS, sizes=bench.TINY,
                                           reference=reference)
    assert not result["correct"] and result["failed"] >= 1
    assert detail["end_to_end"]["error_rate"]["value"] > 0
