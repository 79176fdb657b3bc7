"""The benchmark's own test: a tiny-input pass of every workload.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from calibration import REFERENCE_SECONDS, calibration_seconds  # noqa: E402
from workloads import WORKLOADS, Outcome, committed_digests  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _tiny(name, trace, tmp_path=None, workload=None):
    workload = workload or WORKLOADS[name](seed=3, tiny=True)
    trace_path = tmp_path / "trace.json" if trace else None
    return run.measure(workload, 0, trace, min_iterations=1, trace_path=trace_path)


def test_spec_names_every_metric_and_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_untraced_pass_prints_every_end_to_end_metric(name):
    result = _tiny(name, trace=False)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {n: m["unit"] for n, m in result["metrics"].items()} == run.END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_pass_layers_add_up_to_the_traced_wall(name, tmp_path):
    result = _tiny(name, trace=True, tmp_path=tmp_path)
    assert result["correct"] and result["failed"] == 0
    metrics = {n: m["value"] for n, m in result["metrics"].items()}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == run.PER_LAYER
    layers = sum(metrics[n] for n in run.SELF_TIMES)
    assert layers == pytest.approx(metrics["traced_wall_s"], rel=1e-9)
    if name != "flow_topup":
        assert metrics["atpg.attempted"] == 0
    assert (metrics["service.ckpt_reads"] > 0) == (name == "service_resume")
    events = json.loads((tmp_path / "trace.json").read_text())["traceEvents"]
    assert events and all(event["ph"] == "X" and event["dur"] >= 0 for event in events)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_pass_matches_the_committed_digests(name):
    workload = WORKLOADS[name](seed=3, tiny=True)
    result = _tiny(name, trace=False, workload=workload)
    assert workload.reference_source == "committed"
    assert result["correct"] and result["failed"] == 0


def test_digests_are_committed_for_the_default_and_held_out_seeds():
    for name in WORKLOADS:
        for seed in (1, 7919):
            assert committed_digests(name, seed, tiny=False), (name, seed)


def test_seed_without_committed_digests_computes_its_reference():
    workload = WORKLOADS["service_ckpt"](seed=4, tiny=True)
    assert committed_digests(workload.name, 4, tiny=True) is None
    result = _tiny(workload.name, trace=False, workload=workload)
    assert workload.reference_source == "in-run"
    assert result["correct"] and result["failed"] == 0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_corrupted_digest_counts_as_failed_operation(name):
    class Corrupted(WORKLOADS[name]):
        def reference(self):
            super().reference()
            # The flow fills its references lazily, one per core.
            keys = self.expected or [key for key, _circuit, _config in self.inputs]
            self.expected = {key: "0" * 64 for key in keys}

    result = _tiny(name, trace=False, workload=Corrupted(seed=3, tiny=True))
    assert not result["correct"]
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]


def test_timings_scale_by_the_calibration():
    outcome = Outcome(2.0, {"": [2.0]}, 1, 0, calibration_s=2 * REFERENCE_SECONDS)
    assert outcome.scale == pytest.approx(0.5)
    assert calibration_seconds() > 0


def test_an_iteration_leaves_the_measuring_process_unchanged():
    class Recording(WORKLOADS["flow_topup"]):
        def iterate(self, tracer, index=0, replica=False):
            self.ran_in = os.getpid()
            return super().iterate(tracer, index, replica)

    workload = Recording(seed=3, tiny=True)
    workload.setup()
    workload.reference()
    outcome, spans = run.in_child(run.iteration, workload, None, 0, False)
    assert not hasattr(workload, "ran_in")
    assert outcome.wall_s > 0 and outcome.calibration_s > 0 and spans == []
    workload.settle(outcome)
    assert outcome.failed == 0


def test_peak_rss_covers_only_what_follows_the_reset():
    if not run.reset_peak_rss():
        pytest.skip("no /proc/self/clear_refs")
    baseline = run.peak_rss_mb(since_reset=True)
    ballast = b"\x01" * (64 * 1024 * 1024)  # written, so resident
    del ballast
    assert run.peak_rss_mb(since_reset=True) >= baseline + 60
    run.reset_peak_rss()
    assert run.peak_rss_mb(since_reset=True) < baseline + 32


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    completed = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "flow_topup", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
