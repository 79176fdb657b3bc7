"""Report bytes must not depend on Python's string-hash seed.

Set and dict iteration over strings follows ``PYTHONHASHSEED``, so any
report content that leaks such an order would differ between interpreter
runs.  Each run below is a fresh interpreter under a fixed hash seed; it
prints the sha256 of a tiny two-scenario campaign's canonical report --
serial and on a 2-worker pool -- and of a tiny Table-1 flow's measurements.
Every digest must be the same under every seed (and serial must equal
pooled).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

pytestmark = pytest.mark.multiprocess

HASH_SEEDS = ("0", "1", "12345")

RUN = r"""
import hashlib
import json

from repro.campaign import CampaignRunner, CampaignScenario
from repro.core import LogicBistConfig, LogicBistFlow
from repro.cores import tiny_recipe


def sha256(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


base = dict(
    total_scan_chains=4,
    random_patterns=96,
    signature_patterns=8,
    tpi_profile_patterns=32,
    observation_point_budget=2,
)
scenarios = [
    CampaignScenario(
        "plain",
        tiny_recipe(3).build().circuit,
        LogicBistConfig(**base, tpi_method="none"),
    ),
    CampaignScenario(
        "at-speed",
        tiny_recipe(5).build().circuit,
        LogicBistConfig(
            **base,
            measure_transition_coverage=True,
            transition_patterns=32,
            skew_trials=20,
        ),
    ),
]
digests = {
    f"campaign/{workers}w": sha256(
        CampaignRunner(num_workers=workers).run(scenarios).report_bytes()
    )
    for workers in (1, 2)
}
flow = LogicBistFlow(
    LogicBistConfig(**base, topup_max_faults=20, topup_backtrack_limit=20)
).run(tiny_recipe().build().circuit)
fault_list = flow.fault_list
measurements = {
    "coverage_random": flow.fault_coverage_random,
    "coverage_final": flow.fault_coverage_final,
    "coverage_curve": flow.coverage_curve,
    "signatures": sorted(flow.signatures.items()),
    "test_points": flow.test_point_count,
    "top_up_patterns": flow.top_up_pattern_count,
    "first_detections": sorted(
        (str(fault), fault_list.record(fault).first_detection)
        for fault in fault_list.detected()
    ),
}
digests["flow"] = sha256(json.dumps(measurements, sort_keys=True).encode())
print(json.dumps(digests, sort_keys=True))
"""


def _digests(hash_seed: str) -> dict:
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    )
    completed = subprocess.run(
        [sys.executable, "-c", RUN],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
        check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_report_digests_identical_across_hash_seeds():
    by_seed = {seed: _digests(seed) for seed in HASH_SEEDS}
    reference = by_seed[HASH_SEEDS[0]]
    assert set(reference) == {"campaign/1w", "campaign/2w", "flow"}
    assert reference["campaign/1w"] == reference["campaign/2w"]
    for seed, digests in by_seed.items():
        assert digests == reference, f"PYTHONHASHSEED={seed} changed a report"
