"""Benchmark: sharded campaign fault-simulation throughput vs the serial kernel.

Measures PPSFP stuck-at fault simulation on the scaled Core Y stand-in three
ways, the sharded two through the production stage graph -- the
:class:`~repro.campaign.pipeline.ShardFanOutStage` that expands a scan into
one :class:`~repro.campaign.pipeline.ShardScanStage` per shard plus the
min-merge:

* **serial** -- :meth:`FaultSimulator.simulate_blocks`, the oracle path,
* **sharded, sequential** -- the 4-fault-shard plan, each shard stage
  drained alone on the :class:`SerialScheduler`, recording each shard's own
  compute seconds; ``serial / max(shard)`` is the *projected* 4-worker
  speedup, i.e. the speedup the shard plan delivers when every shard really
  gets its own CPU (it folds in the duplicated fault-free simulation and
  per-shard overhead, but no multiprocessing dispatch cost),
* **sharded, pooled** -- the same fan-out drained through the
  :class:`PooledScheduler`, one worker per available CPU (at most 4, never
  oversubscribed), recording the end-to-end wall clock.

Both numbers land in ``benchmarks/BENCH_campaign.json`` next to the host's
CPU count, because they answer different questions: the wall speedup is what
*this* machine delivers at its pool width, while the projected speedup is
the machine-independent quality of the shard plan -- the acceptance bar is
``>= 2.5x`` at 4 shards.  Every run also re-asserts bit-identity of the
merged results against the serial engine, so the benchmark doubles as an
equivalence check at full workload scale.

Run as a script (writes the JSON):

    PYTHONPATH=src python benchmarks/bench_campaign.py

or through pytest:

    PYTHONPATH=src pytest benchmarks/bench_campaign.py -s
"""

from __future__ import annotations

import random
import time

from repro.campaign.pipeline import (
    PHASE_RANDOM,
    MergeDetectionsStage,
    ScenarioBundle,
    ShardFanOutStage,
    release_scenario_engines,
    unique_scenario_key,
)
from repro.campaign.scheduler import PooledScheduler, SerialScheduler, StageNode
from repro.cores import core_y_recipe
from repro.faults import FaultSimulator, collapse_stuck_at
from repro.simulation import iter_blocks

from conftest import cpu_counts, print_rows, scaled, smoke_mode, write_bench_json

#: Patterns per engine run (every engine simulates this same workload).
#: Large enough that each worker's fixed cost (kernel build + its share of
#: cone-plan compilation) amortizes the way it does in a real 20K-pattern
#: campaign.
PATTERNS = scaled(4096, 256)
BLOCK_SIZE = 256
#: Fault shards of the plan (and the most pool workers the bench asks for).
SHARDS = 4
#: Acceptance bar for the projected 4-shard fault-sim speedup.
TARGET_SPEEDUP = 2.5


def _build_workload():
    recipe = core_y_recipe()
    circuit = recipe.build().circuit
    rng = random.Random(20050307)
    stimulus = circuit.stimulus_nets()
    patterns = [
        {net: rng.randint(0, 1) for net in stimulus} for _ in range(PATTERNS)
    ]
    blocks = list(iter_blocks(patterns, block_size=BLOCK_SIZE, nets=stimulus))
    return recipe, circuit, blocks


def _fault_snapshot(fault_list):
    return {
        str(fault): (
            fault_list.record(fault).status.name,
            fault_list.record(fault).first_detection,
        )
        for fault in fault_list.faults()
    }


#: Timed sections run this many times; the minimum is recorded (the standard
#: noise-rejection practice -- scheduler interference only ever adds time).
REPEATS = scaled(2, 1)


def _run_serial(circuit, blocks):
    seconds = []
    for _ in range(REPEATS):
        fault_list = collapse_stuck_at(circuit).to_fault_list()
        engine = FaultSimulator(circuit)
        start = time.perf_counter()
        engine.simulate_blocks(fault_list, blocks)
        seconds.append(time.perf_counter() - start)
    return min(seconds), fault_list


#: Artifact key the session bundle is preloaded under.
SESSION_KEY = "session"


def _session_bundle(circuit, blocks):
    """A fresh fault list and its shard source over ``blocks``."""
    fault_list = collapse_stuck_at(circuit).to_fault_list()
    offset_blocks = []
    cursor = 0
    for block in blocks:
        offset_blocks.append((cursor, block))
        cursor += block.num_patterns
    return ScenarioBundle(
        scenario_key=unique_scenario_key("bench"),
        core=None,
        stumps=None,
        clock_tree=None,
        capture_schedule=None,
        fault_list=fault_list,
        state=FaultSimulator(circuit).shard_state(tuple(fault_list.undetected())),
        offset_blocks=tuple(offset_blocks),
        boundaries=tuple(offset + block.num_patterns for offset, block in offset_blocks),
    )


def _fan_out_node(bundle, num_shards):
    key = f"{bundle.scenario_key}/fault_sim"
    return StageNode(
        key=key,
        task=ShardFanOutStage(
            source_key=SESSION_KEY,
            prefix=key,
            scenario="bench",
            phase=PHASE_RANDOM,
            merge=MergeDetectionsStage(),
            fault_shards=num_shards,
        ),
        deps=(SESSION_KEY,),
        local=True,
    )


def _drain(scheduler, bundle, nodes):
    try:
        return scheduler.run(nodes, preloaded={SESSION_KEY: bundle})
    finally:
        release_scenario_engines([bundle.scenario_key])


def _run_shards_sequential(circuit, blocks, num_shards):
    """Drain the shard plan one shard stage at a time, timing each alone.

    The shard stages come from the production fan-out (site-local keyed
    round-robin), so the benchmark measures exactly the plan the pool runs.
    Each shard's engine is released after every drain, but the compiled
    kernel stays cached on the circuit from the serial run, so shards are
    timed warm and a pool worker's own kernel compile is left out.  Each
    ``seconds`` is a single-CPU measurement unpolluted by time-slicing
    against concurrent workers.
    """
    bundle = _session_bundle(circuit, blocks)
    shard_nodes = _fan_out_node(bundle, num_shards).task.run(bundle).nodes[:-1]
    start = time.perf_counter()
    shard_seconds = []
    for node in shard_nodes:
        per_repeat = [
            _drain(SerialScheduler(), bundle, [node]).store[node.key].seconds
            for _ in range(REPEATS)
        ]
        shard_seconds.append(min(per_repeat))
    wall = time.perf_counter() - start
    return wall, shard_seconds


def _run_shards_pooled(circuit, blocks, num_shards, num_workers):
    """The whole fan-out on the pooled scheduler (serial below 2 CPUs)."""
    seconds = []
    for _ in range(REPEATS):
        bundle = _session_bundle(circuit, blocks)
        scheduler = (
            PooledScheduler(num_workers) if num_workers >= 2 else SerialScheduler()
        )
        start = time.perf_counter()
        _drain(scheduler, bundle, [_fan_out_node(bundle, num_shards)])
        seconds.append(time.perf_counter() - start)
    return min(seconds), bundle.fault_list


def run() -> dict:
    recipe, circuit, blocks = _build_workload()
    fault_count = len(collapse_stuck_at(circuit).representatives)
    cpus = cpu_counts()["cpus_available"] or 1
    pool_workers = min(SHARDS, cpus)

    serial_seconds, serial_list = _run_serial(circuit, blocks)
    _, shard_seconds = _run_shards_sequential(circuit, blocks, SHARDS)
    sequential_seconds = sum(shard_seconds)
    pool_seconds, pool_list = _run_shards_pooled(circuit, blocks, SHARDS, pool_workers)

    # The benchmark doubles as a full-scale equivalence check.
    serial_snapshot = _fault_snapshot(serial_list)
    pool_snapshot = _fault_snapshot(pool_list)
    assert pool_snapshot == serial_snapshot, "sharded campaign diverged from serial"
    coverage = serial_list.coverage()

    projected_speedup = serial_seconds / max(shard_seconds)
    wall_speedup = serial_seconds / pool_seconds
    sharding_overhead = sequential_seconds / serial_seconds

    runs = [
        {
            "mode": "serial kernel",
            "seconds": round(serial_seconds, 4),
            "patterns_per_sec": round(PATTERNS / serial_seconds, 1),
        },
        {
            "mode": f"{SHARDS} shards, sequential",
            "seconds": round(sequential_seconds, 4),
            "patterns_per_sec": round(PATTERNS / sequential_seconds, 1),
        },
        {
            "mode": f"{SHARDS} shards, {pool_workers}-worker pool",
            "seconds": round(pool_seconds, 4),
            "patterns_per_sec": round(PATTERNS / pool_seconds, 1),
        },
    ]

    payload = {
        "core": recipe.name,
        "gates": circuit.gate_count(),
        "flops": circuit.flop_count(),
        "collapsed_faults": fault_count,
        "patterns": PATTERNS,
        "block_size": BLOCK_SIZE,
        "fault_shards": SHARDS,
        "pool_workers": pool_workers,
        "coverage": round(coverage, 12),
        "runs": runs,
        "shard_seconds": [round(s, 4) for s in shard_seconds],
        "sharding_overhead_vs_serial": round(sharding_overhead, 3),
        "speedup_projected_4w": round(projected_speedup, 2),
        "speedup_wall": round(wall_speedup, 2),
        "bit_identical_to_serial": True,
        "target_speedup": TARGET_SPEEDUP,
        "note": (
            "speedup_projected_4w = serial / max(per-shard compute): the "
            "shard-plan speedup with one real CPU per shard; speedup_wall is "
            "what this host measured through the PooledScheduler at "
            "pool_workers = min(fault_shards, cpus_available)"
        ),
    }
    path = write_bench_json("campaign", payload)
    print_rows(f"Campaign fault-simulation throughput -- {recipe.name}", runs)
    print(
        f"projected {SHARDS}-shard speedup: {projected_speedup:.2f}x "
        f"(target >= {TARGET_SPEEDUP}x), wall at {pool_workers} worker(s): "
        f"{wall_speedup:.2f}x, shard balance {min(shard_seconds):.3f}"
        f"-{max(shard_seconds):.3f}s -> {path.name}"
    )
    return payload


def test_campaign_speedup_recorded():
    """Regression guard: the shard plan keeps its >= 2.5x projected speedup
    (and bit-identity) on record.  The wall-clock speedup is only asserted
    when the pool gets one CPU per shard: below that the pool is narrower
    than the plan and its wall says nothing about the shard plan."""
    payload = run()
    assert payload["bit_identical_to_serial"]
    if smoke_mode():
        return
    assert payload["speedup_projected_4w"] >= TARGET_SPEEDUP
    if payload["pool_workers"] >= SHARDS:
        assert payload["speedup_wall"] >= 2.0


if __name__ == "__main__":
    payload = run()
    ok = smoke_mode() or payload["speedup_projected_4w"] >= TARGET_SPEEDUP
    raise SystemExit(0 if ok else 1)
