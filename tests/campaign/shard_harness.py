"""Test-only harness: drain the production shard fan-out over given blocks.

The campaign's fault scans run only through the stage graph: a
:class:`~repro.campaign.pipeline.ShardFanOutStage` expands into one
:class:`~repro.campaign.pipeline.ShardScanStage` per grid cell plus a merge
stage.  The differential suites drive exactly those production stages over
hand-built pattern blocks, on the serial or the pooled scheduler, and
compare the merged result with the serial ``FaultSimulator`` /
``TransitionFaultSimulator`` oracle.

The shard source is preloaded into the schedule, so the local merge stage
marks detections on the caller's own fault list under either scheduler.
"""

from repro.campaign.pipeline import (
    PHASE_AT_SPEED,
    PHASE_RANDOM,
    MergeDetectionsStage,
    ScenarioBundle,
    ShardFanOutStage,
    TransitionBundle,
    TransitionMergeStage,
    build_pair_blocks,
    release_scenario_engines,
    unique_scenario_key,
)
from repro.campaign.scheduler import PooledScheduler, SerialScheduler, StageNode
from repro.faults import (
    FaultSimShardState,
    StuckAtFault,
    TransitionFault,
    TransitionSimShardState,
)

#: Artifact key the shard source is preloaded under.
SOURCE_KEY = "source"


def fan_out_node(source, phase, merge, fault_shards, pattern_shards=1):
    """The production fan-out node over a preloaded shard source."""
    key = f"{source.scenario_key}/scan"
    return StageNode(
        key=key,
        task=ShardFanOutStage(
            source_key=SOURCE_KEY,
            prefix=key,
            scenario="harness",
            phase=phase,
            merge=merge,
            fault_shards=fault_shards,
            pattern_shards=pattern_shards,
        ),
        deps=(SOURCE_KEY,),
        local=True,
        phase=phase,
        scenario="harness",
    )


def drain(source, nodes, num_workers=1):
    """Run ``nodes`` over the preloaded ``source`` on the chosen scheduler."""
    scheduler = (
        PooledScheduler(num_workers) if num_workers >= 2 else SerialScheduler()
    )
    try:
        return scheduler.run(nodes, preloaded={SOURCE_KEY: source})
    finally:
        release_scenario_engines([source.scenario_key])


def stuck_at_bundle(
    circuit, fault_list, blocks, sim_backend="python", sim_memory_budget_mb=None
):
    """A stuck-at shard source over ``blocks`` (no scan/STUMPS structure)."""
    offset_blocks = []
    cursor = 0
    for block in blocks:
        offset_blocks.append((cursor, block))
        cursor += block.num_patterns
    faults = tuple(
        fault for fault in fault_list.undetected() if isinstance(fault, StuckAtFault)
    )
    return ScenarioBundle(
        scenario_key=unique_scenario_key("harness"),
        core=None,
        stumps=None,
        clock_tree=None,
        capture_schedule=None,
        fault_list=fault_list,
        state=FaultSimShardState(
            circuit=circuit,
            observe_nets=tuple(circuit.observation_nets()),
            faults=faults,
            sim_backend=sim_backend,
            sim_memory_budget_mb=sim_memory_budget_mb,
        ),
        offset_blocks=tuple(offset_blocks),
        boundaries=tuple(
            offset + block.num_patterns for offset, block in offset_blocks
        ),
    )


def sharded_fault_sim(
    circuit,
    fault_list,
    blocks,
    num_workers=1,
    fault_shards=None,
    pattern_shards=1,
    sim_backend="python",
    sim_memory_budget_mb=None,
):
    """The stuck-at fan-out over ``blocks``; returns the merged
    :class:`~repro.faults.fault_sim.FaultSimulationResult` and marks
    ``fault_list`` in place, as the serial engine does."""
    bundle = stuck_at_bundle(
        circuit, fault_list, blocks, sim_backend, sim_memory_budget_mb
    )
    node = fan_out_node(
        bundle,
        PHASE_RANDOM,
        MergeDetectionsStage(),
        fault_shards or max(1, num_workers),
        pattern_shards,
    )
    return drain(bundle, [node], num_workers).value(node.key).result


def sharded_transition_sim(
    circuit,
    fault_list,
    launch_patterns,
    capture_patterns,
    block_size,
    num_workers=1,
    fault_shards=None,
    pattern_shards=1,
    sim_backend="python",
    sim_memory_budget_mb=None,
):
    """The transition fan-out over aligned launch/capture patterns; returns
    the merged :class:`~repro.campaign.pipeline.TransitionOutcome` and marks
    ``fault_list`` in place."""
    pair_blocks = build_pair_blocks(
        circuit, launch_patterns, capture_patterns, block_size
    )
    faults = tuple(
        fault
        for fault in fault_list.undetected()
        if isinstance(fault, TransitionFault)
    )
    bundle = TransitionBundle(
        scenario_key=unique_scenario_key("harness"),
        state=TransitionSimShardState(
            circuit=circuit,
            observe_nets=tuple(circuit.observation_nets()),
            faults=faults,
            sim_backend=sim_backend,
            sim_memory_budget_mb=sim_memory_budget_mb,
        ),
        offset_blocks=pair_blocks,
        fault_list=fault_list,
        boundaries=tuple(
            offset + launch.num_patterns for offset, launch, _ in pair_blocks
        ),
    )
    node = fan_out_node(
        bundle,
        PHASE_AT_SPEED,
        TransitionMergeStage(),
        fault_shards or max(1, num_workers),
        pattern_shards,
    )
    return drain(bundle, [node], num_workers).value(node.key)
