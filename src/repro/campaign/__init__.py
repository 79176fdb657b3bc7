"""Sharded multi-process logic BIST campaigns (S11).

Public API:

* :class:`~repro.campaign.runner.CampaignRunner` /
  :class:`~repro.campaign.runner.CampaignScenario` -- fan many
  (core, :class:`~repro.core.config.LogicBistConfig`) scenario pairs out
  over one stage graph: preparation (scan insertion, TPI profiling,
  STUMPS/session assembly, signature-response derivation) is pooled work
  alongside the fault-scan shards, not parent-process serial code,
* :mod:`repro.campaign.pipeline` -- the typed stage tasks
  (:class:`~repro.campaign.pipeline.PrepareCoreStage`,
  :class:`~repro.campaign.pipeline.TpiProfileStage`, ...), the shard scan
  primitives every fault-scan shard runs
  (:class:`~repro.campaign.pipeline.ShardFanOutStage`,
  :func:`~repro.campaign.pipeline.run_shard_task`) and the per-scenario
  graph builder :func:`~repro.campaign.pipeline.scenario_stage_nodes`,
* :mod:`repro.campaign.scheduler` -- the two executors of a stage graph:
  the deterministic in-process
  :class:`~repro.campaign.scheduler.SerialScheduler` (the oracle; the
  serial :class:`~repro.core.flow.LogicBistFlow` walk) and the
  :class:`~repro.campaign.scheduler.PooledScheduler` worker pool, the only
  process pool of the package,
* the shard planners in :mod:`repro.campaign.sharding` and the
  order-independent mergers in :mod:`repro.campaign.results`.

The serial compiled-kernel path remains the default and the bit-exactness
oracle: merged campaign results (detection records, coverage curves, MISR
signatures) are bit-identical to it across shard counts, block sizes,
shard-order permutations, worker counts and execution backends --
``tests/campaign`` asserts all of this with a randomized differential
harness, TPI-heavy pipelined preparation included.
"""

from .chaos import (
    ChaosError,
    ChaosFault,
    ChaosPlan,
    ExplicitChaosPlan,
    Injection,
    LifecycleChaosPlan,
    LifecycleInjection,
    RecordingChaosPlan,
    SeededChaosPlan,
    ServiceCrashError,
)
from .results import (
    FAILURES_KEY,
    CampaignResult,
    ScenarioResult,
    ShardOutcome,
    assemble_scenario_canonical,
    build_simulation_result,
    canonical_failure,
    canonical_report_bytes,
    merge_first_detections,
    sort_failures,
)
from .runner import CampaignRunner, CampaignScenario
from .scheduler import (
    CancelToken,
    Expansion,
    PipelineRun,
    PooledScheduler,
    ScheduleCancelled,
    SerialScheduler,
    StageFailure,
    StageNode,
    StageObserver,
    StageRetry,
    StageTimeoutError,
    StageTrace,
    WorkerCrashError,
)
from .pipeline import (
    BuildStumpsStage,
    EngineCache,
    PrepareCoreStage,
    ReportStage,
    ScenarioBundle,
    ShardFanOutStage,
    ShardPayload,
    ShardTask,
    SignatureStage,
    SkewOutcome,
    SkewSweepStage,
    SkewTrialsStage,
    TopUpStage,
    TpiProfileStage,
    TransitionOutcome,
    plan_shard_tasks,
    release_scenario_engines,
    run_shard_task,
    scenario_stage_nodes,
    unique_scenario_key,
)
from .sharding import (
    contiguous_shards,
    keyed_round_robin_shards,
    plan_grid,
    round_robin_shards,
)

__all__ = [
    "CampaignResult",
    "ChaosError",
    "ChaosFault",
    "ChaosPlan",
    "ExplicitChaosPlan",
    "FAILURES_KEY",
    "Injection",
    "LifecycleChaosPlan",
    "LifecycleInjection",
    "RecordingChaosPlan",
    "ServiceCrashError",
    "ScenarioResult",
    "SeededChaosPlan",
    "ShardOutcome",
    "assemble_scenario_canonical",
    "build_simulation_result",
    "canonical_failure",
    "canonical_report_bytes",
    "merge_first_detections",
    "sort_failures",
    "CampaignRunner",
    "CampaignScenario",
    "CancelToken",
    "Expansion",
    "PipelineRun",
    "PooledScheduler",
    "ScheduleCancelled",
    "SerialScheduler",
    "StageFailure",
    "StageNode",
    "StageObserver",
    "StageRetry",
    "StageTimeoutError",
    "StageTrace",
    "WorkerCrashError",
    "BuildStumpsStage",
    "EngineCache",
    "PrepareCoreStage",
    "ReportStage",
    "ScenarioBundle",
    "ShardFanOutStage",
    "ShardPayload",
    "ShardTask",
    "SignatureStage",
    "SkewOutcome",
    "SkewSweepStage",
    "SkewTrialsStage",
    "TopUpStage",
    "TpiProfileStage",
    "TransitionOutcome",
    "plan_shard_tasks",
    "release_scenario_engines",
    "run_shard_task",
    "scenario_stage_nodes",
    "unique_scenario_key",
    "contiguous_shards",
    "keyed_round_robin_shards",
    "plan_grid",
    "round_robin_shards",
]
