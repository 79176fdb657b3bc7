"""Multi-scenario BIST campaigns over the stage graph.

:class:`CampaignRunner` turns many (core, :class:`LogicBistConfig`)
scenario pairs into one multi-scenario stage DAG -- scan prep -> TPI ->
STUMPS/session -> fault-scan shard fan-out -> signature fan-out ->
report, plus the optional top-up and at-speed branches -- built by
:func:`~repro.campaign.pipeline.scenario_stage_nodes`.  With
``num_workers >= 2`` the whole DAG drains through one
:class:`~repro.campaign.scheduler.PooledScheduler`, so scenario B's TPI
profiling -- itself a full fault simulation under
``tpi_method="fault_sim"`` -- runs while scenario A's shards are still in
flight.  With ``num_workers <= 1`` the same DAG executes on the in-process
:class:`~repro.campaign.scheduler.SerialScheduler`, the deterministic
fallback and the bit-exactness oracle.

Shard outcomes come back as per-fault first-detection indices and are
min-merged by :mod:`repro.campaign.results` -- a reduction independent of
shard order and worker count, which is what makes the merged coverage
curves, detection records and MISR signatures **bit-identical** to the
serial compiled-kernel path (``tests/campaign`` asserts the equivalence
across shard counts, block sizes, permuted shard orders, worker counts and
both execution backends).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Optional

from ..core.config import LogicBistConfig
from ..netlist.circuit import Circuit
from ..netlist.library import CellLibrary
from .pipeline import (
    release_scenario_engines,
    scenario_stage_nodes,
    unique_scenario_key,
)
from .results import (
    FAILURES_KEY,
    CampaignResult,
    ScenarioResult,
    canonical_failure,
    sort_failures,
)
from .scheduler import PooledScheduler, SerialScheduler


# --------------------------------------------------------------------- #
# Multi-scenario campaigns
# --------------------------------------------------------------------- #
@dataclass
class CampaignScenario:
    """One (core, config) pair of a campaign.

    ``circuit`` is the raw IP-core netlist; the pipeline performs the same
    BIST-ready preparation the flow does (scan insertion, test-point
    insertion, per-domain STUMPS, chain-flush credit) before
    fault-simulating the random-pattern session.
    """

    name: str
    circuit: Circuit
    config: LogicBistConfig = field(default_factory=LogicBistConfig)


class CampaignRunner:
    """Fans many (core, config) scenarios out over one worker pool.

    Each scenario becomes a stage subgraph (scan prep -> TPI -> STUMPS +
    session -> fault-sim shard fan-out -> signature fan-out -> report); the
    subgraphs concatenate into one multi-scenario DAG that a single
    :class:`~repro.campaign.scheduler.PooledScheduler` drains, so *all*
    work -- preparation included -- keeps every worker busy even while
    small scenarios finish early.  Only the shard planning and the
    order-independent merges stay in the parent, which is what drops the
    serial (Amdahl) fraction of a TPI-heavy campaign to the few percent
    ``benchmarks/bench_pipeline.py`` records.

    With ``num_workers <= 1`` the identical DAG runs on the in-process
    :class:`~repro.campaign.scheduler.SerialScheduler` -- the deterministic
    fallback and the bit-exactness oracle.

    Fault tolerance: ``retry_policy`` (default: the scenarios' config
    ``retry``, else single-attempt) grants stages retries with
    deterministic backoff, plus soft timeouts and worker-crash recovery in
    the pooled schedule.  With ``degrade=True`` (the default), a stage that
    exhausts its attempts quarantines only its scenario -- siblings finish,
    and the returned :class:`~repro.campaign.results.CampaignResult` is
    *partial*: the failed scenario moves from ``scenarios`` into the
    canonical ``failures`` section.  ``degrade=False`` restores
    fail-the-whole-campaign semantics.  ``chaos`` threads a
    :class:`~repro.campaign.chaos.ChaosPlan` through the scheduler (test /
    drill support).
    """

    def __init__(
        self,
        num_workers: int = 1,
        fault_shards: Optional[int] = None,
        pattern_shards: int = 1,
        mp_context=None,
        retry_policy=None,
        chaos=None,
        degrade: bool = True,
    ) -> None:
        self.num_workers = num_workers
        self.fault_shards = fault_shards if fault_shards is not None else max(1, num_workers)
        self.pattern_shards = pattern_shards
        self.mp_context = mp_context
        self.retry_policy = retry_policy
        self.chaos = chaos
        self.degrade = degrade
        self.library = CellLibrary()
        #: The last campaign's stage trace, as a trace-only
        #: :class:`~repro.campaign.scheduler.PipelineRun` (no artifact
        #: store) -- timing and resilience diagnostics (``trace``,
        #: ``retries``, ``failures``, ``cancelled``) only, never part of
        #: the canonical report.
        self.last_run = None

    # ------------------------------------------------------------------ #
    def run(
        self, scenarios: Iterable[CampaignScenario], cancel_token=None
    ) -> CampaignResult:
        """Run every scenario's random-pattern fault-sim + signature session.

        ``cancel_token`` (a :class:`~repro.campaign.scheduler.CancelToken`)
        stops the schedule cooperatively at the next stage boundary:
        :class:`~repro.campaign.scheduler.ScheduleCancelled` propagates to
        the caller carrying the half-finished run.  The service tier layers
        checkpointing on top; here the token is the raw mechanism (and the
        clean-run overhead probe ``benchmarks/bench_resilience.py`` arms).

        Scenarios whose config sets ``campaign_topup=True`` additionally run
        the deterministic ATPG top-up phase: PODEM target shards fan out
        through the same pool as everything else (site-local keyed
        round-robin, as the fault scans shard), and a deterministic screen
        / compact replay merges the cubes -- the scenario's reported coverage
        and first detections then include the top-up patterns (indices >=
        :data:`repro.atpg.topup.TOPUP_PATTERN_BASE`), byte-identical to the
        serial walk at any worker count.

        Scenarios whose config sets ``measure_transition_coverage`` run the
        launch-on-capture transition fan-out and their canonical report
        gains a ``transition`` section; ``skew_trials > 0`` adds the sharded
        Fig. 3 Monte-Carlo skew sweep as a ``skew`` section.  Both are
        sharded through the same pool and byte-identical to the serial walk
        at any worker/shard count.
        """
        start = time.perf_counter()
        scenarios = list(scenarios)
        names = [scenario.name for scenario in scenarios]
        duplicates = sorted({name for name in names if names.count(name) > 1})
        if duplicates:
            raise ValueError(
                f"duplicate scenario names {duplicates!r}: results are keyed "
                "by name, so every scenario needs a distinct one"
            )
        if FAILURES_KEY in names:
            raise ValueError(
                f"scenario name {FAILURES_KEY!r} is reserved for the "
                "canonical report's failure section"
            )
        nodes = []
        scenario_keys: list[str] = []
        report_keys: dict[str, str] = {}
        for index, scenario in enumerate(scenarios):
            key = unique_scenario_key(f"s{index}:{scenario.name}")
            scenario_keys.append(key)
            scenario_nodes, artifact_keys = scenario_stage_nodes(
                key,
                scenario.circuit,
                scenario.config,
                library=self.library,
                scenario_name=scenario.name,
                fault_shards=self.fault_shards,
                pattern_shards=self.pattern_shards,
                num_workers=self.num_workers,
                include_topup=scenario.config.campaign_topup,
                include_transition=scenario.config.measure_transition_coverage,
                include_skew=scenario.config.skew_trials > 0,
                include_report=True,
            )
            nodes.extend(scenario_nodes)
            report_keys[scenario.name] = artifact_keys["report"]

        retry_policy = self.retry_policy
        if retry_policy is None:
            # Scenario configs share one scheduler; the first explicit
            # per-config policy governs the whole campaign.
            retry_policy = next(
                (s.config.retry for s in scenarios if s.config.retry is not None),
                None,
            )
        if self.num_workers >= 2:
            scheduler = PooledScheduler(
                self.num_workers,
                mp_context=self.mp_context,
                retry_policy=retry_policy,
                chaos=self.chaos,
                degrade=self.degrade,
            )
        else:
            scheduler = SerialScheduler(
                retry_policy=retry_policy, chaos=self.chaos, degrade=self.degrade
            )
        try:
            pipeline_run = scheduler.run(nodes, cancel_token=cancel_token)
        finally:
            release_scenario_engines(scenario_keys)
        # Keep the trace (the Amdahl/benchmark diagnostics), drop the
        # artifact store: it holds every scenario's packed session.
        self.last_run = pipeline_run.trace_only()

        key_by_name = dict(zip(names, scenario_keys))
        failures: dict[str, list[dict]] = {}
        for failure in pipeline_run.failures:
            records = failures.setdefault(failure.scenario, [])
            records.append(
                canonical_failure(failure, key_by_name[failure.scenario])
            )
        failures = {name: sort_failures(records) for name, records in failures.items()}
        results: dict[str, ScenarioResult] = {
            name: pipeline_run.value(key)
            for name, key in report_keys.items()
            if name not in failures
        }
        return CampaignResult(
            scenarios=results,
            failures=failures,
            num_workers=self.num_workers,
            seconds=time.perf_counter() - start,
        )
