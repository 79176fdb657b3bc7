"""The benchmark's workloads: inputs from a seed, a reference, timed iterations.

Every workload drives only public entry points -- ``LogicBistFlow.run``,
``CampaignRunner.run``, ``CampaignService`` -- and, for a traced iteration,
the stage graph ``scenario_stage_nodes`` builds, run by a scheduler's
public ``run(..., observer=)``.  Nothing here reaches into ``src/``.

Each workload follows one protocol:

* ``setup()`` makes the inputs from the seed (plus, for the service
  workloads, starts the service or builds the interrupted checkpoint);
* ``reference()`` loads the expected digests committed in
  ``expected.json`` for the seed; for a seed without them it computes them
  with ``oracle()``, the serial scheduler on the python backend;
* ``iterate(tracer)`` runs one iteration and returns an :class:`Outcome`;
  an operation whose digest differs from the reference, that raises, or
  whose job does not end ``finished`` counts as failed.  ``run.py`` calls
  it in a process forked for the iteration, and ``settle(outcome)`` back in
  the benchmark's own process;
* ``teardown()`` stops what ``setup()`` started.

The committed digests hold the gate across commits: a change that alters a
simulated result (coverage, a top-up count, a signature) fails every
operation on a recorded seed.  ``record.py`` writes them.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import itertools
import json
import os
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.campaign import CampaignRunner, CampaignScenario
from repro.campaign.chaos import LifecycleChaosPlan, LifecycleInjection
from repro.campaign.pipeline import (
    RandomPhaseOutcome,
    SkewOutcome,
    TopUpOutcome,
    TpiOutcome,
    release_scenario_engines,
    scenario_stage_nodes,
    unique_scenario_key,
)
from repro.campaign.results import CampaignResult
from repro.campaign.scheduler import PooledScheduler, SerialScheduler
from repro.core import LogicBistConfig, LogicBistFlow
from repro.cores import core_x_recipe, core_y_recipe, tiny_recipe
from repro.netlist.library import CellLibrary
from repro.service import CampaignService
from repro.service.checkpoint import PROGRESS_FILE
from repro.service.events import (
    TERMINAL_EVENTS,
    JobFinished,
    JobStarted,
    StageFinished,
    StageRetrying,
    StageStarted,
    report_checksum,
)

from calibration import REFERENCE_SECONDS
from tracing import Span, StageSpans, Tracer, stage_layer

HERE = Path(__file__).resolve().parent
#: Scratch space for checkpoints and trace exports, inside the checkout.
OUT_DIR = HERE / "out"
#: The recorded reference digests: ``{workload: {seed label: {key: sha256}}}``.
EXPECTED_FILE = HERE / "expected.json"

#: The pool width of the campaign workload: every CPU this process may use,
#: never more, so the pool is not oversubscribed.
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)


def derive_seed(seed: int, label: str, modulus: int = 1_000_000) -> int:
    """A stable sub-seed for one input, in ``[1, modulus]``."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return 1 + int.from_bytes(digest[:8], "big") % modulus


def seed_label(seed: int, tiny: bool) -> str:
    """The key of one seed's digests in ``expected.json``."""
    return f"tiny:{seed}" if tiny else str(seed)


def committed_digests(workload: str, seed: int, tiny: bool) -> Optional[dict[str, str]]:
    """The digests recorded for ``workload`` on ``seed``, or ``None``."""
    if not EXPECTED_FILE.exists():
        return None
    recorded = json.loads(EXPECTED_FILE.read_text(encoding="utf-8"))
    return recorded.get(workload, {}).get(seed_label(seed, tiny))


def _sha256_json(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def table1_digest(core, coverage_random, coverage_curve, signatures, topup, fault_list) -> str:
    """Digest of the flow's Table-1 result: structure, coverage, top-up, MISRs.

    Takes the pieces both the flow result and the raw stage artifacts hold,
    so a traced graph walk and ``LogicBistFlow.run`` are checked alike.
    """
    architecture = core.architecture
    return _sha256_json(
        {
            "gates": core.circuit.gate_count(),
            "flops": core.circuit.flop_count(),
            "chains": architecture.chain_count,
            "max_chain": architecture.max_chain_length,
            "test_points": core.test_point_count,
            "faults": len(fault_list),
            "coverage_random": coverage_random,
            "coverage_curve": [list(point) for point in coverage_curve],
            "topup": [
                topup.pattern_count,
                topup.attempted_faults,
                topup.successful_faults,
                topup.untestable_faults,
                topup.aborted_faults,
                topup.skipped_targets,
                topup.backtracks,
            ],
            "coverage_final": fault_list.coverage(),
            "signatures": dict(sorted(signatures.items())),
            "detected": sorted(str(fault) for fault in fault_list.detected()),
        }
    )


@dataclass
class Outcome:
    """One iteration: its wall time, per-operation latencies and counts."""

    wall_s: float
    #: Operation latencies by kind of operation (input set, job kind).
    latencies: dict[str, list[float]]
    attempted: int
    failed: int
    #: Per-layer counts, filled on traced iterations.
    counts: dict[str, float] = field(default_factory=dict)
    #: The root span of a traced iteration.
    root: Optional[Span] = None
    #: Which of the run's input sets the iteration used.
    key: str = ""
    #: The flow's Table-1 digest, for :meth:`FlowTopUp.settle`.
    digest: str = ""
    #: Set by ``run.py`` in the iteration's process: the calibration around
    #: the iteration, the process's peak RSS and its pool workers' largest.
    calibration_s: float = 0.0
    peak_rss_mb: float = 0.0
    worker_rss_mb: float = 0.0
    #: ``wall_s`` in host seconds, before ``run.py`` scales it.
    host_wall_s: float = 0.0

    @property
    def scale(self) -> float:
        """Host seconds to reference seconds (see ``calibration.py``)."""
        return REFERENCE_SECONDS / self.calibration_s if self.calibration_s > 0 else 1.0


def artifact_counts(artifacts) -> dict[str, float]:
    """Work counts read from the stage artifacts a traced schedule produced."""
    counts = {"tpi.points": 0, "faults.faults": 0, "timing.trials": 0}
    for value in artifacts:
        if isinstance(value, TpiOutcome) and value.plan is not None:
            counts["tpi.points"] += len(value.plan.nets)
        elif isinstance(value, RandomPhaseOutcome):
            counts["faults.faults"] += len(value.result.fault_list)
        elif isinstance(value, SkewOutcome):
            counts["timing.trials"] += value.summary.trials
        elif isinstance(value, TopUpOutcome):
            result = value.result
            for name, number in (
                ("attempted", result.attempted_faults),
                ("successful", result.successful_faults),
                ("untestable", result.untestable_faults),
                ("aborted", result.aborted_faults),
                ("skipped", result.skipped_targets),
                ("backtracks", result.backtracks),
                ("patterns", result.pattern_count),
            ):
                counts[f"atpg.{name}"] = counts.get(f"atpg.{name}", 0) + number
    return counts


def report_counts(result: CampaignResult) -> dict[str, float]:
    """Work counts read from a finished service job's report."""
    counts = {"faults.faults": 0, "timing.trials": 0}
    for scenario in result.scenarios.values():
        counts["faults.faults"] += scenario.total_faults
        if scenario.skew is not None:
            counts["timing.trials"] += scenario.skew["monte_carlo"]["trials"]
        if scenario.topup_pattern_count is not None:
            for name, number in (
                ("attempted", scenario.topup_attempted),
                ("successful", scenario.topup_successful),
                ("untestable", scenario.topup_untestable),
                ("aborted", scenario.topup_aborted),
                ("skipped", scenario.topup_skipped_targets),
                ("patterns", scenario.topup_pattern_count),
            ):
                counts[f"atpg.{name}"] = counts.get(f"atpg.{name}", 0) + number
    return counts


def _schedule_counts(observer: StageSpans, schedule: Span, workers: int) -> dict[str, float]:
    wall = schedule.end - schedule.start
    spawn = 0.0
    if observer.first_start is not None:
        spawn = (observer.first_start - schedule.start) + (schedule.end - observer.last_finish)
    return {
        "campaign.stages": observer.stages,
        "campaign.retries": observer.retries,
        "campaign.spawn_s": spawn,
        "campaign.wait_s": observer.wait_s,
        "campaign.busy_ratio": observer.compute_s / (workers * wall) if wall > 0 else 0.0,
    }


class Workload:
    """Base protocol; subclasses set ``name`` and override the four steps."""

    name = ""
    #: Operations one iteration attempts (what a raised iteration fails).
    ops = 1
    #: Input sets a run rotates through, one per iteration.
    rotation = 1
    #: Whether an iteration keeps one CPU busy, so ``run.py`` may place it
    #: on the least contended one; the pooled campaign uses every CPU.
    serial = True

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.seed = seed
        self.tiny = tiny
        self.expected: dict[str, str] = {}
        #: Where ``expected`` came from: ``"committed"`` or ``"in-run"``.
        self.reference_source = ""

    def setup(self) -> None:
        raise NotImplementedError

    def oracle(self) -> dict[str, str]:
        """The expected digests, computed on the serial python-backend path."""
        raise NotImplementedError

    def reference(self) -> None:
        """Load the committed digests for the seed, or compute them."""
        committed = committed_digests(self.name, self.seed, self.tiny)
        if committed is not None:
            self.expected, self.reference_source = dict(committed), "committed"
        else:
            self.expected, self.reference_source = self.in_run_reference(), "in-run"

    def in_run_reference(self) -> dict[str, str]:
        """The reference for a seed with no committed digests."""
        return self.oracle()

    def iterate(self, tracer: Optional[Tracer], index: int = 0, replica: bool = False) -> Outcome:
        """Run iteration ``index``; ``tracer`` is ``None`` when untraced.

        With ``replica`` an untraced iteration of the flow or the campaign
        walks the same stage graph a traced one does, with no observer, so
        the two differ only by the cost of tracing.
        """
        raise NotImplementedError

    def settle(self, outcome: Outcome) -> None:
        """Finish checking an outcome in the benchmark's own process."""

    def warm_up(self, step) -> None:
        """Run the timed path once, checked and counted, before timing."""
        step(None)

    def teardown(self) -> None:
        """Release what ``setup`` started (nothing by default)."""

    def digest_summary(self) -> str:
        """One digest over every reference, printed for cross-run comparison."""
        return _sha256_json(self.expected)


# --------------------------------------------------------------------- #
# flow_topup: the paper's Table-1 flow on scaled Core Y
# --------------------------------------------------------------------- #
class FlowTopUp(Workload):
    """``LogicBistFlow.run`` on half-scale Core Y: scan, TPI, BIST, then top-up.

    Top-up cost depends on the circuit: one flow took 1.2 to 1.7 s across
    seeds, mostly from how many targets abort.  So each run rotates through
    ``rotation`` Core Y instances made from the seed, one flow per
    iteration, runs each at least ``MIN_ITERATIONS`` times, and ``wall_s``
    averages the cores' medians.
    """

    name = "flow_topup"
    rotation = 4

    def setup(self) -> None:
        self.inputs = []
        for index in range(self.rotation):
            core_seed = derive_seed(self.seed, f"core{index}")
            if self.tiny:
                recipe = tiny_recipe(seed=core_seed)
                patterns, cap = 128, 8
            else:
                # Half scale keeps Core Y's eight clock domains.  512 patterns
                # and a cap of 30 targets keep one flow near 1.5 s, so every
                # core runs three times in a run, with ATPG still its largest
                # phase.  The backtrack limit bounds what an aborted target
                # costs: at the default of 100, aborts made one flow with
                # 100 targets take 4.7 to 9.2 s across seeds.
                recipe = core_y_recipe(scale=0.5, seed=core_seed)
                patterns, cap = 512, 30
            config = LogicBistConfig(
                total_scan_chains=recipe.total_scan_chains,
                observation_point_budget=recipe.observation_point_budget,
                tpi_method="fault_sim",
                tpi_profile_patterns=recipe.tpi_profile_patterns,
                random_patterns=patterns,
                prpg_length=recipe.prpg_length,
                clock_frequencies_mhz=recipe.clock_frequencies_mhz,
                bist_seed=derive_seed(self.seed, f"bist{index}", 4096),
                topup_max_faults=cap,
                topup_backtrack_limit=10,
                sim_backend="python",
            )
            self.inputs.append((f"core{index}", recipe.build().circuit, config))
        self.library = CellLibrary()

    def oracle(self) -> dict[str, str]:
        """Each core's Table-1 digest with the name-keyed reference ATPG engine.

        The timed flow runs the compiled PODEM engine; the reference engine
        is a separate implementation of the same top-up walk, so a change to
        the compiled one that alters the result shows as a mismatch.
        """
        return {
            key: self._result_digest(
                LogicBistFlow(dataclasses.replace(config, atpg_engine="reference")).run(
                    circuit, core_name=key
                )
            )
            for key, circuit, config in self.inputs
        }

    def in_run_reference(self) -> dict[str, str]:
        """Nothing ahead of time: the reference engine would double the run.

        Without committed digests the first run on each core is that core's
        reference; every later run on it, traced or not, must match.
        :meth:`settle` keeps it, in the process that outlives the runs.
        """
        return {}

    def warm_up(self, step) -> None:
        """Nothing: a flow caches nothing across runs that needs warming."""

    @staticmethod
    def _result_digest(result) -> str:
        return table1_digest(
            result.bist_ready,
            result.fault_coverage_random,
            result.coverage_curve,
            result.signatures,
            result.topup,
            result.fault_list,
        )

    def iterate(self, tracer: Optional[Tracer], index: int = 0, replica: bool = False) -> Outcome:
        key, circuit, config = self.inputs[index % len(self.inputs)]
        if tracer is None and not replica:
            start = time.perf_counter()
            result = LogicBistFlow(config).run(circuit, core_name=key)
            digest = self._result_digest(result)
            wall = time.perf_counter() - start
            return Outcome(wall, {key: [wall]}, 1, 0, key=key, digest=digest)
        return self._walk(tracer, key, circuit, config)

    def settle(self, outcome: Outcome) -> None:
        """Check the digest here: an in-run reference must outlive the iteration."""
        outcome.failed = int(outcome.digest != self.expected.setdefault(outcome.key, outcome.digest))

    def _walk(self, tracer: Optional[Tracer], key, circuit, config) -> Outcome:
        """The flow's own stage graph, run serially, with a span observer if traced."""
        start = time.perf_counter()
        root = tracer.root("flow") if tracer is not None else None
        scenario_key = unique_scenario_key(f"flow:{key}")
        nodes, keys = scenario_stage_nodes(
            scenario_key,
            circuit,
            config,
            library=self.library,
            scenario_name=key,
            fault_shards=1,
            include_topup=True,
            include_transition=config.measure_transition_coverage,
        )
        observer = schedule = None
        if root is not None:
            schedule = tracer.begin("schedule", "campaign", parent=root.id, group=root.group)
            observer = StageSpans(tracer, schedule)
        try:
            run = SerialScheduler(retry_policy=config.retry).run(nodes, observer=observer)
        finally:
            if schedule is not None:
                tracer.finish(schedule)
            release_scenario_engines([scenario_key])
        random_outcome = run.value(keys["fault_sim"])
        topup = run.value(keys["topup"])
        digest = table1_digest(
            run.value(keys["bundle"]).core,
            random_outcome.coverage_random,
            random_outcome.result.coverage_curve,
            run.value(keys["signatures"]),
            topup.result,
            topup.fault_list,
        )
        counts = {}
        if root is not None:
            tracer.finish(root)
            counts = {**artifact_counts(observer.artifacts), **_schedule_counts(observer, schedule, 1)}
            wall = root.end - root.start
        else:
            wall = time.perf_counter() - start
        return Outcome(wall, {key: [wall]}, 1, 0, counts, root, key, digest)


# --------------------------------------------------------------------- #
# campaign_atspeed: four at-speed scenarios through one pool
# --------------------------------------------------------------------- #
class CampaignAtSpeed(Workload):
    """``CampaignRunner`` over Core X/Core Y, transition + skew, pooled numpy."""

    name = "campaign_atspeed"
    serial = False

    def setup(self) -> None:
        self.scenarios = []
        plan = (("x_tpi", core_x_recipe, True), ("x", core_x_recipe, False),
                ("y_tpi", core_y_recipe, True), ("y", core_y_recipe, False))
        for name, make_recipe, with_tpi in plan:
            sub_seed = derive_seed(self.seed, name)
            if self.tiny:
                recipe = tiny_recipe(seed=sub_seed)
                patterns, transition, trials = 128, 64, 40
            else:
                recipe = make_recipe(scale=0.5, seed=sub_seed)
                patterns, transition, trials = 512, 128, 300
            config = LogicBistConfig(
                total_scan_chains=recipe.total_scan_chains,
                observation_point_budget=recipe.observation_point_budget if with_tpi else 0,
                tpi_method="fault_sim" if with_tpi else "none",
                tpi_profile_patterns=recipe.tpi_profile_patterns,
                random_patterns=patterns,
                prpg_length=recipe.prpg_length,
                clock_frequencies_mhz=recipe.clock_frequencies_mhz,
                bist_seed=derive_seed(self.seed, f"{name}:bist", 4096),
                measure_transition_coverage=True,
                transition_patterns=transition,
                skew_trials=trials,
                skew_seed=derive_seed(self.seed, f"{name}:skew"),
                sim_backend="numpy",
            )
            self.scenarios.append(CampaignScenario(name, recipe.build().circuit, config))
        self.library = CellLibrary()

    def oracle(self) -> dict[str, str]:
        serial = [
            dataclasses.replace(s, config=dataclasses.replace(s.config, sim_backend="python"))
            for s in self.scenarios
        ]
        result = CampaignRunner(num_workers=1).run(serial)
        return {"campaign": report_checksum(result.report_bytes())}

    def warm_up(self, step) -> None:
        """Nothing: every run starts a new pool, whose workers do the work,
        so a run in this process would warm little but its imports."""

    def iterate(self, tracer: Optional[Tracer], index: int = 0, replica: bool = False) -> Outcome:
        if tracer is None and not replica:
            start = time.perf_counter()
            result = CampaignRunner(num_workers=NPROC).run(self.scenarios)
            digest = report_checksum(result.report_bytes())
            wall = time.perf_counter() - start
            return Outcome(wall, {"": [wall]}, 1, int(digest != self.expected["campaign"]))
        return self._walk(tracer)

    def _walk(self, tracer: Optional[Tracer]) -> Outcome:
        """The runner's multi-scenario graph, drained with a span observer if traced."""
        start = time.perf_counter()
        root = tracer.root("campaign") if tracer is not None else None
        nodes, scenario_keys, report_keys = [], [], {}
        for index, scenario in enumerate(self.scenarios):
            key = unique_scenario_key(f"s{index}:{scenario.name}")
            scenario_keys.append(key)
            scenario_nodes, keys = scenario_stage_nodes(
                key,
                scenario.circuit,
                scenario.config,
                library=self.library,
                scenario_name=scenario.name,
                fault_shards=max(1, NPROC),
                num_workers=NPROC,
                include_report=True,
            )
            nodes.extend(scenario_nodes)
            report_keys[scenario.name] = keys["report"]
        scheduler = PooledScheduler(NPROC) if NPROC >= 2 else SerialScheduler()
        observer = schedule = None
        if root is not None:
            schedule = tracer.begin("schedule", "campaign", parent=root.id, group=root.group)
            observer = StageSpans(tracer, schedule)
        try:
            run = scheduler.run(nodes, observer=observer)
        finally:
            if schedule is not None:
                tracer.finish(schedule)
            release_scenario_engines(scenario_keys)
        result = CampaignResult(
            scenarios={name: run.value(key) for name, key in report_keys.items()},
            num_workers=NPROC,
        )
        digest = report_checksum(result.report_bytes())
        counts = {}
        if root is not None:
            tracer.finish(root)
            counts = {
                **artifact_counts(observer.artifacts),
                **_schedule_counts(observer, schedule, max(1, NPROC)),
            }
            wall = root.end - root.start
        else:
            wall = time.perf_counter() - start
        return Outcome(wall, {"": [wall]}, 1, int(digest != self.expected["campaign"]), counts, root)


# --------------------------------------------------------------------- #
# The service workloads
# --------------------------------------------------------------------- #
class _ServiceWorkload(Workload):
    """Shared inputs and the closed-loop client of the two service workloads.

    A job is one scenario on the python backend with fault-simulation TPI,
    run by the service's serial scheduler.  Jobs alternate half-scale
    Core X and half-scale Core Y: ``a`` is Core X, ``b`` Core Y, and so on.
    """

    JOBS = ("a", "b")

    def _make_inputs(self) -> None:
        self.recipes, self.configs = {}, {}
        for name, make_recipe in zip(self.JOBS, itertools.cycle((core_x_recipe, core_y_recipe))):
            sub_seed = derive_seed(self.seed, f"job:{name}")
            recipe = tiny_recipe(seed=sub_seed) if self.tiny else make_recipe(scale=0.5, seed=sub_seed)
            self.recipes[name] = recipe
            self.configs[name] = LogicBistConfig(
                total_scan_chains=recipe.total_scan_chains,
                observation_point_budget=recipe.observation_point_budget,
                tpi_method="fault_sim",
                tpi_profile_patterns=recipe.tpi_profile_patterns,
                random_patterns=128 if self.tiny else 512,
                prpg_length=recipe.prpg_length,
                clock_frequencies_mhz=recipe.clock_frequencies_mhz,
                bist_seed=derive_seed(self.seed, f"job:{name}:bist", 4096),
                sim_backend="python",
            )
        self.scenarios = {name: self._scenario(name) for name in self.JOBS}

    def _scenario(self, name: str) -> CampaignScenario:
        """A freshly generated circuit object: a prep-cache miss."""
        return CampaignScenario(name, self.recipes[name].build().circuit, self.configs[name])

    def oracle(self) -> dict[str, str]:
        return {
            name: report_checksum(
                CampaignRunner(num_workers=1).run([self.scenarios[name]]).report_bytes()
            )
            for name in self.JOBS
        }

    def _instrument(self, service: CampaignService, tracer: Tracer, stats: dict) -> None:
        """Wrap this service instance's checkpoint reads and writes in spans."""
        store = service.checkpoints
        save, load = store.save_progress, store.load_progress

        def save_progress(job_id, run):
            start = time.perf_counter()
            save(job_id, run)
            end = time.perf_counter()
            tracer.add("save_progress", "service.ckpt_write", start, end,
                       parent=self._parent_of(job_id), group=job_id)
            stats["service.ckpt_writes"] += 1
            stats["service.ckpt_mb"] += (store.job_dir(job_id) / PROGRESS_FILE).stat().st_size / 1e6

        def load_progress(job_id):
            start = time.perf_counter()
            snapshot = load(job_id)
            end = time.perf_counter()
            if snapshot is not None:
                tracer.add("load_progress", "service.ckpt_read", start, end,
                           parent=self._parent_of(job_id), group=job_id)
                stats["service.ckpt_reads"] += 1
            return snapshot

        store.save_progress = save_progress
        store.load_progress = load_progress

    def _parent_of(self, job_id: str) -> int:
        """The job's span, or the iteration's before the client follows it."""
        job = self._job_spans.get(job_id)
        return job.id if job is not None else self._root.id

    async def _follow(self, service, job_id, origin, tracer, root, stats) -> tuple[float, bool]:
        """Stream one job to its terminal event; ``(latency, ok)``.

        ``origin`` is when the job was submitted or the service restarted.
        The job's span starts when the client begins to follow it: the
        service runs jobs one at a time, so spans of jobs recovered together
        do not overlap.
        """
        expected = self.expected[self._job_names[job_id]]
        job = None
        if tracer is not None:
            now = time.perf_counter()
            job = tracer.add(job_id, "service", now, now, parent=root.id, group=job_id)
            self._job_spans[job_id] = job
        started: dict[str, float] = {}
        finished = None
        async for event in service.stream(job_id):
            now = time.perf_counter()
            stats["service.events"] += 1
            if isinstance(event, JobStarted):
                # As the client sees it: a recovered job queued behind
                # another waits from the restart.
                stats["service.queue_wait_s"] += now - origin
                stats["service.preloaded_stages"] += event.preloaded_stages
            elif isinstance(event, StageStarted):
                started[event.stage] = now
            elif isinstance(event, StageRetrying):
                stats["campaign.retries"] += 1
            elif isinstance(event, StageFinished):
                stats["campaign.stages"] += 1
                stats["compute_s"] += event.seconds
                if job is not None:
                    begin = started.pop(event.stage, now - event.seconds)
                    tracer.add(event.stage, stage_layer(event.stage), begin,
                               min(begin + event.seconds, now), parent=job.id, group=job_id)
            elif isinstance(event, JobFinished):
                finished = event
            if isinstance(event, TERMINAL_EVENTS):
                break
        end = time.perf_counter()
        if job is not None:
            job.end = end
        record = service.job(job_id)
        ok = (
            finished is not None
            and record.state == "finished"
            and finished.checksum == expected
        )
        if ok and tracer is not None:
            for name, number in report_counts(record.result).items():
                stats[name] = stats.get(name, 0) + number
        return end - origin, ok

    @staticmethod
    def _new_stats() -> dict:
        names = ("service.events", "service.queue_wait_s", "service.preloaded_stages",
                 "service.ckpt_writes", "service.ckpt_mb", "service.ckpt_reads",
                 "campaign.stages", "campaign.retries", "compute_s")
        return {name: 0 for name in names}

    @staticmethod
    def _finish_counts(stats: dict, wall: float) -> dict:
        stats["campaign.busy_ratio"] = stats.pop("compute_s") / wall if wall > 0 else 0.0
        return stats


class ServiceCheckpoint(_ServiceWorkload):
    """A checkpointing service and one closed-loop client.

    Each iteration starts a service on an empty checkpoint directory, then
    submits two jobs of one kind, ``a`` to ``d`` in rotation, and waits for
    each: first on a freshly built circuit (a prep-cache miss), then again
    on the same circuit (a hit).  Only the two jobs are timed.  Four
    circuits, two of each core, average more of the circuit-to-circuit
    spread than two did.
    """

    name = "service_ckpt"
    JOBS = ("a", "b", "c", "d")
    ops = 2
    rotation = len(JOBS)

    def setup(self) -> None:
        """The inputs, and one start and stop of a service on an empty directory."""
        self._make_inputs()
        OUT_DIR.mkdir(exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix="ckpt-", dir=OUT_DIR))
        self._job_names: dict[str, str] = {}
        self._job_spans: dict[str, Span] = {}

        async def start_and_stop() -> None:
            service = CampaignService(checkpoint_dir=self.workdir / "setup")
            await service.start()
            await service.stop()

        asyncio.run(start_and_stop())

    def teardown(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def iterate(self, tracer: Optional[Tracer], index: int = 0, replica: bool = False) -> Outcome:
        name = self.JOBS[index % len(self.JOBS)]
        scenario = self._scenario(name)
        directory = Path(tempfile.mkdtemp(prefix="service-", dir=self.workdir))
        try:
            return asyncio.run(self._serve(tracer, name, scenario, directory))
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    async def _serve(self, tracer, name, scenario, directory) -> Outcome:
        service = CampaignService(checkpoint_dir=directory)
        await service.start()
        try:
            return await self._iterate(service, tracer, name, scenario)
        finally:
            await service.stop()

    async def _iterate(self, service, tracer, name, scenario) -> Outcome:
        stats = self._new_stats()
        root = None
        if tracer is not None:
            root = self._root = tracer.root("jobs")
            self._instrument(service, tracer, stats)
        start = time.perf_counter() if root is None else root.start
        latencies, failed = {}, 0
        for kind in (f"{name}:fresh", f"{name}:hit"):
            origin = time.perf_counter()
            try:
                job_id = await service.submit([scenario])
                self._job_names[job_id] = name
                latency, ok = await self._follow(service, job_id, origin, tracer, root, stats)
            except Exception as error:  # a failed operation, counted below
                print(f"{self.name}: job failed: {error!r}", file=sys.stderr)
                latency, ok = time.perf_counter() - origin, False
            latencies[kind] = [latency]
            failed += not ok
        wall = time.perf_counter() - start
        counts = {}
        if root is not None:
            root.end = start + wall
            cache = service.status()["prep_cache"]
            lookups = cache["hits"] + cache["misses"]
            stats["service.prep_cache.hit_ratio"] = cache["hits"] / lookups if lookups else 0.0
            counts = self._finish_counts(stats, wall)
        return Outcome(wall, latencies, len(latencies), failed, counts, root, name)


class ServiceResume(_ServiceWorkload):
    """Restart a service on a copy of an interrupted checkpoint and finish it.

    Setup runs jobs ``a`` and ``b`` on a checkpointing service whose
    lifecycle chaos plan crashes each job at the same stage boundary, so the
    checkpoint holds both jobs part-done.  Every iteration restarts a fresh
    service on a fresh copy of that directory and streams the recovered
    jobs to completion; latency runs from the restart.
    """

    name = "service_resume"
    ops = len(_ServiceWorkload.JOBS)
    #: The 0-based stage finish at which each job is stopped in setup: after
    #: scan, TPI and session generation are checkpointed.
    STOP_AFTER_STAGES = 2

    def setup(self) -> None:
        self._make_inputs()
        OUT_DIR.mkdir(exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix="resume-", dir=OUT_DIR))
        self.template = self.workdir / "template"
        self._job_names: dict[str, str] = {}
        self._job_spans: dict[str, Span] = {}
        self._copies = 0
        asyncio.run(self._interrupt())

    async def _interrupt(self) -> None:
        job_ids = [f"job-{index:06d}" for index in range(1, len(self.JOBS) + 1)]
        plan = LifecycleChaosPlan([
            LifecycleInjection(stage=f"{job_id}/", on="finish", action="crash",
                               occurrences=(self.STOP_AFTER_STAGES,))
            for job_id in job_ids
        ])
        service = CampaignService(checkpoint_dir=self.template, lifecycle_chaos=plan)
        await service.start()
        try:
            for job_id, name in zip(job_ids, self.JOBS):
                await service.submit([self.scenarios[name]], job_id=job_id)
                record = await service.wait(job_id)
                if record.state != "failed" or not service.checkpoints.has_progress(job_id):
                    raise RuntimeError(f"{job_id} was not interrupted with a checkpoint")
                self._job_names[job_id] = name
        finally:
            await service.stop()

    def teardown(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def iterate(self, tracer: Optional[Tracer], index: int = 0, replica: bool = False) -> Outcome:
        self._copies += 1
        copy = self.workdir / f"copy{self._copies}"
        shutil.copytree(self.template, copy)
        try:
            return asyncio.run(self._iterate(tracer, copy))
        finally:
            shutil.rmtree(copy, ignore_errors=True)

    async def _iterate(self, tracer, directory) -> Outcome:
        stats = self._new_stats()
        root = None
        if tracer is not None:
            root = self._root = tracer.root("restart")
        start = time.perf_counter() if root is None else root.start
        service = CampaignService(checkpoint_dir=directory)
        if tracer is not None:
            self._instrument(service, tracer, stats)
        latencies, failed = {}, 0
        try:
            recovered = await service.start()
            if root is not None:
                tracer.add("start", "service", start, time.perf_counter(),
                           parent=root.id, group=root.group)
            for job_id in self._job_names:
                if job_id not in recovered:
                    failed += 1
                    continue
                try:
                    latency, ok = await self._follow(service, job_id, start, tracer, root, stats)
                except Exception as error:  # a failed operation, counted below
                    print(f"{self.name}: job failed: {error!r}", file=sys.stderr)
                    latency, ok = time.perf_counter() - start, False
                latencies[self._job_names[job_id]] = [latency]
                failed += not ok
            wall = time.perf_counter() - start
        finally:
            await service.stop()
        counts = {}
        if root is not None:
            root.end = start + wall
            counts = self._finish_counts(stats, wall)
        return Outcome(wall, latencies or {"": [wall]}, len(self._job_names), failed, counts, root)


WORKLOADS = {
    workload.name: workload
    for workload in (FlowTopUp, CampaignAtSpeed, ServiceCheckpoint, ServiceResume)
}
