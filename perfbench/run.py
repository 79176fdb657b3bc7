#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the logic BIST flow, campaign and service.

Run from the repository root::

    python3 perfbench/run.py --workload flow_topup --seed 1 --seconds 24 --trace 0

Workloads: ``flow_topup``, ``campaign_atspeed``, ``service_ckpt``,
``service_resume`` (see ``perfbench/README.md`` for why each exists and what
each layer metric should move).  A run

1. sets up, and sets up again in ``SETUP_BURSTS - 1`` more bursts spread
   evenly over the timed window; ``setup_s`` is the median over the bursts
   of each burst's mean set-up;
2. loads the reference digests committed for the seed in
   ``perfbench/expected.json``; for a seed without them, computes them on
   the serial python-backend path (the flow instead takes each core's
   first run as its reference);
3. warms the timed path once in this process, where the workload has
   something to warm (the service workloads);
4. repeats iterations for ``--seconds`` seconds, and never fewer than
   ``MIN_ITERATIONS`` on each of the workload's input sets; every
   operation's digest is checked against the reference, and a mismatch, an
   error or an unfinished job counts as failed.

Each timed iteration runs in a process forked for it, which this one waits
for, so every iteration starts from the same state.  In one process they
did not: the program keeps every circuit it has simulated alive (its
per-circuit kernel cache holds its keys through its values), so memory and
garbage-collection work grew with each iteration.  A ``service_resume``
iteration slowed from about 0.8 s to 1.1 s over 20 in-process iterations,
and a run's figure then depended on how many iterations the host's speed
let it make.

Every set-up and iteration is timed in host seconds and scaled by
``calibration.REFERENCE_SECONDS`` over a fixed calibration kernel's time,
measured right before and after it on the same CPU.  The host's speed
drifted by half over minutes; the scaled figures, seconds on a host of
reference speed, do not (see ``calibration.py``).  Serial iterations run on
whichever CPU a short probe finds least contended: at one moment one CPU
can run 1.7 times slower than the other.

With ``--trace 0`` it reports the end-to-end metrics, measured with tracing
off.  With ``--trace 1`` it alternates untraced and traced walks of the same
stage graph, reports the per-layer metrics of the traced ones, and writes
their spans as Chrome trace-event JSON under ``perfbench/out/`` (open it in
Perfetto).

The last line of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Optional

from calibration import REFERENCE_SECONDS, calibration_seconds, kernel_seconds

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Set-up bursts per run, the first before timing and the rest spread over
#: the timed window.  The mix of fast and slow host states also drifts over
#: tens of seconds, so set-ups clustered at the start measure one stretch of
#: it; spread out, they see the same mix the iterations do.
SETUP_BURSTS = 4
#: Cheap set-ups (10 to 50 ms of input generation) repeat within a burst
#: until this much time is spent, and the burst counts their mean.  On this
#: kind of shared host, back-to-back runs of one short set-up flip between
#: two speeds 1.8x apart every fraction of a second, so a single set-up, or
#: the fastest of a few, lands on one speed or the other; the mean over a
#: second of them averages the flips as a seconds-long iteration does.
SETUP_SECONDS = 1.0
#: Calibration kernel time after each set-up, as a share of the set-up's.
SETUP_CALIBRATION_SHARE = 0.25
#: Timed iterations every run makes on each input set however fast the
#: code is.
MIN_ITERATIONS = 3
#: Longest a forked iteration or set-up burst may run before it is stopped;
#: an iteration stopped so counts its operations as failed.
CHILD_TIMEOUT_S = 120.0
#: Probe loops per CPU when choosing the CPU a serial iteration runs on.
PROBE_LOOPS = 3

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "job_p50_s": "s",
}

#: Per-layer self times: every traced iteration's wall is split into these,
#: so they add up to ``traced_wall_s``.
SELF_TIMES = {
    "scan.self_s": "scan",
    "tpi.self_s": "tpi",
    "bist.self_s": "bist",
    "bist.misr.self_s": "bist.misr",
    "faults.self_s": "faults",
    "faults.transition.self_s": "faults.transition",
    "timing.self_s": "timing",
    "atpg.self_s": "atpg",
    "campaign.results.self_s": "campaign.results",
    "campaign.overhead_s": "campaign",
    "service.self_s": "service",
    "service.ckpt_write_s": "service.ckpt_write",
    "service.ckpt_read_s": "service.ckpt_read",
    "unattributed_s": "unattributed",
}

#: Per-layer counts and derived figures, averaged per traced iteration.
COUNTS = {
    "tpi.points": "count",
    "faults.faults": "count",
    "timing.trials": "count",
    "atpg.attempted": "count",
    "atpg.successful": "count",
    "atpg.untestable": "count",
    "atpg.aborted": "count",
    "atpg.skipped": "count",
    "atpg.backtracks": "count",
    "atpg.patterns": "count",
    "campaign.stages": "count",
    "campaign.retries": "count",
    "campaign.spawn_s": "s",
    "campaign.wait_s": "s",
    "campaign.busy_ratio": "ratio",
    "service.ckpt_writes": "count",
    "service.ckpt_mb": "MB",
    "service.ckpt_reads": "count",
    "service.prep_cache.hit_ratio": "ratio",
    "service.queue_wait_s": "s",
    "service.events": "count",
    "service.preloaded_stages": "count",
}

PER_LAYER = {
    **{name: "s" for name in SELF_TIMES},
    **COUNTS,
    "atpg.useful_ratio": "ratio",
    "campaign.worker_rss_mb": "MB",
    "traced_wall_s": "s",
    "trace_overhead_s": "s",
}


def _max_rss_mb(who) -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(who).ru_maxrss / 1024


def reset_peak_rss() -> bool:
    """Reset this process's peak-RSS mark to its current RSS (Linux only)."""
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
    except OSError:
        return False
    return True


def peak_rss_mb(since_reset: bool) -> float:
    """Peak RSS of this process since the reset, else over its lifetime."""
    if since_reset:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    return _max_rss_mb(resource.RUSAGE_SELF)


def set_medians(outcomes, value) -> list[float]:
    """The median of ``value(outcome)`` on each input set.

    Figures built from these do not depend on which set the last
    iteration happened to use.
    """
    by_key: dict[str, list[float]] = {}
    for outcome in outcomes:
        by_key.setdefault(outcome.key, []).append(value(outcome))
    return [statistics.median(values) for values in by_key.values()]


def balanced_wall(outcomes) -> float:
    """Median wall per input set, then the mean over the sets."""
    return statistics.fmean(set_medians(outcomes, lambda outcome: outcome.wall_s))


def balanced_latency(outcomes) -> float:
    """Median operation latency per kind of operation, then the mean over kinds.

    The kinds (cores, fresh or cached jobs) differ in cost, so one median
    over the mixture would jump between them from run to run.
    """
    by_kind: dict[str, list[float]] = {}
    for outcome in outcomes:
        for kind, latencies in outcome.latencies.items():
            by_kind.setdefault(kind, []).extend(latencies)
    return statistics.fmean(statistics.median(values) for values in by_kind.values())


def _probe_loop() -> float:
    """Seconds one short pure-Python loop takes on the current CPU."""
    begin = time.perf_counter()
    total = 0
    for number in range(20_000):
        total += number * number % 7
    return time.perf_counter() - begin


def fastest_cpu() -> Optional[int]:
    """The allowed CPU on which a short loop runs fastest right now, or
    ``None`` where there is only one."""
    allowed = sorted(os.sched_getaffinity(0))
    if len(allowed) < 2:
        return None
    timings = {
        cpu: pinned(cpu, lambda: min(_probe_loop() for _ in range(PROBE_LOOPS)))
        for cpu in allowed
    }
    return min(timings, key=timings.get)


def pinned(cpu: Optional[int], function, *args):
    """``function(*args)`` with this process on ``cpu`` only (anywhere if ``None``)."""
    if cpu is None:
        return function(*args)
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        return function(*args)
    finally:
        os.sched_setaffinity(0, allowed)


def _call_in_child(connection, cpu, function, args) -> None:
    try:
        connection.send(("ok", pinned(cpu, function, *args)))
    except BaseException:
        connection.send(("error", traceback.format_exc()))
    finally:
        connection.close()


def in_child(function, *args, cpu: Optional[int] = None):
    """``function(*args)`` in a process forked from this one, which is waited for.

    With ``cpu`` the process runs on that CPU only.  Raises ``RuntimeError``
    if the call raised, its process died, or it ran over
    ``CHILD_TIMEOUT_S``.
    """
    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)
    child = context.Process(target=_call_in_child, args=(sender, cpu, function, args))
    child.start()
    sender.close()
    try:
        if not receiver.poll(CHILD_TIMEOUT_S):
            raise RuntimeError(f"{function.__name__} ran over {CHILD_TIMEOUT_S:.0f} s")
        try:
            status, value = receiver.recv()
        except EOFError:
            raise RuntimeError(f"{function.__name__}: its process ended without a result") from None
    finally:
        receiver.close()
        child.join(CHILD_TIMEOUT_S if child.is_alive() else None)
        if child.is_alive():
            child.kill()
            child.join()
    if status != "ok":
        raise RuntimeError(f"{function.__name__} raised:\n{value}")
    return value


def host_calibration() -> float:
    """Calibration seconds, averaged over the CPUs this process may use.

    A serial iteration is pinned to one CPU; a pooled one keeps every CPU
    busy, and at one moment one CPU can run far slower than another.
    """
    allowed = sorted(os.sched_getaffinity(0))
    if len(allowed) == 1:
        return calibration_seconds()
    return statistics.fmean(pinned(cpu, calibration_seconds) for cpu in allowed)


def timed_setups(workload) -> float:
    """Mean set-up of ``workload`` over ``SETUP_SECONDS`` of them, scaled.

    Calibration kernels run before the first set-up and after each one,
    for at least ``SETUP_CALIBRATION_SHARE`` of its time, so they sample
    the host across the burst: a few kernels at one moment land on one of
    the host's speeds, and scaled that way a run's figure jumped by 40%.
    Each set-up after the first replaces the previous one; the last stays.
    """
    calibrations = [kernel_seconds()]
    burst = []
    while not burst or sum(burst) < SETUP_SECONDS:
        if burst:
            workload.teardown()
        start = time.perf_counter()
        workload.setup()
        burst.append(time.perf_counter() - start)
        spent = 0.0
        while not spent or spent < SETUP_CALIBRATION_SHARE * burst[-1]:
            calibrations.append(kernel_seconds())
            spent += calibrations[-1]
    return statistics.fmean(burst) * REFERENCE_SECONDS / statistics.fmean(calibrations)


def fresh_setups(workload) -> float:
    """:func:`timed_setups` of a new instance, torn down after; for :func:`in_child`."""
    fresh = type(workload)(workload.seed, workload.tiny)
    try:
        return timed_setups(fresh)
    finally:
        fresh.teardown()


def iteration(workload, tracer, index: int, replica: bool):
    """One timed iteration and what its process measured; for :func:`in_child`.

    Returns the outcome and the spans the iteration added to ``tracer``.
    """
    since_reset = reset_peak_rss()
    first_span = len(tracer.spans) if tracer is not None else 0
    before = host_calibration()
    outcome = workload.iterate(tracer, index, replica=replica)
    outcome.calibration_s = (before + host_calibration()) / 2
    outcome.peak_rss_mb = peak_rss_mb(since_reset)
    outcome.worker_rss_mb = _max_rss_mb(resource.RUSAGE_CHILDREN)
    return outcome, tracer.spans[first_span:] if tracer is not None else []


def measure(workload, seconds: float, trace: bool, *, min_iterations: int = MIN_ITERATIONS,
            trace_path=None) -> dict:
    """Run one workload as the module docstring describes; returns the result."""
    from tracing import layer_self_times, write_chrome_trace, Tracer

    setups = []

    def set_up(first=False):
        """One burst: the first in this process, later ones in a forked one.

        Later bursts run forked so that what a set-up leaves behind does
        not grow this process, from which every iteration is forked.
        """
        if first:
            setups.append(pinned(fastest_cpu(), timed_setups, workload))
        else:
            setups.append(in_child(fresh_setups, workload, cpu=fastest_cpu()))

    set_up(first=True)
    min_iterations *= workload.rotation

    attempted = failed = 0

    def count(outcome):
        nonlocal attempted, failed
        workload.settle(outcome)
        attempted += outcome.attempted
        failed += outcome.failed

    def warm(tracer, index=0):
        """One iteration in this process, so later forks start warm."""
        count(workload.iterate(tracer, index, replica=trace))

    def step(tracer, index=0):
        nonlocal attempted, failed
        cpu = fastest_cpu() if workload.serial else None
        try:
            outcome, spans = in_child(iteration, workload, tracer, index, trace, cpu=cpu)
        except RuntimeError as error:  # the iteration's operations failed; keep measuring
            print(error, file=sys.stderr)
            attempted += workload.ops
            failed += workload.ops
            return None
        if tracer is not None:
            tracer.adopt(spans)
        count(outcome)
        outcome.host_wall_s = outcome.wall_s
        outcome.wall_s *= outcome.scale
        outcome.latencies = {
            kind: [latency * outcome.scale for latency in latencies]
            for kind, latencies in outcome.latencies.items()
        }
        return outcome

    tracer = Tracer() if trace else None
    untraced, traced = [], []
    try:
        workload.reference()
        workload.warm_up(warm)
        start = time.perf_counter()
        iterations = 0
        bursts = 1
        while iterations < min_iterations or time.perf_counter() - start < seconds:
            if bursts < SETUP_BURSTS and time.perf_counter() - start >= seconds * bursts / SETUP_BURSTS:
                set_up()
                bursts += 1
            # Traced and untraced runs of one input set take turns going
            # first: the second of two runs on the same inputs can be faster.
            modes = (None, tracer) if iterations % 2 == 0 else (tracer, None)
            for mode in modes if trace else (None,):
                outcome = step(mode, iterations)
                if outcome is not None:
                    (untraced if mode is None else traced).append(outcome)
            iterations += 1
    finally:
        workload.teardown()
    print(f"digest {workload.name} seed={workload.seed} {workload.digest_summary()} "
          f"reference={workload.reference_source}")
    if not untraced or (trace and not traced):
        raise RuntimeError(f"{workload.name}: every iteration raised")
    host_speed = statistics.median(outcome.calibration_s for outcome in untraced + traced)
    host_wall = statistics.fmean(set_medians(untraced, lambda outcome: outcome.host_wall_s))
    print(f"host speed: calibration {host_speed * 1e3:.2f} ms (reference "
          f"{REFERENCE_SECONDS * 1e3:.2f} ms); wall {host_wall:.3f} host s")

    untraced_wall = balanced_wall(untraced)
    if not trace:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": untraced_wall,
            "peak_rss_mb": max(set_medians(untraced, lambda outcome: outcome.peak_rss_mb)),
            "job_p50_s": balanced_latency(untraced),
        }
        units = END_TO_END
    else:
        count = len(traced)
        layers: dict[str, float] = {}
        for outcome in traced:
            for layer, seconds in layer_self_times(tracer.spans, [outcome.root.id]).items():
                layers[layer] = layers.get(layer, 0.0) + seconds * outcome.scale
        values = {name: layers[layer] / count for name, layer in SELF_TIMES.items()}
        for name, unit in COUNTS.items():
            values[name] = sum(
                outcome.counts.get(name, 0) * (outcome.scale if unit == "s" else 1.0)
                for outcome in traced
            ) / count
        values["atpg.useful_ratio"] = (
            values["atpg.successful"] / values["atpg.attempted"] if values["atpg.attempted"] else 0.0
        )
        values["campaign.worker_rss_mb"] = max(set_medians(traced, lambda outcome: outcome.worker_rss_mb))
        values["traced_wall_s"] = sum((o.root.end - o.root.start) * o.scale for o in traced) / count
        values["trace_overhead_s"] = balanced_wall(traced) - untraced_wall
        units = PER_LAYER
        if trace_path is not None:
            write_chrome_trace(tracer.spans, trace_path)
            print(f"trace written to {trace_path}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: no source tree at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import OUT_DIR, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    trace_path = None
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    workload = WORKLOADS[args.workload](args.seed)
    result = measure(workload, args.seconds, bool(args.trace), trace_path=trace_path)
    for name, metric in result["metrics"].items():
        print(f"{args.workload:>16}  {name:<30} {metric['value']:>14.6f} {metric['unit']}")
    print(f"{args.workload:>16}  attempted {result['attempted']} failed {result['failed']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
