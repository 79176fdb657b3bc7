"""In-memory spans recorded from outside the program, and what they add up to.

A span is ``(name, layer, start, end, parent, group)``: ``group`` is the
iteration or job the span belongs to.  Spans come from three places, all
outside ``src/``:

* :class:`StageSpans`, a :class:`~repro.campaign.scheduler.StageObserver`
  the benchmark passes to a scheduler's public ``run(..., observer=)``;
* the service's streamed ``StageStarted``/``StageFinished`` events;
* wrappers around one service instance's ``CheckpointStore`` methods.

:func:`layer_self_times` splits each root span's wall time among the spans
active at each instant: an instant goes to the deepest active spans, shared
equally when several run at once (pooled stages).  So the layer times of one
root always add up to its wall time exactly, and the part no child covers
stays with the root (``unattributed``).
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Optional

from repro.campaign.scheduler import StageObserver

#: Layer of a stage, by the first key segment after the scenario key.  The
#: segments are the artifact names ``scenario_stage_nodes`` gives each
#: stage class (``PrepareCoreStage`` -> ``core``, ...); expanded children
#: (``fault_sim/shard0``, ``topup/podem1``, ...) inherit their parent's.
STAGE_LAYERS = {
    "core": "scan",  # PrepareCoreStage
    "tpi": "tpi",  # TpiProfileStage
    "bundle": "bist",  # BuildStumpsStage: PRPG session generation
    "signatures": "bist.misr",  # Signature{,Responses,Fold}Stage, GatherSignaturesStage
    "fault_sim": "faults",  # FaultSimStage, FaultSimShardStage, MergeDetectionsStage
    "transition_input": "faults.transition",  # TrimTransitionInputStage
    "transition_prep": "faults.transition",  # TransitionPrepStage
    "transition": "faults.transition",  # Transition{,Shard,Merge}Stage
    "skew_input": "timing",  # TrimSkewInputStage
    "skew": "timing",  # SkewSweepStage, SkewTrialsStage, SkewMergeStage
    "topup_input": "atpg",  # TrimTopUpInputStage
    "topup": "atpg",  # TopUpStage, PodemShardStage, TopUpMergeStage
    "report": "campaign.results",  # ReportStage
}

#: Every layer a traced iteration's wall time is split into.  ``campaign``
#: is the scheduler itself (schedule wall no stage covers), ``service`` the
#: job time outside stages and checkpoint I/O, ``unattributed`` whatever
#: the iteration spends outside both.
LAYERS = (
    "scan",
    "tpi",
    "bist",
    "bist.misr",
    "faults",
    "faults.transition",
    "timing",
    "atpg",
    "campaign.results",
    "campaign",
    "service",
    "service.ckpt_write",
    "service.ckpt_read",
    "unattributed",
)


def stage_layer(key: str) -> str:
    """The layer of a stage key; unknown stages stay ``unattributed``."""
    for segment in key.split("/"):
        layer = STAGE_LAYERS.get(segment)
        if layer is not None:
            return layer
    return "unattributed"


@dataclass
class Span:
    id: int
    name: str
    layer: str
    start: float
    end: float
    parent: Optional[int]
    group: str
    args: dict = field(default_factory=dict)


class Tracer:
    """Collects spans in memory; safe to call from the service's worker thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def add(self, name, layer, start, end, parent=None, group="", **args) -> Span:
        with self._lock:
            span = Span(next(self._ids), name, layer, start, end, parent, group, args)
            self.spans.append(span)
        return span

    def root(self, name) -> Span:
        """Open an iteration's root span; its group names the iteration."""
        span = self.begin(name, "unattributed")
        span.group = f"{name}{span.id}"
        return span

    def begin(self, name, layer, parent=None, group="", **args) -> Span:
        """Open a span; :meth:`finish` sets its end."""
        now = time.perf_counter()
        return self.add(name, layer, now, now, parent, group, **args)

    @staticmethod
    def finish(span: Span) -> Span:
        span.end = time.perf_counter()
        return span

    def adopt(self, spans: list[Span]) -> None:
        """Take spans a forked copy of this tracer recorded; later ids follow theirs."""
        with self._lock:
            self.spans.extend(spans)
            if spans:
                self._ids = itertools.count(max(span.id for span in spans) + 1)


class StageSpans(StageObserver):
    """Records one span per stage, plus the counts the stage artifacts carry.

    On the serial walk a stage's span is its execution.  On the pool,
    ``on_stage_start`` fires at dispatch and ``on_stage_finish`` when the
    result reaches the parent, so the span is ``[finish - compute, finish]``
    and the rest of ``finish - dispatch`` is pickling and IPC, summed into
    ``wait_s``.
    """

    def __init__(self, tracer: Tracer, parent: Span) -> None:
        self.tracer = tracer
        self.parent = parent
        self.started: dict[str, float] = {}
        self.artifacts: list[object] = []
        self.first_start: Optional[float] = None
        self.last_finish: Optional[float] = None
        self.stages = 0
        self.retries = 0
        self.compute_s = 0.0
        self.wait_s = 0.0

    def on_stage_start(self, node) -> None:
        now = time.perf_counter()
        self.started[node.key] = now
        if self.first_start is None:
            self.first_start = now

    def on_stage_retry(self, node, error, attempt, delay_s) -> None:
        self.retries += 1

    def on_stage_finish(self, node, value, seconds: float) -> None:
        now = time.perf_counter()
        dispatched = self.started.pop(node.key, now - seconds)
        self.stages += 1
        self.compute_s += seconds
        self.wait_s += max(0.0, now - dispatched - seconds)
        self.last_finish = now
        self.artifacts.append(value)
        self.tracer.add(
            node.key,
            stage_layer(node.key),
            max(dispatched, now - seconds),
            now,
            parent=self.parent.id,
            group=self.parent.group,
            local=node.local,
        )


def _descendants(root: Span, children: dict) -> list[Span]:
    """``root``'s descendants, each clipped to its parent's interval."""
    found = []
    stack = [(root, root.start, root.end)]
    while stack:
        span, low, high = stack.pop()
        for child in children.get(span.id, ()):
            start, end = max(child.start, low), min(child.end, high)
            if end > start:
                found.append((child, start, end))
                stack.append((child, start, end))
    return found


def layer_self_times(spans: list[Span], root_ids) -> dict[str, float]:
    """Seconds per layer over the given roots; they sum to the roots' wall."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    by_id = {span.id: span for span in spans}
    totals = {layer: 0.0 for layer in LAYERS}
    for root_id in root_ids:
        root = by_id[root_id]
        clipped = _descendants(root, children)
        points = sorted({root.start, root.end, *(p for _, s, e in clipped for p in (s, e))})
        for low, high in zip(points, points[1:]):
            middle = (low + high) / 2
            active = {span.id: span for span, s, e in clipped if s <= middle < e}
            leaves = [
                span
                for span in active.values()
                if not any(child.id in active for child in children.get(span.id, ()))
            ] or [root]
            share = (high - low) / len(leaves)
            for span in leaves:
                totals[span.layer] = totals.get(span.layer, 0.0) + share
    return totals


def write_chrome_trace(spans: list[Span], path) -> None:
    """Write spans as Chrome trace-event JSON (Perfetto opens it directly).

    Spans that nest (iteration > schedule > stage, job > checkpoint) share
    a track; concurrent leaf spans of a pooled schedule get extra tracks so
    every track stays properly nested.
    """
    origin = min((span.start for span in spans), default=0.0)
    has_children = {span.parent for span in spans if span.parent is not None}
    lanes: list[float] = []
    events = []
    for span in sorted(spans, key=lambda s: (s.start, -s.end)):
        track = 0
        if span.id not in has_children and span.parent is not None:
            for index, busy_until in enumerate(lanes):
                if busy_until <= span.start:
                    track = index + 1
                    break
            else:
                lanes.append(0.0)
                track = len(lanes)
            lanes[track - 1] = span.end
        events.append(
            {
                "name": span.name,
                "cat": span.layer,
                "ph": "X",
                "ts": round((span.start - origin) * 1e6, 3),
                "dur": round((span.end - span.start) * 1e6, 3),
                "pid": 1,
                "tid": track,
                "args": {"group": span.group, **span.args},
            }
        )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
