"""Service-tier cross-request cache of prepared scenarios.

The per-process caches below the campaign layer (``shared_kernel`` keyed by
circuit identity + ``Circuit.revision``; the worker-side
:class:`~repro.campaign.pipeline.EngineCache` LRU) already stop recompiles
*within* one campaign.  What they cannot do is help the *next* request:
scan insertion copies the submitted circuit, so two jobs over the same core
prepare -- and compile -- two structurally identical circuits from scratch.

:class:`ScenarioPrepCache` closes that gap at the service tier.  It caches
the *preparation artifacts* of a scenario -- the scan-inserted
``BistReadyCore`` and the TPI-profiled
:class:`~repro.campaign.pipeline.TpiOutcome` -- keyed by the submitted
circuit's identity, its ``Circuit.revision`` and a conservative config
fingerprint.  A hit preloads those artifacts into the next job's stage
graph, which means the *same prepared circuit object* flows into the
random/top-up/at-speed phases; ``shared_kernel`` then hits by identity, so
the compiled kernel **and** every memoised ``analysis_cache`` entry
(ATPG adjacency, SCOAP guidance) are reused across requests.  Pinning the
outcome in the LRU is what keeps the prepared circuit -- and with it the
kernel cached on it -- alive between jobs.

Correctness story: preparation is deterministic, preloading it skips stages
that would have produced equal artifacts, and the prepared objects are not
mutated by later phases (pooled stages work on pickled copies; the serial
report path reads, never writes, the prepared core) -- so cache hits and
evictions change no report byte, which ``tests/campaign/test_engine_cache.py``
pins down with a maxsize-1 thrashing run.
"""

from __future__ import annotations

import weakref
from typing import Optional

from ..util.cache import KeyedLruCache
from ..core.config import LogicBistConfig
from ..netlist.circuit import Circuit


def config_fingerprint(config: LogicBistConfig) -> str:
    """A conservative content key for a scenario config.

    ``repr`` of the (nested) dataclasses covers every field, so any config
    difference -- even one that could not affect preparation -- misses.
    Conservative beats clever here: a false miss costs one re-preparation,
    a false hit would corrupt a report.
    """
    return repr(config)


class ScenarioPrepCache(KeyedLruCache):
    """LRU of prepared scenarios keyed by (circuit identity, revision, config).

    ``Circuit.revision`` is a *per-object* mutation counter, not a global
    content hash, so the key alone cannot distinguish two different circuits
    that happen to share a revision number: every entry additionally holds a
    weak reference to the submitted circuit and :meth:`lookup` validates
    object identity before serving it.  A dead or mismatched referent reads
    as a miss (and is dropped), so ``id()`` reuse can never alias entries.
    """

    def __init__(self, maxsize: int = 8) -> None:
        super().__init__(maxsize)

    @staticmethod
    def _key(circuit: Circuit, config: LogicBistConfig) -> tuple:
        return (id(circuit), circuit.revision, config_fingerprint(config))

    def lookup(self, circuit: Circuit, config: LogicBistConfig) -> Optional[dict]:
        """The cached preparation artifacts, or ``None`` (counted hit/miss)."""
        key = self._key(circuit, config)
        entry = self._entries.get(key)
        if entry is not None:
            ref, artifacts = entry
            if ref() is circuit:
                self.stats.hits += 1
                self._entries.move_to_end(key)
                return artifacts
            # Stale: the original circuit died and id() was reused.
            del self._entries[key]
        self.stats.misses += 1
        return None

    def insert(self, circuit: Circuit, config: LogicBistConfig, artifacts: dict) -> None:
        """Pin ``artifacts`` (``{"core": ..., "tpi": ...}``) for reuse.

        Not counted as hit or miss -- the preceding :meth:`lookup` already
        recorded the miss this insert repairs.  Inserting over a live entry
        refreshes its LRU position and artifacts.
        """
        key = self._key(circuit, config)
        self._entries[key] = (weakref.ref(circuit), artifacts)
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def preloads(
        self,
        circuit: Circuit,
        config: LogicBistConfig,
        artifact_keys: dict[str, str],
    ) -> dict[str, object]:
        """Stage-graph preloads for one scenario, ``{}`` on a miss.

        Maps the scenario's ``core``/``tpi`` node keys (from
        :func:`~repro.campaign.pipeline.scenario_stage_nodes`) to the cached
        artifacts, ready to pass as the scheduler's ``preloaded`` mapping.
        """
        artifacts = self.lookup(circuit, config)
        if artifacts is None:
            return {}
        return {
            artifact_keys["core"]: artifacts["core"],
            artifact_keys["tpi"]: artifacts["tpi"],
        }

    def harvest(
        self,
        circuit: Circuit,
        config: LogicBistConfig,
        run,
        artifact_keys: dict[str, str],
    ) -> None:
        """Insert a finished run's preparation artifacts for the next job.

        ``run`` is the completed
        :class:`~repro.campaign.scheduler.PipelineRun`; re-inserting after a
        cache-hit run is harmless (same objects, refreshed LRU slot).
        """
        try:
            artifacts = {
                "core": run.value(artifact_keys["core"]),
                "tpi": run.value(artifact_keys["tpi"]),
            }
        except KeyError:
            return
        self.insert(circuit, config, artifacts)
