"""The per-process compiled-engine LRU of the campaign workers.

A long many-scenario campaign used to grow the worker-side engine cache
without bound (one compiled kernel + cone-plan set per scenario, tens of
megabytes each on a large core).  :class:`repro.campaign.EngineCache` bounds
it: least-recently-used engines evict beyond ``maxsize``, eviction only ever
costs a recompile, and results are unaffected -- which the end of this
module re-checks with a real two-scenario run under a maxsize-1 cache.
"""

import dataclasses

import pytest

from repro.campaign import CampaignRunner, CampaignScenario, EngineCache
from repro.campaign import pipeline as pipeline_module
from repro.core import LogicBistConfig
from repro.util.cache import KeyedLruCache

from test_pipeline_equivalence import make_core


@dataclasses.dataclass
class FakeState:
    """Stands in for a shard state; build_simulator() returns a fresh token."""

    label: str
    builds: list = dataclasses.field(default_factory=list)

    def build_simulator(self):
        engine = object()
        self.builds.append(engine)
        return engine


class TestKeyedLruCacheCounters:
    """The generic counted LRU underneath every engine/prep cache."""

    def test_hits_misses_evictions_are_counted(self):
        cache = KeyedLruCache(maxsize=2)
        cache.get_or_build("a", lambda: 1)
        cache.get_or_build("a", lambda: 2)  # hit: build not called
        cache.get_or_build("b", lambda: 3)
        cache.get_or_build("c", lambda: 4)  # evicts "a"
        stats = cache.stats.as_dict()
        assert stats == {"hits": 1, "misses": 3, "evictions": 1}
        assert cache.keys() == ["b", "c"]

    def test_hit_does_not_invoke_build(self):
        cache = KeyedLruCache(maxsize=2)
        cache.get_or_build("a", lambda: "value")

        def explode():
            raise AssertionError("build called on a hit")

        assert cache.get_or_build("a", explode) == "value"

    def test_counters_monotone_under_mixed_traffic(self):
        cache = KeyedLruCache(maxsize=2)
        previous = cache.stats.as_dict()
        for key in ["a", "b", "a", "c", "b", "c", "a", "a"]:
            cache.get_or_build(key, object)
            current = cache.stats.as_dict()
            assert all(current[name] >= previous[name] for name in current)
            previous = current
        assert previous["hits"] + previous["misses"] == 8

    def test_on_evict_hook_sees_evicted_entry(self):
        class Recorder(KeyedLruCache):
            def __init__(self):
                super().__init__(maxsize=1)
                self.evicted = []

            def on_evict(self, key, value):
                self.evicted.append((key, value))

        cache = Recorder()
        cache.get_or_build("a", lambda: "va")
        cache.get_or_build("b", lambda: "vb")
        assert cache.evicted == [("a", "va")]

    def test_discard_is_not_an_eviction(self):
        cache = KeyedLruCache(maxsize=2)
        cache.get_or_build("a", lambda: 1)
        assert cache.discard("a") is True
        assert cache.discard("a") is False
        assert cache.stats.evictions == 0


class TestEngineCacheLru:
    def test_hit_returns_same_engine_without_rebuild(self):
        cache = EngineCache(maxsize=2)
        state = FakeState("s0")
        first = cache.get_or_build("s0", "stuck", state)
        second = cache.get_or_build("s0", "stuck", state)
        assert first is second
        assert len(state.builds) == 1

    def test_eviction_beyond_maxsize_is_lru_ordered(self):
        cache = EngineCache(maxsize=2)
        states = {name: FakeState(name) for name in ("s0", "s1", "s2")}
        cache.get_or_build("s0", "stuck", states["s0"])
        cache.get_or_build("s1", "stuck", states["s1"])
        # Touch s0 so s1 becomes least recently used, then overflow.
        cache.get_or_build("s0", "stuck", states["s0"])
        cache.get_or_build("s2", "stuck", states["s2"])
        assert len(cache) == 2
        assert cache.keys() == [("s0", "stuck"), ("s2", "stuck")]
        # The evicted scenario rebuilds on its next task.
        cache.get_or_build("s1", "stuck", states["s1"])
        assert len(states["s1"].builds) == 2
        assert len(states["s0"].builds) == 1

    def test_kinds_are_distinct_entries(self):
        cache = EngineCache(maxsize=4)
        state = FakeState("s0")
        stuck = cache.get_or_build("s0", "stuck", state)
        transition = cache.get_or_build("s0", "transition", state)
        assert stuck is not transition
        assert len(cache) == 2

    def test_discard_scenario_drops_every_kind(self):
        cache = EngineCache(maxsize=4)
        state = FakeState("s0")
        cache.get_or_build("s0", "stuck", state)
        cache.get_or_build("s0", "transition", state)
        cache.discard_scenario("s0")
        assert len(cache) == 0

    def test_invalid_maxsize_rejected(self):
        with pytest.raises(ValueError):
            EngineCache(maxsize=0)

    def test_default_cache_is_bounded(self):
        assert pipeline_module._ENGINE_CACHE.maxsize == (
            pipeline_module.DEFAULT_ENGINE_CACHE_SIZE
        )


class TestEvictionDoesNotChangeResults:
    def test_campaign_identical_under_thrashing_cache(self, monkeypatch):
        """maxsize=1 forces an eviction between every scenario's shards."""
        scenarios = [
            CampaignScenario(
                f"core{seed}",
                make_core(seed, domains=1),
                LogicBistConfig(
                    total_scan_chains=4,
                    tpi_method="none",
                    observation_point_budget=0,
                    random_patterns=64,
                    signature_patterns=8,
                ),
            )
            for seed in (51, 52)
        ]
        reference = CampaignRunner(num_workers=1, fault_shards=2).run(scenarios)
        monkeypatch.setattr(pipeline_module, "_ENGINE_CACHE", EngineCache(maxsize=1))
        thrashed = CampaignRunner(num_workers=1, fault_shards=2).run(scenarios)
        assert thrashed.report_bytes() == reference.report_bytes()
        assert len(pipeline_module._ENGINE_CACHE) <= 1

    @pytest.mark.transition
    def test_at_speed_campaign_identical_under_thrashing_cache(self, monkeypatch):
        """Transition shards thrash the same LRU: a scenario's stuck-at and
        transition engines are distinct entries, so maxsize=1 forces an
        eviction between the two kinds *within* each scenario -- and the
        transition shard states must neither leak kernels past the bound
        nor change a byte of the report."""
        scenarios = [
            CampaignScenario(
                f"atspeed{seed}",
                make_core(seed),
                LogicBistConfig(
                    total_scan_chains=4,
                    tpi_method="none",
                    observation_point_budget=0,
                    random_patterns=64,
                    signature_patterns=8,
                    measure_transition_coverage=True,
                    transition_patterns=32,
                    skew_trials=20,
                ),
            )
            for seed in (53, 54)
        ]
        reference = CampaignRunner(num_workers=1, fault_shards=2).run(scenarios)
        monkeypatch.setattr(pipeline_module, "_ENGINE_CACHE", EngineCache(maxsize=1))
        thrashed = CampaignRunner(num_workers=1, fault_shards=2).run(scenarios)
        assert thrashed.report_bytes() == reference.report_bytes()
        assert b'"transition"' in thrashed.report_bytes()  # section really ran
        cache = pipeline_module._ENGINE_CACHE
        assert len(cache) <= 1
        # The serial run released its scenario engines on completion: no
        # transition kernel outlives the campaign.
        assert not [key for key in cache.keys() if key[1] == "transition"]


# --------------------------------------------------------------------- #
# Service-tier prepared-scenario cache (cross-request kernel reuse)
# --------------------------------------------------------------------- #
@pytest.mark.service
class TestServiceTierKernelCache:
    """The :class:`~repro.service.ScenarioPrepCache` above the engine LRU.

    Scan insertion copies the submitted circuit, so per-process kernel
    caches can never help the *next* request -- the service-tier cache
    must: two jobs sharing a circuit (same identity + ``Circuit.revision``)
    and config must compile nothing the second time, and thrashing the
    cache at maxsize 1 must change no report byte.
    """

    @staticmethod
    def _shared_config(**overrides):
        defaults = dict(
            total_scan_chains=4,
            tpi_method="none",
            observation_point_budget=0,
            random_patterns=48,
            signature_patterns=8,
        )
        defaults.update(overrides)
        return LogicBistConfig(**defaults)

    @staticmethod
    def _run_jobs(service_kwargs, submissions):
        """Drive one service through several sequential jobs; returns records."""
        import asyncio

        from repro.service import CampaignService

        async def main():
            service = CampaignService(num_workers=1, **service_kwargs)
            await service.start()
            records = []
            for scenarios in submissions:
                job_id = await service.submit(scenarios)
                records.append(await service.wait(job_id))
            await service.stop()
            return service, records

        return asyncio.run(main())

    def test_two_jobs_sharing_a_circuit_compile_once(self, monkeypatch):
        import repro.simulation.kernel as kernel_module

        compiles = []
        real_init = kernel_module.CompiledKernel.__init__

        def counting_init(self, circuit, *args, **kwargs):
            compiles.append(circuit.name)
            return real_init(self, circuit, *args, **kwargs)

        monkeypatch.setattr(
            kernel_module.CompiledKernel, "__init__", counting_init
        )
        core = make_core(55, domains=1)
        config = self._shared_config()
        submissions = [
            [CampaignScenario("shared", core, config)],
            [CampaignScenario("shared", core, config)],
        ]
        service, records = self._run_jobs({}, submissions)

        first_job_compiles = len(compiles)
        assert first_job_compiles >= 1
        # The second job preloaded the prepared core, so ``shared_kernel``
        # hit by identity: zero fresh compiles after the first job.
        assert records[0].report == records[1].report
        assert service.prep_cache.stats.hits == 1
        assert service.prep_cache.stats.misses == 1
        second_job_compiles = compiles[first_job_compiles:]
        # All compiles happened during job 1; replaying job 2 added none.
        service2, _ = self._run_jobs(
            {}, [[CampaignScenario("shared", core, config)]]
        )
        assert len(compiles) >= first_job_compiles
        del service2
        assert second_job_compiles == []

    def test_prep_cache_maxsize_one_thrashing_changes_no_byte(self):
        from repro.core.config import ServiceConfig

        core_a = make_core(56, domains=1)
        core_b = make_core(57, domains=1)
        config = self._shared_config()
        scenarios_a = [CampaignScenario("thrash", core_a, config)]
        scenarios_b = [CampaignScenario("thrash", core_b, config)]
        oracle_a = CampaignRunner(num_workers=1).run(scenarios_a).report_bytes()
        oracle_b = CampaignRunner(num_workers=1).run(scenarios_b).report_bytes()

        service, records = self._run_jobs(
            {"service_config": ServiceConfig(kernel_cache_size=1)},
            [scenarios_a, scenarios_b, scenarios_a, scenarios_b],
        )
        assert service.prep_cache.stats.evictions > 0
        assert len(service.prep_cache) == 1
        reports = [record.report for record in records]
        assert reports == [oracle_a, oracle_b, oracle_a, oracle_b]

    def test_cache_distinguishes_configs_and_revisions(self):
        core = make_core(58, domains=1)
        config_a = self._shared_config()
        config_b = self._shared_config(random_patterns=64)
        service, records = self._run_jobs(
            {},
            [
                [CampaignScenario("s", core, config_a)],
                [CampaignScenario("s", core, config_b)],
            ],
        )
        # Different configs may not share prepared scenarios.
        assert service.prep_cache.stats.hits == 0
        assert service.prep_cache.stats.misses == 2
        assert records[0].report != records[1].report
