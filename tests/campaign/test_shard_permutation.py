"""Shard-order / worker-count independence regressions.

Campaign results must be a pure function of (circuit, config, patterns):
which worker executed which shard, the order tasks were submitted in, and
how many shards the work was cut into must all be invisible in the merged
report.  These tests permute shard assignments and sweep worker/shard counts
and assert the canonical report bytes are **byte-identical** -- the
regression for the classic "results depend on worker scheduling" bug class.
"""

import random

import pytest

from repro.campaign import (
    CampaignRunner,
    CampaignScenario,
    contiguous_shards,
    keyed_round_robin_shards,
    merge_first_detections,
    plan_grid,
    round_robin_shards,
)
from repro.campaign.pipeline import PHASE_RANDOM, MergeDetectionsStage
from repro.core import LogicBistConfig
from repro.cores.generator import SyntheticCoreConfig, generate_synthetic_core
from repro.faults import collapse_stuck_at
from repro.simulation import iter_blocks

from shard_harness import drain, fan_out_node, stuck_at_bundle


def make_core(seed: int):
    config = SyntheticCoreConfig(
        name=f"perm_core_{seed}",
        clock_domains=("clk1", "clk2"),
        num_inputs=8,
        num_outputs=5,
        register_width=6,
        pipeline_stages=1,
        adder_slices=1,
        adder_width=4,
        comparator_widths=(6,),
        decode_cone_width=5,
        cross_domain_links=1,
        seed=seed,
    )
    return generate_synthetic_core(config).circuit


class TestShardPlanners:
    def test_round_robin_covers_every_index_once(self):
        for count in (0, 1, 5, 17, 100):
            for shards in (1, 2, 4, 7):
                groups = round_robin_shards(count, shards)
                flat = sorted(i for group in groups for i in group)
                assert flat == list(range(count))
                assert all(group for group in groups)

    def test_contiguous_covers_every_index_in_order(self):
        for count in (0, 1, 5, 17, 100):
            for shards in (1, 2, 4, 7):
                groups = contiguous_shards(count, shards)
                flat = [i for group in groups for i in group]
                assert flat == list(range(count))
                # Balanced: sizes differ by at most one.
                if groups:
                    sizes = {len(group) for group in groups}
                    assert max(sizes) - min(sizes) <= 1

    def test_planners_are_deterministic(self):
        assert round_robin_shards(37, 5) == round_robin_shards(37, 5)
        assert contiguous_shards(37, 5) == contiguous_shards(37, 5)

    def test_keyed_round_robin_keeps_groups_together(self):
        """Faults sharing a site key never split across shards (cone-plan
        compilation locality), and coverage stays exactly-once."""
        keys = ["g0", "g0", "g1", "g2", "g2", "g2", "g3", "g1", "g4"]
        for shards in (1, 2, 3, 7):
            groups = keyed_round_robin_shards(keys, shards)
            flat = sorted(i for group in groups for i in group)
            assert flat == list(range(len(keys)))
            for key in set(keys):
                members = {i for i, k in enumerate(keys) if k == key}
                owners = [
                    shard
                    for shard, group in enumerate(groups)
                    if members & set(group)
                ]
                assert len(owners) == 1, f"key {key} split across shards {owners}"
        assert keyed_round_robin_shards(keys, 3) == keyed_round_robin_shards(keys, 3)

    def test_grid_covers_every_cell_exactly_once(self):
        grid = plan_grid(10, 6, fault_shards=3, pattern_shards=2)
        cells = [
            (fault, block)
            for faults, blocks in grid
            for fault in faults
            for block in blocks
        ]
        assert sorted(cells) == sorted(
            (fault, block) for fault in range(10) for block in range(6)
        )

    def test_invalid_shard_counts_rejected(self):
        with pytest.raises(ValueError):
            round_robin_shards(5, 0)
        with pytest.raises(ValueError):
            contiguous_shards(5, -1)


class TestPermutedShardAssignment:
    @staticmethod
    def _merged_in_order(circuit, blocks, order_seed):
        """Min-merge of the production shard stages, drained in the node
        order ``order_seed`` shuffles them into (``None``: as planned)."""
        fault_list = collapse_stuck_at(circuit).to_fault_list()
        bundle = stuck_at_bundle(circuit, fault_list, blocks)
        node = fan_out_node(
            bundle, PHASE_RANDOM, MergeDetectionsStage(), 4, pattern_shards=2
        )
        shard_nodes = list(node.task.run(bundle).nodes[:-1])
        assert len(shard_nodes) == 8
        if order_seed is not None:
            random.Random(order_seed).shuffle(shard_nodes)
        run = drain(bundle, shard_nodes)
        assert [trace.key for trace in run.trace] == [n.key for n in shard_nodes]
        return merge_first_detections(run.store[n.key] for n in shard_nodes)

    def test_merge_is_independent_of_task_order(self):
        circuit = make_core(41)
        rng = random.Random(6)
        nets = circuit.stimulus_nets()
        patterns = [{n: rng.randint(0, 1) for n in nets} for _ in range(140)]
        blocks = list(iter_blocks(patterns, block_size=32, nets=nets))

        baseline = self._merged_in_order(circuit, blocks, None)
        assert baseline
        for seed in (1, 2, 3):
            assert self._merged_in_order(circuit, blocks, seed) == baseline

    def test_report_bytes_invariant_under_shard_and_worker_count(self):
        """The canonical campaign report is byte-identical across every
        (fault_shards, pattern_shards, num_workers) execution plan."""
        circuit = make_core(43)
        config = LogicBistConfig(
            total_scan_chains=4,
            tpi_method="none",
            observation_point_budget=0,
            random_patterns=96,
            signature_patterns=8,
        )

        def report(fault_shards, pattern_shards, num_workers):
            runner = CampaignRunner(
                num_workers=num_workers,
                fault_shards=fault_shards,
                pattern_shards=pattern_shards,
            )
            return runner.run(
                [CampaignScenario("invariant", circuit, config)]
            ).report_bytes()

        baseline = report(1, 1, 1)
        for fault_shards in (2, 4, 7):
            assert report(fault_shards, 1, 1) == baseline
        assert report(4, 2, 1) == baseline

    @pytest.mark.multiprocess
    def test_report_bytes_invariant_under_pool_size(self):
        circuit = make_core(47)
        config = LogicBistConfig(
            total_scan_chains=4,
            tpi_method="none",
            observation_point_budget=0,
            random_patterns=64,
            signature_patterns=8,
        )

        def report(num_workers):
            runner = CampaignRunner(num_workers=num_workers, fault_shards=4)
            return runner.run(
                [CampaignScenario("pool-invariant", circuit, config)]
            ).report_bytes()

        assert report(1) == report(2) == report(3)

    def test_duplicate_scenario_names_rejected(self):
        """Results are keyed by name; a silent overwrite would drop a scenario."""
        circuit = make_core(53)
        config = LogicBistConfig(
            total_scan_chains=4,
            tpi_method="none",
            observation_point_budget=0,
            random_patterns=32,
            signature_patterns=0,
        )
        with pytest.raises(ValueError, match="duplicate scenario names"):
            CampaignRunner(num_workers=1).run(
                [
                    CampaignScenario("same", circuit, config),
                    CampaignScenario("same", circuit, config),
                ]
            )

    def test_multi_scenario_campaign_keeps_scenarios_apart(self):
        """Two scenarios in one campaign merge to their own serial results."""
        circuit_a = make_core(51)
        circuit_b = make_core(52)
        config = LogicBistConfig(
            total_scan_chains=4,
            tpi_method="none",
            observation_point_budget=0,
            random_patterns=64,
            signature_patterns=0,
        )
        both = CampaignRunner(num_workers=1, fault_shards=3).run(
            [
                CampaignScenario("alpha", circuit_a, config),
                CampaignScenario("beta", circuit_b, config),
            ]
        )
        alone_a = CampaignRunner(num_workers=1, fault_shards=3).run(
            [CampaignScenario("alpha", circuit_a, config)]
        )
        alone_b = CampaignRunner(num_workers=1, fault_shards=3).run(
            [CampaignScenario("beta", circuit_b, config)]
        )
        assert both["alpha"].report_bytes() == alone_a["alpha"].report_bytes()
        assert both["beta"].report_bytes() == alone_b["beta"].report_bytes()
