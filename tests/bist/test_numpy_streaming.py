"""Equivalence suite for the vectorised BIST data-path emulation.

Covers the two bit-plane streaming pieces of the numpy backend that live in
the BIST layer:

* **PRPG / phase-shifter pattern streaming** --
  ``StumpsArchitecture.generate_packed_blocks(backend="numpy")`` must produce
  byte-identical packed blocks to the bigint path for widths {64, 256, 1024},
  walk the PRPGs through the identical state sequence (so python- and
  numpy-generated sessions can be interleaved), and cover both LFSR forms,
  the identity phase shifter and partial trailing blocks.  The underlying
  chunked ``FibonacciLfsr.drain_output_word`` is checked against stepping
  directly.
* **MISR fold** -- ``StumpsDomain.fold_responses(backend="numpy")`` must
  reproduce the scalar unload emulation bit for bit, with and without a
  space compactor.
"""

import random

import pytest

from repro.bist import StumpsArchitecture
from repro.bist.lfsr import FibonacciLfsr, GaloisLfsr, _LfsrBase
from repro.bist.stumps import StumpsDomainConfig
from repro.cores.generator import SyntheticCoreConfig, generate_synthetic_core
from repro.scan import build_scan_chains

pytestmark = pytest.mark.numpy

WIDTHS = (64, 256, 1024)


def make_architecture(seed: int, domains: int = 3, total_chains: int = 6):
    config = SyntheticCoreConfig(
        name=f"np_stream_core_{seed}",
        clock_domains=tuple(f"clk{i + 1}" for i in range(domains)),
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
    circuit = generate_synthetic_core(config).circuit
    return circuit, build_scan_chains(circuit, total_chains=total_chains)


def domain_configs(architecture, **overrides):
    return [
        StumpsDomainConfig(
            domain=domain,
            prpg_seed=3 + index,
            phase_shifter_seed=11 + index,
            **overrides,
        )
        for index, domain in enumerate(architecture.domains())
    ]


class TestLfsrDrain:
    @pytest.mark.parametrize("length", (5, 14, 19, 23))
    @pytest.mark.parametrize("count", (0, 1, 63, 64, 200, 1337))
    def test_fibonacci_chunked_drain_matches_stepping(self, length, count):
        seed = 0x5A5A5A % ((1 << length) - 1) + 1
        chunked = FibonacciLfsr(length, seed=seed)
        stepped = FibonacciLfsr(length, seed=seed)
        word = chunked.drain_output_word(count)
        reference = _LfsrBase.drain_output_word(stepped, count)
        assert word == reference
        assert chunked.state == stepped.state

    def test_galois_drain_is_generic_stepping(self):
        a = GaloisLfsr(14, seed=77)
        b = GaloisLfsr(14, seed=77)
        word = a.drain_output_word(100)
        assert word == _LfsrBase.drain_output_word(b, 100)
        assert a.state == b.state


class TestStreamedBlocks:
    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("galois", (False, True))
    def test_blocks_byte_identical_and_prpg_state_continues(self, width, galois):
        _, architecture = make_architecture(9)
        reference = StumpsArchitecture(
            architecture, domain_configs(architecture, galois=galois)
        )
        vectorised = StumpsArchitecture(
            architecture, domain_configs(architecture, galois=galois)
        )
        count = 2 * width + 17  # forces a partial trailing block
        ref_blocks = list(reference.generate_packed_blocks(count, block_size=width))
        vec_blocks = list(
            vectorised.generate_packed_blocks(count, block_size=width, backend="numpy")
        )
        assert len(ref_blocks) == len(vec_blocks)
        for ref, vec in zip(ref_blocks, vec_blocks):
            assert vec.num_patterns == ref.num_patterns
            assert vec.assignments == ref.assignments
        for name in reference.domains:
            assert (
                vectorised.domains[name].prpg.state
                == reference.domains[name].prpg.state
            )

    def test_backends_interleave_mid_session(self):
        """python blocks, then numpy blocks, continue one PRPG walk."""
        _, architecture = make_architecture(5)
        serial = StumpsArchitecture(architecture, domain_configs(architecture))
        mixed = StumpsArchitecture(architecture, domain_configs(architecture))
        expected = list(serial.generate_packed_blocks(192, block_size=64))
        first = list(mixed.generate_packed_blocks(64, block_size=64))
        rest = list(mixed.generate_packed_blocks(128, block_size=64, backend="numpy"))
        actual = first + rest
        for ref, vec in zip(expected, actual):
            assert vec.assignments == ref.assignments

    def test_identity_phase_shifter(self):
        _, architecture = make_architecture(7)
        reference = StumpsArchitecture(
            architecture, domain_configs(architecture, use_phase_shifter=False)
        )
        vectorised = StumpsArchitecture(
            architecture, domain_configs(architecture, use_phase_shifter=False)
        )
        ref_blocks = list(reference.generate_packed_blocks(100, block_size=64))
        vec_blocks = list(
            vectorised.generate_packed_blocks(100, block_size=64, backend="numpy")
        )
        for ref, vec in zip(ref_blocks, vec_blocks):
            assert vec.assignments == ref.assignments

    def test_matches_per_pattern_generation(self):
        """The streamed numpy form equals the original per-pattern dicts."""
        _, architecture = make_architecture(3)
        listy = StumpsArchitecture(architecture, domain_configs(architecture))
        vectorised = StumpsArchitecture(architecture, domain_configs(architecture))
        patterns = listy.generate_patterns(70)
        (block,) = list(
            vectorised.generate_packed_blocks(70, block_size=128, backend="numpy")
        )
        for index, pattern in enumerate(patterns):
            for cell, value in pattern.items():
                assert (block.assignments.get(cell, 0) >> index) & 1 == value


class TestVectorisedMisrFold:
    def _responses(self, circuit, count, seed):
        rng = random.Random(seed)
        flops = circuit.flop_names()
        return [
            {name: rng.randint(0, 1) for name in flops} for _ in range(count)
        ]

    @pytest.mark.parametrize("compactor_outputs", (None, 2))
    def test_fold_matches_scalar_unload(self, compactor_outputs):
        circuit, architecture = make_architecture(13)
        reference = StumpsArchitecture(
            architecture,
            domain_configs(
                architecture, compactor_outputs=compactor_outputs, misr_length=19
            ),
        )
        vectorised = StumpsArchitecture(
            architecture,
            domain_configs(
                architecture, compactor_outputs=compactor_outputs, misr_length=19
            ),
        )
        responses = self._responses(circuit, 24, 99)
        for name in reference.domains:
            cells = reference.domains[name].cells()
            filtered = [
                {cell: response.get(cell, 0) for cell in cells}
                for response in responses
            ]
            expected = reference.domains[name].fold_responses(filtered)
            actual = vectorised.domains[name].fold_responses(
                filtered, backend="numpy"
            )
            assert actual == expected, name
