"""Compiled integer-indexed simulation kernel.

This module is the hot core underneath :class:`~repro.simulation.comb_sim.PackedSimulator`
and the fault simulators.  At construction time every net of the circuit is
*interned* to a dense integer ID (its position in the topological order) and
the combinational schedule is lowered into three flat parallel lists:

* ``ops``      -- small-integer opcode per gate (:mod:`repro.netlist.gates`),
* ``outs``     -- output net ID per gate,
* ``operands`` -- tuple of input net IDs per gate.

Simulation then runs over a flat ``list[int]`` value table indexed by net ID:
no ``dict[str, int]`` lookups, no per-gate function calls, and no per-gate
operand list construction.  Pattern blocks of any width (64 / 256 / 1024-bit
bigint words) amortise the interpreter loop over correspondingly more
patterns per pass.

Fanout-cone resimulation -- the inner loop of single-fault propagation -- is
pre-compiled per fault site into a :class:`ConePlan`: the sorted slice of
schedule indices inside the cone, the *frontier* nets the cone reads from the
fault-free base values, and the recomputed net IDs.  Re-simulating a cone is
then: copy the frontier words into the scratch table, force the site word,
and run the plan's flat lists.

The kernel compile is *backend-neutral*: the interning tables, the flat
schedule, the per-net topological levels (``net_levels``) and the cached
:class:`ConePlan` records describe the circuit, not an execution strategy.
The bigint interpreter below (:func:`_evaluate_lists`) is the default
``"python"`` execution backend; :mod:`repro.simulation.numpy_backend` lowers
the very same compiled form into level-batched ndarray index arrays for the
``"numpy"`` backend.  Because one compile feeds both, the two backends cannot
disagree about circuit structure.

Kernels are expensive to build (interning plus, lazily, one fanout-cone plan
per fault site), and the flow plus ATPG top-up routinely simulate the same
circuit back to back.  :func:`shared_kernel` therefore caches each
circuit's kernel on the circuit itself, keyed by structural revision -- the
in-process mirror of the campaign's per-worker engine cache -- so cone plans
are compiled at most once per circuit revision per process.

The kernel knows nothing about net names beyond the interning tables; the
name-keyed public API lives in the adapter layer
(:class:`~repro.simulation.comb_sim.PackedSimulator`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from ..netlist.circuit import Circuit
from ..netlist.gates import (
    OP_AND,
    OP_AND2,
    OP_BUF,
    OP_CONST0,
    OP_CONST1,
    OP_MUX,
    OP_NAND,
    OP_NAND2,
    OP_NOR,
    OP_NOR2,
    OP_NOT,
    OP_OR,
    OP_OR2,
    OP_XNOR,
    OP_XNOR2,
    OP_XOR,
    OP_XOR2,
    gate_opcode,
)


class StrictStimulusError(ValueError):
    """Raised in strict mode when a stimulus mapping is incomplete or misspelled."""


@dataclass(frozen=True)
class ConePlan:
    """Pre-compiled resimulation schedule for one fault site.

    Attributes
    ----------
    site_id:
        Net ID of the fault site (the overridden net).
    ops / outs / operands:
        Flat schedule slices covering exactly the combinational gates inside
        the site's fanout cone, in topological order, excluding the site's own
        driver (the site value is forced, never recomputed).
    frontier:
        Net IDs read by the cone gates but produced outside the recomputed
        set -- their fault-free words are copied into the scratch table before
        evaluation.
    computed:
        Net IDs recomputed by this plan (== ``outs``), exposed for fault-effect
        profiling.
    """

    site_id: int
    ops: tuple[int, ...]
    outs: tuple[int, ...]
    operands: tuple[tuple[int, ...], ...]
    frontier: tuple[int, ...]
    computed: tuple[int, ...]

    @property
    def num_slots(self) -> int:
        """Slot rows the vectorised scan charges for this cone: one per
        recomputed net plus one for the forced site value.  This is the unit
        the memory-budget tiler sums when packing faults into tiles."""
        return len(self.outs) + 1


def _evaluate_lists(
    ops: Sequence[int],
    outs: Sequence[int],
    operands: Sequence[tuple[int, ...]],
    values: list[int],
    mask: int,
) -> None:
    """Interpret one flat schedule over the integer value table, in place.

    This loop is the single hottest piece of code in the repository; it is
    deliberately branch-per-opcode with the 2-input specialisations first.
    """
    for op, out, ins in zip(ops, outs, operands):
        if op == OP_AND2:
            a, b = ins
            values[out] = values[a] & values[b]
        elif op == OP_XOR2:
            a, b = ins
            values[out] = values[a] ^ values[b]
        elif op == OP_OR2:
            a, b = ins
            values[out] = values[a] | values[b]
        elif op == OP_NAND2:
            a, b = ins
            values[out] = ~(values[a] & values[b]) & mask
        elif op == OP_NOR2:
            a, b = ins
            values[out] = ~(values[a] | values[b]) & mask
        elif op == OP_XNOR2:
            a, b = ins
            values[out] = ~(values[a] ^ values[b]) & mask
        elif op == OP_NOT:
            values[out] = ~values[ins[0]] & mask
        elif op == OP_BUF:
            values[out] = values[ins[0]]
        elif op == OP_MUX:
            s, a, b = ins
            sel = values[s]
            values[out] = (~sel & values[a]) | (sel & values[b])
        elif op == OP_AND:
            word = mask
            for i in ins:
                word &= values[i]
            values[out] = word
        elif op == OP_NAND:
            word = mask
            for i in ins:
                word &= values[i]
            values[out] = ~word & mask
        elif op == OP_OR:
            word = 0
            for i in ins:
                word |= values[i]
            values[out] = word
        elif op == OP_NOR:
            word = 0
            for i in ins:
                word |= values[i]
            values[out] = ~word & mask
        elif op == OP_XOR:
            word = 0
            for i in ins:
                word ^= values[i]
            values[out] = word
        elif op == OP_XNOR:
            word = 0
            for i in ins:
                word ^= values[i]
            values[out] = ~word & mask
        elif op == OP_CONST0:
            values[out] = 0
        else:  # OP_CONST1
            values[out] = mask


class CompiledKernel:
    """Integer-indexed compiled form of one circuit's combinational view."""

    def __init__(self, circuit: Circuit) -> None:
        self.circuit = circuit
        order = circuit.topological_order()
        #: Net ID -> name (IDs are positions in topological order).
        self.net_names: list[str] = list(order)
        #: Net name -> dense integer ID.
        self.net_id: dict[str, int] = {name: i for i, name in enumerate(order)}
        self.num_nets = len(order)
        levels = circuit.levels()
        #: Net ID -> combinational level (backend-neutral: the numpy backend
        #: groups the flat schedule into per-(level, opcode) batches with it).
        self.net_levels: list[int] = [levels[name] for name in order]

        stimulus = circuit.stimulus_nets()
        self.stimulus_names: list[str] = list(stimulus)
        self.stimulus_ids: list[int] = [self.net_id[name] for name in stimulus]
        self._stimulus_set = frozenset(stimulus)

        ops: list[int] = []
        outs: list[int] = []
        operands: list[tuple[int, ...]] = []
        net_id = self.net_id
        for name in order:
            gate = circuit.gate(name)
            if gate.is_primary_input or gate.is_flop:
                continue
            ops.append(gate_opcode(gate.gate_type, len(gate.inputs)))
            outs.append(net_id[name])
            operands.append(tuple(net_id[net] for net in gate.inputs))
        self.ops = ops
        self.outs = outs
        self.operands = operands
        self.num_gates = len(ops)
        #: Output net ID -> position in the flat schedule.
        self.sched_pos: dict[int, int] = {out: i for i, out in enumerate(outs)}

        self._cone_plans: dict[int, ConePlan] = {}
        #: Shared scratch table for cone resimulation (single-threaded reuse).
        self.scratch: list[int] = [0] * self.num_nets
        #: Per-kernel memo for derived circuit analyses (ATPG fanout
        #: adjacency, SCOAP backtrace guidance, ...).  Entries are keyed by
        #: analysis name and computed lazily by their consumers; because
        #: :func:`shared_kernel` hands every engine of a circuit revision the
        #: same kernel object, an analysis is computed at most once per
        #: revision per process, exactly like the cone plans.
        self.analysis_cache: dict[str, object] = {}

    # ------------------------------------------------------------------ #
    # Value tables and stimulus
    # ------------------------------------------------------------------ #
    def make_table(self) -> list[int]:
        """A fresh all-zero value table (one word slot per net)."""
        return [0] * self.num_nets

    def set_stimulus(
        self,
        values: list[int],
        stimulus: Mapping[str, int],
        mask: int,
        strict: bool = False,
    ) -> None:
        """Load packed stimulus words into the table's stimulus slots.

        Nets missing from ``stimulus`` default to the all-zero word -- unless
        ``strict`` is set, in which case a missing stimulus net *or* a key
        that is not a stimulus net (the classic misspelled-net bug) raises
        :class:`StrictStimulusError`.
        """
        if strict:
            self.check_strict_stimulus(stimulus)
        get = stimulus.get
        for sid, name in zip(self.stimulus_ids, self.stimulus_names):
            values[sid] = get(name, 0) & mask

    def check_strict_stimulus(self, stimulus: Mapping[str, int]) -> None:
        """Strict-mode validation shared by every execution backend."""
        missing = [name for name in self.stimulus_names if name not in stimulus]
        unknown = [name for name in stimulus if name not in self._stimulus_set]
        if missing or unknown:
            raise StrictStimulusError(
                f"strict stimulus check failed: missing nets {missing[:5]!r}"
                f"{'...' if len(missing) > 5 else ''}, "
                f"unknown nets {unknown[:5]!r}{'...' if len(unknown) > 5 else ''}"
            )

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #
    def evaluate(self, values: list[int], mask: int) -> None:
        """Full forward pass: evaluate every combinational gate, in place."""
        _evaluate_lists(self.ops, self.outs, self.operands, values, mask)

    def cone_plan(self, site_id: int) -> ConePlan:
        """Pre-compiled (cached) resimulation plan for the fanout cone of a net."""
        plan = self._cone_plans.get(site_id)
        if plan is None:
            cone_names = self.circuit.fanout_cone(self.net_names[site_id])
            member_ids = {self.net_id[name] for name in cone_names}
            sched_pos = self.sched_pos
            indices = sorted(
                sched_pos[nid]
                for nid in member_ids
                if nid != site_id and nid in sched_pos
            )
            ops = tuple(self.ops[k] for k in indices)
            outs = tuple(self.outs[k] for k in indices)
            operands = tuple(self.operands[k] for k in indices)
            written = set(outs)
            written.add(site_id)
            frontier = tuple(
                sorted({i for ins in operands for i in ins if i not in written})
            )
            plan = ConePlan(site_id, ops, outs, operands, frontier, outs)
            self._cone_plans[site_id] = plan
        return plan

    def resimulate_plan(
        self, plan: ConePlan, base: list[int], faulty_word: int, mask: int
    ) -> list[int]:
        """Run one cone plan with the site forced to ``faulty_word``.

        Returns the shared scratch table; only the slots named by
        ``plan.frontier``, ``plan.site_id`` and ``plan.computed`` are valid.
        The caller must consume the result before the next kernel call.
        """
        scratch = self.scratch
        for i in plan.frontier:
            scratch[i] = base[i]
        scratch[plan.site_id] = faulty_word
        _evaluate_lists(plan.ops, plan.outs, plan.operands, scratch, mask)
        return scratch


# --------------------------------------------------------------------------- #
# Per-process shared-kernel cache
# --------------------------------------------------------------------------- #
def shared_kernel(circuit: Circuit) -> CompiledKernel:
    """The per-process compiled kernel for ``circuit`` (compile-once cache).

    Keyed by circuit identity *and* structural revision: simulating the same
    circuit from several engine instances (the flow's random phase followed
    by ATPG top-up, or repeated campaign scenarios in one worker) shares one
    kernel -- and therefore one set of lazily compiled fanout-cone plans --
    while any netlist mutation (test-point insertion, scan stitching)
    transparently forces a fresh compile.

    The ``(revision, kernel)`` entry lives on the circuit itself
    (``Circuit._shared_kernel``), so it dies with the circuit: the kernel
    refers back to its circuit, and a cache held anywhere else would keep
    every simulated circuit alive for the life of the process.  The entry
    never travels with the netlist (see :meth:`Circuit.__getstate__`).

    Sharing is safe because the kernel itself is immutable apart from three
    single-threaded caches: the cone-plan dict and the analysis cache (both
    append-only) and the scratch table, whose contract already requires
    callers to consume results before the next kernel call.
    """
    cached = circuit.__dict__.get("_shared_kernel")
    revision = circuit.revision
    if cached is not None and cached[0] == revision:
        return cached[1]
    kernel = CompiledKernel(circuit)
    circuit._shared_kernel = (revision, kernel)
    return kernel
