"""Property-based tests for the mapping state and the end-to-end mapper."""

from hypothesis import given, settings, strategies as st

from repro.circuit import QuantumCircuit
import pytest

from repro.hardware import (
    NeutralAtomArchitecture,
    SiteConnectivity,
    SquareLattice,
    preset,
)
from repro.mapping import HybridMapper, MapperConfig, MappingState
from repro.mapping.result import CircuitGateOp, ShuttleOp, SwapOp


ARCHITECTURE = NeutralAtomArchitecture(
    name="prop-mapping", lattice=SquareLattice(6, 6, 3.0), num_atoms=18,
    interaction_radius=2.0, restriction_radius=2.0)
CONNECTIVITY = SiteConnectivity(ARCHITECTURE)
NUM_QUBITS = 10

#: One small device per hardware preset, zoned included (storage traps have
#: no interaction neighbours).
def _device(name: str):
    architecture = preset(name, lattice_rows=9, num_atoms=24)
    return architecture, SiteConnectivity(architecture)


PRESET_DEVICES = {name: _device(name)
                  for name in ("gate", "mixed", "shuttling", "zoned")}


@st.composite
def random_entangling_circuit(draw, max_gates=15):
    circuit = QuantumCircuit(NUM_QUBITS, name="prop")
    num_gates = draw(st.integers(1, max_gates))
    for _ in range(num_gates):
        width = draw(st.sampled_from([2, 2, 2, 3]))
        qubits = draw(st.lists(st.integers(0, NUM_QUBITS - 1), min_size=width,
                               max_size=width, unique=True))
        circuit.cz(*qubits)
    return circuit


@st.composite
def state_operations(draw, max_operations=20):
    """A random interleaving of legal SWAPs and moves applied to a fresh state."""
    operations = draw(st.lists(st.tuples(st.sampled_from(["swap", "move"]),
                                         st.integers(0, 10_000)),
                               min_size=0, max_size=max_operations))
    return operations


class TestMappingStateInvariants:
    @given(state_operations())
    @settings(max_examples=80, deadline=None)
    def test_random_swap_move_sequences_keep_maps_consistent(self, operations):
        state = MappingState(ARCHITECTURE, NUM_QUBITS, connectivity=CONNECTIVITY)
        for kind, seed in operations:
            if kind == "swap":
                qubit = seed % NUM_QUBITS
                neighbours = state.vicinity_of_qubit(qubit)
                if not neighbours:
                    continue
                partner_site = neighbours[seed % len(neighbours)]
                partner_atom = state.atom_at_site(partner_site)
                state.apply_swap_with_atom(qubit, partner_atom)
            else:
                atom = seed % ARCHITECTURE.num_atoms
                free = sorted(state.free_sites())
                destination = free[seed % len(free)]
                if destination != state.site_of_atom(atom):
                    state.move_atom(atom, destination)
        state.consistency_check()
        # Each circuit qubit still resolves to exactly one occupied site.
        sites = [state.site_of_qubit(q) for q in range(NUM_QUBITS)]
        assert len(set(sites)) == NUM_QUBITS
        assert len(state.occupied_sites()) == ARCHITECTURE.num_atoms


class TestFreeNeighbourCounts:
    """``MappingState.num_free_sites_near`` reads per-site counts updated by
    +-1 per move over the source's and the destination's neighbours, which
    equals a recount only if interaction adjacency is symmetric."""

    @pytest.mark.parametrize("name", sorted(PRESET_DEVICES))
    def test_interaction_adjacency_is_symmetric(self, name):
        _architecture, connectivity = PRESET_DEVICES[name]
        for site in range(connectivity.num_sites):
            for neighbour in connectivity.interaction_neighbours(site):
                assert connectivity.are_adjacent(neighbour, site)

    @given(st.sampled_from(sorted(PRESET_DEVICES)),
           st.lists(st.integers(0, 10_000), max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_counts_follow_random_moves(self, name, seeds):
        architecture, connectivity = PRESET_DEVICES[name]
        state = MappingState(architecture, 12, connectivity=connectivity)
        for seed in seeds:
            free = sorted(state.free_sites())
            state.move_atom(seed % architecture.num_atoms,
                            free[seed % len(free)])
            # Recounts every site against interaction_set & free_sites().
            state.consistency_check()
        for site in range(state.num_sites):
            assert (state.num_free_sites_near(site)
                    == len(state.free_sites_near(site)))


class TestMapperInvariants:
    @given(random_entangling_circuit(),
           st.sampled_from(["gate_only", "shuttling_only", "hybrid"]))
    @settings(max_examples=25, deadline=None)
    def test_mapping_preserves_circuit_and_respects_mode(self, circuit, mode):
        config = {"gate_only": MapperConfig.gate_only(),
                  "shuttling_only": MapperConfig.shuttling_only(),
                  "hybrid": MapperConfig.hybrid(1.0)}[mode]
        mapper = HybridMapper(ARCHITECTURE, config, connectivity=CONNECTIVITY)
        result = mapper.map(circuit)
        result.verify_complete()
        if mode == "shuttling_only":
            assert result.num_swaps == 0
        # Replay the stream: every entangling gate must be executable when emitted.
        state = MappingState(ARCHITECTURE, circuit.num_qubits, connectivity=CONNECTIVITY)
        for operation in result.operations:
            if isinstance(operation, ShuttleOp):
                state.apply_move(operation.move)
            elif isinstance(operation, SwapOp):
                state.apply_swap_with_atom(operation.qubit_a, operation.atom_b)
            elif isinstance(operation, CircuitGateOp) and operation.gate.is_entangling:
                assert state.gate_executable(operation.gate)
                assert operation.sites == tuple(
                    state.site_of_qubit(q) for q in operation.gate.qubits)

    @given(random_entangling_circuit())
    @settings(max_examples=15, deadline=None)
    def test_gate_emission_order_is_a_valid_topological_order(self, circuit):
        from repro.circuit import CircuitDAG
        mapper = HybridMapper(ARCHITECTURE, MapperConfig.hybrid(1.0),
                              connectivity=CONNECTIVITY)
        result = mapper.map(circuit)
        dag = CircuitDAG(circuit)
        order = {op.gate_index: position
                 for position, op in enumerate(result.circuit_gate_ops())}
        for node in dag.nodes:
            for predecessor in node.predecessors:
                assert order[predecessor] < order[node.index]
