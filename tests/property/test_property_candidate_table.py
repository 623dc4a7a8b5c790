"""Property tests: the SWAP candidate table kept across rounds is exact.

``GateRouter`` keeps one :class:`repro.mapping.SwapCandidateTable` for a
whole ``map`` run and rescores only the candidates whose qubits or sites
changed.  In every routing round of random circuits the table must hold
exactly what a table built from nothing holds (every site pair, its
orientation and its integer layer deltas, and the baselines), the deltas
must equal full walks of both layers
(``tests/differential/routing_reference.py``), and the round's SWAP must be
the one a fresh table and the naive reference scorer choose.

The draws cover ``decay_rate`` 0 and > 0, ``lookahead_depth`` 1 and 2,
commutation on and off (off populates the lookahead layer), gate-only and
hybrid mapping (shuttle moves between gate rounds), forced routes (a stall
threshold of one or two rounds) and 3+-qubit gates, which route to a
position.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.circuit import QuantumCircuit
from repro.hardware import SiteConnectivity
from repro.hardware.presets import gate_optimised, mixed
from repro.mapping import GateRouter, HybridMapper, MapperConfig

import routing_reference


DEVICES = {name: (architecture, SiteConnectivity(architecture))
           for name, architecture in (
               ("mixed", mixed(lattice_rows=6, num_atoms=18)),
               ("gate", gate_optimised(lattice_rows=6, num_atoms=18)))}
NUM_QUBITS = 10


@st.composite
def routing_case(draw):
    """A random circuit and a mapper configuration to route it with."""
    circuit = QuantumCircuit(NUM_QUBITS, name="prop-table")
    for _ in range(draw(st.integers(1, 16))):
        kind = draw(st.sampled_from(["cz", "cz", "cx", "h", "ccz", "mcz"]))
        width = {"h": 1, "ccz": 3, "mcz": 4}.get(kind, 2)
        qubits = draw(st.lists(st.integers(0, NUM_QUBITS - 1), min_size=width,
                               max_size=width, unique=True))
        if kind == "mcz":
            circuit.mcz(qubits)
        else:
            getattr(circuit, kind)(*qubits)
    options = dict(
        decay_rate=draw(st.sampled_from([0.0, 0.5])),
        lookahead_depth=draw(st.sampled_from([1, 2])),
        use_commutation=draw(st.booleans()),
        stall_threshold=draw(st.sampled_from([None, 1, 2])))
    if draw(st.booleans()):
        config = MapperConfig.hybrid(draw(st.sampled_from([0.5, 1.0, 2.0])),
                                     **options)
    else:
        config = MapperConfig.gate_only(**options)
    return circuit, config, draw(st.sampled_from(sorted(DEVICES)))


def fresh_choice(router: GateRouter, state, front, lookahead, positions):
    """The SWAP a router with ``router``'s recency history but a table
    built from nothing chooses, on a copy of ``state``."""
    fresh = GateRouter(router.architecture,
                       lookahead_weight=router.lookahead_weight,
                       decay_rate=router.decay_rate,
                       recency_window=router.recency_window)
    fresh._step = router._step
    fresh._last_used = dict(router._last_used)
    fresh._last_swap_key = router._last_swap_key
    return fresh.best_swap(state.copy(), front, lookahead, positions)


def checked_run(mapper: HybridMapper, circuit):
    """Map ``circuit``, checking every ``best_swap`` round.

    Returns the result and the numbers of rounds checked and of rounds
    that routed toward a multi-qubit gate position.
    """
    router = mapper.gate_router
    table_best_swap = router.best_swap
    rounds = positioned = 0

    def best_swap(state, front, lookahead, positions):
        nonlocal rounds, positioned
        expected = routing_reference.best_swap(router, state, front,
                                               lookahead, positions)
        rebuilt = fresh_choice(router, state, front, lookahead, positions)
        fresh = routing_reference.fresh_table(state, front, lookahead,
                                              positions)
        chosen = table_best_swap(state, front, lookahead, positions)
        table = router.table
        assert routing_reference.table_entries(table) == \
            routing_reference.table_entries(fresh)
        assert (table.baseline_front, table.baseline_lookahead) == \
            (fresh.baseline_front, fresh.baseline_lookahead)
        assert routing_reference.table_entries(table) == \
            routing_reference.reference_entries(state, front, lookahead,
                                                positions)
        assert chosen == rebuilt == expected
        rounds += 1
        positioned += bool(positions)
        return chosen

    router.best_swap = best_swap
    result = mapper.map(circuit)
    result.verify_complete()
    return result, rounds, positioned


class TestTableAcrossRounds:
    @given(routing_case())
    @settings(max_examples=60, deadline=None)
    def test_every_round_matches_a_fresh_table_and_the_reference(self, case):
        circuit, config, device = case
        architecture, connectivity = DEVICES[device]
        checked_run(HybridMapper(architecture, config,
                                 connectivity=connectivity), circuit)

    def test_hand_picked_run_exercises_every_path(self):
        """One fixed run that routes SWAPs, forced routes, positioned
        multi-qubit gates and shuttle moves, so the property above is never
        satisfied vacuously."""
        rng = random.Random(19)
        circuit = QuantumCircuit(NUM_QUBITS)
        for _ in range(24):
            kind = rng.choice(["cz", "cz", "cx", "ccz"])
            getattr(circuit, kind)(*rng.sample(range(NUM_QUBITS),
                                               3 if kind == "ccz" else 2))
        architecture, connectivity = DEVICES["mixed"]
        config = MapperConfig.hybrid(1.0, decay_rate=0.5, lookahead_depth=2,
                                     use_commutation=False, stall_threshold=1)
        result, rounds, positioned = checked_run(
            HybridMapper(architecture, config, connectivity=connectivity),
            circuit)
        assert positioned > 0
        # More SWAPs than best_swap rounds: some came from forced routes.
        assert result.num_swaps > rounds > 0
        assert result.num_moves > 0
