"""Differential harness: the screened round against its per-move reference.

``ChainScreen._move_costs`` costs each distinct ``(atom, destination)``
move once, and ``ShuttlingRouter._screened_candidates`` walks only the
front positions its keep-mask keeps.  Both must agree bit for bit with the
earlier forms kept in ``screen_reference``: the per-row partner expansion
and the set-based pruning filter.  The rounds are drawn to force

* duplicate ``(atom, destination)`` rows: the circuit repeats some of its
  gates, so a front can list one candidate twice;
* move-aways of atoms without a circuit qubit: nearly full lattices with
  more atoms than qubits;
* a non-zero lookahead weight with 3-qubit gates, in the front and, with
  commutation off, in the lookahead layer;
* recent-move histories of length 0, 1 up to the history window, and past
  ``_HISTORY_BLOCK`` with an unbounded window.

``build_qubit_node_index`` is pinned to node order here too: the screened
costs and the exact chain costs both sum over its lists.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from repro.circuit import QuantumCircuit
from repro.mapping import MappingState, ShuttlingRouter
from repro.mapping.chain_screen import ChainScreen
from repro.mapping.shuttling_router import build_qubit_node_index

import routing_reference
import screen_reference
from test_differential_screen import SPACINGS, architecture


def bits(array) -> bytes:
    """The float64 bytes of ``array``: equal exactly when bit-identical."""
    return np.ascontiguousarray(array, dtype=np.float64).tobytes()


@st.composite
def dense_round(draw):
    """A crowded routing round with repeated gates and a move history."""
    spacing = draw(st.sampled_from(SPACINGS))
    rows = draw(st.integers(3, 6))
    cols = draw(st.integers(3, 6))
    sites = rows * cols
    num_atoms = sites - draw(st.integers(1, max(1, sites // 3)))
    radius = draw(st.sampled_from((1.0, 1.5, 2.0, 2.5)))
    arch = architecture(spacing, rows, cols, num_atoms, radius)
    num_qubits = draw(st.integers(3, min(num_atoms - 1, 10)))
    initial_sites = draw(st.permutations(range(sites)))[:num_atoms]
    qubit_map = draw(st.permutations(range(num_atoms)))[:num_qubits]
    state = MappingState(arch, num_qubits, initial_sites=initial_sites,
                         initial_qubit_map=qubit_map)

    qubit = st.integers(0, num_qubits - 1)
    gates = draw(st.lists(
        st.one_of(st.lists(qubit, min_size=2, max_size=2, unique=True),
                  st.lists(qubit, min_size=3, max_size=3, unique=True)),
        min_size=2, max_size=3 * num_qubits))
    gates += draw(st.lists(st.sampled_from(gates), min_size=1, max_size=4))
    # A 3-qubit gate on two of the first gate's qubits: without
    # commutation it waits behind that gate, in the lookahead layer.
    pair = gates[0][:2]
    gates.append(pair + [min(set(range(num_qubits)) - set(pair))])
    circuit = QuantumCircuit(num_qubits)
    for qubits in gates:
        circuit.cz(*qubits)
    front, lookahead = routing_reference.routing_layers(
        circuit, lookahead_depth=draw(st.integers(1, 3)),
        use_commutation=draw(st.booleans()))

    window = draw(st.sampled_from((4, 0)))
    history = []
    for atom, target in draw(st.lists(
            st.tuples(st.integers(0, num_atoms - 1), st.integers(0, 10_000)),
            max_size=(window or 12) + 2)):
        free = sorted(state.free_sites())
        move = state.make_move(atom, free[target % len(free)])
        state.apply_move(move)
        history.append(move)
    router = ShuttlingRouter(
        arch, lookahead_weight=draw(st.sampled_from((0.1, 0.5, 2.0))),
        time_weight=draw(st.sampled_from((0.1, 1.0))), history_window=window)
    router.note_moves_applied(history)
    event(f"history length {len(router._recent_moves)}"
          f"{' (unbounded)' if not window else ''}")
    if any(node.gate.num_qubits > 2 for node in lookahead):
        event("3-qubit lookahead gate")
    return state, front, lookahead, router


def reference_bounds(router, state, front, lookahead):
    """``screen_bounds`` with the per-move reference costs installed."""
    screen = ChainScreen(router.architecture)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(screen, "_move_costs",
                      screen_reference.move_costs.__get__(screen))
        return screen.bounds(
            state, front, lookahead, lookahead_weight=router.lookahead_weight,
            time_weight=router.time_weight,
            recent_moves=router._recent_moves)


class TestDistinctMoveCosts:
    @given(dense_round())
    @settings(max_examples=200, deadline=None)
    def test_move_costs_and_bounds_match_the_per_move_reference(
            self, scenario):
        state, front, lookahead, router = scenario
        screen = ChainScreen(router.architecture)
        distinct_costs = screen._move_costs
        calls = []

        def checked(*args):
            got = distinct_costs(*args)
            want = screen_reference.move_costs(screen, *args)
            calls.append(1)
            assert [bits(array) for array in got] \
                == [bits(array) for array in want]
            move_qubits, move_atoms, move_dst = args[2], args[3], args[5]
            keys = move_atoms * screen._num_sites + move_dst
            if np.unique(keys).size < keys.size:
                event("duplicate (atom, destination) rows")
            if (move_qubits < 0).any():
                event("move-away of an atom without a qubit")
            return got

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(screen, "_move_costs", checked)
            positions, bounds = screen.bounds(
                state, front, lookahead,
                lookahead_weight=router.lookahead_weight,
                time_weight=router.time_weight,
                recent_moves=router._recent_moves)
        if not calls:
            event("no two-qubit candidate")
        want_positions, want_bounds = reference_bounds(router, state, front,
                                                       lookahead)
        assert positions == want_positions
        assert bits(bounds) == bits(want_bounds)

    def test_a_repeated_gate_gets_the_reference_bounds_twice(self):
        """A front listing one gate twice has duplicate move rows; the
        gathered rows give both listings the reference bounds."""
        arch = architecture(3.0, 4, 4, 10, 1.5)
        state = MappingState(arch, 4, initial_sites=list(range(0, 16, 2))
                             + [1, 3], initial_qubit_map=[0, 3, 5, 7])
        circuit = QuantumCircuit(4)
        circuit.cz(0, 3).cz(0, 3).cz(1, 2)
        front, lookahead = routing_reference.routing_layers(circuit)
        router = ShuttlingRouter(arch, lookahead_weight=0.5, time_weight=1.0)
        screen = ChainScreen(arch)
        seen = {}
        distinct_costs = screen._move_costs

        def recorded(*args):
            seen["args"] = args
            return distinct_costs(*args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(screen, "_move_costs", recorded)
            _, bounds = screen.bounds(state, front, lookahead,
                                      lookahead_weight=0.5, time_weight=1.0,
                                      recent_moves=[])
        move_atoms, move_dst = seen["args"][3], seen["args"][5]
        keys = move_atoms * screen._num_sites + move_dst
        assert np.unique(keys).size < keys.size
        _, want = reference_bounds(router, state, front, lookahead)
        assert bits(bounds) == bits(want)
        assert bits(bounds[0]) == bits(bounds[1])


@st.composite
def screened_front(draw):
    """A front of 2- and 3-qubit gates, crafted bounds and chain costs."""
    widths = draw(st.lists(st.sampled_from((2, 2, 3)), min_size=2,
                           max_size=12))
    widths[draw(st.integers(0, len(widths) - 1))] = 2
    circuit = QuantumCircuit(3 * len(widths))
    for position, width in enumerate(widths):
        circuit.cz(*range(3 * position, 3 * position + width))
    front, _ = routing_reference.routing_layers(circuit)
    positions = [position for position, width in enumerate(widths)
                 if width == 2]
    costs = {node.index: draw(st.lists(st.sampled_from((1.0, 2.0, 3.0)),
                                       max_size=2))
             for node in front}
    incumbent_cost = min((cost for chains in costs.values()
                          for cost in chains), default=1.0)
    values = (incumbent_cost - 1.0, incumbent_cost, incumbent_cost + 1.0,
              np.inf)
    bounds = np.array(draw(st.lists(
        st.tuples(st.sampled_from(values), st.sampled_from(values)),
        min_size=len(positions), max_size=len(positions))), dtype=float)
    # One row tied with the best chain's cost, one row with no chain.
    bounds[draw(st.integers(0, len(positions) - 1))] = incumbent_cost
    if len(positions) > 1:
        bounds[draw(st.integers(0, len(positions) - 1))] = np.inf
    return front, positions, bounds.reshape(-1, 2), costs


class TestKeepMask:
    @given(screened_front())
    @settings(max_examples=200, deadline=None)
    def test_kept_nodes_match_the_set_based_filter(self, scenario):
        front, positions, bounds, costs = scenario
        router = ShuttlingRouter(architecture(3.0, 3, 3, 4, 1.5))

        def run(select):
            built = []

            def candidate_chains(_state, node):
                built.append(node.index)
                return [(node.index, rank)
                        for rank in range(len(costs[node.index]))]

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(router, "screen_bounds",
                              lambda *_args: (positions, bounds))
                patch.setattr(router, "candidate_chains", candidate_chains)
                kept = select(None, front, [],
                              lambda chain: costs[chain[0]][chain[1]])
            return kept, built

        kept, built = run(router._screened_candidates)
        assert (kept, built) == run(
            screen_reference.screened_candidates.__get__(router))
        if any(node.gate.num_qubits > 2 for node in front):
            event("wide gate in the front")

    def test_wide_gates_and_ties_are_kept_in_front_order(self):
        circuit = QuantumCircuit(12)
        circuit.cz(0, 1).cz(2, 3, 4).cz(5, 6).cz(7, 8).cz(9, 10, 11)
        front, _ = routing_reference.routing_layers(circuit)
        router = ShuttlingRouter(architecture(3.0, 3, 3, 4, 1.5))
        # Position 0 holds the incumbent (cost 1.0); position 3 ties it and
        # position 2 has no chain.
        bounds = np.array([[1.0, 1.5], [np.inf, np.inf], [1.0, 4.0]])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(router, "screen_bounds",
                          lambda *_args: ([0, 2, 3], bounds))
            patch.setattr(router, "candidate_chains",
                          lambda _state, node: [node.index])
            kept = router._screened_candidates(None, front, [],
                                               lambda _chain: 1.0)
        assert kept == [[front[0].index], [front[1].index],
                        [front[3].index], [front[4].index]]


def test_qubit_node_index_keeps_node_order():
    circuit = QuantumCircuit(5)
    circuit.cz(0, 1).cz(2, 3, 4).cz(1, 4).cz(3, 0).cz(0, 1)
    front, _ = routing_reference.routing_layers(circuit)
    index = build_qubit_node_index(front)
    assert list(index) == [0, 1, 2, 3, 4]
    for qubit, nodes in index.items():
        assert nodes == [node for node in front if qubit in node.gate.qubits]
    assert [node.index for node in index[0]] == [0, 3, 4]
