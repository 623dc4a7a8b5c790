"""Differential harness: the screened ``best_chain`` vs the reference scan.

On fronts wider than ``_SCREEN_FRONT_WIDTH`` the shuttling router bounds
every two-qubit candidate from below in one numpy pass and builds chains
only for the gates whose bound can still reach the incumbent's exact cost
(:mod:`repro.mapping.chain_screen`).  The selection must stay exactly the
one of the unscreened reference scan (``routing_reference.best_chain``),
which builds and scores every candidate with plain layer walks.  These tests force the screen on in every round (width constant
0) and draw routing rounds with:

* the hostile lattice spacings of the kernel differential, whose float
  expansions round differently under vectorised evaluation;
* a non-empty recent-move history, so ``C_t_parallel`` is non-zero;
* a lookahead layer, weighted into the distance terms;
* dense occupancy, so move-aways and chainless anchors occur;
* interaction radii below one spacing, where no zone has a site.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import assume, event, given, settings, strategies as st

import repro.mapping.shuttling_router as shuttling_router_module
from repro.circuit import QuantumCircuit
from repro.hardware import (NeutralAtomArchitecture, RectangularLattice,
                            SquareLattice)
from repro.hardware.presets import preset
from repro.mapping import MappingState, ShuttlingRouter
from repro.mapping.chain_screen import MOVE_AWAY_RADIUS, ChainScreen

import routing_reference
from test_differential_kernel import HOSTILE_SPACINGS

SPACINGS = HOSTILE_SPACINGS + (3.0,)


@functools.lru_cache(maxsize=None)
def architecture(spacing: float, rows: int, cols: int, num_atoms: int,
                 radius: float) -> NeutralAtomArchitecture:
    return NeutralAtomArchitecture(
        name="screen-diff", lattice=SquareLattice(rows, cols, spacing),
        num_atoms=num_atoms, interaction_radius=radius,
        restriction_radius=radius)


@st.composite
def routing_round(draw):
    """A state, its front/lookahead layers and a recent-move history."""
    spacing = draw(st.sampled_from(SPACINGS))
    rows = draw(st.integers(3, 7))
    cols = draw(st.integers(3, 7))
    sites = rows * cols
    num_atoms = draw(st.integers(max(2, sites // 2), sites - 1))
    radius = draw(st.sampled_from((0.5, 1.0, 1.5, 2.0, 2.5)))
    arch = architecture(spacing, rows, cols, num_atoms, radius)
    num_qubits = draw(st.integers(2, min(num_atoms, 14)))
    initial_sites = draw(st.permutations(range(sites)))[:num_atoms]
    qubit_map = draw(st.permutations(range(num_atoms)))[:num_qubits]
    state = MappingState(arch, num_qubits, initial_sites=initial_sites,
                         initial_qubit_map=qubit_map)

    circuit = QuantumCircuit(num_qubits)
    for _ in range(draw(st.integers(num_qubits, 3 * num_qubits + 6))):
        width = draw(st.sampled_from((2, 2, 2, 2, 3)
                                     if num_qubits >= 3 else (2,)))
        circuit.cz(*draw(st.lists(st.integers(0, num_qubits - 1),
                                  min_size=width, max_size=width,
                                  unique=True)))
    # All-CZ circuits commute into one front layer; without commutation
    # the later gates form a lookahead layer.
    front, lookahead = routing_reference.routing_layers(
        circuit, lookahead_depth=draw(st.integers(1, 3)),
        use_commutation=draw(st.booleans()))
    if lookahead:
        event("non-empty lookahead")

    history = []
    for atom, target in draw(st.lists(
            st.tuples(st.integers(0, num_atoms - 1), st.integers(0, 10_000)),
            min_size=1, max_size=5)):
        free = sorted(state.free_sites())
        move = state.make_move(atom, free[target % len(free)])
        state.apply_move(move)
        history.append(move)
    weights = draw(st.sampled_from(((0.1, 0.1), (0.0, 1.0), (1.0, 0.0),
                                    (0.5, 2.0))))
    return arch, state, front, lookahead, history, weights


def make_router(arch, history, weights):
    lookahead_weight, time_weight = weights
    router = ShuttlingRouter(arch, lookahead_weight=lookahead_weight,
                             time_weight=time_weight, history_window=4)
    router.note_moves_applied(history)
    return router


def assert_same_selection(screened, reference) -> None:
    assert (screened is None) == (reference is None)
    if reference is not None:
        assert screened.moves == reference.moves
        assert screened.gate_index == reference.gate_index


def exact_costs(router, state, front, lookahead, positions):
    """Reference cost of each screened candidate (``inf`` without a chain)."""
    costs = np.full((len(positions), 2), np.inf)
    for row, position in enumerate(positions):
        node = front[position]
        for column, anchor in enumerate(node.gate.qubits):
            chain = router._build_chain(state, node.gate, anchor, node.index)
            if chain is None:
                event("chainless anchor")
                continue
            if chain.num_move_aways:
                event("move-away chain")
            costs[row, column] = routing_reference.chain_cost(
                router, state, chain, front, lookahead)
    return costs


class TestScreenedSelection:
    @given(routing_round())
    @settings(max_examples=150, deadline=None)
    def test_best_chain_matches_reference(self, scenario):
        arch, state, front, lookahead, history, weights = scenario
        router = make_router(arch, history, weights)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(shuttling_router_module, "_SCREEN_FRONT_WIDTH", 0)
            chain = router.best_chain(state, front, lookahead)
        assert_same_selection(chain, routing_reference.best_chain(
            router, state, front, lookahead))

    @given(routing_round())
    @settings(max_examples=150, deadline=None)
    def test_bounds_never_exceed_the_exact_cost(self, scenario):
        arch, state, front, lookahead, history, weights = scenario
        router = make_router(arch, history, weights)
        positions, bounds = router.screen_bounds(state, front, lookahead)
        assert positions == [position for position, node in enumerate(front)
                             if node.gate.num_qubits == 2]
        costs = exact_costs(router, state, front, lookahead, positions)
        chained = np.isfinite(costs)
        # A bound is infinite exactly when its anchor has no chain ...
        assert np.array_equal(np.isfinite(bounds), chained)
        # ... and otherwise sits below the exact cost by at most float noise.
        assert np.all(bounds[chained] <= costs[chained])
        assert np.all(costs[chained] - bounds[chained] < 1e-9)

    @given(routing_round())
    @settings(max_examples=100, deadline=None)
    def test_selection_stays_exact_with_tight_bounds(self, scenario):
        """Bounds equal to the exact costs: a node tying the incumbent must
        survive, or the incumbent's own node is dropped."""
        arch, state, front, lookahead, history, weights = scenario
        router = make_router(arch, history, weights)
        positions, _ = router.screen_bounds(state, front, lookahead)
        assume(positions)
        tight = exact_costs(router, state, front, lookahead, positions)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(shuttling_router_module, "_SCREEN_FRONT_WIDTH", 0)
            patch.setattr(router, "screen_bounds",
                          lambda *_args: (positions, tight))
            chain = router.best_chain(state, front, lookahead)
        assert_same_selection(chain, routing_reference.best_chain(
            router, state, front, lookahead))


def test_zoned_topologies_are_never_screened():
    """Zoned devices relocate anchors and charge corridor penalties, which
    the screen does not model: their rounds always take the full scan."""
    arch = preset("zoned", lattice_rows=9, num_atoms=24)
    state = MappingState(arch, 10)
    circuit = QuantumCircuit(10)
    for qubit in range(5):
        circuit.cz(qubit, 9 - qubit)
    front, lookahead = routing_reference.routing_layers(circuit)
    router = ShuttlingRouter(arch)

    def refuse(*_args):
        raise AssertionError("screened a zoned round")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(shuttling_router_module, "_SCREEN_FRONT_WIDTH", 0)
        patch.setattr(router, "screen_bounds", refuse)
        assert router.best_chain(state, front, lookahead) is not None


class TestPerSiteTables:
    """The screen's write-once site tables hold, row for row, what the
    offset gather yields for that site: the in-radius sites in ascending
    order, padded with invalid site-0 entries, and the rectangular
    distances of the topology's own rows."""

    @staticmethod
    def offset_gather(topology, site, offsets):
        """``(sites, valid)`` of one site's neighbourhood, per offset."""
        row, col = topology.row_col(site)
        sites, valid = [], []
        for dr, dc in zip(*(array.tolist() for array in offsets)):
            r, c = row + dr, col + dc
            inside = 0 <= r < topology.rows and 0 <= c < topology.cols
            sites.append(r * topology.cols + c if inside else 0)
            valid.append(inside)
        return sites, valid

    @pytest.mark.parametrize("lattice", (
        *(SquareLattice(6, 6, spacing) for spacing in SPACINGS),
        SquareLattice(5, 8, 1.1),
        RectangularLattice(5, 7, spacing_x=0.3, spacing_y=0.7),
        RectangularLattice(7, 4, spacing_x=1.1, spacing_y=0.3),
    ), ids=repr)
    @pytest.mark.parametrize("radius", (0.5, 1.0, 1.5, 2.5))
    def test_tables_equal_the_offset_gather(self, lattice, radius):
        arch = NeutralAtomArchitecture(
            name="screen-tables", lattice=lattice, num_atoms=4,
            interaction_radius=radius, restriction_radius=radius)
        screen = ChainScreen(arch)
        disc_radius = MOVE_AWAY_RADIUS * lattice.spacing + 1e-9
        tables = (
            (screen.zone_sites, screen.zone_valid, screen.zone_offsets,
             arch.interaction_radius_um),
            (screen.disc_sites, screen.disc_valid, screen.disc_offsets,
             disc_radius),
        )
        for site in range(lattice.num_sites):
            for table, valid, offsets, reach in tables:
                sites, inside = self.offset_gather(lattice, site, offsets)
                assert table[site].tolist() == sites
                assert valid[site].tolist() == inside
                assert (table[site][valid[site]].tolist()
                        == lattice.sites_within(site, reach))
            rect = lattice.rectangular_row(site)
            disc = screen.disc_sites[site]
            assert [value.hex() for value in screen.disc_rect[site].tolist()] \
                == [rect[other].hex() for other in disc.tolist()]
