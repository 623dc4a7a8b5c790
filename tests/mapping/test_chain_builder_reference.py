"""Reference differential: the move-chain builder and the forced chain.

``ShuttlingRouter._build_chain`` builds the chain of every gate width and
``ShuttlingRouter.forced_chain`` the fallback chain.  Both simulate a
chain's occupancy on a copy of the free mask and select sites with numpy
gathers.  Here both are compared, move for move, with the scalar builders
of ``tests/differential/chain_reference.py``, which simulate occupancy with
site sets.  The occupancies come from a seeded random walk of the atoms on
crowded lattices, so most chains need move-aways and the later qubits of
wide gates see the simulated moves of the earlier ones.
"""

from __future__ import annotations

import math
import random
from collections import Counter

import numpy as np
import pytest

from repro.circuit import QuantumCircuit
from repro.circuit.dag import CircuitDAG
from repro.hardware import SiteConnectivity
from repro.hardware.presets import preset
from repro.mapping import MappingState, ShuttlingRouter

from chain_reference import _nearest_free_site, patched_router

NUM_QUBITS = 12
STEPS = 25

#: Crowded devices: a square grid, a rectangular grid with hostile
#: per-axis pitches and a zoned grid, whose storage-stranded anchors are
#: relocated first.
ARCHITECTURES = {
    "square": lambda: preset("shuttling", lattice_rows=7, num_atoms=44),
    "rectangular-0.3x0.7": lambda: preset(
        "mixed", lattice_rows=7, spacing=0.3, num_atoms=42,
        topology="rectangular", spacing_y=0.7),
    "zoned": lambda: preset("shuttling", lattice_rows=7, spacing=1.1,
                            num_atoms=40, topology="zoned"),
}


def _moves(chain):
    return None if chain is None else tuple(chain.moves)


def _nodes(rng: random.Random):
    """One 2-, one 3- and one 4-qubit gate on random circuit qubits."""
    circuit = QuantumCircuit(NUM_QUBITS)
    for width in (2, 3, 4):
        circuit.cz(*rng.sample(range(NUM_QUBITS), width))
    return CircuitDAG(circuit).nodes


def _chains(router: ShuttlingRouter, state: MappingState, nodes):
    built = [_moves(router._build_chain(state, node.gate, anchor, node.index))
             for node in nodes for anchor in node.gate.qubits]
    forced = [_moves(router.forced_chain(state, node)) for node in nodes]
    return built, forced


@pytest.mark.parametrize("name", sorted(ARCHITECTURES))
def test_chains_match_the_scalar_reference(name):
    architecture = ARCHITECTURES[name]()
    state = MappingState(architecture, NUM_QUBITS,
                         connectivity=SiteConnectivity(architecture))
    router = ShuttlingRouter(architecture)
    rng = random.Random(2024)
    seen = Counter()
    for step in range(STEPS):
        nodes = _nodes(rng)
        built, forced = _chains(router, state, nodes)
        with patched_router():
            reference = _chains(router, state, nodes)
        assert (built, forced) == reference, f"{name}, step {step}"
        for moves in built:
            if moves is None:
                seen["none"] += 1
                continue
            seen["move-away"] += any(move.is_move_away for move in moves)
            seen["simulated"] += len({move.atom for move in moves
                                      if not move.is_move_away}) > 1
        seen["forced move-away"] += sum(
            any(move.is_move_away for move in moves)
            for moves in forced if moves is not None)
        # Random-walk the occupancy: one atom onto a random free trap.
        state.move_atom(rng.randrange(state.num_atoms),
                        rng.choice(sorted(state.free_sites())))
        state.consistency_check()
    # The walk reached every path the comparison is meant to cover.
    assert seen["move-away"] and seen["simulated"], seen
    assert seen["forced move-away"] and seen["none"], seen


#: Move-away devices: inexact lattice constants and a zoned grid whose
#: travel metric carries corridor penalties.
MOVE_AWAY_ARCHITECTURES = {
    "square-3.0": lambda: preset("shuttling", lattice_rows=7, num_atoms=30),
    "square-0.3": lambda: preset("shuttling", lattice_rows=7, spacing=0.3,
                                 num_atoms=30),
    "square-1.1": lambda: preset("mixed", lattice_rows=7, spacing=1.1,
                                 num_atoms=30),
    "zoned-1.1": lambda: preset("zoned", lattice_rows=9, spacing=1.1,
                                num_atoms=30, corridor_transit_um=7.3),
}


@pytest.mark.parametrize("name", sorted(MOVE_AWAY_ARCHITECTURES))
def test_move_away_lookup_matches_the_scalar_scan(name):
    """One gather over the ordered move-away table returns what the scalar
    disc-by-disc scan returns: radii 1-4 and forced_chain's lattice-wide
    reach, random free masks and forbidden sets (free and occupied sites,
    near and far)."""
    architecture = MOVE_AWAY_ARCHITECTURES[name]()
    lattice = architecture.lattice
    if name.startswith("zoned"):
        assert lattice.has_travel_penalties
    connectivity = SiteConnectivity(architecture)
    num_sites = connectivity.num_sites
    reach = math.ceil(math.hypot((lattice.rows - 1) * lattice.spacing_y,
                                 (lattice.cols - 1) * lattice.spacing_x)
                      / lattice.spacing)
    rng = random.Random(name)
    outcomes = Counter()
    for _ in range(150):
        fill = rng.choice((0.3, 0.8, 0.97))
        free_mask = np.array([rng.random() > fill for _ in range(num_sites)],
                             dtype=np.uint8)
        origin = rng.randrange(num_sites)
        near = lattice.sites_within(origin, 2 * lattice.spacing + 1e-9)
        forbidden = set(rng.sample(near, min(len(near), rng.randint(0, 6))))
        forbidden.update(rng.sample(range(num_sites), rng.randint(0, 3)))
        for radius in (1, 2, 3, 4, reach):
            expected = _nearest_free_site(free_mask, connectivity, origin,
                                          forbidden, radius)
            actual = ShuttlingRouter._nearest_free_site(
                free_mask, connectivity, origin, forbidden, radius)
            assert actual == expected, (origin, radius, sorted(forbidden))
            outcomes[expected is None, radius == reach] += 1
    # Found and not found, within the move-away radius and lattice-wide.
    assert all(outcomes[key] for key in
               ((False, False), (True, False), (False, True))), outcomes
