"""Mapping state: the two-fold assignment of circuit qubits to atoms to sites.

Section 2.2 of the paper defines the mapping problem on neutral atoms as
two-fold:

* the **qubit mapping** ``f_q`` assigns circuit qubits ``q_i`` to physical
  qubits (atoms) ``Q_a``; SWAP gates modify this assignment,
* the **atom mapping** ``f_a`` assigns atoms to trap coordinates ``C_alpha``;
  shuttling moves modify this assignment.

:class:`MappingState` maintains both maps plus the inverse lookups, exposes
the derived connectivity queries (which gates are executable, how far apart
two logical qubits currently are), and applies SWAPs and moves while keeping
everything consistent.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as _np

from ..circuit.gate import Gate
from ..hardware.architecture import NeutralAtomArchitecture
from ..hardware.connectivity import SiteConnectivity
from ..shuttling.moves import Move

__all__ = ["MappingState"]

_UNOCCUPIED = -1
_UNASSIGNED = -1


class MappingState:
    """Mutable mapping state over a fixed architecture.

    Parameters
    ----------
    architecture:
        Target device.
    num_circuit_qubits:
        Number of circuit qubits ``n``; must not exceed the number of atoms.
    connectivity:
        Optional pre-built :class:`SiteConnectivity` (shared between runs to
        avoid recomputing the geometric neighbourhoods).
    initial_sites:
        Optional explicit atom placement: ``initial_sites[a]`` is the trap
        site of atom ``a``.  Defaults to the identity placement
        ``Q_a -> C_a`` used in the paper's evaluation.
    initial_qubit_map:
        Optional explicit qubit mapping: ``initial_qubit_map[q]`` is the atom
        holding circuit qubit ``q``.  Defaults to the identity ``q_i -> Q_i``.
    """

    def __init__(self, architecture: NeutralAtomArchitecture, num_circuit_qubits: int,
                 connectivity: Optional[SiteConnectivity] = None,
                 initial_sites: Optional[Sequence[int]] = None,
                 initial_qubit_map: Optional[Sequence[int]] = None) -> None:
        if num_circuit_qubits <= 0:
            raise ValueError("need at least one circuit qubit")
        if num_circuit_qubits > architecture.num_atoms:
            raise ValueError(
                f"{num_circuit_qubits} circuit qubits exceed the {architecture.num_atoms} "
                "available atoms")
        self.architecture = architecture
        self.connectivity = connectivity or SiteConnectivity(architecture)
        self.num_circuit_qubits = num_circuit_qubits
        self.num_atoms = architecture.num_atoms
        self.num_sites = architecture.lattice.num_sites

        # Atom mapping f_a: atom -> site, and the inverse site -> atom.
        if initial_sites is None:
            initial_sites = list(range(self.num_atoms))
        initial_sites = list(initial_sites)
        if len(initial_sites) != self.num_atoms:
            raise ValueError("initial_sites must assign every atom a site")
        if len(set(initial_sites)) != len(initial_sites):
            raise ValueError("two atoms cannot share a trap site")
        for site in initial_sites:
            if not 0 <= site < self.num_sites:
                raise ValueError(f"site {site} outside the lattice")
        self._atom_to_site: List[int] = initial_sites
        self._site_to_atom: List[int] = [_UNOCCUPIED] * self.num_sites
        for atom, site in enumerate(initial_sites):
            self._site_to_atom[site] = atom

        # Free-site mask (1 = free), updated by move_atom (SWAPs do not
        # change occupancy): the one occupancy form besides the site map.
        # The chain builder gathers it in batches.
        self._free_mask = _np.ones(self.num_sites, dtype=_np.uint8)
        self._free_mask[initial_sites] = 0

        # Free traps inside each site's interaction neighbourhood, for the
        # capability decision's O(1) reads.  Adjacency is symmetric, so the
        # count of ``s`` changes exactly when a move frees or fills one of
        # ``s``'s neighbours; move_atom applies those +-1 updates.
        interaction_neighbours = self.connectivity.interaction_neighbours
        self._free_near: List[int] = [0] * self.num_sites
        for free_site in self._free_mask.nonzero()[0].tolist():
            for neighbour in interaction_neighbours(free_site):
                self._free_near[neighbour] += 1

        # Qubit mapping f_q: circuit qubit -> atom, and the inverse.
        if initial_qubit_map is None:
            initial_qubit_map = list(range(num_circuit_qubits))
        initial_qubit_map = list(initial_qubit_map)
        if len(initial_qubit_map) != num_circuit_qubits:
            raise ValueError("initial_qubit_map must assign every circuit qubit an atom")
        if len(set(initial_qubit_map)) != len(initial_qubit_map):
            raise ValueError("two circuit qubits cannot share an atom")
        for atom in initial_qubit_map:
            if not 0 <= atom < self.num_atoms:
                raise ValueError(f"atom {atom} does not exist")
        self._qubit_to_atom: List[int] = initial_qubit_map
        self._atom_to_qubit: List[int] = [_UNASSIGNED] * self.num_atoms
        for qubit, atom in enumerate(initial_qubit_map):
            self._atom_to_qubit[atom] = qubit

        # Bookkeeping of applied mapping operations.
        self.num_swaps_applied = 0
        self.num_moves_applied = 0

        # Change log: every site whose atom or circuit qubit changed since
        # the log was last taken (see take_changed_sites).  A set, so it
        # stays bounded by the lattice when nobody reads it.
        self._changed_sites: Set[int] = set()
        self._change_reader: Optional[object] = None

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def atom_of_qubit(self, qubit: int) -> int:
        """Physical atom currently holding circuit qubit ``qubit``."""
        return self._qubit_to_atom[qubit]

    def qubit_of_atom(self, atom: int) -> Optional[int]:
        """Circuit qubit held by ``atom``, or ``None`` for an auxiliary atom."""
        qubit = self._atom_to_qubit[atom]
        return None if qubit == _UNASSIGNED else qubit

    def site_of_atom(self, atom: int) -> int:
        """Trap site of ``atom``."""
        return self._atom_to_site[atom]

    def site_of_qubit(self, qubit: int) -> int:
        """Trap site of the atom holding circuit qubit ``qubit``."""
        return self._atom_to_site[self._qubit_to_atom[qubit]]

    def atom_at_site(self, site: int) -> Optional[int]:
        """Atom stored at ``site``, or ``None`` if the trap is empty."""
        atom = self._site_to_atom[site]
        return None if atom == _UNOCCUPIED else atom

    def site_is_free(self, site: int) -> bool:
        return self._site_to_atom[site] == _UNOCCUPIED

    def occupied_sites(self) -> Set[int]:
        """Set of all sites currently holding an atom.

        A fresh snapshot derived from :attr:`free_mask` (O(num_sites)); it
        does not follow later moves.
        """
        return set((self._free_mask == 0).nonzero()[0].tolist())

    def free_sites(self) -> Set[int]:
        """Set of all empty trap sites (a snapshot, see above)."""
        return set(self._free_mask.nonzero()[0].tolist())

    @property
    def free_mask(self):
        """Vectorised free-site mask (uint8, 1 = free).

        Maintained incrementally by :meth:`move_atom`; callers must treat it
        as read-only.
        """
        return self._free_mask

    @property
    def site_atoms(self) -> List[int]:
        """The live site -> atom list (``-1`` = empty trap), for per-site
        loops; callers must treat it as read-only."""
        return self._site_to_atom

    @property
    def atom_qubits(self) -> List[int]:
        """The live atom -> circuit qubit list (``-1`` = auxiliary atom);
        callers must treat it as read-only."""
        return self._atom_to_qubit

    @property
    def qubit_atoms(self) -> List[int]:
        """The live circuit qubit -> atom list; callers must treat it as
        read-only."""
        return self._qubit_to_atom

    @property
    def atom_sites(self) -> List[int]:
        """The live atom -> site list; callers must treat it as read-only."""
        return self._atom_to_site

    @property
    def free_near_counts(self) -> List[int]:
        """The live per-site counts of :meth:`num_free_sites_near`; callers
        must treat them as read-only."""
        return self._free_near

    def placement_arrays(self):
        """The placement maps as fresh int64 arrays, for batched gathers.

        Returns ``(qubit_atoms, qubit_sites, site_atoms, atom_qubits)``,
        indexed by circuit qubit, circuit qubit, site and atom; an empty
        site and an atom without a circuit qubit read ``-1``.  A snapshot:
        it does not follow later SWAPs or moves.
        """
        qubit_atoms = _np.array(self._qubit_to_atom, dtype=_np.int64)
        atom_sites = _np.array(self._atom_to_site, dtype=_np.int64)
        return (qubit_atoms, atom_sites[qubit_atoms],
                _np.array(self._site_to_atom, dtype=_np.int64),
                _np.array(self._atom_to_qubit, dtype=_np.int64))

    def qubit_mapping(self) -> Dict[int, int]:
        """Copy of the qubit mapping ``f_q`` (circuit qubit -> atom)."""
        return {qubit: atom for qubit, atom in enumerate(self._qubit_to_atom)}

    def atom_mapping(self) -> Dict[int, int]:
        """Copy of the atom mapping ``f_a`` (atom -> site)."""
        return {atom: site for atom, site in enumerate(self._atom_to_site)}

    def gate_sites(self, gate: Gate) -> Tuple[int, ...]:
        """Trap sites of the gate's qubits in gate-qubit order."""
        return tuple(self.site_of_qubit(q) for q in gate.qubits)

    # ------------------------------------------------------------------
    # Connectivity-derived queries
    # ------------------------------------------------------------------
    def qubits_adjacent(self, qubit_a: int, qubit_b: int) -> bool:
        """True if the two circuit qubits are within the interaction radius."""
        return self.connectivity.are_adjacent(self.site_of_qubit(qubit_a),
                                              self.site_of_qubit(qubit_b))

    def gate_executable(self, gate: Gate) -> bool:
        """True if every pair of gate qubits lies within the interaction radius.

        Non-entangling gates are always executable.
        """
        if not gate.is_entangling:
            return True
        qubits = gate.qubits
        if len(qubits) == 2:
            # Two-qubit fast path: one O(1) adjacency probe.
            site_a = self._atom_to_site[self._qubit_to_atom[qubits[0]]]
            site_b = self._atom_to_site[self._qubit_to_atom[qubits[1]]]
            return site_a != site_b and self.connectivity.are_adjacent(site_a, site_b)
        return self.connectivity.sites_mutually_interacting(self.gate_sites(gate))

    def vicinity_of_qubit(self, qubit: int) -> List[int]:
        """Occupied sites within the interaction radius of ``qubit``'s site."""
        site = self.site_of_qubit(qubit)
        return [s for s in self.connectivity.interaction_neighbours(site)
                if not self.site_is_free(s)]

    def free_sites_near(self, site: int) -> List[int]:
        """Free sites within the interaction radius of ``site``."""
        return [s for s in self.connectivity.interaction_neighbours(site)
                if self.site_is_free(s)]

    def num_free_sites_near(self, site: int) -> int:
        """Number of free sites within the interaction radius of ``site``.

        An O(1) read of the per-site counts that :meth:`move_atom` keeps,
        equal to ``len(free_sites_near(site))``.
        """
        return self._free_near[site]

    def swap_distance(self, qubit_a: int, qubit_b: int, *, exact: bool = False) -> int:
        """Estimated number of SWAPs needed to make two qubits adjacent.

        The estimate is the hop distance between their sites on the site
        graph minus one (zero if already adjacent).  With ``exact=True`` the
        BFS is restricted to *occupied* sites, which is the true SWAP
        distance but costs one BFS per call.
        """
        site_a = self.site_of_qubit(qubit_a)
        site_b = self.site_of_qubit(qubit_b)
        if site_a == site_b:
            return 0
        if self.connectivity.are_adjacent(site_a, site_b):
            return 0
        if exact:
            occupied = self.occupied_sites()
            distances = self.connectivity.bfs_distances_from(site_a, allowed=occupied)
            hops = distances.get(site_b, self.num_sites)
        else:
            hops = self.connectivity.hop_distance(site_a, site_b)
        return max(hops - 1, 0)

    def gate_swap_distance(self, gate: Gate) -> int:
        """Summed pairwise SWAP-distance estimate of a gate's qubits."""
        qubits = gate.qubits
        total = 0
        for i, qubit_a in enumerate(qubits):
            for qubit_b in qubits[i + 1:]:
                total += self.swap_distance(qubit_a, qubit_b)
        return total

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def apply_swap(self, qubit_a: int, qubit_b: int) -> None:
        """Exchange the logical assignment of two circuit qubits' atoms.

        Both atoms stay in their traps; only ``f_q`` changes.  The atoms must
        be within the interaction radius for the SWAP gate to be executable.
        """
        atom_a = self._qubit_to_atom[qubit_a]
        atom_b = self._qubit_to_atom[qubit_b]
        if not self.connectivity.are_adjacent(self._atom_to_site[atom_a],
                                              self._atom_to_site[atom_b]):
            raise ValueError(
                f"cannot SWAP qubits {qubit_a} and {qubit_b}: their atoms are not "
                "within the interaction radius")
        self._swap_atoms(atom_a, atom_b)

    def apply_swap_with_atom(self, qubit: int, other_atom: int) -> None:
        """SWAP a circuit qubit with an arbitrary atom (possibly auxiliary).

        When the partner atom holds no circuit qubit the SWAP simply re-homes
        the logical qubit onto the auxiliary atom; physically this is still
        three CZ pulses, so callers account for it like any other SWAP.
        """
        atom = self._qubit_to_atom[qubit]
        if not self.connectivity.are_adjacent(self._atom_to_site[atom],
                                              self._atom_to_site[other_atom]):
            raise ValueError("cannot SWAP: atoms are not within the interaction radius")
        self._swap_atoms(atom, other_atom)

    def _swap_atoms(self, atom_a: int, atom_b: int) -> None:
        self._changed_sites.add(self._atom_to_site[atom_a])
        self._changed_sites.add(self._atom_to_site[atom_b])
        qubit_a = self._atom_to_qubit[atom_a]
        qubit_b = self._atom_to_qubit[atom_b]
        self._atom_to_qubit[atom_a], self._atom_to_qubit[atom_b] = qubit_b, qubit_a
        if qubit_a != _UNASSIGNED:
            self._qubit_to_atom[qubit_a] = atom_b
        if qubit_b != _UNASSIGNED:
            self._qubit_to_atom[qubit_b] = atom_a
        self.num_swaps_applied += 1

    def apply_move(self, move: Move) -> None:
        """Relocate an atom according to ``move`` (changes ``f_a`` only)."""
        self.move_atom(move.atom, move.destination)

    def move_atom(self, atom: int, destination: int) -> None:
        """Relocate ``atom`` to the free trap ``destination``."""
        if not 0 <= destination < self.num_sites:
            raise ValueError(f"site {destination} outside the lattice")
        if not self.site_is_free(destination):
            raise ValueError(f"site {destination} is already occupied")
        source = self._atom_to_site[atom]
        if source == destination:
            raise ValueError("move must change the trap site")
        self._site_to_atom[source] = _UNOCCUPIED
        self._site_to_atom[destination] = atom
        self._atom_to_site[atom] = destination
        self._free_mask[source] = 1
        self._free_mask[destination] = 0
        self._changed_sites.add(source)
        self._changed_sites.add(destination)
        self.num_moves_applied += 1
        free_near = self._free_near
        for neighbour in self.connectivity.interaction_neighbours(source):
            free_near[neighbour] += 1
        for neighbour in self.connectivity.interaction_neighbours(destination):
            free_near[neighbour] -= 1

    def make_move(self, atom: int, destination: int, *, is_move_away: bool = False) -> Move:
        """Construct (but do not apply) a :class:`Move` for ``atom`` to ``destination``."""
        topology = self.architecture.lattice
        source = self._atom_to_site[atom]
        travel = (topology.rectangular_row(source)[destination]
                  if topology.has_travel_penalties else None)
        return Move(
            atom=atom,
            source=source,
            destination=destination,
            source_position=topology.position(source),
            destination_position=topology.position(destination),
            is_move_away=is_move_away,
            travel_distance_um=travel,
        )

    def take_changed_sites(self, reader: object) -> Optional[Set[int]]:
        """Sites whose atom or circuit qubit changed since ``reader`` last
        took the log, and an empty log from here on.

        SWAPs log both sites, moves their source and destination.  Returns
        ``None`` when the log cannot tell ``reader`` everything that changed:
        on its first take, or when another reader took the log in between.
        """
        changed = self._changed_sites
        self._changed_sites = set()
        if self._change_reader is not reader:
            self._change_reader = reader
            return None
        return changed

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def copy(self) -> "MappingState":
        """Deep copy of the mapping state (shares the immutable connectivity).

        The copy starts with an empty change log and no reader.
        """
        clone = MappingState(
            self.architecture,
            self.num_circuit_qubits,
            connectivity=self.connectivity,
            initial_sites=list(self._atom_to_site),
            initial_qubit_map=list(self._qubit_to_atom),
        )
        clone.num_swaps_applied = self.num_swaps_applied
        clone.num_moves_applied = self.num_moves_applied
        return clone

    def consistency_check(self) -> None:
        """Raise if the maps, the free mask and the free-neighbour counts
        disagree (used by tests)."""
        for atom, site in enumerate(self._atom_to_site):
            if self._site_to_atom[site] != atom:
                raise AssertionError(f"atom {atom} / site {site} maps are inconsistent")
        occupied = sum(1 for atom in self._site_to_atom if atom != _UNOCCUPIED)
        if occupied != self.num_atoms:
            raise AssertionError("number of occupied sites does not match the atom count")
        free = {site for site, atom in enumerate(self._site_to_atom)
                if atom == _UNOCCUPIED}
        if self.free_sites() != free:
            raise AssertionError("free-site mask drifted from the maps")
        for site in range(self.num_sites):
            if self._free_near[site] != len(
                    self.connectivity.interaction_set(site) & free):
                raise AssertionError(
                    f"free-neighbour count of site {site} drifted from the maps")
        for qubit, atom in enumerate(self._qubit_to_atom):
            if self._atom_to_qubit[atom] != qubit:
                raise AssertionError(f"qubit {qubit} / atom {atom} maps are inconsistent")
