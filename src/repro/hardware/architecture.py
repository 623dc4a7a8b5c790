"""Neutral-atom architecture description.

:class:`NeutralAtomArchitecture` bundles everything the mapper, scheduler and
fidelity evaluation need to know about the target device (Section 2.1 and
Table 1c of the paper):

* the trap lattice (size ``l x l``, spacing ``d``) and the number of atoms
  ``N`` loaded into it,
* the interaction radius ``r_int`` and restriction radius ``r_restr``
  (both expressed in units of the lattice constant ``d``),
* operation fidelities — entangling gates ``F_CZ``, single-qubit gates
  ``F_1q`` (called ``F_H`` in the table) and shuttling ``F_shuttle``,
* operation durations — single-qubit pulse ``t_1q``, the ``C^{m-1}Z`` family
  ``t_CZ``/``t_CCZ``/``t_CCCZ``, AOD (de)activation ``t_act``/``t_deact`` and
  the shuttling speed ``v``,
* coherence times ``T1`` and ``T2`` from which the effective decay time
  ``T_eff = T1 T2 / (T1 + T2)`` of the success-probability model (Eq. 1)
  follows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

from .topology import GridTopology, SquareLattice

__all__ = ["NeutralAtomArchitecture", "GateDurations", "Fidelities"]


@dataclass(frozen=True)
class GateDurations:
    """Operation durations in microseconds (Table 1c, lower block)."""

    single_qubit: float = 0.5        # t_U3
    cz: float = 0.2                  # t_CZ
    ccz: float = 0.4                 # t_CCZ
    cccz: float = 0.6                # t_CCCZ
    aod_activation: float = 20.0     # t_act
    aod_deactivation: float = 20.0   # t_deact

    def entangling(self, num_qubits: int) -> float:
        """Duration of a ``num_qubits``-wide multi-controlled Z gate.

        The table specifies up to four qubits; wider gates extrapolate the
        linear trend of +0.2 us per additional qubit.
        """
        if num_qubits < 2:
            raise ValueError("entangling gates act on at least two qubits")
        if num_qubits == 2:
            return self.cz
        if num_qubits == 3:
            return self.ccz
        if num_qubits == 4:
            return self.cccz
        return self.cccz + 0.2 * (num_qubits - 4)


@dataclass(frozen=True)
class Fidelities:
    """Average operation fidelities (Table 1c, upper block)."""

    cz: float = 0.995                # F_CZ, also used per two-qubit interaction
    single_qubit: float = 0.999      # F_H
    shuttling: float = 0.9999        # F_Shuttling (per move)

    def __post_init__(self) -> None:
        for name in ("cz", "single_qubit", "shuttling"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ValueError(f"fidelity {name} must lie in (0, 1], got {value}")

    def entangling(self, num_qubits: int) -> float:
        """Fidelity of a ``num_qubits``-wide multi-controlled Z gate.

        The blockade gate addresses all participating atoms with the same
        Rydberg pulse; to first order the error accumulates per participating
        qubit pair beyond the first, so ``F(m) = F_CZ^(m-1)``.  For ``m = 2``
        this reduces to ``F_CZ`` exactly as in the table.
        """
        if num_qubits < 2:
            raise ValueError("entangling gates act on at least two qubits")
        return self.cz ** (num_qubits - 1)


@dataclass(frozen=True)
class NeutralAtomArchitecture:
    """Complete description of a neutral-atom device.

    Radii are given in units of the lattice constant ``d`` (matching the
    presentation in the paper); the properties :attr:`interaction_radius_um`
    and :attr:`restriction_radius_um` convert them to micrometres.

    The trap layout ``lattice`` is a
    :class:`~repro.hardware.topology.GridTopology` (square, rectangular or
    zoned).  Zone capabilities (which traps may host entangling gates,
    corridor transit penalties) are part of the topology and surface here
    through :meth:`is_entangling_site` / :meth:`can_interact` /
    :meth:`within_restriction`.
    """

    name: str = "custom"
    lattice: GridTopology = field(default_factory=lambda: SquareLattice(15, 15, 3.0))
    num_atoms: int = 200
    interaction_radius: float = 2.5       # r_int, in units of d
    restriction_radius: float = 2.5       # r_restr >= r_int, in units of d
    fidelities: Fidelities = field(default_factory=Fidelities)
    durations: GateDurations = field(default_factory=GateDurations)
    shuttling_speed: float = 0.3          # v [um / us]
    t1: float = 100_000_000.0             # T1 [us]
    t2: float = 1_500_000.0               # T2 [us]

    def __post_init__(self) -> None:
        if self.num_atoms <= 0:
            raise ValueError("architecture needs at least one atom")
        if self.num_atoms >= self.lattice.num_sites:
            raise ValueError(
                "the paper assumes a non-zero number of unoccupied coordinates "
                f"(mu = l^2 - 1 > m); got {self.num_atoms} atoms for "
                f"{self.lattice.num_sites} sites")
        if self.interaction_radius <= 0:
            raise ValueError("interaction radius must be positive")
        if self.restriction_radius < self.interaction_radius:
            raise ValueError("restriction radius must be >= interaction radius")
        if self.shuttling_speed <= 0:
            raise ValueError("shuttling speed must be positive")
        if self.t1 <= 0 or self.t2 <= 0:
            raise ValueError("coherence times must be positive")

    # ------------------------------------------------------------------
    # Derived geometry
    # ------------------------------------------------------------------
    @property
    def interaction_radius_um(self) -> float:
        """Interaction radius in micrometres."""
        return self.interaction_radius * self.lattice.spacing

    @property
    def restriction_radius_um(self) -> float:
        """Restriction radius in micrometres."""
        return self.restriction_radius * self.lattice.spacing

    @property
    def coordination_number(self) -> int:
        """Number of neighbouring sites within the interaction radius (bulk site)."""
        return self.lattice.neighbourhood_size(self.interaction_radius_um)

    @property
    def effective_decoherence_time(self) -> float:
        """``T_eff = T1 T2 / (T1 + T2)`` used in the success-probability model."""
        return self.t1 * self.t2 / (self.t1 + self.t2)

    def can_interact(self, site_a: int, site_b: int) -> bool:
        """True if atoms at the two sites can take part in the same gate.

        Zone-aware: on a zoned topology both sites must be capable of the
        interaction at that distance (storage traps never are).
        """
        return self.lattice.can_interact_within(site_a, site_b,
                                                self.interaction_radius_um)

    def within_restriction(self, site_a: int, site_b: int) -> bool:
        """True if an atom at ``site_b`` blocks parallel gates at ``site_a``."""
        return self.lattice.within_restriction_of(site_a, site_b,
                                                  self.restriction_radius_um)

    # ------------------------------------------------------------------
    # Zone capabilities (delegated to the topology)
    # ------------------------------------------------------------------
    @property
    def all_sites_entangling(self) -> bool:
        """True when every trap may host entangling gates (unzoned devices)."""
        return self.lattice.all_sites_entangling

    def is_entangling_site(self, site: int) -> bool:
        """True if 2Q+ gates may execute at ``site``."""
        return self.lattice.is_entangling_site(site)

    def entangling_sites(self) -> tuple:
        """All sites where entangling gates may execute, in index order."""
        return self.lattice.entangling_sites()

    # ------------------------------------------------------------------
    # Operation timing and fidelity
    # ------------------------------------------------------------------
    def gate_duration(self, num_qubits: int) -> float:
        """Duration of a gate of the given width (1 = single-qubit pulse)."""
        if num_qubits == 1:
            return self.durations.single_qubit
        return self.durations.entangling(num_qubits)

    def gate_fidelity(self, num_qubits: int) -> float:
        """Fidelity of a gate of the given width (1 = single-qubit pulse)."""
        if num_qubits == 1:
            return self.fidelities.single_qubit
        return self.fidelities.entangling(num_qubits)

    def shuttle_move_duration(self, distance_um: float) -> float:
        """Pure travel time of a move over ``distance_um`` (no load/unload)."""
        return distance_um / self.shuttling_speed

    def shuttle_duration(self, distance_um: float, *, include_activation: bool = True,
                         include_deactivation: bool = True) -> float:
        """Full duration of a single shuttling move.

        A move consists of loading the atom into the AOD (activation), the
        travel itself, and unloading back into a static trap (deactivation).
        When moves are grouped into one AOD batch the (de)activation overhead
        is shared, which the scheduler accounts for by calling this with the
        corresponding flags disabled.
        """
        duration = self.shuttle_move_duration(distance_um)
        if include_activation:
            duration += self.durations.aod_activation
        if include_deactivation:
            duration += self.durations.aod_deactivation
        return duration

    def swap_cz_cost(self) -> int:
        """Number of native CZ gates one inserted SWAP decomposes into."""
        return 3

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def with_overrides(self, **kwargs) -> "NeutralAtomArchitecture":
        """Return a copy with selected fields replaced (functional update)."""
        return replace(self, **kwargs)

    def summary(self) -> Dict[str, float]:
        """Flat dictionary of the architecture parameters (for reports)."""
        return {
            "name": self.name,
            "topology": self.lattice.kind,
            "rows": self.lattice.rows,
            "cols": self.lattice.cols,
            "spacing_um": self.lattice.spacing,
            "num_zones": self.lattice.num_zones,
            "num_atoms": self.num_atoms,
            "r_int": self.interaction_radius,
            "r_restr": self.restriction_radius,
            "F_cz": self.fidelities.cz,
            "F_1q": self.fidelities.single_qubit,
            "F_shuttle": self.fidelities.shuttling,
            "t_1q_us": self.durations.single_qubit,
            "t_cz_us": self.durations.cz,
            "t_ccz_us": self.durations.ccz,
            "t_cccz_us": self.durations.cccz,
            "t_act_us": self.durations.aod_activation,
            "t_deact_us": self.durations.aod_deactivation,
            "shuttle_speed_um_per_us": self.shuttling_speed,
            "T1_us": self.t1,
            "T2_us": self.t2,
        }
