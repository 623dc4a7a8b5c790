"""Hardware presets reproducing Table 1c of the paper.

Three configurations are evaluated in the paper, all on a 15 x 15 lattice
with ``d = 3 um`` and ``N = 200`` atoms:

=====================  ==========  ======  ======
parameter              Shuttling   Gate    Mixed
=====================  ==========  ======  ======
``r_int = r_restr``    2           4.5     2.5
``F_CZ``               0.994       0.9995  0.995
``F_H``                0.995       0.9999  0.999
``F_Shuttling``        1           0.999   0.9999
``v`` [um/us]          0.55        0.2     0.3
``t_act/deact`` [us]   20          50      40
=====================  ==========  ======  ======

Shared parameters: ``t_U3 = 0.5 us``, ``t_CZ = 0.2 us``, ``t_CCZ = 0.4 us``,
``t_CCCZ = 0.6 us``, ``T1 = 1e8 us``, ``T2 = 1.5e6 us``.

The factory functions accept ``lattice_rows`` / ``num_atoms`` overrides so
that the benchmark harness can run scaled-down instances with the same
relative characteristics, plus topology overrides (``topology`` /
``lattice_cols`` / ``spacing_y`` / ``zone_layout`` / ``corridor_transit_um``)
so any preset can target a rectangular or zoned trap layout.

Beyond the paper's three square-lattice columns, :func:`zoned` instantiates
the *mixed* device parameters on a :class:`~repro.hardware.topology.
ZonedTopology` — storage bands flanking a central entangling band, with a
corridor transit penalty of one lattice constant per crossed zone boundary
by default.  It models multi-zone trap systems where entangling gates only
execute in a dedicated region and atoms shuttle between storage and
computation.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from .architecture import Fidelities, GateDurations, NeutralAtomArchitecture
from .topology import GridTopology, Zone, ZoneLayout, build_topology

__all__ = [
    "shuttling_optimised",
    "gate_optimised",
    "mixed",
    "zoned",
    "preset",
    "PRESET_NAMES",
    "ALL_PRESET_NAMES",
]

#: The paper's three square-lattice device columns (Table 1c).
PRESET_NAMES = ("shuttling", "gate", "mixed")

#: Every named preset, including the zoned multi-zone scenario.
ALL_PRESET_NAMES = PRESET_NAMES + ("zoned",)

_SHARED_DURATIONS = dict(single_qubit=0.5, cz=0.2, ccz=0.4, cccz=0.6)
_SHARED_COHERENCE = dict(t1=100_000_000.0, t2=1_500_000.0)

#: Table 1c column (3) device parameters — shared by :func:`mixed` and
#: :func:`zoned` so the zoned scenario can never drift from its documented
#: "mixed parameters on a zoned topology" contract.
_MIXED_DEVICE = dict(r_int=2.5, f_cz=0.995, f_1q=0.999, f_shuttle=0.9999,
                     speed=0.3, t_act=40.0)


def _build(name: str, *, r_int: float, f_cz: float, f_1q: float, f_shuttle: float,
           speed: float, t_act: float, lattice_rows: int, spacing: float,
           num_atoms: Optional[int], topology: str = "square",
           lattice_cols: Optional[int] = None, spacing_y: Optional[float] = None,
           zone_layout: Optional[Union[Sequence[Zone], ZoneLayout]] = None,
           corridor_transit_um: Optional[float] = None
           ) -> NeutralAtomArchitecture:
    trap_topology: GridTopology = build_topology(
        topology, lattice_rows, cols=lattice_cols, spacing=spacing,
        spacing_y=spacing_y, zone_layout=zone_layout,
        corridor_transit_um=corridor_transit_um)
    if num_atoms is not None:
        atoms = num_atoms
    elif trap_topology.all_sites_entangling:
        atoms = min(200, trap_topology.num_sites - 1)
    else:
        # Zoned devices keep the fill factor at ~1/2 so the entangling band
        # retains free traps for gathering gate qubits.
        atoms = min(200, max(trap_topology.num_sites // 2, 1))
    return NeutralAtomArchitecture(
        name=name,
        lattice=trap_topology,
        num_atoms=atoms,
        interaction_radius=r_int,
        restriction_radius=r_int,
        fidelities=Fidelities(cz=f_cz, single_qubit=f_1q, shuttling=f_shuttle),
        durations=GateDurations(aod_activation=t_act, aod_deactivation=t_act,
                                **_SHARED_DURATIONS),
        shuttling_speed=speed,
        **_SHARED_COHERENCE,
    )


def shuttling_optimised(lattice_rows: int = 15, spacing: float = 3.0,
                        num_atoms: Optional[int] = None,
                        **topology_kwargs) -> NeutralAtomArchitecture:
    """Table 1c column (1): short-range gates, fast and lossless shuttling."""
    return _build("shuttling", r_int=2.0, f_cz=0.994, f_1q=0.995, f_shuttle=1.0,
                  speed=0.55, t_act=20.0, lattice_rows=lattice_rows, spacing=spacing,
                  num_atoms=num_atoms, **topology_kwargs)


def gate_optimised(lattice_rows: int = 15, spacing: float = 3.0,
                   num_atoms: Optional[int] = None,
                   **topology_kwargs) -> NeutralAtomArchitecture:
    """Table 1c column (2): long-range high-fidelity gates, slow lossy shuttling."""
    return _build("gate", r_int=4.5, f_cz=0.9995, f_1q=0.9999, f_shuttle=0.999,
                  speed=0.2, t_act=50.0, lattice_rows=lattice_rows, spacing=spacing,
                  num_atoms=num_atoms, **topology_kwargs)


def mixed(lattice_rows: int = 15, spacing: float = 3.0,
          num_atoms: Optional[int] = None,
          **topology_kwargs) -> NeutralAtomArchitecture:
    """Table 1c column (3): near-term device without a clearly preferred capability."""
    return _build("mixed", lattice_rows=lattice_rows, spacing=spacing,
                  num_atoms=num_atoms, **_MIXED_DEVICE, **topology_kwargs)


def zoned(lattice_rows: int = 15, spacing: float = 3.0,
          num_atoms: Optional[int] = None,
          **topology_kwargs) -> NeutralAtomArchitecture:
    """Multi-zone scenario: the mixed device parameters on a zoned topology.

    Storage bands flank a central entangling band
    (:func:`~repro.hardware.topology.banded_zone_layout`); 2Q+ gates only
    execute in the entangling band and shuttles crossing a zone corridor
    pay ``corridor_transit_um`` (default: one lattice constant) of extra
    travel.  Override ``zone_layout`` / ``corridor_transit_um`` for custom
    band structures.  The preset is zoned by definition — a ``topology``
    override other than ``"zoned"`` is rejected rather than silently
    producing an unzoned device named "zoned".
    """
    requested = topology_kwargs.setdefault("topology", "zoned")
    if requested != "zoned":
        raise ValueError(
            f"the 'zoned' preset requires topology='zoned', got {requested!r}")
    return _build("zoned", lattice_rows=lattice_rows, spacing=spacing,
                  num_atoms=num_atoms, **_MIXED_DEVICE, **topology_kwargs)


def preset(name: str, lattice_rows: int = 15, spacing: float = 3.0,
           num_atoms: Optional[int] = None,
           **topology_kwargs) -> NeutralAtomArchitecture:
    """Instantiate a preset by name (:data:`ALL_PRESET_NAMES`).

    ``topology_kwargs`` (``topology``, ``lattice_cols``, ``spacing_y``,
    ``zone_layout``, ``corridor_transit_um``) forward to
    :func:`~repro.hardware.topology.build_topology`, so e.g.
    ``preset("mixed", topology="zoned")`` runs the mixed device parameters
    on a zoned trap layout.
    """
    factories = {
        "shuttling": shuttling_optimised,
        "gate": gate_optimised,
        "mixed": mixed,
        "zoned": zoned,
    }
    lowered = name.lower()
    if lowered not in factories:
        raise ValueError(
            f"unknown hardware preset {name!r}; choose from {ALL_PRESET_NAMES}")
    return factories[lowered](lattice_rows=lattice_rows, spacing=spacing,
                              num_atoms=num_atoms, **topology_kwargs)
