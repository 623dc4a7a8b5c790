"""Shared case matrix and digest computation for the golden op-stream tests.

The golden digests pin the exact operation stream the mapper emits for a
small, fixed configuration of the paper's benchmarks, and the schedules and
Table 1a metrics derived from it: a SHA-256 over every scheduled operation
of the reference and the mapped schedule, plus the exact ``delta_cz``,
``delta_t_us`` and ``delta_fidelity``.  Any routing, scheduling or
evaluation change that shifts them — an intentional algorithm change or an
accidental cache bug — fails the comparison loudly instead of silently
altering results.  Regenerate intentionally shifted digests with::

    PYTHONPATH=src python tests/golden/regenerate.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Tuple

from repro.circuit import decompose_mcx_to_mcz
from repro.circuit.library import get_benchmark
from repro.evaluation import metrics_from_schedules
from repro.hardware import SiteConnectivity
from repro.hardware.presets import preset
from repro.mapping import HybridMapper, MapperConfig
from repro.scheduling import Schedule, Scheduler

SCHEMA = "repro-golden-opstream/v2"
DIGEST_PATH = Path(__file__).resolve().parent / "golden_digests.json"

#: Small-scale golden matrix: qft, graph and qpe on all three hardware
#: presets in hybrid mode, plus the reversible networks bn, call and gray —
#: the only benchmarks with gates on three or more qubits, so the only ones
#: that pin the multi-qubit position search — in gate-only and hybrid mode
#: on the gate and mixed presets.  qft, graph and qpe also run hybrid on the
#: zoned preset, the only device whose storage traps force anchor
#: relocations into the entangling zone.  Small enough to map in well under
#: a second each, large enough that both SWAPs and shuttling moves appear.
CASES = [
    {"circuit": "qft", "num_qubits": 12, "hardware": hardware,
     "mode": "hybrid", "lattice_rows": 7, "num_atoms": 30, "seed": 2024}
    for hardware in ("gate", "mixed", "shuttling")
] + [
    {"circuit": "graph", "num_qubits": 14, "hardware": hardware,
     "mode": "hybrid", "lattice_rows": 7, "num_atoms": 30, "seed": 2024}
    for hardware in ("gate", "mixed", "shuttling")
] + [
    {"circuit": "qpe", "num_qubits": 10, "hardware": hardware,
     "mode": "hybrid", "lattice_rows": 7, "num_atoms": 30, "seed": 2024}
    for hardware in ("gate", "mixed", "shuttling")
] + [
    {"circuit": circuit, "num_qubits": num_qubits, "hardware": hardware,
     "mode": mode, "lattice_rows": 7, "num_atoms": 30, "seed": 2024}
    for circuit, num_qubits in (("bn", 24), ("call", 16), ("gray", 20))
    for hardware in ("gate", "mixed")
    for mode in ("gate_only", "hybrid")
] + [
    {"circuit": circuit, "num_qubits": num_qubits, "hardware": "zoned",
     "mode": "hybrid", "lattice_rows": 9, "num_atoms": 24, "seed": 2024}
    for circuit, num_qubits in (("qft", 10), ("graph", 12), ("qpe", 8))
]


def case_key(case: Dict) -> str:
    return f"{case['hardware']}/{case['circuit']}-{case['num_qubits']}/{case['mode']}"


#: Op-stream fields of a golden entry.
OP_STREAM_FIELDS = ("sha256", "num_operations", "num_gates", "num_swaps",
                    "num_moves")
#: Schedule and metric fields of a golden entry (schema v2).
SCHEDULE_FIELDS = ("schedule_sha256", "delta_cz", "delta_t_us",
                   "delta_fidelity")
DIGEST_FIELDS = OP_STREAM_FIELDS + SCHEDULE_FIELDS


def schedule_sha256(reference: Schedule, mapped: Schedule) -> str:
    """SHA-256 over every operation of both schedules, floats exact."""
    lines = []
    for label, schedule in (("reference", reference), ("mapped", mapped)):
        lines.append(f"{label} {len(schedule)}")
        lines.extend(json.dumps([op.kind, op.name, op.start, op.duration,
                                 op.atoms, op.sites, op.fidelity])
                     for op in schedule)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def compile_case(case: Dict) -> Tuple:
    """Map and schedule one golden case.

    Returns ``(architecture, circuit, result, reference, mapped)``: the
    native input circuit, its mapping result and the two schedules.
    """
    architecture = preset(case["hardware"], lattice_rows=case["lattice_rows"],
                          num_atoms=case["num_atoms"])
    connectivity = SiteConnectivity(architecture)
    circuit = decompose_mcx_to_mcz(
        get_benchmark(case["circuit"], num_qubits=case["num_qubits"],
                      seed=case["seed"]))
    mapper = HybridMapper(architecture, MapperConfig.for_mode(case["mode"]),
                          connectivity=connectivity)
    result = mapper.map(circuit)
    scheduler = Scheduler(architecture, connectivity=connectivity)
    return (architecture, circuit, result, scheduler.schedule_circuit(circuit),
            scheduler.schedule_result(result))


def compute_digest(case: Dict) -> Dict:
    """Map and schedule one golden case; return its digest fields."""
    architecture, circuit, result, reference, mapped = compile_case(case)
    metrics = metrics_from_schedules(circuit, result, architecture,
                                     reference, mapped)
    return {**result.op_stream_digest(),
            "schedule_sha256": schedule_sha256(reference, mapped),
            "delta_cz": metrics.delta_cz,
            "delta_t_us": metrics.delta_t_us,
            "delta_fidelity": metrics.delta_fidelity}


def compute_all() -> List[Dict]:
    """Digest every golden case, annotated with its configuration."""
    entries = []
    for case in CASES:
        digest = compute_digest(case)
        entries.append({**case, **digest})
    return entries


def load_committed() -> Dict:
    return json.loads(DIGEST_PATH.read_text())
