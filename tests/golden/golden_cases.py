"""Shared case matrix and digest computation for the golden op-stream tests.

The golden digests pin the exact operation stream the mapper emits for a
small, fixed configuration of the paper's benchmarks.  Any routing change
that shifts the stream — an intentional algorithm change or an accidental
cache bug — fails the comparison loudly instead of silently altering
results.  Regenerate intentionally shifted digests with::

    PYTHONPATH=src python tests/golden/regenerate.py
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List

from repro.circuit import decompose_mcx_to_mcz
from repro.circuit.library import get_benchmark
from repro.hardware import SiteConnectivity
from repro.hardware.presets import preset
from repro.mapping import HybridMapper, MapperConfig

SCHEMA = "repro-golden-opstream/v1"
DIGEST_PATH = Path(__file__).resolve().parent / "golden_digests.json"

#: Small-scale golden matrix: qft, graph and qpe on all three hardware
#: presets in hybrid mode, plus the reversible networks bn, call and gray —
#: the only benchmarks with gates on three or more qubits, so the only ones
#: that pin the multi-qubit position search — in gate-only and hybrid mode
#: on the gate and mixed presets.  Small enough to map in well under a
#: second each, large enough that both SWAPs and shuttling moves appear.
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
]


def case_key(case: Dict) -> str:
    return f"{case['hardware']}/{case['circuit']}-{case['num_qubits']}/{case['mode']}"


def compute_digest(case: Dict) -> Dict:
    """Map one golden case and return its op-stream digest."""
    architecture = preset(case["hardware"], lattice_rows=case["lattice_rows"],
                          num_atoms=case["num_atoms"])
    connectivity = SiteConnectivity(architecture)
    circuit = decompose_mcx_to_mcz(
        get_benchmark(case["circuit"], num_qubits=case["num_qubits"],
                      seed=case["seed"]))
    mapper = HybridMapper(architecture, MapperConfig.for_mode(case["mode"]),
                          connectivity=connectivity)
    result = mapper.map(circuit)
    return result.op_stream_digest()


def compute_all() -> List[Dict]:
    """Digest every golden case, annotated with its configuration."""
    entries = []
    for case in CASES:
        digest = compute_digest(case)
        entries.append({**case, **digest})
    return entries


def load_committed() -> Dict:
    return json.loads(DIGEST_PATH.read_text())
