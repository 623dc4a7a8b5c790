"""Literal pins of sharded op streams.

The shard differential (``tests/differential/test_differential_shard.py``)
only bounds sharded metrics against the serial mapper; the goldens under
``tests/golden/`` pin serial streams only.  This module pins the sharded
stream itself — its op-stream digest and the partition that produced it
(slice count, slice sizes, partition-tree depth) — so a change to the
partitioner or the slice chaining that moves any sharded stream fails here.
A deliberate change re-records the table below.
"""

from __future__ import annotations

import pytest

from repro.circuit.library import get_benchmark
from repro.circuit.library.random_circuits import random_layered_circuit
from repro.hardware.presets import preset
from repro.mapping import HybridMapper, MapperConfig

ARCHITECTURES = {
    "mixed": lambda: preset("mixed", lattice_rows=7, num_atoms=30),
    "shuttling": lambda: preset("shuttling", lattice_rows=7, num_atoms=30),
    "zoned": lambda: preset("zoned", lattice_rows=9, num_atoms=30),
}

CIRCUITS = {
    "layered": lambda: random_layered_circuit(16, 10, seed=7),
    "qft20": lambda: get_benchmark("qft", num_qubits=20),
}

_LAYERED_12 = [12, 28, 29, 28, 29, 28, 29, 28, 29]
_LAYERED_24 = [60, 60, 60, 60]
_QFT20_12 = [12, 45, 17, 16, 15, 14, 13, 12, 21, 17, 13, 15]
_QFT20_24 = [90, 29, 36, 27, 28]

#: (hardware, circuit, shard_min_slice) ->
#: (sha256, num_operations, num_moves, num_slices, slice_sizes, tree_depth).
#: Every case routes without SWAPs; the layered circuit has 240 gates and
#: qft-20 has 210.
PINS = {
    ("mixed", "layered", 12): (
        "d578c3b525a51edf9129cce33eceda7ce1710dd0ebcedb6c486d053649fd16fa",
        292, 52, 9, _LAYERED_12, 5),
    ("mixed", "layered", 24): (
        "941b0d920b68d7cad6e215d1eec8999625c34342319b11193caa78abb603e0ae",
        277, 37, 4, _LAYERED_24, 3),
    ("mixed", "qft20", 12): (
        "5f08ad4a4eb63d5d94886b9e9cbd4561efbd8d4e8126d2dd02e8c9cbce86cebe",
        257, 47, 12, _QFT20_12, 12),
    ("mixed", "qft20", 24): (
        "ce3b65acd7cb24fe7f32fd82f1d0ff66e916bd77bb231282aceb66b4c311d0ce",
        264, 54, 5, _QFT20_24, 5),
    ("shuttling", "layered", 12): (
        "f05eaaa68ba1bd42d25a8adfc488cc28db4ee0958faca5b86e5609ec30f92ffa",
        305, 65, 9, _LAYERED_12, 5),
    ("shuttling", "layered", 24): (
        "f96965cf37d54d8482a63fd45bc80d8a7f002388540f4465e1239ecba4d8f808",
        294, 54, 4, _LAYERED_24, 3),
    ("shuttling", "qft20", 12): (
        "f6d1bdfdbada1f3ec40253a4dd36cc75b3cf1a54df5dc988f04610a560909912",
        306, 96, 12, _QFT20_12, 12),
    ("shuttling", "qft20", 24): (
        "909742ecbb9ca24b8ae3811fb97718ba7aae674eb32431f08e7ab30c6991678b",
        308, 98, 5, _QFT20_24, 5),
    ("zoned", "layered", 12): (
        "c037b623d046834c845b19e839476dadea4347e317e838edefead50cbfccca16",
        280, 40, 9, _LAYERED_12, 5),
    ("zoned", "layered", 24): (
        "3c7840af1211353d43fa39795ddd94208b972f0dc3a919a30fd6dd847f60d6cc",
        275, 35, 4, _LAYERED_24, 3),
    ("zoned", "qft20", 12): (
        "9a1592853f9c9e8120b7f4926ff6eff64be566e82eeab9f56ff3b04c7be67b2a",
        269, 59, 12, _QFT20_12, 12),
    ("zoned", "qft20", 24): (
        "4dca6fd72be586e6c19617a68dc9425421e6b08800b3883f93d8a2911ddccd05",
        277, 67, 5, _QFT20_24, 5),
}


@pytest.mark.parametrize("hardware, circuit_name, min_slice", sorted(PINS))
def test_sharded_stream_is_pinned(hardware, circuit_name, min_slice):
    sha256, num_operations, num_moves, num_slices, slice_sizes, depth = \
        PINS[(hardware, circuit_name, min_slice)]
    circuit = CIRCUITS[circuit_name]()
    result = HybridMapper(
        ARCHITECTURES[hardware](),
        MapperConfig.sharded(shard_min_slice=min_slice)).map(circuit)
    assert result.op_stream_digest() == {
        "sha256": sha256,
        "num_operations": num_operations,
        "num_gates": len(circuit),
        "num_swaps": 0,
        "num_moves": num_moves,
    }
    stats = result.shard_stats
    assert stats["num_slices"] == num_slices
    assert stats["slice_sizes"] == slice_sizes
    assert stats["tree_depth"] == depth
