"""Large-circuit streaming-stitcher memory smoke.

Drains a 1000+-qubit synthetic circuit (at ``--scale`` 0.6, the default)
through the chained sharded stream with ``retain=False`` while an
incremental :class:`StreamValidator` replays every yielded operation.  The
run fails (non-zero exit) if

* the stream replays illegally or is incomplete,
* ``retain=False`` still builds a whole-circuit result, or
* the process peak RSS blows ``--max-rss-mb`` — the bounded-memory claim
  the streaming path exists to make.

CI runs this inside the shard-differential job; the JSON summary
(``--out``) is uploaded as an artifact so a red run ships its numbers.

Usage::

    PYTHONPATH=src python benchmarks/stream_memory_smoke.py \
        --scale 0.6 --max-rss-mb 768 --out stream-memory-smoke.json
"""

from __future__ import annotations

import argparse
import json
import sys

from perf_report import local_window_workload, peak_rss_mb

from repro.mapping import MapperConfig, ShardedRouter, StreamValidator


def run_smoke(scale: float) -> dict:
    architecture, connectivity, circuit = local_window_workload(scale)
    config = MapperConfig.sharded(shard_min_slice=48)
    router = ShardedRouter(architecture, config, connectivity=connectivity)
    stream = router.stream(circuit, retain=False)
    if stream is None:
        return {"error": "circuit did not partition into multiple slices"}

    validator = StreamValidator(circuit, architecture,
                                stream.initial_qubit_map,
                                stream.initial_atom_map,
                                connectivity=connectivity)
    num_ops = 0
    for op in stream:
        validator.check(op)
        num_ops += 1
    violations = validator.finish(stream.final_qubit_map,
                                  stream.final_atom_map)

    stats = stream.stats
    return {
        "scale": scale,
        "num_qubits": circuit.num_qubits,
        "num_gates": len(circuit),
        "num_atoms": architecture.num_atoms,
        "num_ops": num_ops,
        "num_slices": stats["num_slices"],
        "tree_depth": stats["tree_depth"],
        "result_retained": stream.result is not None,
        "replay_violations": violations[:10],
        "peak_rss_mb": peak_rss_mb(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.6,
                        help="workload scale; 0.6 = ~1024 qubits (default)")
    parser.add_argument("--max-rss-mb", type=float, default=768.0,
                        help="peak-RSS ceiling in MiB (default 768)")
    parser.add_argument("--out", default=None,
                        help="write the JSON summary to this path")
    args = parser.parse_args(argv)

    summary = run_smoke(args.scale)
    failures = []
    if "error" in summary:
        failures.append(summary["error"])
    else:
        if summary["replay_violations"]:
            failures.append(
                f"stream replay violations: {summary['replay_violations']}")
        if summary["result_retained"]:
            failures.append("retain=False still built a MappingResult")
        rss = summary["peak_rss_mb"]
        if rss is None:
            failures.append("resource module unavailable; peak RSS unknown")
        elif rss > args.max_rss_mb:
            failures.append(
                f"peak RSS {rss} MiB exceeds the {args.max_rss_mb} MiB cap")
    summary["failures"] = failures

    text = json.dumps(summary, indent=2, sort_keys=True)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
