#!/usr/bin/env python3
"""Benchmark of the hybrid neutral-atom mapper: one workload, one run.

Run from the repository root::

    python3 perfbench/run.py --workload qft_mixed --seed 1 --seconds 20 --trace 0

Prints a human-readable report, then, as the last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  See
``perfbench/README.md`` for the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space for the serving workload's result stores (removed on exit).
WORK_DIR = ROOT / ".perfbench_work"

WORKLOAD_NAMES = ("qft_mixed", "qft_gate", "reversible_table1", "serve_repeat")
#: Set-up is repeated this often per run (compile workloads); median reported.
SETUP_REPEATS = 25

#: Printed by name and unit in every untraced report but left out of the
#: JSON result: each is 0 on some workload (``failed_ratio`` on a healthy
#: commit, SWAPs where the device has no SWAP work, moves where it has no
#: AOD), and a zero median cannot bound a regression.
REPORT_ONLY = {
    "failed_ratio": "fraction",
    "delta_cz": "count",
    "delta_t_us": "us",
    "num_moves": "count",
    "num_swaps": "count",
}


def declared_metrics():
    """``(end_to_end, per_layer)`` name -> unit maps from ``BENCHMARK.json``."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return tuple({metric["name"]: metric["unit"] for metric in declared[kind]}
                 for kind in ("end_to_end", "per_layer"))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measurement time (default 20)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting per-layer metrics")
    parser.add_argument("--record-digests", action="store_true",
                        help="store this run's compile-workload op-stream "
                             "digests in perfbench/digests.json")
    return parser.parse_args(argv)


def log(line: str) -> None:
    print(line, flush=True)


def run_compile_workload(args):
    """Untraced passes (and, traced, alternating probed passes) until time is up."""
    from repro.service import ARCHITECTURE_CACHE

    from checks import StreamChecker, load_recorded_digests
    from compiling import (build_devices, check_traced_quality,
                           compile_metrics, compile_pass, layer_metrics,
                           quality_metrics)
    from measure import SpeedSampler, median
    from probes import LayerProbe
    from workloads import compile_set

    sampler = SpeedSampler()
    setup_samples = []
    with sampler.timed() as setup:
        for _ in range(SETUP_REPEATS):
            ARCHITECTURE_CACHE.clear()
            tick = time.perf_counter()
            entries = compile_set(args.workload, args.seed)
            devices = build_devices(entries)
            setup_samples.append(time.perf_counter() - tick)

    checker = StreamChecker(log, load_recorded_digests())
    untraced, traced = [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        untraced.append(compile_pass(entries, devices, checker, sampler))
        if args.trace:
            traced.append(compile_pass(entries, devices, checker, sampler,
                                       LayerProbe()))
        if time.perf_counter() >= deadline:
            break
    log(f"{len(untraced)} untraced and {len(traced)} traced passes over "
        f"{len(entries)} compile(s)")

    report_speed(sampler, untraced)
    if args.trace:
        check_traced_quality(checker, traced, untraced)
        return checker, layer_metrics(traced, untraced)
    values = compile_metrics(untraced)
    values.update(quality_metrics(untraced[0].quality))
    # A repetition hit by a speed sample is an outlier the median drops.
    values["setup_s"] = median(setup_samples) * setup.factor
    return checker, values


def run_serve_workload(args):
    """Rounds of (fresh store + server, request stream, direct compile pass)."""
    from repro.service import ARCHITECTURE_CACHE

    from checks import StreamChecker
    from compiling import (build_devices, check_traced_quality,
                           compile_metrics, compile_pass, layer_metrics,
                           quality_metrics)
    from measure import SpeedSampler, median
    from probes import LayerProbe
    from serve import serve_round, serving_layer_metrics, stream_metrics
    from workloads import SERVE_SPEC, Entry, serve_tasks

    state = {}

    def prepare():
        ARCHITECTURE_CACHE.clear()
        ARCHITECTURE_CACHE.get(SERVE_SPEC)
        unique, stream = serve_tasks(args.seed)
        state["entries"] = [
            Entry(f"serve:{task.circuit_name}_{task.num_qubits}@{task.seed}",
                  task.build_circuit(), task.architecture, task.mode,
                  task.alpha)
            for task in unique]
        return stream

    sampler = SpeedSampler()
    checker = StreamChecker(log, {})
    rounds = {False: [], True: []}
    direct = {False: [], True: []}
    deadline = time.perf_counter() + args.seconds
    index = 0
    while True:
        traced = bool(args.trace) and index % 2 == 1
        record = serve_round(prepare, WORK_DIR / f"store-{os.getpid()}-{index}",
                             sampler, traced=traced)
        rounds[traced].append(record)
        entries = state["entries"]
        direct[traced].append(compile_pass(
            entries, build_devices(entries), checker, sampler,
            LayerProbe() if traced else None))
        index += 1
        if time.perf_counter() >= deadline and (not args.trace or index >= 2):
            break
    log(f"{index} serving round(s) of {len(rounds[False][0].latencies)} "
        f"requests, each followed by a direct compile of "
        f"{len(entries)} distinct circuits")
    report_speed(sampler, direct[False])

    # Every served digest must equal the direct compile of the same circuit.
    mismatched = 0
    requests = failed_requests = 0
    for record in rounds[False] + rounds[True]:
        requests += len(record.latencies)
        failed_requests += len(record.failures)
        for failure in record.failures:
            log(f"FAILED request {failure}")
        for task_id, sha in record.digests.items():
            label = entries[int(task_id.split("-")[0])].label
            if checker.digests.get(label) != sha:
                mismatched += 1
                log(f"SERVED DIGEST MISMATCH {task_id} ({label})")
    checker.attempted += requests
    checker.failed += failed_requests
    if mismatched:
        checker.diverged.append(f"{mismatched} served digest(s)")

    if args.trace:
        check_traced_quality(checker, direct[True], direct[False])
        values = layer_metrics(direct[True], direct[False])
        values.update(serving_layer_metrics(rounds[True]))
        return checker, values
    values = compile_metrics(direct[False])
    values.update(stream_metrics(rounds[False]))
    values.update(quality_metrics(direct[False][0].quality))
    values["setup_s"] = median([record.setup_s for record in rounds[False]])
    return checker, values


def report_speed(sampler, runs) -> None:
    """Log host speed and raw (unscaled) compile times, for the reader."""
    from measure import REFERENCE_LOOP_S, summarise

    speed = summarise(sampler.readings)
    raw = summarise([run.raw_wall for run in runs])
    log(f"host speed: calibration loop median {speed['median'] * 1e3:.2f} ms "
        f"(q1 {speed['q1'] * 1e3:.2f}, q3 {speed['q3'] * 1e3:.2f}, "
        f"reference {REFERENCE_LOOP_S * 1e3:.2f}); raw compile pass median "
        f"{raw['median']:.4f} s over {raw['n']} pass(es)")


def record_digests(checker) -> None:
    from checks import DIGESTS_PATH, load_recorded_digests

    recorded = load_recorded_digests()
    recorded.update({label: sha for label, sha in checker.digests.items()
                     if not label.startswith("serve:")})
    DIGESTS_PATH.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    log(f"recorded {len(checker.digests)} digest(s) in {DIGESTS_PATH.name}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program sources not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from measure import peak_rss_mb
    end_to_end, per_layer = declared_metrics()

    log(f"perfbench workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace} cpus={os.cpu_count()}")
    try:
        if args.workload == "serve_repeat":
            checker, values = run_serve_workload(args)
        else:
            checker, values = run_compile_workload(args)
            if args.trace:
                from serve import SERVING_LAYER_METRICS
                values.update(dict.fromkeys(SERVING_LAYER_METRICS, 0))
    finally:
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass
    if args.trace:
        log("traced and untraced op-stream digests and quality: "
            + ("identical" if not checker.diverged else "DIFFERENT"))
    if args.record_digests:
        record_digests(checker)

    values["peak_rss_mb"] = peak_rss_mb()
    values["failed_ratio"] = checker.failed / max(checker.attempted, 1)
    if checker.recorded_mismatches:
        log(f"WARNING: {len(checker.recorded_mismatches)} op stream(s) differ "
            f"from perfbench/digests.json (not counted as failures)")
    reported = per_layer if args.trace else end_to_end
    shown = reported if args.trace else {**end_to_end, **REPORT_ONLY}
    for name, unit in shown.items():
        log(f"  {name:36s} {values[name]:>16.6f} {unit}")
    print(json.dumps({
        "correct": checker.correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
