"""The repository benchmark: one workload per invocation.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The program under test is imported from
``src/`` of the same checkout; nothing under ``src/`` is modified.

``--trace 0`` measures for ``--seconds`` and prints every end-to-end
metric.  ``--trace 1`` measures half the time untraced, then runs a
fixed number of samples with every layer boundary wrapped (see
``tracing.py``), prints the per-layer metrics and writes
``perfbench/out/<workload>.trace.json`` (Chrome trace-event format; open
it in https://ui.perfetto.dev) and ``<workload>.layers.txt``, a
per-layer table, beside it.  The last line of standard output is always the result
object; the line before it records the host, seed, the workload's
reason for existing and which caches started empty.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from typing import Dict, List  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(REPO, "src"))

from common import host_info, host_loop_ms, median, peak_rss_mib  # noqa: E402

#: The benchmark's declaration: workloads (with why each exists) and
#: every metric's name and unit.  This file computes; that one names.
with open(os.path.join(REPO, "BENCHMARK.json"), "r", encoding="utf-8") as _fh:
    DECLARED = json.load(_fh)
WORKLOADS = {w["name"]: w["why"] for w in DECLARED["workloads"]}

#: Set-up is repeated in fresh child processes: at least this many ...
MIN_SETUP_CHILDREN = 2
#: ... and more while they have taken less than this (cheap set-ups get
#: more samples), up to MAX_SETUP_CHILDREN.
SETUP_CHILD_BUDGET_S = 4.0
MAX_SETUP_CHILDREN = 6

#: Layers reported as calls / busy_ms / self_ms ...
_TRACED_FUNCTIONS = (
    "sim.core.run",
    "sim.records.append_fields",
    "cluster.scheduler.try_place",
    "cluster.scheduler.release",
    "allocator.mapa.try_allocate",
    "policies.allocate",
    "policies.scan.batch_scan",
    "comm.microbench.peak_effective_bandwidth",
    "scoring.regression.fit_for_hardware",
    "experiments.runner.simulate_cell",
    "experiments.transport.materialize",
    "experiments.store.load",
    "sim.records.decode_mlog",
    "serve.protocol.from_payload",
    "serve.daemon.metrics_snapshot",
)
#: ... and as calls / busy_ms / bytes.
_BYTES_FUNCTIONS = (
    "experiments.transport.pack_result",
    "experiments.store.save_payload",
)


def make_workload(name: str, seed: int):
    if name == "sweep":
        from sweep import SweepWorkload

        return SweepWorkload(seed)
    if name == "serve":
        from serve import ServeWorkload

        return ServeWorkload(seed)
    from replay import ReplayWorkload

    return ReplayWorkload(name, seed, REPO)


def child_setup_seconds(workload: str, seed: int) -> float:
    """Set-up time of one fresh process (imports included)."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=REPO, capture_output=True, text=True, timeout=150, check=True,
    )
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def per_layer_metrics(workload, recorder, untraced_cost: float) -> Dict[str, float]:
    """Run the traced samples and derive every per-layer metric."""
    from tracing import aggregate, layer_table, patch_call_sites, write_chrome_trace

    patch_call_sites(recorder)
    try:
        traced = workload.traced(recorder)
    finally:
        recorder.unpatch()
    rows = list(recorder.span_rows()) + traced.get("extra_rows", [])
    agg = aggregate(rows)
    # Layers a workload never reaches report 0.
    values: Dict[str, float] = {}
    for fn in _TRACED_FUNCTIONS:
        for field in ("calls", "busy_ms", "self_ms"):
            values[f"{fn}.{field}"] = agg[fn][field] if fn in agg else 0
    for fn in _BYTES_FUNCTIONS:
        for field in ("calls", "busy_ms", "bytes"):
            values[f"{fn}.{field}"] = agg[fn][field] if fn in agg else 0
    placements = agg.get("cluster.scheduler.try_place", {}).get("ok", 0)
    allocated = agg.get("allocator.mapa.try_allocate", {}).get("ok", 0)
    values["cluster.scheduler.placements"] = placements
    values["cluster.scheduler.decision_memo_ratio"] = (
        (placements - allocated) / placements if placements else 0.0
    )
    counters = traced.get("counters", {})
    lookups = counters.get("scan_lookups", 0)
    values["scoring.memo.lookups"] = lookups
    values["scoring.memo.hit_ratio"] = counters["scan_hits"] / lookups if lookups else 0.0
    mbw = counters.get("measured_bw_lookups", 0)
    values["sim.core.measured_bw_lookups"] = mbw
    values["sim.core.measured_bw_hit_ratio"] = (
        counters["measured_bw_hits"] / mbw if mbw else 0.0
    )
    for key in (
        "experiments.runner.pool_wait_ms",
        "experiments.store.hit_ratio",
        "serve.daemon.dispatches",
        "serve.daemon.dispatch_batch_mean",
        "serve.queue_wait_ms",
        "loadgen.late_ms_max",
    ):
        values[key] = traced.get(key, 0.0)
    values["trace.samples"] = traced["samples"]
    values["trace.spans"] = len(rows)
    values["trace.overhead_pct"] = 100.0 * (traced["cost"] - untraced_cost) / untraced_cost

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, workload.name)
    write_chrome_trace(f"{stem}.trace.json", rows)
    with open(f"{stem}.layers.txt", "w", encoding="utf-8") as fh:
        fh.write(layer_table(agg) + "\n")
    return values


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    # Everything the program writes through tempfile stays in the checkout.
    os.makedirs(OUT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"tmp-{os.getpid()}-", dir=OUT)
    tempfile.tempdir = scratch
    os.environ["TMPDIR"] = scratch
    recorder = None
    if args.trace:
        from tracing import Recorder

        recorder = Recorder()
        recorder.spool = scratch
    workload = make_workload(args.workload, args.seed)
    try:
        workload.setup()
        setup_s = time.perf_counter() - _T_START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        children: List[float] = []
        while len(children) < MIN_SETUP_CHILDREN or (
            sum(children) < SETUP_CHILD_BUDGET_S and len(children) < MAX_SETUP_CHILDREN
        ):
            children.append(child_setup_seconds(args.workload, args.seed))
        setups = [setup_s] + children
        measure_s = args.seconds / 2 if args.trace else args.seconds
        result = workload.measure(measure_s)
        if args.trace:
            values = per_layer_metrics(workload, recorder, result["cost"])
            declared = DECLARED["per_layer"]
        else:
            values = {
                "setup_s": median(setups),
                "throughput_per_s": result["throughput_per_s"],
            }
            declared = DECLARED["end_to_end"]
        metrics = {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared
        }
    finally:
        workload.close()
        shutil.rmtree(scratch, ignore_errors=True)

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "why": WORKLOADS[args.workload],
        "caches": workload.caches,
        "host": dict(host_info(), loop_ms=host_loop_ms()),
        "setup_samples_s": setups,
        "peak_rss_mib": peak_rss_mib(),
        "samples": result["samples"],
        "latency_p50_ms": result["latency_p50_ms"],
        "latency_tail_ms": result["latency_tail_ms"],
        "failures": workload.failures[:10],
        **result["info"],
    }
    print(json.dumps({"perfbench": info}, sort_keys=True))
    print(json.dumps({
        "correct": workload.failed == 0,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
