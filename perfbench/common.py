"""Helpers shared by the workloads: statistics, memory, host, digests."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import sys
from typing import Any, Dict, List, Sequence


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile (numpy's default convention)."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


def peak_rss_mib() -> float:
    """Peak resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def host_info() -> Dict[str, Any]:
    """What the numbers were measured on."""
    import numpy

    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        cpus = os.cpu_count() or 1
    return {
        "nproc": cpus,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": sys.platform,
    }


def host_loop_ms() -> float:
    """Median time of a fixed pure-Python loop: how fast the host ran.

    Printed beside the results so runs on a slowed host can be told
    apart; it is not used in any metric.
    """
    import time

    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i
        times.append(1e3 * (time.perf_counter() - t0))
    return median(times)


def log_digest(log) -> str:
    """SHA-256 of a log's canonical JSON (the committed-digest form).

    Streamed through the encoder, so no multi-megabyte string is built.
    """
    digest = hashlib.sha256()
    for chunk in json.JSONEncoder(sort_keys=True).iterencode(log.to_dict()):
        digest.update(chunk.encode("utf-8"))
    return digest.hexdigest()


def same_log(columns, log) -> bool:
    """Whether ``log`` equals the log ``columns`` was snapshotted from.

    ``SimulationLog.to_columns`` keeps everything ``to_dict`` is built
    from, so equal snapshots mean byte-identical canonical JSON.
    """
    import numpy as np

    other = log.to_columns()
    return (
        (columns.policy, columns.topology, columns.num_records,
         columns.workload_names, columns.pattern_names)
        == (other.policy, other.topology, other.num_records,
            other.workload_names, other.pattern_names)
        and columns.arrays.keys() == other.arrays.keys()
        and all(np.array_equal(v, other.arrays[k]) for k, v in columns.arrays.items())
    )


def sensitive_exec_p75(log) -> float:
    """Simulated p75 execution time (s) of bandwidth-sensitive jobs."""
    cols = log.numeric_columns()
    mask = cols["bandwidth_sensitive"]
    times = (cols["finish_time"] - cols["start_time"])[mask]
    return quantile(times.tolist(), 0.75) if times.size else 0.0


def latency_summary(latencies_ms: List[float]) -> Dict[str, float]:
    """p50 / p99 / max / count of one latency sample."""
    return {
        "p50": quantile(latencies_ms, 0.5),
        "p99": quantile(latencies_ms, 0.99),
        "max": max(latencies_ms),
        "n": len(latencies_ms),
    }
