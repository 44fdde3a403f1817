"""Fleet replay workloads: ``replay-cold`` and ``replay-warm``.

Both replay the fleet-scale scenario (64 servers: 40 DGX-1V, 16 DGX-1P,
8 DGX-2; 10k ``paper_mix`` jobs with bursty MMPP arrivals) under the
preserve policy with first-fit placement, through the public
``run_cluster`` entry point.

* ``replay-cold``: every replay gets a fresh ``ScanCache`` (so a fresh
  scheduler, decision memo and simulation core).  Set-up runs one
  replay first, so process-wide memos (the measured-bandwidth
  ``lru_cache``, pattern and candidate memos) are warm, as they are in
  any process that has replayed before.  Exercises the scan, Eq. 2
  scoring and measured-bandwidth layers.
* ``replay-warm``: every replay shares the ``ScanCache`` that set-up's
  replay filled, so the first-fit decision memo answers every
  placement and the scan layer is bypassed: wall time is the event
  loop, the log and the candidate index.
"""

from __future__ import annotations

import gc
import json
import os
import time
from typing import Any, Dict, List

from common import log_digest, median, quantile, same_log, sensitive_exec_p75

NUM_SERVERS = 64
NUM_JOBS = 10_000

#: The seed whose digest the repository commits for this scenario.
COMMITTED_SEED = 2021
COMMITTED_DIGEST_FILE = os.path.join("benchmarks", "BENCH_fleet_columnar.json")

#: Tail percentile of replay walls: a run holds tens of replays, so p90
#: is the highest percentile with samples beyond it.
TAIL = 0.90

#: Replays timed with the recorder on, per traced run.
TRACED_REPLAYS = {"replay-cold": 2, "replay-warm": 3}


def fleet_scenario(seed: int):
    """The fleet's servers and the seeded 10k-job trace replayed on it."""
    from repro.scenarios import MMPPArrivals, ScenarioSpec, mixed_fleet, paper_mix

    fleet = mixed_fleet(NUM_SERVERS)
    scenario = ScenarioSpec(
        num_jobs=NUM_JOBS,
        seed=seed,
        arrival=MMPPArrivals(
            quiet_rate=1.0, burst_rate=20.0, quiet_dwell=300.0, burst_dwell=60.0
        ),
        mix=paper_mix(),
        name="fleet-scale",
    )
    return fleet.build(), scenario.resolve(fleet.min_gpus_per_server()).build()


class ReplayWorkload:
    """One fleet, one trace, replayed cold or warm."""

    def __init__(self, name: str, seed: int, repo_root: str) -> None:
        self.name = name
        self.warm = name == "replay-warm"
        self.seed = seed
        self.repo_root = repo_root
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    @property
    def caches(self) -> str:
        if self.warm:
            return (
                "scan cache and decision memo warm (filled by set-up's "
                "replay); simulation core and measured-BW memo fresh per replay"
            )
        return (
            "scan cache, decision memo, scheduler and core fresh (empty) "
            "per replay; process-wide memos warmed once in set-up"
        )

    # ------------------------------------------------------------------ #
    def setup(self) -> None:
        from repro.cluster import run_cluster
        from repro.scoring.memo import ScanCache

        self._run_cluster = run_cluster
        self._ScanCache = ScanCache
        self.servers, self.job_file = fleet_scenario(self.seed)
        # The batch engine is the uncached reference every replay must
        # reproduce byte for byte.
        reference = run_cluster(
            self.servers, self.job_file, gpu_policy="preserve", engine="batch"
        )
        self.reference_digest = log_digest(reference.log)
        self.reference = reference.log.to_columns()
        self.sim_exec_p75_s = sensitive_exec_p75(reference.log)
        self.makespan_s = reference.log.makespan
        del reference
        if self.seed == COMMITTED_SEED:
            path = os.path.join(self.repo_root, COMMITTED_DIGEST_FILE)
            with open(path, "r", encoding="utf-8") as fh:
                committed = json.load(fh)["log_digest"]
            if committed != self.reference_digest:
                self._fail("batch reference digest differs from the committed one")
        # Warms the process-wide memos; for replay-warm it also fills
        # the scan cache every timed replay shares.
        self.warm_cache = ScanCache()
        self._replay(self.warm_cache)

    def _fail(self, why: str) -> None:
        self.failed += 1
        self.failures.append(why)

    def _replay(self, cache) -> Dict[str, Any]:
        """One checked replay; returns its wall time and counters."""
        gc.collect()
        t0 = time.perf_counter()
        sim = self._run_cluster(
            self.servers, self.job_file, gpu_policy="preserve", scan_cache=cache
        )
        wall = time.perf_counter() - t0
        self.attempted += 1
        try:
            sim.scheduler.check_index()
        except AssertionError as exc:
            self._fail(f"candidate index drifted: {exc}")
        if not same_log(self.reference, sim.log):
            self._fail("replay log differs from the batch reference")
        return {"wall": wall, "stats": dict(sim.log.cache_stats or {})}

    def _cache(self):
        return self.warm_cache if self.warm else self._ScanCache()

    # ------------------------------------------------------------------ #
    def measure(self, seconds: float) -> Dict[str, Any]:
        walls: List[float] = []
        lookups = 0
        deadline = time.perf_counter() + seconds
        while not walls or time.perf_counter() < deadline:
            run = self._replay(self._cache())
            walls.append(run["wall"])
            lookups += run["stats"].get("scan_lookups", 0)
        return {
            "throughput_per_s": NUM_JOBS / median(walls),
            "latency_p50_ms": 1e3 * median(walls),
            "latency_tail_ms": 1e3 * quantile(walls, TAIL),
            "cost": median(walls),
            "samples": len(walls),
            "info": {
                "unit": "one 10k-job replay",
                "tail_percentile": 100 * TAIL,
                "replays": len(walls),
                "scan_lookups_per_replay": lookups / len(walls),
                "sim_exec_p75_s": self.sim_exec_p75_s,
                "sim_makespan_s": self.makespan_s,
                "log_digest": self.reference_digest,
            },
        }

    def traced(self, recorder) -> Dict[str, Any]:
        walls: List[float] = []
        totals: Dict[str, float] = {}
        for _ in range(TRACED_REPLAYS[self.name]):
            recorder.enabled = True
            try:
                run = self._replay(self._cache())
            finally:
                recorder.enabled = False
            walls.append(run["wall"])
            for key, value in run["stats"].items():
                totals[key] = totals.get(key, 0) + value
        return {
            "cost": median(walls),
            "samples": len(walls),
            "counters": {
                "scan_lookups": totals.get("scan_lookups", 0),
                "scan_hits": totals.get("scan_hits", 0),
                "measured_bw_lookups": totals.get("measured_bw_lookups", 0),
                "measured_bw_hits": totals.get("measured_bw_hits", 0),
            },
        }

    def close(self) -> None:
        pass
