"""Sweep workload: a cold 20-cell refit sweep, then re-reads of it.

The grid is 5 topologies (dgx1-v100, summit, dgx1-p100,
dgx1-v100-cube-mesh, dgx2) x the paper's 4 policies; each cell replays
the paper's 300-job trace on one server with the Eq. 2 model refit
against the topology (``model="refit"``).  Each sample runs the grid
through a new ``SweepRunner(jobs=2)`` (a new fork worker pool) into an
empty ``ResultStore``, then re-reads the same grid from that store.

Forked workers inherit the parent's ``_refit_model`` and per-worker
scan-cache memos, so this process never simulates a cell itself: every
timed sweep starts with empty refit and scan caches in its workers.
"""

from __future__ import annotations

import gc
import shutil
import tempfile
import time
from typing import Any, Dict, List, Optional

from common import log_digest, median, quantile, same_log, sensitive_exec_p75

TOPOLOGIES = ("dgx1-v100", "summit", "dgx1-p100", "dgx1-v100-cube-mesh", "dgx2")
TRACE_JOBS = 300
WORKERS = 2
#: Re-reads of the stored grid after each cold sweep (over a thousand per
#: run).  Their tail is p90: at 2 ms a re-read, p99 mostly measures the
#: host's scheduling hiccups and moves several-fold between runs.
REREADS = 160
TAIL = 0.90
#: Cold sweeps (each followed by its re-reads) in a traced run.
TRACED_SWEEPS = 1
TRACED_REREADS = 20


class SweepWorkload:
    name = "sweep"
    caches = (
        "result store empty and worker refit/scan memos empty for every "
        "cold sweep (new store, new fork pool; the parent never simulates); "
        "re-reads hit the store the cold sweep filled"
    )

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.digests: Optional[Dict[str, str]] = None
        self.speedup: Dict[str, float] = {}

    def _fail(self, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(why)

    def setup(self) -> None:
        from repro.experiments import runner as runner_module
        from repro.experiments.runner import SweepRunner
        from repro.experiments.spec import ExperimentSpec, TraceSpec
        from repro.experiments.store import ResultStore
        from repro.sim.metrics import speedup_summary

        self._SweepRunner = SweepRunner
        self._parent_memos = (runner_module._refit_model, runner_module._worker_scan_cache)
        self._ResultStore = ResultStore
        self._speedup_summary = speedup_summary
        self.spec = ExperimentSpec(
            name="perfbench-sweep",
            topologies=TOPOLOGIES,
            trace=TraceSpec(num_jobs=TRACE_JOBS, seed=self.seed),
            model="refit",
        )
        self.cells = self.spec.expand()
        # One throwaway sweep of a tiny, different grid: the first pool
        # a process forks pays one-off imports.  Two cells, so the runner
        # ships them to its workers (one cell would run in this process),
        # and the workers' memos die with them.
        warmup = ExperimentSpec(
            name="perfbench-warmup",
            topologies=("dgx1-v100",),
            policies=("baseline", "greedy"),
            trace=TraceSpec(num_jobs=8, seed=self.seed + 1),
            model="paper",
        )
        root = tempfile.mkdtemp(prefix="sweep-warmup-")
        try:
            with SweepRunner(store=ResultStore(root), jobs=WORKERS) as runner:
                out = runner.run(warmup)
                self._release(out)
        finally:
            shutil.rmtree(root, ignore_errors=True)

    @staticmethod
    def _release(outcome) -> None:
        """Drop an outcome's logs before its shared-memory reader."""
        reader = outcome.transport
        outcome.results.clear()
        gc.collect()
        if reader is not None:
            reader.close()

    # ------------------------------------------------------------------ #
    def _sample(self, rereads: int) -> Dict[str, Any]:
        """One cold sweep into an empty store, then ``rereads`` re-reads."""
        root = tempfile.mkdtemp(prefix="sweep-store-")
        try:
            store = self._ResultStore(root)
            if any(memo.cache_info().currsize for memo in self._parent_memos):
                self._fail("this process holds refit/scan memos its workers would inherit")
            with self._SweepRunner(store=store, jobs=WORKERS) as runner:
                gc.collect()
                t0 = time.perf_counter()
                cold = runner.run(self.spec)
                cold_wall = time.perf_counter() - t0
            self.attempted += len(self.cells)
            if cold.num_simulated != len(self.cells):
                self._fail(f"cold sweep served {cold.num_cached} cells from an empty store")
            digests = {c.config_hash(): log_digest(cold.log_for(c)) for c in self.cells}
            if self.digests is None:
                self.digests = digests
                logs = cold.logs(topology="dgx1-v100")
                rows = {r.policy: r for r in self._speedup_summary(logs)}
                self.speedup = {
                    "sim_speedup_p75": rows["preserve"].speedup["75th %"],
                    "sim_speedup_max": rows["preserve"].speedup["MAX"],
                    "sim_exec_p75_s": sensitive_exec_p75(logs["preserve"]),
                }
                del logs
            elif digests != self.digests:
                self._fail("cold sweep cell logs differ between samples")
            # Snapshots copy: the cold logs are views into the workers'
            # shared memory, which is released below.
            columns = {c.config_hash(): cold.log_for(c).to_columns() for c in self.cells}
            self._release(cold)

            reader = self._SweepRunner(store=store, jobs=WORKERS)
            walls: List[float] = []
            hits0 = store.hits
            for _ in range(rereads):
                t0 = time.perf_counter()
                again = reader.run(self.spec)
                walls.append(time.perf_counter() - t0)
                self.attempted += len(self.cells)
                self._check_reread(again, columns)
            reader.close()
            return {
                "cold": cold_wall,
                "rereads": walls,
                "store_hit_ratio": (store.hits - hits0) / (rereads * len(self.cells)),
            }
        finally:
            shutil.rmtree(root, ignore_errors=True)

    def _check_reread(self, outcome, columns) -> None:
        if outcome.num_cached != len(self.cells):
            self._fail(f"re-read simulated {outcome.num_simulated} cells")
            return
        for cell in self.cells:
            if not same_log(columns[cell.config_hash()], outcome.log_for(cell)):
                self._fail(f"re-read log of {cell.label} differs from the cold one")

    # ------------------------------------------------------------------ #
    def measure(self, seconds: float) -> Dict[str, Any]:
        colds: List[float] = []
        rereads: List[float] = []
        deadline = time.perf_counter() + seconds
        while not colds or time.perf_counter() < deadline:
            sample = self._sample(REREADS)
            colds.append(sample["cold"])
            rereads.extend(sample["rereads"])
        return {
            "throughput_per_s": len(self.cells) / median(colds),
            "latency_p50_ms": 1e3 * median(rereads),
            "latency_tail_ms": 1e3 * quantile(rereads, TAIL),
            "cost": median(colds),
            "samples": len(colds),
            "info": {
                "unit": "throughput: cold 20-cell sweep; latency: one re-read of the grid",
                "tail_percentile": 100 * TAIL,
                "cold_sweeps": len(colds),
                "rereads": len(rereads),
                "reread_cells_per_s": len(self.cells) / median(rereads),
                **self.speedup,
            },
        }

    def traced(self, recorder) -> Dict[str, Any]:
        colds: List[float] = []
        ratio = 0.0
        for _ in range(TRACED_SWEEPS):
            recorder.enabled = True
            try:
                sample = self._sample(TRACED_REREADS)
            finally:
                recorder.enabled = False
            colds.append(sample["cold"])
            ratio = sample["store_hit_ratio"]
        rows = recorder.merge_spool()
        counters = {"scan_lookups": 0, "scan_hits": 0,
                    "measured_bw_lookups": 0, "measured_bw_hits": 0}
        for row in rows:
            if row[0] == "experiments.runner.simulate_cell" and row[6]:
                for key, value in zip(counters, row[6]):
                    counters[key] += value
        runs = sorted(
            (r for r in recorder.span_rows() if r[0] == "experiments.runner.run"),
            key=lambda r: r[1],
        )
        cold_run = runs[0]
        return {
            "cost": median(colds),
            "samples": len(colds),
            "counters": counters,
            "extra_rows": rows,
            "experiments.store.hit_ratio": ratio,
            "experiments.runner.pool_wait_ms": (cold_run[2] - cold_run[1] - cold_run[5]) / 1e6,
        }

    def close(self) -> None:
        pass
