"""Serve workload: an open-loop client against an in-process daemon.

The daemon (``start_daemon_thread``) hosts ``SERVE_BENCH_FLEET`` (40
DGX-1V + 16 DGX-1P + 8 DGX-2) with the preserve policy and first-fit
placement.  Set-up fills its spill tier with the scan winners of one
10k-job fleet replay on the same wirings, so the daemon boots on the
warm-restart path with a tier of about 2.6k entries.

Load is an open loop over one connection from one thread: ops leave on
a precomputed timetable whether or not replies have come back.  Each
job's release is sent a fixed number of submits after its submit; a
``query`` and a ``stats`` scrape are interleaved at fixed submit
intervals.  The only op that looks at replies is ``query``, whose
target is the newest job whose placement has been answered and whose
release has not yet been sent, so its answer is known in advance.
Latency is measured from each op's *due* time, so a stall also charges
the ops queued behind it.

One connection's ops are dispatched in order and submits never wait
(``wait=False``), so every submit/release reply is fixed by the op
sequence.  Before a segment is sent, the same ops are applied to a
``MultiServerScheduler`` of its own; each reply is compared with that
answer as it arrives and then dropped, so the client holds no replies.
"""

from __future__ import annotations

import dataclasses
import gc
import itertools
import json
import os
import selectors
import shutil
import socket
import tempfile
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from common import latency_summary, median, quantile
from replay import fleet_scenario

#: Submits between a job's submit and its release.  Fewer than the 64
#: servers, so some server is always idle and no submit can miss.
RELEASE_LAG = 48
#: A ``query`` follows every 12th submit and a ``stats`` scrape every
#: 100th (about one op in 25 and one in 200).  Each scrape stalls the
#: daemon's loop; this often, the ops queued behind the stalls are well
#: over 1% of all ops, so p99 sits inside the stall, not at its edge.
QUERY_EVERY = 12
STATS_EVERY = 100
#: Offered rate of the two latency segments (ops/s), far below the knee:
#: one without ``stats`` scrapes (its p50 is the dispatch path) and one
#: with them (its p99 is the scrape stall).
FIXED_RATE = 1000.0
#: Saturation segments: their ops are all due at once, so the daemon
#: works through a standing queue; throughput is the completion rate
#: between the first and third quartile of completions.  Their median is
#: reported, so one stall of the host does not move it.
SATURATION_SEGMENTS = 5
#: About half of these are submits, which must stay under the daemon's
#: ``queue_limit`` (4096) or the queue answers ``queue-full``.
SATURATION_OPS = 6000
#: Time set aside for the saturation segments (s); the latency segments
#: share the rest, each never shorter than MIN_FIXED_SECONDS.
SATURATION_BUDGET_S = 4.0
MIN_FIXED_SECONDS = 2.0
#: Ops in the traced segment (at FIXED_RATE).
TRACED_OPS = 4000
#: Jobs in the seeded submit stream; it repeats under fresh job ids.
STREAM_JOBS = 20_000
TENANT = "bench"
#: Seconds without a reply after which the run is abandoned.
STALL_S = 30.0
#: A job id that is never submitted: querying it must answer "unknown".
NEVER_SUBMITTED = "never-submitted"


class OpStream:
    """The deterministic op sequence: submits, lagged releases, probes."""

    def __init__(self, jobs) -> None:
        self._jobs = (
            dataclasses.replace(job, job_id=f"{cycle}-{job.job_id}")
            for cycle in itertools.count()
            for job in jobs
        )
        self._live: List[Any] = []
        self._submits = 0

    def segment(self, num_ops: int, scrape: bool = True) -> List[Tuple[str, Any]]:
        """``num_ops`` ops, then releases of every job still live.

        ``scrape=False`` leaves out the ``stats`` scrapes.
        """
        ops: List[Tuple[str, Any]] = []
        while len(ops) < num_ops:
            job = next(self._jobs)
            ops.append(("submit", job))
            self._submits += 1
            self._live.append(job.job_id)
            if len(self._live) > RELEASE_LAG:
                ops.append(("release", self._live.pop(0)))
            if self._submits % QUERY_EVERY == 0:
                ops.append(("query", None))
            if scrape and self._submits % STATS_EVERY == 0:
                ops.append(("stats", None))
        ops.extend(("release", job_id) for job_id in self._live)
        self._live = []
        return ops


def submit_payload(job) -> Dict[str, Any]:
    return {
        "op": "submit",
        "job": job.job_id,
        "gpus": job.num_gpus,
        "pattern": job.pattern,
        "workload": job.workload,
        "sensitive": job.bandwidth_sensitive,
        "tenant": TENANT,
        "wait": False,
    }


class OpenLoop:
    """One non-blocking connection driven by a timetable (selectors)."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setblocking(False)
        self.sel = selectors.DefaultSelector()
        self.sel.register(self.sock, selectors.EVENT_READ)
        self.next_id = 0
        self._inbuf = b""

    def close(self) -> None:
        self.sel.close()
        self.sock.close()

    def _pump(self, timeout: float, outbuf: bytearray, on_reply) -> None:
        events = selectors.EVENT_READ | (selectors.EVENT_WRITE if outbuf else 0)
        self.sel.modify(self.sock, events)
        for _, mask in self.sel.select(timeout):
            if mask & selectors.EVENT_WRITE and outbuf:
                try:
                    sent = self.sock.send(outbuf)
                except BlockingIOError:
                    sent = 0
                del outbuf[:sent]
            if mask & selectors.EVENT_READ:
                try:
                    data = self.sock.recv(1 << 16)
                except BlockingIOError:
                    continue
                if not data:
                    raise ConnectionError("daemon closed the connection")
                now = time.perf_counter()
                lines = (self._inbuf + data).split(b"\n")
                self._inbuf = lines.pop()
                for line in lines:
                    if line:
                        on_reply(json.loads(line), now)

    def run(
        self,
        ops: List[Tuple[str, Any]],
        rate: float,
        check: Callable[[int, Dict[str, Any], Any], None],
    ) -> Dict[str, Any]:
        """Send ``ops`` at ``rate`` ops/s and wait for every reply.

        ``check(index, reply, query_target)`` sees each reply once.
        """
        n = len(ops)
        first = self.next_id
        self.next_id += n
        due = [0.0] * n
        send = [0.0] * n
        done = [0.0] * n
        targets: Dict[int, Any] = {}
        answered: Dict[Any, bool] = {}  # live jobs whose placement came back
        released: set = set()
        remaining = [n]

        def on_reply(reply: Dict[str, Any], now: float) -> None:
            rid = reply.get("id")
            idx = rid - first if isinstance(rid, int) else -1
            if not 0 <= idx < n or done[idx]:
                check(-1, reply, None)
                return
            done[idx] = now
            remaining[0] -= 1
            kind, arg = ops[idx]
            if kind == "submit" and arg.job_id not in released:
                if reply.get("status") == "allocated":
                    answered[arg.job_id] = True
            check(idx, reply, targets.pop(idx, None))

        outbuf = bytearray()
        start = time.perf_counter() + 0.002
        interval = 1.0 / rate
        i = 0
        progress = (n, start)
        while remaining[0] > 0:
            now = time.perf_counter()
            if remaining[0] != progress[0]:
                progress = (remaining[0], now)
            elif now - progress[1] > STALL_S:
                raise TimeoutError(f"{remaining[0]} replies missing after {STALL_S} s")
            while i < n and start + i * interval <= now:
                kind, arg = ops[i]
                if kind == "submit":
                    payload = submit_payload(arg)
                elif kind == "release":
                    payload = {"op": "release", "job": arg}
                    released.add(arg)
                    answered.pop(arg, None)
                elif kind == "query":
                    target = next(reversed(answered)) if answered else NEVER_SUBMITTED
                    targets[i] = target
                    payload = {"op": "query", "job": target}
                else:
                    payload = {"op": "stats"}
                payload["id"] = first + i
                outbuf += (json.dumps(payload) + "\n").encode("utf-8")
                due[i] = start + i * interval
                send[i] = now
                i += 1
            if i < n:
                timeout = max(0.0, start + i * interval - time.perf_counter())
            else:
                timeout = 0.05
            self._pump(timeout, outbuf, on_reply)
        return {
            "first": first,
            "latency_ms": [1e3 * (done[k] - due[k]) for k in range(n)],
            "from_send_ms": [1e3 * (done[k] - send[k]) for k in range(n)],
            "late_ms_max": 1e3 * max(send[k] - due[k] for k in range(n)),
            "send": send,
            "done": done,
        }

    def request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """One request outside any timetable; blocks for its reply."""
        op_id = self.next_id
        self.next_id += 1
        outbuf = bytearray((json.dumps(dict(payload, id=op_id)) + "\n").encode("utf-8"))
        got: Dict[str, Any] = {}

        def on_reply(reply: Dict[str, Any], now: float) -> None:
            if reply.get("id") == op_id:
                got.update(reply)

        deadline = time.perf_counter() + STALL_S
        while not got:
            if time.perf_counter() > deadline:
                raise TimeoutError(f"no reply to {payload['op']} in {STALL_S} s")
            self._pump(0.05, outbuf, on_reply)
        return got


def completion_rate(done: List[float]) -> float:
    """Replies per second between the first and third completion quartile."""
    ordered = sorted(done)
    lo, hi = len(ordered) // 4, 3 * len(ordered) // 4
    return (hi - lo) / (ordered[hi] - ordered[lo])


class ServeWorkload:
    name = "serve"
    caches = (
        "daemon boots on a spill tier that set-up filled from one 10k-job "
        "fleet replay (warm restart); its in-memory scan cache, decision "
        "memo and ledger start empty"
    )

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.handle = None
        self.loop: Optional[OpenLoop] = None
        self.spill_root: Optional[str] = None

    def _fail(self, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(why[:200])

    def setup(self) -> None:
        from repro.cluster import run_cluster
        from repro.cluster.scheduler import MultiServerScheduler
        from repro.experiments.spill import ScanSpillStore
        from repro.scenarios.fleet import FleetSpec
        from repro.scoring.memo import ScanCache
        from repro.serve import SERVE_BENCH_FLEET, DaemonConfig, bench_jobs, start_daemon_thread
        from repro.serve.protocol import SubmitSpec

        self._SubmitSpec = SubmitSpec
        self.stream = OpStream(bench_jobs(STREAM_JOBS, seed=self.seed))
        # The spill tier a previous daemon life would have left: the scan
        # winners of one fleet-scale replay on the same wirings.
        self.spill_root = tempfile.mkdtemp(prefix="serve-spill-")
        servers, job_file = fleet_scenario(self.seed)
        prior = run_cluster(
            servers, job_file, gpu_policy="preserve", scan_cache=ScanCache(),
            scan_spill=ScanSpillStore(self.spill_root),
        )
        self.spilled_entries = prior.scheduler.spill_scan_cache()
        del prior
        # The oracle every reply is checked against: the same scheduler,
        # driven directly with the same op sequence.
        self.reference = MultiServerScheduler(
            FleetSpec.parse(SERVE_BENCH_FLEET).build(), gpu_policy="preserve",
            node_policy="first-fit", scan_cache=ScanCache(),
        )
        self.handle = start_daemon_thread(
            DaemonConfig(
                fleet=SERVE_BENCH_FLEET, queue_limit=4096, spill_root=self.spill_root,
            ),
            port=0,
        )
        self.loop = OpenLoop(self.handle.port)
        # Set-up's objects live to the end: keep them out of the
        # collector's scans so its pauses reflect the daemon's own heap.
        gc.collect()
        gc.freeze()

    # ------------------------------------------------------------------ #
    def _expected(self, ops) -> Tuple[List[Optional[Tuple]], Dict[Any, Tuple]]:
        """The reference scheduler's reply to each op, and each placement."""
        expected: List[Optional[Tuple]] = []
        placed: Dict[Any, Tuple] = {}
        for kind, arg in ops:
            if kind == "submit":
                spec = self._SubmitSpec.from_payload(submit_payload(arg))
                placement = self.reference.try_place(spec.request())
                if placement is None:
                    expected.append(("noroom", None, None, None))
                    continue
                gpus = list(placement.gpus)
                scores = {
                    str(k): float(v)
                    for k, v in placement.allocation.scores.items()
                    if isinstance(v, (int, float))
                }
                placed[arg.job_id] = (placement.server_index, gpus)
                expected.append(("allocated", placement.server_index, gpus, scores))
            elif kind == "release":
                server, gpus = self.reference.release(arg)
                expected.append(("released", server, len(gpus)))
            else:
                expected.append(None)
        return expected, placed

    def _segment(
        self, rate: float, num_ops: int, recorder=None, scrape: bool = True
    ) -> Dict[str, Any]:
        """Send one timetable segment, checking every reply as it lands."""
        ops = self.stream.segment(num_ops, scrape)
        expected, placed = self._expected(ops)

        def check(idx: int, reply: Dict[str, Any], target: Any) -> None:
            self.attempted += 1
            status = reply.get("status")
            if idx < 0:
                self._fail(f"unexpected reply {reply!r}")
                return
            kind = ops[idx][0]
            want = expected[idx]
            if kind == "submit":
                got = (status, reply.get("server"), reply.get("gpus"), reply.get("scores"))
            elif kind == "release":
                got = (status, reply.get("server"), reply.get("gpus"))
            elif kind == "query":
                if target == NEVER_SUBMITTED:
                    want, got = "unknown", status
                else:
                    want = ("active",) + placed[target]
                    got = (status, reply.get("server"), reply.get("gpus"))
            else:
                want, got = True, status == "ok" and "counters" in reply.get("stats", {})
            if got != want or status == "noroom":
                self._fail(f"{kind} op {idx}: got {reply!r}")

        if recorder is not None:
            recorder.enabled = True
        try:
            result = self.loop.run(ops, rate, check)
        finally:
            if recorder is not None:
                recorder.enabled = False
        result["ops"] = ops
        gauges = self.loop.request({"op": "stats"})["stats"]["gauges"]
        self.attempted += 1
        if gauges["outstanding_jobs"] or gauges["waiting"] or gauges["pending"]:
            self._fail(f"ledger not empty after a segment: {gauges}")
        return result

    # ------------------------------------------------------------------ #
    def measure(self, seconds: float) -> Dict[str, Any]:
        latency_s = seconds - SATURATION_BUDGET_S
        quiet_s = max(MIN_FIXED_SECONDS, latency_s / 3)
        scraped_s = max(MIN_FIXED_SECONDS, latency_s - quiet_s)
        quiet = latency_summary(
            self._segment(FIXED_RATE, int(FIXED_RATE * quiet_s), scrape=False)["latency_ms"]
        )
        scraped_seg = self._segment(FIXED_RATE, int(FIXED_RATE * scraped_s))
        scraped = latency_summary(scraped_seg["latency_ms"])
        # p99 per one-second window, then their median: every window holds
        # several scrape stalls, while a stall of the host itself lands in
        # one window and does not move the median.
        lat = scraped_seg["latency_ms"]
        step = int(FIXED_RATE)
        window_p99 = [
            quantile(lat[i:i + step], 0.99) for i in range(0, len(lat) - step + 1, step)
        ]
        rates = [
            completion_rate(self._segment(float("inf"), SATURATION_OPS, scrape=False)["done"])
            for _ in range(SATURATION_SEGMENTS)
        ]
        return {
            "throughput_per_s": median(rates),
            "latency_p50_ms": quiet["p50"],
            "latency_tail_ms": median(window_p99),
            "cost": scraped["p50"],
            "samples": quiet["n"] + scraped["n"],
            "info": {
                "unit": (
                    "throughput: replies/s of a saturated daemon (median of "
                    "segments); latency: one op at the fixed rate, from its "
                    "due time (p50 without stats scrapes, p99 with them)"
                ),
                "tail_percentile": 99,
                "fixed_rate_ops_per_s": FIXED_RATE,
                "quiet_ops": quiet["n"],
                "quiet_p99_ms": quiet["p99"],
                "scraped_ops": scraped["n"],
                "scraped_p99_ms": scraped["p99"],
                "window_p99_ms": window_p99,
                "scraped_p50_ms": scraped["p50"],
                "scraped_max_ms": scraped["max"],
                "late_ms_max": scraped_seg["late_ms_max"],
                "spilled_entries": self.spilled_entries,
                "saturation_rates": rates,
            },
        }

    def traced(self, recorder) -> Dict[str, Any]:
        before = self.loop.request({"op": "stats"})["stats"]
        seg = self._segment(FIXED_RATE, TRACED_OPS, recorder)
        after = self.loop.request({"op": "stats"})["stats"]
        ops = seg["ops"]
        busy: Dict[Any, float] = {}
        for row in recorder.span_rows():
            if row[0] in ("cluster.scheduler.try_place", "cluster.scheduler.release"):
                busy[row[4]] = busy.get(row[4], 0.0) + (row[2] - row[1]) / 1e6
        waits = []
        extra_rows = []
        pid, tid = os.getpid(), threading.get_ident()
        for k, (kind, arg) in enumerate(ops):
            job = arg.job_id if kind == "submit" else arg
            if kind in ("submit", "release"):
                waits.append(seg["from_send_ms"][k] - busy.get(job, 0.0))
            extra_rows.append([
                f"loadgen.{kind}", int(seg["send"][k] * 1e9), int(seg["done"][k] * 1e9),
                0, job, 0, None, -(seg["first"] + k), pid, tid,
            ])
        dispatched = sum(1 for kind, _ in ops if kind in ("submit", "release"))
        dispatches = after["counters"]["dispatches"] - before["counters"]["dispatches"]
        return {
            "cost": median(seg["latency_ms"]),
            "samples": len(ops),
            "counters": {
                key: after["cache"].get(key, 0) - before["cache"].get(key, 0)
                for key in ("scan_lookups", "scan_hits")
            },
            "extra_rows": extra_rows,
            "serve.daemon.dispatches": dispatches,
            "serve.daemon.dispatch_batch_mean": dispatched / dispatches if dispatches else 0.0,
            "serve.queue_wait_ms": sum(waits) / len(waits),
            "loadgen.late_ms_max": seg["late_ms_max"],
        }

    def close(self) -> None:
        try:
            if self.loop is not None:
                self.loop.close()
            if self.handle is not None:
                self.handle.stop(timeout=60)
        finally:
            if self.spill_root is not None:
                shutil.rmtree(self.spill_root, ignore_errors=True)
