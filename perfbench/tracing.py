"""Span tracing from outside the program.

The benchmark never edits ``src/``: it measures a layer by wrapping the
layer's public functions where their callers look them up (a module
attribute or a class attribute) for the duration of a traced window,
then restoring them.  Every wrapped call becomes one span::

    [name, start_ns, end_ns, parent_span, request_id, child_ns, value, span_id]

Spans nest per thread, so a span's self time is its duration minus the
time its direct children cover.  ``value`` is the call's outcome where
a patch asks for one: ``True``/``False`` for "returned something", or a
byte count for encode/store calls.

Forked worker processes inherit the patched functions.  After a fork
the recorder drops the parent's spans and, each time a worker's
outermost span ends, appends what it recorded to
``<spool>/spans-<pid>.jsonl``; the parent merges those files with
:meth:`Recorder.merge_spool` once the worker pool has shut down.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

_NAME, _T0, _T1, _PARENT, _RID, _CHILD, _VALUE, _ID = range(8)


def _row(span: list, pid: int, tid: int) -> list:
    """A finished span as a flat export row, its parent as an id."""
    parent = span[_PARENT]
    return [
        span[_NAME], span[_T0], span[_T1],
        parent[_ID] if parent is not None else 0,
        span[_RID], span[_CHILD], span[_VALUE], span[_ID], pid, tid,
    ]


class Recorder:
    """In-memory span store shared by every thread of one process."""

    def __init__(self) -> None:
        self.enabled = False
        self.spool: Optional[str] = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._lists: List[Tuple[int, int, List[list]]] = []  # (pid, tid, spans)
        self._ids = itertools.count(1)
        self._child = False
        self._patches: List[Tuple[Any, str, Any]] = []
        os.register_at_fork(after_in_child=self._after_fork)

    # ------------------------------------------------------------------ #
    def _after_fork(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._lists = []
        self._child = True

    def _thread_state(self) -> Tuple[List[list], List[list]]:
        local = self._local
        try:
            return local.stack, local.spans
        except AttributeError:
            local.stack, local.spans = [], []
            with self._lock:
                self._lists.append(
                    (os.getpid(), threading.get_ident(), local.spans)
                )
            return local.stack, local.spans

    def _flush_child(self, spans: List[list]) -> None:
        """Append a worker's finished spans to its per-pid spool file."""
        if self.spool is None or not spans:
            return
        pid = os.getpid()
        tid = threading.get_ident()
        path = os.path.join(self.spool, f"spans-{pid}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            for span in spans:
                fh.write(json.dumps(_row(span, pid, tid)) + "\n")
        spans.clear()

    # ------------------------------------------------------------------ #
    def wrap(
        self,
        name: str,
        fn: Callable,
        rid: Optional[Callable] = None,
        value: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` recording one span per call while the recorder is on.

        ``rid(args, kwargs, result)`` names the request the call served;
        ``value(args, kwargs, result)`` records its outcome.
        """
        rec = self
        now = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not rec.enabled:
                return fn(*args, **kwargs)
            stack, spans = rec._thread_state()
            parent = stack[-1] if stack else None
            span = [name, 0, 0, parent, None, 0, None, next(rec._ids)]
            spans.append(span)
            stack.append(span)
            span[_T0] = now()
            returned = False
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                t1 = now()
                span[_T1] = t1
                stack.pop()
                if parent is not None:
                    parent[_CHILD] += t1 - span[_T0]
                if returned:
                    if rid is not None:
                        span[_RID] = rid(args, kwargs, result)
                    if value is not None:
                        span[_VALUE] = value(args, kwargs, result)
                if rec._child and not stack:
                    rec._flush_child(spans)

        return traced

    def patch(
        self,
        target: str,
        name: str,
        rid: Optional[Callable] = None,
        value: Optional[Callable] = None,
    ) -> None:
        """Wrap ``module:attr`` or ``module:Class.attr`` until :meth:`unpatch`."""
        module_name, _, path = target.partition(":")
        owner: Any = importlib.import_module(module_name)
        parts = path.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part)
        attr = parts[-1]
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            wrapped: Any = classmethod(self.wrap(name, raw.__func__, rid, value))
        else:
            wrapped = self.wrap(name, raw, rid, value)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def unpatch(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # ------------------------------------------------------------------ #
    def span_rows(self) -> Iterable[list]:
        """Spans as flat export rows (parent as an id, pid/tid attached)."""
        with self._lock:
            lists = list(self._lists)
        for pid, tid, spans in lists:
            for span in spans:
                if span[_T1]:
                    yield _row(span, pid, tid)

    def merge_spool(self) -> List[list]:
        """Read (and delete) every worker spool file: their export rows."""
        rows: List[list] = []
        if self.spool is None or not os.path.isdir(self.spool):
            return rows
        for name in sorted(os.listdir(self.spool)):
            if not name.startswith("spans-"):
                continue
            path = os.path.join(self.spool, name)
            with open(path, "r", encoding="utf-8") as fh:
                rows.extend(json.loads(line) for line in fh if line.strip())
            os.remove(path)
        return rows


# ---------------------------------------------------------------------- #
# aggregation + export
# ---------------------------------------------------------------------- #
def aggregate(rows: Iterable[list]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, busy/self ms, truthy outcomes, bytes."""
    agg: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "busy_ms": 0.0, "self_ms": 0.0, "ok": 0, "bytes": 0}
    )
    for name, t0, t1, _parent, _rid, child, value, *_ in rows:
        a = agg[name]
        a["calls"] += 1
        a["busy_ms"] += (t1 - t0) / 1e6
        a["self_ms"] += (t1 - t0 - child) / 1e6
        if value is True:
            a["ok"] += 1
        elif isinstance(value, int) and not isinstance(value, bool):
            a["bytes"] += value
    return agg


def write_chrome_trace(path: str, rows: Iterable[list]) -> int:
    """Write spans as Chrome trace-event JSON (opens in Perfetto)."""
    events = []
    for name, t0, t1, parent, rid, child, value, sid, pid, tid in rows:
        args: Dict[str, Any] = {"id": sid, "parent": parent}
        if rid is not None:
            args["rid"] = rid
        if value is not None:
            args["value"] = value
        args["self_us"] = round((t1 - t0 - child) / 1e3, 3)
        events.append({
            "name": name,
            "cat": name.rsplit(".", 1)[0],
            "ph": "X",
            "ts": t0 / 1e3,
            "dur": (t1 - t0) / 1e3,
            "pid": pid,
            "tid": tid,
            "args": args,
        })
    events.sort(key=lambda e: (e["pid"], e["tid"], e["ts"]))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
    return len(events)


def layer_table(agg: Dict[str, Dict[str, float]]) -> str:
    """The per-layer table: one row per span name, busiest first."""
    lines = [
        f"{'layer':<44} {'calls':>9} {'busy_ms':>11} {'self_ms':>11} {'bytes':>12}"
    ]
    for name, a in sorted(agg.items(), key=lambda kv: -kv[1]["busy_ms"]):
        lines.append(
            f"{name:<44} {a['calls']:>9d} {a['busy_ms']:>11.2f} "
            f"{a['self_ms']:>11.2f} {a['bytes']:>12d}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------- #
# the call sites this benchmark wraps
# ---------------------------------------------------------------------- #
def _returned(args, kwargs, result) -> bool:
    return result is not None


def _arg(i: int) -> Callable:
    return lambda args, kwargs, result: args[i] if len(args) > i else None


def _request_job(args, kwargs, result):
    return args[1].job_id


def _cell_hash(args, kwargs, result):
    return args[1].config_hash()[:16]


def _result_hash(args, kwargs, result):
    return args[0].config_hash[:16]


def _handle_hash(args, kwargs, result):
    return args[1].config_hash[:16]


def _packed_bytes(args, kwargs, result):
    return int(getattr(result, "nbytes", 0) or 0)


def _payload_bytes(args, kwargs, result):
    return len(args[2])


def _cell_counters(args, kwargs, result):
    """The worker log's own cache counters, kept on the cell's span."""
    stats = getattr(result.log, "cache_stats", None) or {}
    return [
        int(stats.get("scan_lookups", 0)),
        int(stats.get("scan_hits", 0)),
        int(stats.get("measured_bw_lookups", 0)),
        int(stats.get("measured_bw_hits", 0)),
    ]


_POLICY_CLASSES = (
    "repro.policies.baseline:BaselinePolicy",
    "repro.policies.topo_aware:TopoAwarePolicy",
    "repro.policies.greedy:GreedyPolicy",
    "repro.policies.preserve:PreservePolicy",
    "repro.policies.oracle:OraclePolicy",
)

#: (call site, span name, request-id extractor, outcome extractor)
CALL_SITES: Tuple[Tuple[str, str, Optional[Callable], Optional[Callable]], ...] = (
    ("repro.sim.core:SimulationCore.run", "sim.core.run", None, None),
    ("repro.sim.records:SimulationLog.append_fields",
     "sim.records.append_fields", _arg(1), None),
    ("repro.cluster.scheduler:MultiServerScheduler.try_place",
     "cluster.scheduler.try_place", _request_job, _returned),
    ("repro.cluster.scheduler:MultiServerScheduler.release",
     "cluster.scheduler.release", _arg(1), None),
    ("repro.allocator.mapa:Mapa.try_allocate",
     "allocator.mapa.try_allocate", _request_job, _returned),
    *((f"{cls}.allocate", "policies.allocate", _request_job, _returned)
      for cls in _POLICY_CLASSES),
    *((f"{mod}:batch_scan", "policies.scan.batch_scan", None, None)
      for mod in ("repro.policies.scan", "repro.policies.preserve",
                  "repro.policies.greedy", "repro.policies.oracle")),
    *((f"{mod}:peak_effective_bandwidth",
       "comm.microbench.peak_effective_bandwidth", None, None)
      for mod in ("repro.sim.core", "repro.scoring.regression",
                  "repro.workloads.exectime", "repro.policies.oracle")),
    ("repro.experiments.runner:fit_for_hardware",
     "scoring.regression.fit_for_hardware", None, None),
    ("repro.experiments.runner:simulate_cell",
     "experiments.runner.simulate_cell",
     lambda a, k, r: a[0].config_hash()[:16], _cell_counters),
    ("repro.experiments.runner:pack_result",
     "experiments.transport.pack_result", _result_hash, _packed_bytes),
    ("repro.experiments.runner:SweepRunner.run", "experiments.runner.run",
     None, None),
    ("repro.experiments.transport:ArenaReader.materialize",
     "experiments.transport.materialize", _handle_hash, None),
    ("repro.experiments.store:ResultStore.save_payload",
     "experiments.store.save_payload",
     lambda a, k, r: a[1][:16], _payload_bytes),
    ("repro.experiments.store:ResultStore.load", "experiments.store.load",
     _cell_hash, _returned),
    *((f"{mod}:decode_mlog", "sim.records.decode_mlog", None, None)
      for mod in ("repro.experiments.transport", "repro.experiments.store")),
    ("repro.serve.protocol:SubmitSpec.from_payload",
     "serve.protocol.from_payload",
     lambda a, k, r: a[1].get("job"), None),
    ("repro.serve.daemon:AllocationDaemon.metrics_snapshot",
     "serve.daemon.metrics_snapshot", None, None),
)


def patch_call_sites(recorder: Recorder) -> None:
    """Wrap every layer boundary in :data:`CALL_SITES`."""
    for target, name, rid, value in CALL_SITES:
        recorder.patch(target, name, rid, value)
