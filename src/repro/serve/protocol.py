"""Wire protocol of the allocation daemon: newline-delimited JSON.

One request per line, one response per line, UTF-8, no framing beyond
the newline — trivially speakable from ``nc``, a shell loop, or any
language's socket library.  Every request carries an ``op`` and an
optional client-chosen ``id`` that the response echoes back, so clients
may pipeline requests and match responses out of order (deferred
``wait`` submits resolve whenever capacity frees, interleaving with
later replies on the same connection).

Requests
--------
``submit``
    ``{"op": "submit", "id": 1, "job": "j-17", "gpus": 4,
    "pattern": "ring", "workload": "resnet-50", "sensitive": true,
    "tenant": "team-a", "wait": false}`` — ask for GPUs.  ``wait=true``
    (the default) parks the request in the daemon's FIFO queue when no
    server fits and answers once capacity frees; ``wait=false`` gets an
    immediate ``noroom``.
``release``
    ``{"op": "release", "job": "j-17"}`` — free a placed job's GPUs
    (or cancel it while still waiting).
``query``
    ``{"op": "query", "job": "j-17"}`` — where a job is.
``stats``
    counters, gauges and cache/spill stats as one JSON object.
``drain``
    graceful shutdown: stop admission, wait for releases, spill the
    warm scan cache, dump metrics, then exit.
``ping``
    liveness probe.

Response ``status`` values: ``allocated``, ``noroom``, ``released``,
``rejected`` (with a ``reason``), ``active`` / ``waiting`` /
``unknown`` (query), ``ok`` (stats/drain/ping), ``error`` (malformed
request).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, Hashable, Mapping, Optional

from ..appgraph import patterns
from ..appgraph.application import ApplicationGraph
from ..policies.base import AllocationRequest
from ..workloads.catalog import get_workload

#: Bumped on incompatible wire changes; echoed by ``ping``.
PROTOCOL_VERSION = 1

#: Longest accepted request line (bytes) — a submit is ~200 bytes, so
#: this bounds memory per connection without constraining real traffic.
MAX_LINE_BYTES = 1 << 20

#: Every operation the daemon understands.
OPS = ("submit", "release", "query", "stats", "drain", "ping")

#: Default workload profile for submits that name none (any catalog
#: entry works; this one is bandwidth-sensitive with a ring pattern,
#: matching the paper's headline workload).
DEFAULT_WORKLOAD = "resnet-50"

#: Tenant bucket for submits that name none.
DEFAULT_TENANT = "default"

#: Admission-rejection reasons (the ``reason`` field of a ``rejected``
#: response).  Stable strings — clients branch on them.
REJECT_QUEUE_FULL = "queue-full"
REJECT_TENANT_QUOTA = "tenant-quota"
REJECT_DRAINING = "draining"
REJECT_DUPLICATE = "duplicate-job"
REJECT_INFEASIBLE = "infeasible"
REJECT_CANCELED = "canceled"


class ProtocolError(ValueError):
    """A request line that cannot be honored (malformed or invalid)."""


def encode_line(payload: Mapping[str, Any]) -> bytes:
    """One response/request as a compact JSON line (newline included)."""
    return (json.dumps(payload, separators=(",", ":")) + "\n").encode("utf-8")


def decode_line(line: bytes) -> Dict[str, Any]:
    """Parse one request line into its payload dict.

    Raises :class:`ProtocolError` on anything that is not a single
    JSON object — the daemon answers those with ``status: error``
    instead of dropping the connection.
    """
    try:
        payload = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"not a JSON line: {exc}") from None
    if not isinstance(payload, dict):
        raise ProtocolError("request must be a JSON object")
    op = payload.get("op")
    if op not in OPS:
        raise ProtocolError(f"unknown op {op!r}; known: {', '.join(OPS)}")
    return payload


def _require_job_id(payload: Mapping[str, Any]) -> Hashable:
    """The ``job`` field, validated to a usable ledger key."""
    job_id = payload.get("job")
    if job_id is None or isinstance(job_id, (dict, list, bool)):
        raise ProtocolError("'job' must be a string or integer id")
    return job_id


@dataclass(frozen=True)
class SubmitSpec:
    """A validated ``submit`` request, ready to hit the scheduler."""

    job_id: Hashable
    num_gpus: int
    pattern: str
    sensitive: bool
    workload: str
    tenant: str
    wait: bool

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "SubmitSpec":
        """Validate a submit payload; raises :class:`ProtocolError`.

        Validation is strict at the door — the daemon's dispatch path
        must never see a pattern or workload name that cannot resolve.
        """
        job_id = _require_job_id(payload)
        gpus = payload.get("gpus", 1)
        if not isinstance(gpus, int) or isinstance(gpus, bool) or gpus < 1:
            raise ProtocolError("'gpus' must be a positive integer")
        pattern = payload.get("pattern", "ring")
        if not isinstance(pattern, str):
            raise ProtocolError("'pattern' must be a string")
        try:
            patterns.by_name(pattern, gpus)
        except (KeyError, ValueError) as exc:
            raise ProtocolError(str(exc)) from None
        workload = payload.get("workload", DEFAULT_WORKLOAD)
        try:
            get_workload(workload)
        except (KeyError, TypeError) as exc:
            raise ProtocolError(f"unknown workload: {exc}") from None
        tenant = payload.get("tenant", DEFAULT_TENANT)
        if not isinstance(tenant, str) or not tenant:
            raise ProtocolError("'tenant' must be a non-empty string")
        sensitive = bool(payload.get("sensitive", True))
        wait = bool(payload.get("wait", True))
        return cls(
            job_id=job_id,
            num_gpus=gpus,
            pattern=pattern,
            sensitive=sensitive,
            workload=workload,
            tenant=tenant,
            wait=wait,
        )

    # ------------------------------------------------------------------ #
    def pattern_graph(self) -> ApplicationGraph:
        """The communication pattern over the requested slots.

        Single-GPU submits use the trivial pattern regardless of the
        declared name, matching :meth:`repro.workloads.jobs.Job`.
        """
        if self.num_gpus == 1:
            return patterns.by_name("single", 1)
        return patterns.by_name(self.pattern, self.num_gpus)

    def request(self) -> AllocationRequest:
        """The scheduler-facing request."""
        return AllocationRequest(
            pattern=self.pattern_graph(),
            bandwidth_sensitive=self.sensitive,
            job_id=self.job_id,
        )
