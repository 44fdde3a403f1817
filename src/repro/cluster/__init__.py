"""Multi-server extension: MAPA within each node, placement across nodes."""

from .scheduler import (
    NODE_POLICIES,
    CandidateServerIndex,
    ClusterPlacement,
    MultiServerScheduler,
)
from .simulator import (
    ClusterJobRecord,
    MultiServerSimulator,
    run_cluster,
)

__all__ = [
    "NODE_POLICIES",
    "CandidateServerIndex",
    "ClusterPlacement",
    "MultiServerScheduler",
    "ClusterJobRecord",
    "MultiServerSimulator",
    "run_cluster",
]
