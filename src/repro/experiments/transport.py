"""Zero-copy transport of sweep results across the worker boundary.

Historically every simulated cell crossed the
:class:`~concurrent.futures.ProcessPoolExecutor` pipe as a pickled
:class:`~repro.experiments.store.CellResult` — a per-job list of dicts
that the parent immediately re-parsed.  At fleet scale the pickle
bytes rival replay time itself.  This module replaces the payload with
a **descriptor**: the worker encodes its finished
:class:`~repro.sim.records.SimulationLog` with the columnar ``.mlog``
codec, writes the bytes into a per-run shared-memory arena, and sends
back only the segment name + offset.  The parent maps the segment and
decodes lazily — numeric summaries are zero-copy numpy views into the
worker's arena; per-job records materialise only for cells the caller
actually touches.

Fallback ladder (every rung is lossless):

1. ``shm`` — payload fits the worker's arena; descriptor carries
   ``(segment, offset, nbytes)``.
2. ``stored`` — arena full and the run has a result store: the worker
   spills the payload straight into the store's binary tier (which the
   parent would persist anyway) and the descriptor is just the hash.
3. ``inline`` — no arena space and no store: the encoded bytes ride
   the pipe (still ≥2x smaller than the pickled record list).
4. plain :class:`~repro.experiments.store.CellResult` — the log cannot
   be ``.mlog``-encoded (:class:`~repro.sim.records.MlogEncodeError`);
   the classic pickle path is the reference behaviour.

Segment lifecycle: the **worker** creates its arena untracked (the
:mod:`multiprocessing.resource_tracker` would otherwise unlink
segments the parent is still reading, bpo-38119); the **parent**
unlinks each segment immediately after attaching, so the name
disappears from ``/dev/shm`` while both mappings stay valid and the
memory is reclaimed as soon as the last mapping closes.  A crash
between create and attach is the only leak window, and an interpreter
``atexit`` finalizer on the reader closes whatever is still mapped.
"""

from __future__ import annotations

import atexit
import contextlib
import itertools
import os
import threading
import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Union

from ..sim.records import MlogEncodeError, SimulationLog, decode_mlog, encode_mlog
from .store import CellResult, ResultStore

#: Default size of each worker's per-run shared-memory arena.  Sized
#: for ~1k fleet-scale cells; the spill rungs make overflow harmless.
DEFAULT_ARENA_BYTES = 64 * 1024 * 1024

#: Payload alignment inside an arena (matches the ``.mlog`` column
#: alignment so zero-copy views land on aligned addresses).
_ARENA_ALIGN = 64

_RUN_COUNTER = itertools.count()


def new_run_id() -> str:
    """A per-``SweepRunner.run`` token (unique within this parent)."""
    return f"{os.getpid()}-{next(_RUN_COUNTER)}"


@dataclass(frozen=True)
class TransportConfig:
    """Picklable per-run transport settings shipped with every cell.

    The persistent worker pool outlives any single sweep, so the
    config travels per *call* (``executor.map(fn, cells,
    repeat(config))``) rather than per worker: a worker notices a new
    ``run_id`` and rolls its arena over.
    """

    run_id: str
    arena_bytes: int = DEFAULT_ARENA_BYTES
    store_root: Optional[str] = None


@dataclass(frozen=True)
class CellHandle:
    """What actually crosses the worker pipe: a payload descriptor."""

    config_hash: str
    label: str
    kind: str  # "shm" | "stored" | "inline"
    nbytes: int
    segment: Optional[str] = None
    offset: int = 0
    payload: Optional[bytes] = None
    store_root: Optional[str] = None


#: Anything a sweep worker may return for one simulated cell.
CellReturn = Union[CellHandle, CellResult]


#: Serialises :func:`_patched_tracker`: the patch swaps a module
#: global, so two threads inside it at once would each save the other's
#: no-op as the "original" and could leave the tracker disabled.
_TRACKER_LOCK = threading.Lock()


def _reset_tracker_lock() -> None:
    """A forked child starts with a fresh lock (its parent may hold it)."""
    global _TRACKER_LOCK
    _TRACKER_LOCK = threading.Lock()


os.register_at_fork(after_in_child=_reset_tracker_lock)


@contextlib.contextmanager
def _patched_tracker(attr: str = "register"):
    """Context manager no-op'ing one ``resource_tracker`` entry point.

    ``register`` for untracked create/attach; ``unregister`` for the
    parent's unlink of a segment it never registered (the tracker
    process logs a ``KeyError`` for unregister messages about unknown
    names).  Thread-safe: callers take turns under :data:`_TRACKER_LOCK`.
    """
    try:
        from multiprocessing import resource_tracker
    except ImportError:  # pragma: no cover - always present on POSIX
        yield
        return
    with _TRACKER_LOCK:
        original = getattr(resource_tracker, attr)
        setattr(resource_tracker, attr, lambda *_a, **_k: None)
        try:
            yield
        finally:
            setattr(resource_tracker, attr, original)


def _create_untracked(size: int) -> shared_memory.SharedMemory:
    """Create a segment without resource-tracker registration.

    The tracker of whichever process registers a name unlinks it when
    that process exits; a pool worker recycling between sweeps would
    tear the arena out from under the parent's lazy views.  Ownership
    is explicit instead: the parent unlinks on attach.
    """
    with _patched_tracker():
        return shared_memory.SharedMemory(create=True, size=size)


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach a segment without resource-tracker registration."""
    with _patched_tracker():
        return shared_memory.SharedMemory(name=name)


# ---------------------------------------------------------------------- #
# worker side
# ---------------------------------------------------------------------- #
class _WorkerArena:
    """One worker's bump-allocated shared-memory arena for one run."""

    def __init__(self, run_id: str, size: int) -> None:
        self.run_id = run_id
        self.shm = _create_untracked(size)
        self.offset = 0

    def write(self, payload: bytes) -> Optional[int]:
        """Copy ``payload`` in; its offset, or ``None`` when full."""
        start = (self.offset + _ARENA_ALIGN - 1) // _ARENA_ALIGN * _ARENA_ALIGN
        end = start + len(payload)
        if end > self.shm.size:
            return None
        self.shm.buf[start:end] = payload
        self.offset = end
        return start

    def release(self) -> None:
        """Drop this worker's mapping.

        An arena the parent has seen (≥1 successful write produced a
        descriptor naming it) is unlinked by the parent on attach; one
        it has *not* seen would leak forever, so the worker unlinks it
        here itself.
        """
        try:
            if self.offset == 0:
                with _patched_tracker("unregister"):
                    self.shm.unlink()
        except OSError:  # pragma: no cover - already gone
            pass
        try:
            self.shm.close()
        except BufferError:  # pragma: no cover - exported views
            pass


#: This worker process's arena for the *current* run (one at a time —
#: a new ``run_id`` rolls it over).
_worker_arena: Optional[_WorkerArena] = None
_worker_atexit_registered = False
#: Run whose arena was dropped as unusable (first payload larger than
#: the whole arena) — skip re-creating it for that run's later cells.
_worker_arena_dead_run: Optional[str] = None


def _release_worker_arena() -> None:
    """Worker-exit hook: release (and maybe unlink) the last arena."""
    global _worker_arena
    arena, _worker_arena = _worker_arena, None
    if arena is not None:
        arena.release()


def _register_worker_exit_hook() -> None:
    """Run :func:`_release_worker_arena` when this process exits.

    Pool workers are :mod:`multiprocessing` children, which exit via
    ``os._exit`` after ``util._exit_function`` — plain :mod:`atexit`
    handlers never run there, so the hook registers with both.
    """
    atexit.register(_release_worker_arena)
    try:
        from multiprocessing import util

        util.Finalize(None, _release_worker_arena, exitpriority=10)
    except ImportError:  # pragma: no cover - always present
        pass


def _arena_for(config: TransportConfig) -> Optional[_WorkerArena]:
    """The current run's arena, created lazily; ``None`` if disabled."""
    global _worker_arena, _worker_atexit_registered
    if config.arena_bytes <= 0 or _worker_arena_dead_run == config.run_id:
        return None
    if _worker_arena is not None and _worker_arena.run_id != config.run_id:
        _worker_arena.release()
        _worker_arena = None
    if _worker_arena is None:
        try:
            _worker_arena = _WorkerArena(config.run_id, config.arena_bytes)
        except OSError:  # pragma: no cover - /dev/shm exhausted
            return None
        if not _worker_atexit_registered:
            _register_worker_exit_hook()
            _worker_atexit_registered = True
    return _worker_arena


def pack_result(result: CellResult, config: TransportConfig) -> CellReturn:
    """Encode ``result`` for the cheapest available return rung.

    Called in the worker process, right after :func:`simulate_cell`.
    """
    try:
        payload = encode_mlog(
            result.log,
            meta={"config_hash": result.config_hash, "label": result.label},
        )
    except MlogEncodeError:
        return result  # rung 4: reference pickle path
    global _worker_arena, _worker_arena_dead_run
    arena = _arena_for(config)
    if arena is not None:
        offset = arena.write(payload)
        if offset is None and arena.offset == 0:
            # The arena cannot fit even one payload; the parent will
            # never see its name, so drop (and unlink) it now rather
            # than re-probing it for every remaining cell.
            arena.release()
            _worker_arena = None
            _worker_arena_dead_run = config.run_id
        if offset is not None:
            return CellHandle(
                config_hash=result.config_hash,
                label=result.label,
                kind="shm",
                nbytes=len(payload),
                segment=arena.shm.name,
                offset=offset,
            )
    if config.store_root:
        ResultStore(config.store_root).save_payload(
            result.config_hash, payload
        )
        return CellHandle(
            config_hash=result.config_hash,
            label=result.label,
            kind="stored",
            nbytes=len(payload),
            store_root=config.store_root,
        )
    return CellHandle(
        config_hash=result.config_hash,
        label=result.label,
        kind="inline",
        nbytes=len(payload),
        payload=payload,
    )


# ---------------------------------------------------------------------- #
# parent side
# ---------------------------------------------------------------------- #
def _release_segments(segments: Dict[str, shared_memory.SharedMemory]) -> None:
    """Finalizer body: close every attached segment (already unlinked)."""
    for shm in segments.values():
        try:
            shm.close()
        except BufferError:  # pragma: no cover - caller still holds views
            pass
    segments.clear()


class ArenaReader:
    """Parent-side view of the arenas one sweep's workers produced.

    Attaching a segment immediately unlinks it — the name vanishes
    from ``/dev/shm`` while every live mapping (worker's and parent's)
    stays valid, so no normal or crashing exit can leak the memory
    once the parent has seen the handle.  The reader must outlive any
    lazily-decoded logs it produced; :class:`SweepOutcome` keeps it on
    the outcome object, and each decoded log pins the backing
    :class:`~multiprocessing.shared_memory.SharedMemory` through the
    codec's ``owner`` keep-alive.
    """

    def __init__(self) -> None:
        self._segments: Dict[str, shared_memory.SharedMemory] = {}
        self._finalizer = weakref.finalize(
            self, _release_segments, self._segments
        )

    def _segment(self, name: str) -> shared_memory.SharedMemory:
        shm = self._segments.get(name)
        if shm is None:
            shm = _attach_untracked(name)
            try:
                # reclaim-on-last-close from here on; the tracker never
                # saw this name, so swallow its unregister too
                with _patched_tracker("unregister"):
                    shm.unlink()
            except OSError:  # pragma: no cover - racing cleanup
                pass
            self._segments[name] = shm
        return shm

    def segment_names(self) -> List[str]:
        """Names of the segments attached so far (diagnostics)."""
        return sorted(self._segments)

    def materialize(self, handle: CellHandle) -> CellResult:
        """Decode ``handle`` into a :class:`CellResult` (lazy log).

        ``shm`` handles decode zero-copy straight out of the arena;
        ``stored`` handles read the payload the worker already spilled
        into the store's binary tier; ``inline`` handles decode the
        bytes that rode the pipe.  All three produce a lazily-decoded
        log — summary readers never materialise per-job records.
        """
        if handle.kind == "shm":
            shm = self._segment(handle.segment)
            view = shm.buf[handle.offset : handle.offset + handle.nbytes]
            _, log = decode_mlog(view, lazy=True, owner=(shm, view))
        elif handle.kind == "stored":
            payload = ResultStore(handle.store_root).load_payload(
                handle.config_hash
            )
            if payload is None:
                raise FileNotFoundError(
                    f"spilled payload for {handle.config_hash} disappeared"
                )
            _, log = decode_mlog(payload, lazy=True)
        elif handle.kind == "inline":
            _, log = decode_mlog(handle.payload, lazy=True)
        else:
            raise ValueError(f"unknown handle kind {handle.kind!r}")
        return CellResult(
            config_hash=handle.config_hash,
            label=handle.label,
            log=log,
            cached=False,
        )

    def payload_bytes(self, handle: CellHandle) -> Optional[bytes]:
        """The raw ``.mlog`` bytes behind ``handle``, for persisting.

        ``None`` for ``stored`` handles — those are already in the
        store's binary tier, so saving again would be a wasted copy.
        """
        if handle.kind == "shm":
            shm = self._segment(handle.segment)
            return bytes(
                shm.buf[handle.offset : handle.offset + handle.nbytes]
            )
        if handle.kind == "inline":
            return handle.payload
        return None

    def close(self) -> None:
        """Release every attached segment now (idempotent)."""
        self._finalizer()
