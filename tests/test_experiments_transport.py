"""Unit tests for the zero-copy sweep transport.

The fallback ladder (shm → stored → inline → plain pickle), arena
rollover across runs, the parent's unlink-on-attach lifecycle, the
thread-safety of the untracked create/attach helpers, and the
end-to-end guarantee that a parallel sweep over the transport is
byte-identical to the serial reference.
"""

import os
import threading
import types
from multiprocessing import resource_tracker

import pytest

from repro.experiments import ResultStore, TraceSpec, simulate_cell
from repro.experiments import transport
from repro.experiments.runner import SweepRunner, simulate_cell_packed
from repro.experiments.spec import CellConfig, ExperimentSpec
from repro.experiments.transport import (
    ArenaReader,
    CellHandle,
    TransportConfig,
    _attach_untracked,
    _create_untracked,
    _release_worker_arena,
    new_run_id,
    pack_result,
)


@pytest.fixture(scope="module")
def result():
    return simulate_cell(
        CellConfig(
            topology="dgx1-v100",
            policy="baseline",
            discipline="fifo",
            trace=TraceSpec(num_jobs=8),
        )
    )


@pytest.fixture(autouse=True)
def clean_worker_arena():
    """Each test starts and ends with no in-process worker arena."""
    _release_worker_arena()
    yield
    _release_worker_arena()


def _segments():
    """Names of live shared-memory segments on this host."""
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return set()


class _ObservedLock:
    """A lock that flags the moment a second thread has to wait for it."""

    def __init__(self, contended: threading.Event) -> None:
        self._lock = threading.Lock()
        self._contended = contended

    def __enter__(self):
        if not self._lock.acquire(blocking=False):
            self._contended.set()
            self._lock.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self._lock.release()


class TestTrackerPatch:
    def test_overlapping_create_and_attach_restore_the_tracker(
        self, monkeypatch
    ):
        """Thread A creates, thread B attaches while A's constructor is
        still running.  Unserialised, B saves A's no-op as "original"
        and restores it last, leaving the tracker disabled for good."""
        register = resource_tracker.register
        unregister = resource_tracker.unregister
        a_inside = threading.Event()
        b_arrived = threading.Event()  # B inside the patch, or waiting
        a_done = threading.Event()

        def fake_shared_memory(name=None, create=False, size=0):
            if create:
                a_inside.set()
                assert b_arrived.wait(timeout=30)
            else:
                b_arrived.set()
                assert a_done.wait(timeout=30)
            return name or "segment"

        monkeypatch.setattr(
            transport,
            "shared_memory",
            types.SimpleNamespace(SharedMemory=fake_shared_memory),
        )
        monkeypatch.setattr(
            transport, "_TRACKER_LOCK", _ObservedLock(b_arrived),
            raising=False,
        )
        errors = []

        def run(fn, *args):
            try:
                fn(*args)
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        def creator():
            run(_create_untracked, 64)
            a_done.set()

        a = threading.Thread(target=creator)
        b = threading.Thread(target=run, args=(_attach_untracked, "seg-b"))
        a.start()
        assert a_inside.wait(timeout=30)
        b.start()
        a.join(timeout=60)
        b.join(timeout=60)
        try:
            assert not errors, errors
            assert resource_tracker.register is register
            assert resource_tracker.unregister is unregister
        finally:
            resource_tracker.register = register
            resource_tracker.unregister = unregister


class TestFallbackLadder:
    def test_shm_rung_round_trips(self, result):
        config = TransportConfig(run_id=new_run_id())
        before = _segments()
        returned = pack_result(result, config)
        assert isinstance(returned, CellHandle)
        assert returned.kind == "shm"
        assert returned.segment is not None and returned.payload is None
        assert _segments() - before  # worker arena is live
        reader = ArenaReader()
        assert reader.payload_bytes(returned) is not None
        cell_result = reader.materialize(returned)
        assert cell_result.log.to_dict() == result.log.to_dict()
        # Attach unlinked the name; the mappings stay valid.
        assert _segments() == before
        reader.close()

    def test_stored_rung_spills_into_binary_tier(self, result, tmp_path):
        config = TransportConfig(
            run_id=new_run_id(), arena_bytes=0, store_root=str(tmp_path)
        )
        before = _segments()
        returned = pack_result(result, config)
        assert returned.kind == "stored"
        assert _segments() == before  # no arena was created
        store = ResultStore(str(tmp_path))
        assert os.path.exists(store.payload_path(result.config_hash))
        reader = ArenaReader()
        assert reader.payload_bytes(returned) is None  # already persisted
        assert (
            reader.materialize(returned).log.to_dict()
            == result.log.to_dict()
        )

    def test_inline_rung_when_arena_too_small_and_no_store(self, result):
        config = TransportConfig(run_id=new_run_id(), arena_bytes=128)
        before = _segments()
        returned = pack_result(result, config)
        assert returned.kind == "inline"
        assert returned.payload is not None
        # The dead arena was unlinked by the worker itself, and later
        # cells of the same run skip re-creating it.
        assert _segments() == before
        again = pack_result(result, config)
        assert again.kind == "inline"
        assert (
            ArenaReader().materialize(returned).log.to_dict()
            == result.log.to_dict()
        )

    def test_unencodable_log_falls_back_to_plain_result(self, result):
        import copy

        from repro.experiments.store import CellResult

        broken = copy.deepcopy(result)
        broken.log._thaw() if broken.log._lazy else None
        broken.log._allocation[0] = ("gpu-a",)  # non-integer allocation
        broken = CellResult(
            config_hash=result.config_hash,
            label=result.label,
            log=broken.log,
            cached=False,
        )
        returned = pack_result(
            broken, TransportConfig(run_id=new_run_id())
        )
        assert isinstance(returned, CellResult)


class TestArenaRollover:
    def test_new_run_id_rolls_the_arena(self, result):
        first = pack_result(result, TransportConfig(run_id=new_run_id()))
        second = pack_result(result, TransportConfig(run_id=new_run_id()))
        assert first.kind == second.kind == "shm"
        assert first.segment != second.segment
        reader = ArenaReader()
        for handle in (first, second):
            assert (
                reader.materialize(handle).log.to_dict()
                == result.log.to_dict()
            )
        reader.close()

    def test_same_run_reuses_the_arena(self, result):
        config = TransportConfig(run_id=new_run_id())
        first = pack_result(result, config)
        second = pack_result(result, config)
        assert first.segment == second.segment
        assert second.offset > first.offset


class TestWorkerEntry:
    def test_simulate_cell_packed_matches_simulate_cell(self, result):
        cell = CellConfig(
            topology="dgx1-v100",
            policy="baseline",
            discipline="fifo",
            trace=TraceSpec(num_jobs=8),
        )
        returned = simulate_cell_packed(
            cell, TransportConfig(run_id=new_run_id())
        )
        assert isinstance(returned, CellHandle)
        decoded = ArenaReader().materialize(returned)
        assert decoded.log.to_dict() == result.log.to_dict()


class TestEndToEnd:
    def _spec(self):
        return ExperimentSpec(
            name="transport-e2e",
            topologies=("dgx1-v100",),
            policies=("baseline", "preserve"),
            disciplines=("fifo",),
            trace=TraceSpec(num_jobs=10),
        )

    def test_parallel_sweep_is_byte_identical_to_serial(self, tmp_path):
        before = _segments()
        serial = SweepRunner(jobs=1).run(self._spec())
        parallel = SweepRunner(
            jobs=2, store=ResultStore(str(tmp_path))
        ).run(self._spec())
        assert len(serial.results) == len(parallel.results)
        for cell in serial.cells:
            ours = serial.results[cell]
            theirs = parallel.results[cell]
            assert ours.config_hash == theirs.config_hash
            assert ours.log.to_dict() == theirs.log.to_dict()
        assert parallel.transport is not None
        parallel.transport.close()
        assert _segments() == before  # nothing leaked

    def test_summary_rows_leave_logs_lazy(self, tmp_path):
        outcome = SweepRunner(
            jobs=2, store=ResultStore(str(tmp_path))
        ).run(self._spec())
        outcome.summary_rows()
        logs = [outcome.results[c].log for c in outcome.cells]
        assert all(log._lazy is not None for log in logs)
        # Touching records thaws exactly that cell.
        assert len(logs[0].records) == 10
        assert logs[0]._lazy is None
        assert logs[1]._lazy is not None

    def test_warm_rerun_hits_binary_tier(self, tmp_path):
        store = ResultStore(str(tmp_path))
        SweepRunner(jobs=2, store=store).run(self._spec())
        warm_store = ResultStore(str(tmp_path))
        outcome = SweepRunner(
            jobs=2, store=warm_store
        ).run(self._spec())
        assert all(r.cached for r in outcome.results.values())
        assert warm_store.mlog_hits == len(outcome.results)
