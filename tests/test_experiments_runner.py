"""Integration tests for the parallel, cache-backed sweep runner."""

import time

import pytest

from repro.experiments import (
    ExperimentSpec,
    ResultStore,
    SweepRunner,
    TraceSpec,
    run_experiment,
)
from repro.experiments.runner import _worker_cache_probe
from repro.scoring.regression import fit_for_hardware
from repro.sim.cluster import run_all_policies


@pytest.fixture(scope="module")
def small_spec():
    return ExperimentSpec(
        name="runner-test",
        policies=("baseline", "preserve"),
        disciplines=("fifo", "backfill"),
        trace=TraceSpec(num_jobs=12),
    )


class TestSerialSweep:
    def test_logs_match_direct_simulation(self, dgx, small_spec):
        outcome = SweepRunner().run(small_spec)
        assert outcome.num_cells == 4
        assert outcome.num_cached == 0
        model, _, _ = fit_for_hardware(dgx)
        trace = TraceSpec(num_jobs=12).build()
        direct = run_all_policies(
            dgx, trace, model, policy_names=["baseline", "preserve"]
        )
        sweep_logs = outcome.logs(discipline="fifo")
        assert set(sweep_logs) == set(direct)
        for policy, log in sweep_logs.items():
            assert log.to_dict() == direct[policy].to_dict()

    def test_ambiguous_slice_rejected(self, small_spec):
        outcome = SweepRunner().run(small_spec)
        with pytest.raises(ValueError):
            outcome.logs()  # two disciplines -> ambiguous

    def test_summary_rows_cover_every_cell(self, small_spec):
        outcome = SweepRunner().run(small_spec)
        rows = outcome.summary_rows()
        assert len(rows) == outcome.num_cells
        assert {row[-1] for row in rows} == {"simulated"}


class TestParallelSweep:
    def test_parallel_equals_serial(self, small_spec):
        serial = SweepRunner(jobs=1).run(small_spec)
        parallel = SweepRunner(jobs=2).run(small_spec)
        for cell in small_spec.expand():
            assert (
                parallel.results[cell].log.to_dict()
                == serial.results[cell].log.to_dict()
            )

    def test_rejects_zero_jobs(self):
        with pytest.raises(ValueError):
            SweepRunner(jobs=0)


class TestCachedSweep:
    def test_second_run_is_fully_cached(self, tmp_path, small_spec):
        store = ResultStore(str(tmp_path))
        first = SweepRunner(store=store, jobs=2).run(small_spec)
        assert first.num_simulated == first.num_cells

        store2 = ResultStore(str(tmp_path))
        second = SweepRunner(store=store2).run(small_spec)
        assert second.num_cached == second.num_cells
        assert second.num_simulated == 0
        assert store2.hits == second.num_cells
        for cell in small_spec.expand():
            assert (
                second.results[cell].log.to_dict()
                == first.results[cell].log.to_dict()
            )

    def test_changed_trace_misses_cache(self, tmp_path, small_spec):
        store = ResultStore(str(tmp_path))
        SweepRunner(store=store).run(small_spec)
        bigger = ExperimentSpec(
            name="runner-test",
            policies=small_spec.policies,
            disciplines=small_spec.disciplines,
            trace=TraceSpec(num_jobs=13),
        )
        outcome = SweepRunner(store=ResultStore(str(tmp_path))).run(bigger)
        assert outcome.num_cached == 0

    def test_run_experiment_wrapper(self, tmp_path, small_spec):
        outcome = run_experiment(
            small_spec, jobs=2, store=ResultStore(str(tmp_path))
        )
        assert outcome.num_cells == 4
        assert run_experiment(
            small_spec, store=ResultStore(str(tmp_path))
        ).num_cached == 4


class TestCellList:
    def test_accepts_explicit_cells(self, small_spec):
        cells = small_spec.expand()[:2]
        outcome = SweepRunner().run(cells)
        assert outcome.spec is None
        assert outcome.num_cells == 2
        assert all(c in outcome.results for c in cells)


def _paced_cache_probe(token: int):
    """A briefly-sleeping cache probe, so every pool worker answers one.

    An instant probe lets one fast worker drain the whole map and the
    other worker go unsampled; the pause keeps it busy long enough for
    its sibling to pick up the next probe from the call queue.
    """
    time.sleep(0.05)
    return _worker_cache_probe(token)


class TestSweepRunnerPoolReuse:
    def test_workers_and_caches_survive_consecutive_runs(self):
        spec = ExperimentSpec(
            name="pool-reuse",
            policies=("baseline", "preserve"),
            disciplines=("fifo",),
            trace=TraceSpec(num_jobs=8),
        )
        with SweepRunner(jobs=2) as runner:
            runner.run(spec)
            pool = runner._pool
            assert pool is not None
            probes1 = {p[0]: p for p in pool.map(_paced_cache_probe, range(4))}
            runner.run(spec)
            assert runner._pool is pool  # same executor, no churn
            probes2 = {p[0]: p for p in pool.map(_paced_cache_probe, range(4))}
        assert len(probes1) == 2  # both workers answered the probe
        assert set(probes2) == set(probes1)  # same worker processes
        lookups1 = sum(lookups for _, _, lookups in probes1.values())
        lookups2 = sum(lookups for _, _, lookups in probes2.values())
        # the second run re-simulated through the surviving warm caches
        # (a churned pool would restart both counters at zero)
        assert lookups2 > lookups1 > 0

    def test_pool_rebuilt_when_jobs_change(self):
        runner = SweepRunner(jobs=2)
        first = runner._ensure_pool()
        assert runner._ensure_pool() is first
        runner.jobs = 3
        second = runner._ensure_pool()
        assert second is not first
        runner.close()
        runner.close()  # idempotent
        assert runner._pool is None
