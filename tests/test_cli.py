"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        for cmd in ("topos", "alloc", "trace", "fit", "cluster", "sweep"):
            args = build_parser().parse_args([cmd])
            assert hasattr(args, "func")


class TestCommands:
    def test_topos(self, capsys):
        assert main(["topos"]) == 0
        out = capsys.readouterr().out
        assert "dgx1-v100" in out
        assert "torus-2d-16" in out

    def test_alloc_preserve(self, capsys):
        rc = main(["alloc", "--policy", "preserve", "--gpus", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "allocation" in out
        assert "effective_bw" in out

    def test_alloc_insensitive(self, capsys):
        rc = main(["alloc", "--policy", "preserve", "--gpus", "2", "--insensitive"])
        assert rc == 0
        assert "preserved_bw" in capsys.readouterr().out

    def test_alloc_baseline_on_summit(self, capsys):
        rc = main(["alloc", "--topology", "summit", "--policy", "baseline"])
        assert rc == 0
        assert "(1, 2, 3)" in capsys.readouterr().out

    def test_fit(self, capsys):
        rc = main(["fit", "--topology", "dgx1-v100"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "θ1" in out
        assert "16.396" in out  # paper column present

    def test_trace_small(self, capsys):
        rc = main(["trace", "--jobs", "20", "--seed", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "baseline" in out
        assert "preserve" in out
        assert "Tput" in out

    def test_cluster(self, capsys):
        rc = main(
            ["cluster", "--servers", "dgx1-v100", "summit", "--jobs", "20"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "first-fit" in out
        assert "best-score" in out

    def test_trace_replay_jobfile(self, tmp_path, capsys):
        from repro.workloads.generator import generate_job_file

        path = tmp_path / "jobs.csv"
        generate_job_file(15, seed=2).save(str(path))
        rc = main(["trace", "--jobfile", str(path)])
        assert rc == 0
        assert "15 jobs" in capsys.readouterr().out


class TestSweep:
    GRID = [
        "--grid",
        "policy=baseline,preserve",
        "--trace-jobs",
        "12",
    ]

    def test_table_output(self, tmp_path, capsys):
        rc = main(["sweep", *self.GRID, "--cache-dir", str(tmp_path)])
        assert rc == 0
        captured = capsys.readouterr()
        assert "baseline" in captured.out
        assert "preserve" in captured.out
        assert "2 simulated" in captured.err

    def test_second_run_served_from_cache(self, tmp_path, capsys):
        assert main(["sweep", *self.GRID, "--cache-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["sweep", *self.GRID, "--cache-dir", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert "2 cached, 0 simulated" in captured.err
        assert "cached" in captured.out

    def test_no_cache_never_persists(self, tmp_path, capsys):
        args = ["sweep", *self.GRID, "--no-cache", "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        assert main(args) == 0
        captured = capsys.readouterr()
        assert "0 cached, 2 simulated" in captured.err
        assert not any(tmp_path.iterdir())

    def test_json_output(self, tmp_path, capsys):
        import json

        rc = main(
            ["sweep", *self.GRID, "--format", "json", "--cache-dir", str(tmp_path)]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["num_cells"] == 2
        assert {c["policy"] for c in payload["cells"]} == {
            "baseline",
            "preserve",
        }

    def test_csv_output(self, tmp_path, capsys):
        rc = main(
            ["sweep", *self.GRID, "--format", "csv", "--cache-dir", str(tmp_path)]
        )
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("topology,policy,discipline")
        assert len(lines) == 3

    def test_parallel_workers(self, tmp_path, capsys):
        rc = main(
            ["sweep", *self.GRID, "--jobs", "2", "--cache-dir", str(tmp_path)]
        )
        assert rc == 0
        assert "2 workers" in capsys.readouterr().err

    def test_bad_grid_is_an_error(self, capsys):
        rc = main(["sweep", "--grid", "flavor=mint", "--no-cache"])
        assert rc == 2
        assert "unknown grid axis" in capsys.readouterr().err

    def test_bad_jobs_is_an_error(self, capsys):
        rc = main(["sweep", "--jobs", "0", "--no-cache"])
        assert rc == 2
        assert "jobs must be" in capsys.readouterr().err


class TestScenario:
    def test_describe_default(self, capsys):
        assert main(["scenario", "--arrival", "mmpp", "--num-jobs", "30"]) == 0
        out = capsys.readouterr().out
        assert "mmpp arrivals" in out
        assert "GPU sizes" in out

    def test_output_exports_replayable_trace(self, tmp_path, capsys):
        path = str(tmp_path / "scen.csv")
        rc = main(
            ["scenario", "--arrival", "poisson", "--rate", "2",
             "--num-jobs", "12", "--output", path]
        )
        assert rc == 0
        capsys.readouterr()
        assert main(["trace", "--jobfile", path, "--jobs", "12"]) == 0
        assert "Normalized speedup" in capsys.readouterr().out

    def test_fleet_replay(self, capsys):
        rc = main(
            ["scenario", "--num-jobs", "20",
             "--fleet", "dgx1-v100:1,summit:1", "--node-policy", "pack"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "fleet replay" in out
        assert "makespan" in out

    def test_fleet_replay_also_exports_resolved_trace(self, tmp_path, capsys):
        path = str(tmp_path / "fleet.csv")
        rc = main(
            ["scenario", "--num-jobs", "15", "--output", path,
             "--fleet", "summit:2"]
        )
        assert rc == 0
        assert "trace written" in capsys.readouterr().out
        from repro.workloads.jobs import JobFile

        trace = JobFile.load(path)
        assert len(trace) == 15
        assert trace.max_gpus() <= 6  # fits the fleet's 6-GPU servers

    def test_grid_sweeps_with_cache(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        args = ["scenario", "--num-jobs", "10", "--grid",
                "policy=baseline,preserve", "--cache-dir", cache]
        assert main(args) == 0
        first = capsys.readouterr()
        assert "0 cached, 2 simulated" in first.err
        assert main(args) == 0
        assert "2 cached, 0 simulated" in capsys.readouterr().err

    def test_output_with_grid_is_an_error(self, tmp_path, capsys):
        rc = main(
            ["scenario", "--num-jobs", "10", "--grid", "policy=baseline",
             "--output", str(tmp_path / "t.csv")]
        )
        assert rc == 2
        assert "--output cannot be combined with --grid" in capsys.readouterr().err
        assert not (tmp_path / "t.csv").exists()

    def test_bad_fleet_is_an_error(self, capsys):
        rc = main(["scenario", "--num-jobs", "5", "--fleet", "dgx-9000:2"])
        assert rc == 2
        assert "unknown topology" in capsys.readouterr().err

    def test_fleet_with_grid_is_an_error(self, capsys):
        rc = main(
            ["scenario", "--num-jobs", "5", "--grid", "policy=baseline",
             "--fleet", "dgx2:4"]
        )
        assert rc == 2
        assert "--fleet cannot be combined with --grid" in capsys.readouterr().err

    def test_choices_track_registries(self):
        """CLI choices are live views of the arrival/mix/node registries."""
        from repro.cluster import NODE_POLICIES
        from repro.scenarios import ARRIVAL_KINDS, MIX_PRESETS

        parser = build_parser()
        sub = next(
            a for a in parser._actions
            if a.__class__.__name__ == "_SubParsersAction"
        ).choices["scenario"]
        by_dest = {a.dest: a for a in sub._actions}
        assert tuple(by_dest["arrival"].choices) == tuple(ARRIVAL_KINDS)
        assert tuple(by_dest["mix"].choices) == tuple(MIX_PRESETS)
        assert tuple(by_dest["node_policy"].choices) == tuple(NODE_POLICIES)


class TestCacheCommand:
    GRID = ["--grid", "policy=baseline", "--trace-jobs", "10", "--jobs", "1"]

    def _populate(self, tmp_path):
        assert main(["sweep", *self.GRID, "--cache-dir", str(tmp_path)]) == 0

    def test_stats_counts_entries_and_orphans(self, tmp_path, capsys):
        self._populate(tmp_path)
        (tmp_path / "leftover.tmp").write_text("debris")
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "sweep entries        | 1" in out
        assert "orphaned files       | 1" in out
        assert "persistent scan-cache tier" in out

    def test_clear_orphans_keeps_entries(self, tmp_path, capsys):
        self._populate(tmp_path)
        (tmp_path / "leftover.tmp").write_text("debris")
        capsys.readouterr()
        assert main(
            ["cache", "clear", "--orphans", "--cache-dir", str(tmp_path)]
        ) == 0
        assert "removed 1 orphaned file(s)" in capsys.readouterr().out
        # the valid entry survived: the sweep re-run is fully cached
        assert main(["sweep", *self.GRID, "--cache-dir", str(tmp_path)]) == 0
        assert "1 cached, 0 simulated" in capsys.readouterr().err

    def test_clear_removes_everything(self, tmp_path, capsys):
        self._populate(tmp_path)
        capsys.readouterr()
        assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
        assert "removed 1 file(s)" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        assert "sweep entries        | 0" in capsys.readouterr().out

    def test_stats_on_missing_dir_is_empty_not_an_error(self, tmp_path, capsys):
        assert main(
            ["cache", "stats", "--cache-dir", str(tmp_path / "nope")]
        ) == 0
        assert "sweep entries        | 0" in capsys.readouterr().out

    def test_spill_then_warm_round_trip(self, tmp_path, capsys):
        """`cache spill` populates the tier, `cache warm` replays from
        it at a 100% first-pass hit rate, `stats` sees the partitions."""
        args = ["--cache-dir", str(tmp_path), "--fleet", "dgx1-v100:2",
                "--jobs", "120"]
        assert main(["cache", "spill", *args]) == 0
        out = capsys.readouterr().out
        assert "tier entries written" in out
        assert main(["cache", "warm", *args]) == 0
        assert "scan hit rate   | 100.0%" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "scan partitions      | 0" not in out

    def test_bad_fleet_spec_is_a_usage_error(self, tmp_path, capsys):
        assert main(
            ["cache", "warm", "--cache-dir", str(tmp_path), "--fleet", "x:"]
        ) == 2
        assert "cache:" in capsys.readouterr().err

    def test_trace_embeds_scan_cache_stats(self, capsys):
        assert main(["trace", "--jobs", "12"]) == 0
        out = capsys.readouterr().out
        assert "scan cache [preserve]:" in out
        assert "lookups" in out


class TestFleetCLI:
    """`mapa fleet`: the in-process fleet-scale replay."""

    def test_fleet_digest_matches_run_cluster(self, capsys):
        import hashlib
        import json

        from repro.cluster import run_cluster
        from repro.scenarios import MMPPArrivals, ScenarioSpec, mixed_fleet

        assert main(["fleet", "--servers", "4", "--jobs", "60"]) == 0
        out = capsys.readouterr().out
        (line,) = [l for l in out.splitlines() if "log digest" in l]
        printed = line.rsplit("|", 1)[1].strip()

        fleet = mixed_fleet(4)
        job_file = ScenarioSpec(
            num_jobs=60,
            seed=2021,
            arrival=MMPPArrivals(
                quiet_rate=1.0,
                burst_rate=20.0,
                quiet_dwell=300.0,
                burst_dwell=60.0,
            ),
            name="fleet-scale",
        ).resolve(fleet.min_gpus_per_server()).build()
        log = run_cluster(fleet.build(), job_file).log
        expected = hashlib.sha256(
            json.dumps(log.to_dict(), sort_keys=True).encode("utf-8")
        ).hexdigest()
        assert printed == expected

    def test_fleet_bad_spec_is_a_usage_error(self, capsys):
        assert main(["fleet", "--fleet", "x:"]) == 2
        assert "fleet:" in capsys.readouterr().err

