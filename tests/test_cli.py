import pytest

from repro.cli import main
from repro.version import __version__


class TestCli:
    def test_version(self, capsys):
        assert main(["version"]) == 0
        assert capsys.readouterr().out.strip() == __version__

    def test_router_run(self, capsys):
        code = main(["router", "--scheme", "local", "--delay-us", "20",
                     "--sim-ms", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "forwarded=" in out and "corrupt=0" in out

    def test_router_driver_scheme(self, capsys):
        code = main(["router", "--scheme", "driver-kernel",
                     "--delay-us", "40", "--sim-ms", "1"])
        assert code == 0
        assert "scheme=driver-kernel" in capsys.readouterr().out

    def test_router_multi_cpu(self, capsys):
        code = main(["router", "--scheme", "gdb-kernel", "--cpus", "2",
                     "--delay-us", "20", "--sim-ms", "1"])
        assert code == 0
        assert "cpus=2" in capsys.readouterr().out

    def test_loc(self, capsys):
        assert main(["loc"]) == 0
        out = capsys.readouterr().out
        assert "SystemC side" in out and "guest side" in out

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_bad_scheme_rejected(self):
        with pytest.raises(SystemExit):
            main(["router", "--scheme", "quantum"])

    def test_report_to_file(self, tmp_path, capsys, monkeypatch):
        # Shrink the report workload: patch the quick sim times.
        from repro.analysis import report as report_module
        from repro.sysc.simtime import MS, US

        def tiny_report(quick=True):
            assert quick
            return "# Reproduction report\n(tiny)\n"

        monkeypatch.setattr(report_module, "generate_report", tiny_report)
        out_file = tmp_path / "report.md"
        code = main(["report", "-o", str(out_file)])
        assert code == 0
        assert out_file.read_text().startswith("# Reproduction report")

    def test_trace_text(self, capsys):
        code = main(["trace", "--scheme", "gdb-kernel", "--sim-us", "40",
                     "--limit", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "kernel/timestep" in out
        assert "cheap_polls" in out          # the profile comparison

    def test_trace_chrome_to_file(self, tmp_path, capsys):
        out_file = tmp_path / "trace.json"
        code = main(["trace", "--scheme", "gdb-wrapper", "--sim-us", "40",
                     "--format", "chrome", "-o", str(out_file)])
        assert code == 0
        import json

        data = json.loads(out_file.read_text())
        names = {event["name"] for event in data["traceEvents"]}
        assert "cosim/sync_cycle" in names

    def test_trace_all_schemes_compared(self, capsys):
        code = main(["trace", "--sim-us", "40", "--limit", "0"])
        out = capsys.readouterr().out
        assert code == 0
        for scheme in ("gdb-wrapper", "gdb-kernel", "driver-kernel"):
            assert scheme in out
        assert "sync_transactions" in out

    def test_bench_writes_reports(self, tmp_path, capsys):
        code = main(["bench", "--scheme", "driver-kernel", "--sim-us",
                     "40", "--out-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        from repro.obs.bench import load_report

        paths = sorted(tmp_path.glob("BENCH_*.json"))
        assert len(paths) == 1
        report = load_report(paths[0])
        assert report["schema"] == "repro-bench/1"
        assert report["counters"]["sc_timesteps"] > 0
        assert "seconds" in report["wall"]
        assert "wrote" in out

    def test_trace_json_carries_metadata_header(self, capsys):
        import json

        from repro.obs.tracer import TRACE_HEADER_KEY, strip_header

        code = main(["trace", "--scheme", "driver-kernel", "--sim-us",
                     "40", "--format", "json"])
        assert code == 0
        out = capsys.readouterr().out
        header = json.loads(out.split("\n", 1)[0])
        assert header[TRACE_HEADER_KEY] == "1"
        assert header["scheme"] == "driver-kernel"
        assert header["version"] == __version__
        assert header["quantum"] == 1
        # strip_header removes exactly the header, nothing else.
        events_text, _, __ = out.partition("\n\n")
        body = strip_header(events_text + "\n")
        assert json.loads(body.split("\n", 1)[0])["seq"] == 0

    def test_spans_table(self, capsys):
        code = main(["spans", "--scheme", "driver-kernel",
                     "--sim-us", "40"])
        out = capsys.readouterr().out
        assert code == 0
        assert "driver_round_trip" in out
        assert "spans," in out and "open" in out

    def test_spans_perfetto_to_file(self, tmp_path, capsys):
        import json

        from repro.obs.scenarios import (quickstart_config,
                                         run_traced_scenario)
        from repro.obs.spans import perfetto_spans_json, spans_from_tracer

        out_file = tmp_path / "spans.json"
        code = main(["spans", "--scheme", "gdb-kernel", "--sim-us", "40",
                     "--format", "perfetto", "-o", str(out_file)])
        assert code == 0
        assert "wrote" in capsys.readouterr().out
        data = json.loads(out_file.read_text())
        phases = {event.get("ph") for event in data["traceEvents"]}
        assert "b" in phases                # async begin slices
        run = run_traced_scenario(
            quickstart_config("gdb-kernel", seed=7, sync_quantum=1), 40)
        assert out_file.read_text() == perfetto_spans_json(
            spans_from_tracer(run.tracer))

    def test_health_clean_run_exits_zero(self, capsys):
        code = main(["health", "--scheme", "driver-kernel",
                     "--sim-us", "40"])
        out = capsys.readouterr().out
        assert code == 0
        assert "health:" in out

    def test_health_chaos_storm_fails(self, capsys):
        code = main(["health", "--chaos", "storm"])
        out = capsys.readouterr().out
        assert code != 0
        assert "retransmit-storm" in out

    def test_health_chaos_stall_fails(self, capsys):
        code = main(["health", "--chaos", "stall"])
        out = capsys.readouterr().out
        assert code != 0
        assert "quarantine" in out
        assert "stalled-span" in out

    def test_health_records_mode(self, tmp_path, capsys):
        import json

        record = {"schema": "repro-bench/1", "name": "sick", "config": {},
                  "counters": {"contexts_quarantined": 1},
                  "wall": {"seconds": 0.1}}
        (tmp_path / "BENCH_sick.json").write_text(json.dumps(record))
        code = main(["health", "--records", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "quarantine" in out

    def test_checkpoint_save_verify_restore(self, tmp_path, capsys):
        out_dir = str(tmp_path / "ck")
        code = main(["checkpoint", "save", "--scheme", "gdb-kernel",
                     "--sim-us", "60", "--quantum", "4", "--every", "4",
                     "--out-dir", out_dir])
        out = capsys.readouterr().out
        assert code == 0
        assert "latest:" in out
        latest = out.rsplit("latest: ", 1)[1].split(" ")[0]

        code = main(["checkpoint", "verify", latest])
        out = capsys.readouterr().out
        assert code == 0
        assert "verified" in out and "scheme=gdb-kernel" in out

        code = main(["checkpoint", "restore", latest,
                     "--sim-us", "120"])
        out = capsys.readouterr().out
        assert code == 0
        assert "restored" in out and "forwarded=" in out

    def test_checkpoint_verify_missing_is_one_line(self, tmp_path,
                                                   capsys):
        code = main(["checkpoint", "verify",
                     str(tmp_path / "missing.json")])
        out = capsys.readouterr().out
        assert code == 2
        assert len(out.strip().splitlines()) == 1
        assert "does not exist" in out

    def test_checkpoint_verify_corrupt_is_one_line(self, tmp_path,
                                                   capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        code = main(["checkpoint", "verify", str(bad)])
        out = capsys.readouterr().out
        assert code == 2
        assert len(out.strip().splitlines()) == 1
        assert "checkpoint verify failed" in out

    def test_router_checkpoint_and_resume(self, tmp_path, capsys):
        ck_dir = str(tmp_path / "rt")
        code = main(["router", "--scheme", "gdb-kernel", "--cpus", "2",
                     "--sim-ms", "1", "--checkpoint-every", "8",
                     "--checkpoint-dir", ck_dir])
        first = capsys.readouterr().out
        assert code == 0
        names = sorted(p.name for p in (tmp_path / "rt").glob("*.json"))
        assert names, "no checkpoints written"

        code = main(["router", "--scheme", "gdb-kernel", "--cpus", "2",
                     "--sim-ms", "1",
                     "--resume-from", str(tmp_path / "rt" / names[-1])])
        resumed = capsys.readouterr().out
        assert code == 0
        # The resumed run reports the same traffic totals.
        assert resumed.splitlines()[-1] == first.splitlines()[-1]

    def test_router_resume_reports_the_resumed_config(self, tmp_path,
                                                      capsys):
        ck_dir = tmp_path / "dk"
        code = main(["router", "--scheme", "driver-kernel", "--cpus", "2",
                     "--delay-us", "40", "--sim-ms", "1",
                     "--checkpoint-every", "8",
                     "--checkpoint-dir", str(ck_dir)])
        assert code == 0
        capsys.readouterr()
        latest = sorted(ck_dir.glob("checkpoint_*.json"))[-1]
        code = main(["router", "--resume-from", str(latest),
                     "--sim-ms", "2"])
        out = capsys.readouterr().out
        assert code == 0
        # The summary describes the checkpointed run, not the CLI's
        # defaults (gdb-kernel, 1 CPU, 20 us).
        assert "scheme=driver-kernel cpus=2 delay=40us sim=2ms" in out

    def test_router_resume_missing_is_one_line(self, tmp_path, capsys):
        code = main(["router", "--resume-from",
                     str(tmp_path / "gone.json")])
        out = capsys.readouterr().out
        assert code == 2
        assert len(out.strip().splitlines()) == 1
        assert "cannot resume" in out

    def test_health_checkpoint_dir(self, tmp_path, capsys):
        import json

        log = [{"slice": 3, "context": "cpu0", "code": "worker-crash",
                "attempt": 1, "where": "slice"}]
        (tmp_path / "recovery.json").write_text(json.dumps(log))
        code = main(["health", "--checkpoint-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "crash-recovery" in out
        assert "worker-crash" in out

    def test_health_checkpoint_dir_exhausted_is_critical(self, tmp_path,
                                                         capsys):
        import json

        log = [{"slice": 3, "context": "rtos0",
                "code": "watchdog-timeout", "attempt": 1,
                "where": "slice"},
               {"slice": 3, "context": "rtos0",
                "code": "watchdog-timeout", "attempt": 2,
                "where": "slice"}]
        (tmp_path / "recovery.json").write_text(json.dumps(log))
        code = main(["health", "--checkpoint-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "recovery-exhausted" in out

    def test_health_missing_dirs_are_one_line(self, tmp_path, capsys):
        code = main(["health", "--records", str(tmp_path / "recs")])
        out = capsys.readouterr().out
        assert code == 2
        assert len(out.strip().splitlines()) == 1

        code = main(["health", "--checkpoint-dir",
                     str(tmp_path / "cks")])
        out = capsys.readouterr().out
        assert code == 2
        assert len(out.strip().splitlines()) == 1

        (tmp_path / "recs").mkdir()
        code = main(["health", "--records", str(tmp_path / "recs"),
                     "--baseline-dir", str(tmp_path / "base")])
        out = capsys.readouterr().out
        assert code == 2
        assert "baseline" in out


class TestTopCli:
    def _title(self, frame):
        return frame.strip().splitlines()[0]

    def test_once_prints_one_snapshot(self, capsys):
        code = main(["top", "--scheme", "gdb-kernel", "--sim-us", "120",
                     "--once"])
        out = capsys.readouterr().out
        assert code == 0
        assert "\x1b[2J" not in out
        assert self._title(out).startswith(
            "gdb-kernel  t=120000000000fs  timestep=240  points=12")

    @pytest.mark.parametrize("sim_us, refresh", [(120, 2), (100, 6)])
    def test_live_mode_ends_on_the_once_title(self, sim_us, refresh,
                                              capsys):
        main(["top", "--scheme", "gdb-kernel", "--sim-us", str(sim_us),
              "--once"])
        once = capsys.readouterr().out
        code = main(["top", "--scheme", "gdb-kernel", "--sim-us",
                     str(sim_us), "--refresh", str(refresh)])
        frames = capsys.readouterr().out.split("\x1b[2J\x1b[H")[1:]
        assert code == 0
        assert len(frames) == refresh
        # Slicing the run changes the poll sequence (cheap_polls), so
        # only the title line — simulated time, timestep, points — is
        # pinned across the two modes.
        assert self._title(frames[-1]) == self._title(once)


@pytest.mark.parametrize("argv", [
    ["trace", "--scheme", "gdb-kernel", "--quantum", "0"],
    ["metrics", "--quantum", "-3"],
    ["checkpoint", "save", "--every", "0", "--out-dir", "unused"],
    ["router", "--checkpoint-every", "0", "--checkpoint-dir", "unused"],
    ["bench", "--scheme", "gdb-kernel", "--parallel", "thread",
     "--workers", "0", "--out-dir", "unused"],
], ids=["trace-quantum", "metrics-quantum", "checkpoint-every",
        "router-checkpoint-every", "bench-workers"])
def test_bad_run_parameters_are_one_line_exit_2(argv, tmp_path, capsys,
                                                 monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 2
    assert len(out.strip().splitlines()) == 1
    command = " ".join(argv[:2] if argv[0] == "checkpoint" else argv[:1])
    assert out.startswith(command + ": ")
    assert not (tmp_path / "unused").exists()


@pytest.mark.parametrize("flag, value", [
    ("--scheme", "driver-kernel"), ("--sim-us", "60"), ("--seed", "3"),
    ("--quantum", "4"),
])
def test_health_chaos_rejects_scenario_flags(flag, value, capsys):
    # Each chaos kind is built for one scheme and run; a scenario flag
    # would be ignored, so it is refused before anything runs.
    code = main(["health", "--chaos", "storm", flag, value])
    out = capsys.readouterr().out
    assert code == 2
    assert out.strip().splitlines() == [
        "health: --chaos storm runs its own fixed scenario; drop " + flag]


class TestTopologyCli:
    def test_router_custom_width(self, capsys):
        code = main(["router", "--scheme", "gdb-kernel", "--ports", "5",
                     "--delay-us", "20", "--sim-ms", "1"])
        assert code == 0
        assert "forwarded=" in capsys.readouterr().out

    def test_router_multi_stage(self, capsys):
        code = main(["router", "--scheme", "gdb-kernel", "--ports", "2",
                     "--stages", "2,2", "--delay-us", "20",
                     "--sim-ms", "1"])
        assert code == 0

    def test_router_single_port_is_one_line_exit_2(self, capsys):
        code = main(["router", "--scheme", "local", "--ports", "1",
                     "--sim-ms", "1"])
        out = capsys.readouterr().out
        assert code == 2
        assert len(out.strip().splitlines()) == 1
        assert "num_ports" in out

    def test_router_non_square_stages_exit_2(self, capsys):
        code = main(["router", "--scheme", "local", "--ports", "4",
                     "--stages", "4,3", "--sim-ms", "1"])
        out = capsys.readouterr().out
        assert code == 2
        assert "non-square" in out

    def test_router_unparsable_stages_exit_2(self, capsys):
        code = main(["router", "--scheme", "local", "--stages", "4,x",
                     "--sim-ms", "1"])
        out = capsys.readouterr().out
        assert code == 2
        assert len(out.strip().splitlines()) == 1


class TestFuzzCli:
    def test_fuzz_smoke_campaign(self, capsys):
        code = main(["fuzz", "--seed", "7", "--budget", "2",
                     "--no-checkpoint"])
        out = capsys.readouterr().out
        assert code == 0
        assert "fuzz: 2/2 passed" in out

    def test_fuzz_replay_fixture_corpus(self, capsys, tmp_path):
        import os
        fixture = os.path.join("tests", "fixtures", "scenarios",
                               "s001_gdbkernel_p4_d1_onoff_dmi.json")
        code = main(["fuzz", "--replay", fixture, "--no-checkpoint"])
        out = capsys.readouterr().out
        assert code == 0
        assert "replayed 1 scenario(s), 0 failed" in out

    def test_fuzz_replay_missing_path_exit_2(self, capsys, tmp_path):
        code = main(["fuzz", "--replay",
                     str(tmp_path / "absent.json")])
        out = capsys.readouterr().out
        assert code == 2
        assert len(out.strip().splitlines()) == 1

    def test_fuzz_replay_empty_dir_exit_2(self, capsys, tmp_path):
        code = main(["fuzz", "--replay", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 2
        assert "no scenario fixtures" in out

    def test_fuzz_replay_unparsable_fixture_exit_2(self, capsys,
                                                   tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "other/1"}')
        code = main(["fuzz", "--replay", str(bad)])
        out = capsys.readouterr().out
        assert code == 2
        assert len(out.strip().splitlines()) == 1
