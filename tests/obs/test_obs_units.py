"""Unit coverage of the observability primitives themselves."""

import json

import pytest

from repro.cosim.metrics import CosimMetrics
from repro.obs.bench import (BenchReporter, BenchRun, OUTPUT_DIR_ENV,
                             SCHEMA, compare_reports, load_report,
                             sanitize_name)
from repro.obs.profile import SchemeProfile, compare_profiles
from repro.obs.tracer import Tracer, dump_events


class TestTracer:
    def test_events_carry_kernel_counters(self):
        class FakeKernel:
            timestep_count = 3
            delta_count = 9
            now = 42

        tracer = Tracer()
        tracer.bind_kernel(FakeKernel())
        tracer.emit("cat", "name", scope="unit", detail=1)
        (event,) = tracer.events()
        assert (event.timestep, event.delta, event.now) == (3, 9, 42)
        assert event.key == "cat/name"
        assert event.args == {"detail": 1}

    def test_dump_round_trips(self):
        tracer = Tracer()
        tracer.emit("a", "b", scope="s", x=1)
        tracer.emit("a", "c")
        lines = tracer.dump().splitlines()
        assert [json.loads(line)["name"] for line in lines] == ["b", "c"]
        assert dump_events([]) == ""

    def test_counts_and_clear(self):
        tracer = Tracer()
        for __ in range(3):
            tracer.emit("k", "tick")
        tracer.emit("k", "tock")
        assert tracer.counts() == {"k/tick": 3, "k/tock": 1}
        tracer.clear()
        assert len(tracer) == 0
        tracer.emit("k", "tick")
        assert tracer.events()[0].seq == 4   # seq survives clear()

    def test_chrome_trace_shape(self):
        tracer = Tracer()
        tracer.emit("cat", "ev", scope="cpu0", pc=4096)
        data = tracer.chrome_trace()
        meta = [e for e in data["traceEvents"] if e["ph"] == "M"]
        instants = [e for e in data["traceEvents"] if e["ph"] == "i"]
        assert meta[0]["args"]["name"] == "cpu0"
        assert instants[0]["name"] == "cat/ev"
        assert instants[0]["args"]["pc"] == 4096
        json.loads(tracer.chrome_trace_json())   # serialisable

    def test_timeline_limit(self):
        tracer = Tracer()
        for index in range(5):
            tracer.emit("k", "e", index=index)
        assert len(tracer.timeline(limit=2).splitlines()) == 3  # header+2
        assert len(tracer.timeline(limit=0).splitlines()) == 1
        assert len(tracer.timeline().splitlines()) == 6


class TestProfile:
    def _metrics(self):
        return CosimMetrics(scheme="gdb-kernel", cheap_polls=100,
                            sc_timesteps=50, iss_cycles=2000)

    def test_from_run_computes_rates(self):
        profile = SchemeProfile.from_run(self._metrics())
        assert profile.scheme == "gdb-kernel"
        assert profile.counters["cheap_polls"] == 100
        assert profile.rates["cheap_polls_per_timestep"] == 2.0

    def test_compare_renders_all_schemes(self):
        table = compare_profiles([
            SchemeProfile.from_run(self._metrics()),
            SchemeProfile.from_run(CosimMetrics(scheme="gdb-wrapper",
                                                sync_transactions=7,
                                                sc_timesteps=7)),
        ])
        assert "gdb-kernel" in table and "gdb-wrapper" in table
        assert "sync_transactions" in table


class TestBench:
    def test_sanitize_name(self):
        assert sanitize_name("a/b::c[1x]") == "a_b_c_1x"
        assert sanitize_name("ok-name_1.2") == "ok-name_1.2"

    def test_reporter_writes_and_loads(self, tmp_path):
        reporter = BenchReporter(str(tmp_path))
        run = reporter.open_run("demo/one")
        run.record(trace_events=4, sc_timesteps=2)
        path = reporter.write(run)
        assert path.endswith("BENCH_demo_one.json")
        report = load_report(path)
        assert report["schema"] == SCHEMA
        assert report["counters"]["trace_events"] == 4
        assert report["wall"]["seconds"] >= 0
        assert reporter.written == [path]

    def test_reporter_env_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path))
        reporter = BenchReporter()
        assert reporter.directory == str(tmp_path)

    def test_load_rejects_foreign_schema(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        path.write_text('{"schema": "other/9"}')
        with pytest.raises(ValueError, match="unknown bench schema"):
            load_report(str(path))

    def test_record_metrics_splits_scheme_into_config(self):
        run = BenchRun(name="m")
        run.record_metrics(CosimMetrics(scheme="driver-kernel",
                                        messages_sent=3))
        record = run.as_dict()
        assert record["config"]["scheme"] == "driver-kernel"
        assert record["counters"]["messages_sent"] == 3
        assert "scheme" not in record["counters"]
        assert "quarantine_log" not in record["counters"]

    def test_compare_flags_any_invalidation_rise(self):
        baseline = {"counters": {"block_invalidations": 3,
                                 "superblock_invalidations": 0}}
        same = {"counters": dict(baseline["counters"])}
        assert compare_reports(same, baseline) == []
        fewer = {"counters": {"block_invalidations": 0}}
        assert compare_reports(fewer, baseline) == []
        risen = {"counters": {"block_invalidations": 4,
                              "superblock_invalidations": 1}}
        problems = compare_reports(risen, baseline)
        assert problems == [
            "block_invalidations rose over baseline: 3 -> 4",
            "superblock_invalidations rose over baseline: 0 -> 1"]


def test_metrics_aggregate_sums_numeric_fields():
    first = CosimMetrics(scheme="a", cheap_polls=1, retransmits=2)
    second = CosimMetrics(scheme="b", cheap_polls=10, iss_cycles=5)
    total = CosimMetrics.aggregate([first, second])
    assert total.scheme == "aggregate"
    assert total.cheap_polls == 11
    assert total.retransmits == 2
    assert total.iss_cycles == 5
