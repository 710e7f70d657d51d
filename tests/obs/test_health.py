"""Health analyzer rules, exit codes and record-level regression gates.

Unit tests drive :func:`repro.obs.health.analyze_run` with synthetic
traces (one per rule) and :func:`analyze_records` with temporary
``BENCH_*.json`` directories; integration tests pin the contract the CI
gate relies on: clean seeded baselines exit ``0`` for every scheme, the
seeded chaos scenarios exit ``1``.
"""

import json

import pytest

from repro.obs.health import (HealthReport, HealthThresholds,
                              STALL_CRITICAL_KINDS, analyze_records,
                              analyze_run)
from repro.obs.scenarios import (COSIM_SCHEMES, chaos_health_scenario,
                                 quickstart_config, run_traced_scenario)
from repro.obs.tracer import TraceEvent


def _event(seq, category, name, scope="ctx", timestep=None, **args):
    timestep = seq if timestep is None else timestep
    return TraceEvent(seq, timestep, 0, timestep * 1000, category, name,
                      scope, args)


def _rules(report):
    return {finding.rule for finding in report.findings}


class TestHealthReport:
    def test_empty_report_is_ok(self):
        report = HealthReport()
        assert report.exit_code == 0
        assert report.render() == "health: OK (no findings)"

    def test_exit_code_needs_a_critical(self):
        report = HealthReport()
        report.add("warning", "rule", "subject", "message")
        assert report.exit_code == 0
        report.add("critical", "rule", "subject", "message")
        assert report.exit_code == 1

    def test_unknown_severity_rejected(self):
        with pytest.raises(ValueError):
            HealthReport().add("fatal", "rule", "subject", "message")

    def test_render_orders_critical_first(self):
        report = HealthReport()
        report.add("info", "a-rule", "s", "fine")
        report.add("critical", "z-rule", "s", "bad")
        lines = report.render().split("\n")
        assert lines[0].startswith("health: 2 finding(s), 1 critical")
        assert lines[1].startswith("CRITICAL")

    def test_extend_merges(self):
        first, second = HealthReport(), HealthReport()
        second.add("critical", "rule", "subject", "message")
        first.extend(second)
        assert first.exit_code == 1


class TestAnalyzeRunRules:
    def test_clean_trace_has_no_findings(self):
        events = [
            _event(0, "transport", "send", span="tx:w:1"),
            _event(1, "transport", "ack", span="tx:w:1"),
        ]
        assert analyze_run(events).findings == []

    def test_quarantine_is_critical(self):
        report = analyze_run([_event(0, "cosim", "quarantine",
                                     reason="transport dead")])
        assert report.exit_code == 1
        assert _rules(report) == {"quarantine"}

    def test_retransmit_storm_threshold(self):
        def trace(count):
            return [_event(index, "transport", "retransmit", scope="w",
                           span="tx:w:1") for index in range(count)]
        below = analyze_run(trace(7))
        assert _rules(below) == {"retransmits"}
        assert below.exit_code == 0
        storm = analyze_run(trace(8))
        assert "retransmit-storm" in _rules(storm)
        assert storm.exit_code == 1

    def test_stalled_span_ages_against_final_timestep(self):
        events = [
            _event(0, "driver", "read_issue", span="drv:r:1",
                   timestep=0),
            _event(1, "kernel", "timestep", timestep=49),
        ]
        assert analyze_run(events).findings == []       # age 49 < 50
        events[1] = _event(1, "kernel", "timestep", timestep=50)
        report = analyze_run(events)
        assert _rules(report) == {"stalled-span"}
        assert report.exit_code == 1

    def test_open_breakpoint_hold_is_info_not_critical(self):
        """Held stops are a designed flow-control state, not a stall."""
        assert "breakpoint_sync" not in STALL_CRITICAL_KINDS
        events = [
            _event(0, "cosim", "bp_stop", span="bp:t:1", timestep=0),
            _event(1, "kernel", "timestep", timestep=500),
        ]
        report = analyze_run(events)
        assert report.exit_code == 0
        assert report.by_severity("info")

    def test_hold_hot_spot_ratio(self):
        events = [
            _event(0, "cosim", "bp_stop", span="bp:t:1"),
            _event(1, "cosim", "flow_hold", span="bp:t:1"),
            _event(2, "cosim", "bp_resume", span="bp:t:1"),
            _event(3, "cosim", "bp_stop", span="bp:t:2"),
            _event(4, "cosim", "bp_resume", span="bp:t:2"),
        ]
        report = analyze_run(events)        # 1 hold / 2 stops = 50%
        assert "hold-hot-spot" in _rules(report)
        assert report.exit_code == 0        # warning, not critical
        relaxed = analyze_run(events,
                              thresholds=HealthThresholds(
                                  commit_stall_ratio=0.9))
        assert "hold-hot-spot" not in _rules(relaxed)

    def test_dropped_events_warn(self):
        report = analyze_run([], dropped=3)
        assert _rules(report) == {"trace-dropped"}
        assert report.exit_code == 0

    def test_dmi_invalidation_storm_threshold(self):
        def trace(count):
            return [_event(index, "cosim", "dmi_invalidate", scope="cpu0",
                           span="dmi:cpu0:%d" % index, page=16,
                           reason="watchpoint")
                    for index in range(count)]
        below = analyze_run(trace(5))
        assert _rules(below) == {"dmi-invalidations"}
        assert below.exit_code == 0
        storm = analyze_run(trace(6))
        assert "dmi-storm" in _rules(storm)
        assert storm.exit_code == 1

    def test_dmi_storm_counts_per_page(self):
        """Fallbacks spread over different pages are the tier working,
        not one window thrashing."""
        events = [_event(index, "cosim", "dmi_invalidate", scope="cpu0",
                         span="dmi:cpu0:%d" % index, page=index,
                         reason="breakpoint")
                  for index in range(8)]
        report = analyze_run(events)
        assert "dmi-storm" not in _rules(report)
        assert report.exit_code == 0

    def test_open_dmi_window_is_never_a_stall(self):
        """A grant open at end of run is healthy steady state."""
        events = [
            _event(0, "cosim", "dmi_grant", span="dmi:cpu0:1",
                   timestep=0, page=16),
            _event(1, "kernel", "timestep", timestep=5000),
        ]
        assert analyze_run(events).findings == []


class TestFuzzerShapedInputs:
    """Degenerate inputs the scenario fuzzer routinely produces
    (docs/fuzzing.md): the analyzer must judge them, not crash."""

    def test_empty_event_stream_is_healthy(self):
        report = analyze_run([])
        assert report.findings == []
        assert report.exit_code == 0

    def test_empty_stream_with_drops_still_warns(self):
        report = analyze_run([], dropped=2)
        assert _rules(report) == {"trace-dropped"}
        assert report.exit_code == 0

    def test_empty_stream_with_metrics_quarantines(self):
        """A short horizon can end with zero traced events while the
        watchdog already detached every context."""
        from repro.cosim.metrics import CosimMetrics
        metrics = CosimMetrics()
        metrics.record_quarantine("cpu0", "watchdog")
        metrics.record_quarantine("cpu1", "watchdog")
        report = analyze_run([], metrics=metrics)
        assert report.exit_code == 1
        assert len(report.by_severity("critical")) == 2
        assert {finding.subject for finding in report.findings} \
            == {"cpu0", "cpu1"}

    def test_all_contexts_quarantined_not_double_counted(self):
        """A quarantine both traced and metrics-logged is one finding."""
        from repro.cosim.metrics import CosimMetrics
        metrics = CosimMetrics()
        metrics.record_quarantine("cpu0", "transport dead")
        events = [_event(0, "cosim", "quarantine", scope="cpu0",
                         reason="transport dead")]
        report = analyze_run(events, metrics=metrics)
        assert len(report.by_severity("critical")) == 1

    def test_single_bucket_latency_histogram_percentiles(self):
        """One closed span -> every percentile is that one value."""
        from repro.obs.hist import LatencyHistogram
        histogram = LatencyHistogram("driver_round_trip")
        histogram.add(1200)
        assert histogram.summary() == {"count": 1, "p50": 1200,
                                       "p90": 1200, "max": 1200}
        assert len(histogram.as_dict()["buckets"]) == 1

    def test_empty_latency_histogram_summarizes_to_zero(self):
        from repro.obs.hist import LatencyHistogram
        histogram = LatencyHistogram("transport")
        assert histogram.summary() == {"count": 0, "p50": 0,
                                       "p90": 0, "max": 0}
        assert histogram.as_dict()["buckets"] == {}

    def test_single_bucket_p90_never_regresses_against_itself(self,
                                                              tmp_path):
        """A 1-sample histogram's p90 compared to its own baseline is
        exactly equal: not a regression."""
        current, baseline = tmp_path / "now", tmp_path / "base"
        current.mkdir(), baseline.mkdir()
        counters = {"latency.driver_round_trip.p90": 1200}
        _write_record(baseline, "run", dict(counters))
        _write_record(current, "run", dict(counters))
        report = analyze_records(str(current),
                                 baseline_dir=str(baseline))
        assert report.findings == []


def _write_record(directory, name, counters):
    record = {"schema": "repro-bench/1", "name": name, "config": {},
              "counters": counters, "wall": {"seconds": 0.1}}
    path = directory / ("BENCH_%s.json" % name)
    path.write_text(json.dumps(record))
    return path


class TestAnalyzeRecords:
    def test_empty_directory_warns(self, tmp_path):
        report = analyze_records(str(tmp_path))
        assert _rules(report) == {"no-records"}
        assert report.exit_code == 0

    def test_clean_records_pass(self, tmp_path):
        _write_record(tmp_path, "clean", {"retransmits": 0})
        assert analyze_records(str(tmp_path)).findings == []

    def test_quarantine_and_storm_are_critical(self, tmp_path):
        _write_record(tmp_path, "sick", {"contexts_quarantined": 1,
                                         "retransmits": 99,
                                         "trace.dropped": 2})
        report = analyze_records(str(tmp_path))
        assert {"quarantine", "retransmit-storm",
                "trace-dropped"} <= _rules(report)
        assert report.exit_code == 1

    def test_dmi_storm_counter_is_critical(self, tmp_path):
        _write_record(tmp_path, "thrashy", {"dmi_invalidations": 6})
        report = analyze_records(str(tmp_path))
        assert "dmi-storm" in _rules(report)
        assert report.exit_code == 1
        _write_record(tmp_path, "thrashy", {"dmi_invalidations": 5})
        assert analyze_records(str(tmp_path)).exit_code == 0

    def test_latency_regression_against_baseline(self, tmp_path):
        current, baseline = tmp_path / "now", tmp_path / "base"
        current.mkdir(), baseline.mkdir()
        _write_record(baseline, "run",
                      {"latency.driver_round_trip.p90": 1000})
        _write_record(current, "run",
                      {"latency.driver_round_trip.p90": 1600})
        report = analyze_records(str(current), baseline_dir=str(baseline))
        assert _rules(report) == {"latency-regression"}
        assert report.exit_code == 1
        # Within the 1.5x multiplier: clean.
        _write_record(current, "run",
                      {"latency.driver_round_trip.p90": 1400})
        assert analyze_records(str(current),
                               baseline_dir=str(baseline)).findings == []


@pytest.mark.parametrize("scheme", COSIM_SCHEMES)
def test_clean_baseline_run_is_healthy(scheme):
    """The CI contract: an unfaulted seeded run must exit 0."""
    run = run_traced_scenario(quickstart_config(scheme, max_packets=1),
                              sim_us=60)
    report = analyze_run(run.tracer.events(), metrics=run.system.metrics,
                         dropped=run.tracer.dropped)
    assert report.exit_code == 0, report.render()


@pytest.mark.parametrize("scheme", COSIM_SCHEMES)
def test_clean_dmi_run_is_healthy(scheme):
    """Open grant windows at end of run must not read as stalls."""
    run = run_traced_scenario(
        quickstart_config(scheme, max_packets=1, sync_quantum=8, dmi=True),
        sim_us=60)
    report = analyze_run(run.tracer.events(), metrics=run.system.metrics,
                         dropped=run.tracer.dropped)
    run.system.close()
    assert report.exit_code == 0, report.render()


def test_chaos_storm_is_flagged():
    run = chaos_health_scenario("storm")
    report = analyze_run(run.tracer.events(), metrics=run.system.metrics,
                         dropped=run.tracer.dropped)
    assert report.exit_code == 1
    assert "retransmit-storm" in _rules(report)


def test_chaos_stall_is_flagged():
    run = chaos_health_scenario("stall")
    report = analyze_run(run.tracer.events(), metrics=run.system.metrics,
                         dropped=run.tracer.dropped)
    assert report.exit_code == 1
    rules = _rules(report)
    assert "quarantine" in rules
    assert "stalled-span" in rules


def test_chaos_thrash_is_flagged():
    run = chaos_health_scenario("thrash")
    report = analyze_run(run.tracer.events(), metrics=run.system.metrics,
                         dropped=run.tracer.dropped)
    run.system.close()
    assert report.exit_code == 1
    assert "dmi-storm" in _rules(report)


def test_unknown_chaos_kind_rejected():
    with pytest.raises(ValueError):
        chaos_health_scenario("gremlins")
