"""The telemetry time-series on its simulated-time grid (repro.obs.metrics).

Unit coverage of the ring, rates, canonical dumps and the Prometheus
exposition, plus integration against real runs: the sampler records
points with monotone sim-time and cumulative counters, at most one per
grid period for every scheme and sync quantum, disabling telemetry
removes the sink, checkpoints carry the series, and the windowed health
rules (:func:`repro.obs.health.analyze_series`) fire on the rates.
"""

import dataclasses
import json

import pytest

from repro.obs.health import HealthThresholds, analyze_series
from repro.obs.metrics import (GRID_PERIOD, MetricsSeries, prometheus_text,
                               sampled_counters)
from repro.obs.scenarios import (COSIM_SCHEMES, quickstart_config,
                                 run_traced_scenario)
from repro.router.system import RouterConfig, RouterSystem
from repro.sysc.simtime import MS, US

# ---------------------------------------------------------------------------
# MetricsSeries units


def _series(capacity=8):
    return MetricsSeries(counters=("a", "b"), capacity=capacity)


def test_series_append_latest_value_window():
    series = _series()
    assert len(series) == 0
    assert series.latest() is None
    assert series.value("a") == 0
    series.append(10, 1, (1, 2))
    series.append(20, 2, (3, 4))
    assert len(series) == 2
    assert series.latest().now == 20
    assert series.value("a") == 3
    assert series.value("b") == 4
    assert [point.now for point in series.window(1)] == [20]
    assert [point.now for point in series.window(99)] == [10, 20]
    assert series.window(0) == []


def test_series_eviction_is_counted():
    series = _series(capacity=2)
    for index in range(3):
        series.append(index, index, (index, index))
    assert len(series) == 2
    assert series.evicted == 1
    assert [point.now for point in series.points()] == [1, 2]
    assert series.latest_sample()["points_evicted"] == 1


def test_series_rates_are_per_grid_period():
    series = _series()
    assert series.rates(4) == {}
    series.append(GRID_PERIOD, 20, (0, 100))
    assert series.rates(4) == {}
    series.append(2 * GRID_PERIOD, 40, (4, 100))
    series.append(3 * GRID_PERIOD + 5, 61, (8, 106))
    assert series.rates(3) == {"a": 4.0, "b": 3.0}
    assert series.rates(2) == {"a": 4.0, "b": 6.0}
    # A period without sync progress has no point; the rate still
    # divides by the periods covered.
    series.append(5 * GRID_PERIOD, 100, (12, 106))
    assert series.rates(2) == {"a": 2.0, "b": 0.0}


def test_series_dump_is_canonical_and_round_trips():
    first, second = _series(), _series()
    for series in (first, second):
        series.append(10, 1, (1, 2))
        series.append(20, 2, (3, 4))
    assert first.dump() == second.dump()
    state = json.loads(first.dump())
    assert state["counters"] == ["a", "b"]
    assert state["points"] == [[10, 1, [1, 2]], [20, 2, [3, 4]]]
    assert state["evicted"] == 0


def test_series_ndjson_lines_parse_with_sim_index():
    series = _series()
    series.append(10, 1, (1, 2))
    series.append(20, 2, (3, 4))
    lines = series.to_ndjson_lines()
    assert len(lines) == 2
    last = json.loads(lines[-1])
    assert last == {"a": 3, "b": 4, "sim_now_fs": 20, "timestep": 2}


def test_default_counter_order_is_stable():
    # Pinned literally: the order is derived from the CosimMetrics
    # field declarations, and a reordered field would silently reshape
    # every series point and checkpointed series.  Counters may only
    # be appended.
    assert sampled_counters() == (
        "sync_transactions", "cheap_polls", "transfer_transactions",
        "transfer_blocks", "transfer_words", "breakpoint_hits",
        "messages_sent", "messages_received", "interrupts_posted",
        "isr_dispatches", "iss_cycles", "sc_timesteps", "grants",
        "retransmits", "drops_detected", "corrupt_rejected",
        "contexts_quarantined", "quantum_syncs", "quantum_steps_batched",
        "blocks_compiled", "block_hits", "block_invalidations",
        "superblocks_compiled", "superblock_exits",
        "superblock_invalidations", "superblock_side_exits",
        "dmi_reads", "dmi_writes", "dmi_invalidations", "trace_dropped",
        "warped_syncs", "warped_cycles", "warped_steps")
    assert MetricsSeries().counters == sampled_counters()


# ---------------------------------------------------------------------------
# Prometheus exposition


def test_prometheus_text_types_labels_and_escaping():
    text = prometheus_text(
        {"retransmits": 3, "sim_now_fs": 500, "note": "skip-me",
         "flag": True},
        labels={"scheme": 'gdb "kernel"', "seed": "7"})
    lines = text.splitlines()
    assert "# TYPE repro_retransmits counter" in lines
    assert "# TYPE repro_sim_now_fs gauge" in lines
    expected_labels = '{scheme="gdb \\"kernel\\"",seed="7"}'
    assert ("repro_retransmits%s 3" % expected_labels) in lines
    # Non-numeric and boolean values are skipped entirely.
    assert not any("note" in line or "flag" in line for line in lines)
    assert text.endswith("\n")
    assert prometheus_text({}) == ""


# ---------------------------------------------------------------------------
# Sampler integration (real runs)


def test_sampler_records_monotone_per_quantum_points():
    run = run_traced_scenario(quickstart_config("gdb-kernel"), sim_us=60)
    series = run.system.telemetry.series
    points = series.points()
    assert len(points) > 0
    nows = [point.now for point in points]
    assert nows == sorted(nows) and len(set(nows)) == len(nows)
    # Every sampled counter is cumulative: values never decrease.
    for earlier, later in zip(points, points[1:]):
        assert all(b >= a for a, b in zip(earlier.values, later.values))
    sample = series.latest_sample()
    assert sample["iss_cycles"] > 0
    assert sample["sim_now_fs"] == run.system.kernel.now
    run.system.close()


#: The wall benchmark's ``table1`` cell config: lock-step, block tier,
#: serial, telemetry on.
TABLE1 = dict(seed=42, inter_packet_delay=30 * US, sync_quantum=1,
              dmi=False, tier="blocks", parallel=None)


def _grid_periods(config):
    """The grid period of every point of a 10 ms run, and the series."""
    system = RouterSystem(config)
    try:
        system.run(10 * MS)
    finally:
        system.close()
    series = system.telemetry.series
    return [point.now // GRID_PERIOD for point in series.points()], series


@pytest.mark.parametrize("scheme", COSIM_SCHEMES)
def test_grid_density_on_table1(scheme):
    config = RouterConfig(scheme=scheme, **TABLE1)
    periods, series = _grid_periods(config)
    # One point per 10 us boundary after t=0 at most, all in the ring.
    assert 0 < len(periods) <= 1_001
    assert series.evicted == 0
    assert len(set(periods)) == len(periods)
    # The grid is simulated time: batching quanta does not move it.
    batched, __ = _grid_periods(dataclasses.replace(config,
                                                    sync_quantum=8))
    assert batched == periods


@pytest.mark.parametrize("quantum", [1, 8])
def test_closing_point_takes_its_grid_period_s_place(quantum):
    system = RouterSystem(RouterConfig(
        scheme="gdb-kernel", **dict(TABLE1, sync_quantum=quantum)))
    series = system.telemetry.series
    try:
        system.run(25 * US)
        # Grid points at 10 and 20 us; the run's closing point at 25 us
        # replaces the second, so it ends on the run's final counters.
        assert [point.now for point in series.points()] \
            == [10 * US, 25 * US]
        assert series.latest_sample()["sim_now_fs"] == system.kernel.now
        assert series.value("sc_timesteps") \
            == system.metrics.sc_timesteps
        # The next run picks the grid up at its next boundary.
        system.run(15 * US)
        assert [point.now for point in series.points()] \
            == [10 * US, 25 * US, 30 * US, 40 * US]
    finally:
        system.close()


def test_telemetry_config_flag_disables_the_sampler():
    run = run_traced_scenario(
        quickstart_config("gdb-kernel", telemetry=False), sim_us=40)
    assert run.system.telemetry is None
    run.system.close()


def test_checkpoint_state_carries_the_series():
    from repro.cosim.checkpoint import capture_state

    run = run_traced_scenario(quickstart_config("gdb-kernel"), sim_us=40)
    state = capture_state(run.system)
    telemetry = state["telemetry"]
    assert telemetry["enabled"] is True
    assert len(telemetry["points"]) == len(run.system.telemetry.series)
    assert telemetry["counters"] == list(sampled_counters())
    run.system.close()


# ---------------------------------------------------------------------------
# Windowed health rules over a series


def _rate_series(counters, rows):
    """One point per grid boundary, as the sampler records them."""
    series = MetricsSeries(counters=counters, capacity=64)
    for index, row in enumerate(rows):
        series.append(GRID_PERIOD * (index + 1), index + 1, row)
    return series


def test_analyze_series_too_few_points_is_info():
    report = analyze_series(_rate_series(("retransmits",), [(0,)]))
    assert report.exit_code == 0
    assert report.findings[0].severity == "info"
    assert "too few" in report.findings[0].message


def test_analyze_series_flags_retransmit_rate():
    series = _rate_series(
        ("retransmits", "iss_cycles", "sc_timesteps"),
        [(0, 10, 1), (3, 20, 2), (6, 30, 3), (9, 40, 4)])
    report = analyze_series(series)
    assert report.exit_code == 1
    assert [finding.rule for finding in report.findings] \
        == ["retransmit-rate"]


def test_analyze_series_flags_stalled_execution():
    series = _rate_series(
        ("retransmits", "iss_cycles", "sc_timesteps"),
        [(0, 50, 1), (0, 50, 2), (0, 50, 3)])
    report = analyze_series(series)
    assert report.exit_code == 0
    assert [finding.rule for finding in report.findings] \
        == ["no-execution-progress"]
    assert report.findings[0].severity == "warning"


def test_analyze_series_quiet_run_is_info():
    series = _rate_series(
        ("retransmits", "dmi_invalidations", "iss_cycles",
         "sc_timesteps"),
        [(0, 0, 10, 1), (1, 0, 20, 2), (1, 1, 30, 3)])
    report = analyze_series(series, HealthThresholds())
    assert report.exit_code == 0
    assert [finding.severity for finding in report.findings] == ["info"]


def test_analyze_series_on_a_real_run_is_healthy():
    run = run_traced_scenario(quickstart_config("driver-kernel"),
                              sim_us=60)
    report = analyze_series(run.system.telemetry.series)
    assert report.exit_code == 0
    run.system.close()
