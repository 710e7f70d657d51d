"""The live observability stream bus (repro.obs.stream_bus).

Bus mechanics (topics, wildcard, unsubscribe, closers), the two sinks,
the windowed-rate live health monitor, and the system wiring: a bus
attached to a built system captures trace and metrics events mid-run
in simulation order, and two identical seeded runs stream identical
bytes.
"""

import io
import json

from repro.obs.health import HealthReport, HealthThresholds
from repro.obs.metrics import GRID_PERIOD
from repro.obs.stream_bus import (CallbackSink, NdjsonSink, StreamBus,
                                  StreamHealthMonitor, attach_stream,
                                  publish_report)
from repro.router.system import RouterConfig, build_system
from repro.sysc.simtime import US
from repro.obs.tracer import Tracer


def test_bus_topic_and_wildcard_dispatch():
    bus = StreamBus()
    topical, wildcard = CallbackSink(), CallbackSink()
    bus.subscribe("metrics", topical)
    bus.subscribe("*", wildcard)
    bus.publish("metrics", {"a": 1})
    bus.publish("trace", {"b": 2})
    assert topical.events == [("metrics", {"a": 1})]
    assert wildcard.events == [("metrics", {"a": 1}),
                               ("trace", {"b": 2})]
    assert wildcard.topics() == ["metrics", "trace"]
    assert bus.published == 2


def test_bus_unsubscribe_and_closers():
    bus = StreamBus()
    sink = CallbackSink()
    bus.subscribe("metrics", sink)
    bus.unsubscribe("metrics", sink)
    bus.publish("metrics", {"a": 1})
    assert sink.events == []
    ran = []
    bus.add_closer(lambda: ran.append(True))
    bus.close()
    bus.close()                      # closers run once
    assert ran == [True]


def test_ndjson_sink_writes_canonical_lines():
    handle = io.StringIO()
    sink = NdjsonSink(handle)
    sink("metrics", {"b": 2, "a": 1})
    sink("health", {"rule": "x"})
    sink.close()                     # flushes, does not close the handle
    lines = handle.getvalue().splitlines()
    assert sink.lines == 2
    assert lines[0] == '{"event":{"a":1,"b":2},"topic":"metrics"}'
    assert json.loads(lines[1])["topic"] == "health"


def test_ndjson_sink_owns_a_path(tmp_path):
    path = tmp_path / "stream.ndjson"
    sink = NdjsonSink(str(path))
    sink("trace", {"seq": 1})
    sink.close()
    assert json.loads(path.read_text())["event"] == {"seq": 1}


def _metrics_point(index, retransmits=0, dmi=0, iss_cycles=None,
                   sc_timesteps=None):
    """The sampler's point at the *index*-th grid boundary."""
    point = {"retransmits": retransmits, "dmi_invalidations": dmi,
             "iss_cycles": 100 * index if iss_cycles is None
             else iss_cycles,
             "sc_timesteps": 20 * index if sc_timesteps is None
             else sc_timesteps,
             "sim_now_fs": GRID_PERIOD * index, "timestep": 20 * index}
    return point


def test_monitor_fires_once_on_a_retransmit_storm():
    bus = StreamBus()
    health = CallbackSink()
    bus.subscribe("health", health)
    monitor = StreamHealthMonitor(bus, thresholds=HealthThresholds())
    for index in range(6):
        bus.publish("metrics", _metrics_point(index,
                                              retransmits=3 * index))
    assert len(health.events) == 1
    __, payload = health.events[0]
    assert payload["severity"] == "critical"
    assert payload["rule"] == "retransmit-rate"
    # Fired at the first crossing: the second point already shows 3
    # retransmits per grid period.
    assert payload["timestep"] == 20
    assert payload["sim_now_fs"] == GRID_PERIOD
    assert monitor.fired == {"retransmit-rate"}


def test_monitor_stays_quiet_below_threshold():
    bus = StreamBus()
    health = CallbackSink()
    bus.subscribe("health", health)
    StreamHealthMonitor(bus, thresholds=HealthThresholds())
    for index in range(8):
        bus.publish("metrics", _metrics_point(index,
                                              retransmits=index // 2))
    assert health.events == []


def test_monitor_dmi_invalidation_rule():
    bus = StreamBus()
    health = CallbackSink()
    bus.subscribe("health", health)
    StreamHealthMonitor(bus, thresholds=HealthThresholds())
    for index in range(4):
        bus.publish("metrics", _metrics_point(index, dmi=2 * index))
    assert [payload["rule"] for __, payload in health.events] \
        == ["dmi-invalidation-rate"]


def test_monitor_flags_live_stalled_execution():
    bus = StreamBus()
    health = CallbackSink()
    bus.subscribe("health", health)
    StreamHealthMonitor(bus, thresholds=HealthThresholds())
    for index in range(4):
        bus.publish("metrics", _metrics_point(index))
    assert health.events == []
    # After the third boundary no ISS cycle retires while SystemC keeps
    # advancing: once the 8-point window starts at that boundary, the
    # stall is live, and it is reported once.
    for index in range(4, 16):
        bus.publish("metrics", _metrics_point(index, iss_cycles=300))
    assert [(payload["severity"], payload["rule"], payload["timestep"])
            for __, payload in health.events] \
        == [("warning", "no-execution-progress", 20 * 10)]


def test_monitor_rates_are_per_grid_period():
    # Points three periods apart: 3 retransmits per point is one per
    # period, under the default bar of 2.
    bus = StreamBus()
    health = CallbackSink()
    bus.subscribe("health", health)
    StreamHealthMonitor(bus, thresholds=HealthThresholds())
    for index in range(8):
        bus.publish("metrics", _metrics_point(3 * index,
                                              retransmits=3 * index))
    assert health.events == []


def test_monitor_closing_point_takes_its_period_s_place():
    # A run's closing point lands in the grid period of the last point
    # and replaces it, as in the series: the window keeps one point
    # per period, so a burst just before the close is one period's.
    bus = StreamBus()
    health = CallbackSink()
    bus.subscribe("health", health)
    monitor = StreamHealthMonitor(bus, thresholds=HealthThresholds(),
                                  window=2)
    bus.publish("metrics", _metrics_point(0))
    bus.publish("metrics", _metrics_point(1, retransmits=1))
    closing = dict(_metrics_point(1, retransmits=3),
                   sim_now_fs=GRID_PERIOD + 7, timestep=23)
    bus.publish("metrics", closing)
    assert list(monitor._points) == [_metrics_point(0), closing]
    assert [payload["rule"] for __, payload in health.events] \
        == ["retransmit-rate"]


def test_publish_report_fans_findings_out():
    bus = StreamBus()
    sink = CallbackSink()
    bus.subscribe("health", sink)
    report = HealthReport()
    report.add("critical", "retransmit-storm", "transport", "storming")
    report.add("info", "telemetry", "series", "fine")
    assert publish_report(bus, report) == 2
    assert [payload["rule"] for __, payload in sink.events] \
        == ["retransmit-storm", "telemetry"]


# ---------------------------------------------------------------------------
# System wiring


def _streamed_run(sim_us=40, **overrides):
    config = RouterConfig(scheme="gdb-kernel", seed=7, max_packets=2,
                          producer_count=2,
                          inter_packet_delay=20 * US,
                          tracer=Tracer(capacity=200_000), **overrides)
    system = build_system(config)
    bus = attach_stream(system)
    sink = CallbackSink()
    bus.subscribe("*", sink)
    system.run(sim_us * US)
    return system, bus, sink


def test_attach_stream_captures_trace_and_metrics_mid_run():
    system, bus, sink = _streamed_run()
    topics = set(sink.topics())
    assert "trace" in topics and "metrics" in topics
    metrics_events = [payload for topic, payload in sink.events
                      if topic == "metrics"]
    assert len(metrics_events) == len(system.telemetry.series)
    trace_events = [payload for topic, payload in sink.events
                    if topic == "trace"]
    # The tap sees every event emitted after attachment — the ring's
    # head additionally holds the build-time setup events.
    assert trace_events
    ring = [event.as_dict() for event in system.tracer.events()]
    assert trace_events == ring[-len(trace_events):]
    system.close()


def test_stream_is_deterministic_across_runs():
    def capture():
        system, bus, sink = _streamed_run()
        lines = [json.dumps([topic, payload], sort_keys=True)
                 for topic, payload in sink.events]
        system.close()
        return lines

    assert capture() == capture()


def test_bus_close_detaches_the_tracer_tap():
    system, bus, sink = _streamed_run()
    before = len(sink.events)
    bus.close()
    system.tracer.emit("test", "detached", scope="test")
    assert len(sink.events) == before
    system.close()


def test_attached_monitor_flags_a_live_retransmit_storm():
    from repro.cosim.faults import FaultPlan

    plan = FaultPlan(script={index: "drop"
                             for index in range(8, 200, 3)})
    config = RouterConfig(scheme="gdb-kernel", seed=7, max_packets=1,
                          producer_count=2,
                          inter_packet_delay=20 * US,
                          reliability=True, fault_plan=plan,
                          tracer=Tracer(capacity=200_000))
    system = build_system(config)
    # A lowered rate threshold: the storm drops every third frame, so
    # the sustained retransmit rate is well above idle but below the
    # default bar tuned for denser quanta.
    bus = attach_stream(system, monitor=True,
                        thresholds=HealthThresholds(retransmit_rate=0.2))
    health = CallbackSink()
    bus.subscribe("health", health)
    system.run(200 * US)
    assert any(payload["rule"] == "retransmit-rate"
               for __, payload in health.events)
    system.close()
