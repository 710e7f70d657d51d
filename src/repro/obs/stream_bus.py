"""Mid-run event streaming: the observability subscription bus.

End-of-run artifacts (trace dumps, BENCH records, health reports)
cannot show a retransmit storm *while it happens*.  A
:class:`StreamBus` publishes the observability stack's events to
subscribers as the simulation runs: ``trace`` events from a tracer
tap, grid ``metrics`` points from the telemetry sampler
(:mod:`repro.obs.metrics`), ``span``/``health`` payloads from whoever
computes them, each as a plain JSON-ready dict.  Two sinks ship now —
:class:`NdjsonSink` (one canonical JSON line per event, the CI
artifact format) and :class:`CallbackSink` (collect in memory).

Publication order is simulation order — taps fire at main-thread
emission and the sampler at committed timesteps — so a stream
captured from a seeded run is byte-stable, serial or parallel (pool
workers never publish: their trace emissions are buffered and
replayed at the commit point before the sampler runs).

:class:`StreamHealthMonitor` upgrades the health analysis from run
totals to windowed *rates*: subscribed to the ``metrics`` topic, it
watches counter deltas per 10 us grid period and publishes a
``health`` event the moment e.g. retransmits per period cross the
threshold — the live counterpart of
:func:`repro.obs.health.analyze_series`, with the same rules
(:func:`repro.obs.health.rate_findings`).
"""

import json
from collections import deque

from repro.obs.health import HealthThresholds, rate_findings
from repro.obs.metrics import GRID_PERIOD, grid_periods


class StreamBus:
    """A synchronous per-topic publish/subscribe fan-out.

    Subscribers are called in subscription order with
    ``callback(topic, payload)``; the ``"*"`` topic receives every
    event.  Synchronous dispatch keeps the bus deterministic — a
    subscriber sees each event at the exact simulation point it was
    published.
    """

    def __init__(self):
        self._subscribers = {}
        self._closers = []
        self.published = 0

    def subscribe(self, topic, callback):
        """Deliver *topic* events (or all, for ``"*"``) to *callback*."""
        self._subscribers.setdefault(topic, []).append(callback)
        return callback

    def unsubscribe(self, topic, callback):
        """Stop delivering *topic* events to *callback*."""
        callbacks = self._subscribers.get(topic)
        if callbacks and callback in callbacks:
            callbacks.remove(callback)

    def publish(self, topic, payload):
        """Fan one event out to the topic's and the ``"*"`` subscribers."""
        self.published += 1
        for callback in self._subscribers.get(topic, ()):
            callback(topic, payload)
        if topic != "*":
            for callback in self._subscribers.get("*", ()):
                callback(topic, payload)

    def add_closer(self, closer):
        """Run *closer* when the bus is closed (detach taps, flush)."""
        self._closers.append(closer)

    def close(self):
        """Detach taps and close owned sinks; the bus stays usable."""
        closers, self._closers = self._closers, []
        for closer in closers:
            closer()


class CallbackSink:
    """Collects published ``(topic, payload)`` pairs in memory."""

    def __init__(self):
        self.events = []

    def __call__(self, topic, payload):
        self.events.append((topic, payload))

    def topics(self):
        """The distinct topics seen, in first-seen order."""
        seen = []
        for topic, __ in self.events:
            if topic not in seen:
                seen.append(topic)
        return seen


class NdjsonSink:
    """Writes each published event as one canonical NDJSON line.

    ``{"topic": ..., "event": {...}}`` with sorted keys and fixed
    separators, so a stream captured from a seeded run is directly
    diffable.  *target* is a path (opened and owned) or an open
    text handle (flushed, not closed).
    """

    def __init__(self, target):
        if hasattr(target, "write"):
            self._handle = target
            self._owns = False
        else:
            self._handle = open(target, "w")
            self._owns = True
        self.lines = 0

    def __call__(self, topic, payload):
        record = {"topic": topic, "event": payload}
        self._handle.write(json.dumps(record, sort_keys=True,
                                      separators=(",", ":")) + "\n")
        self.lines += 1

    def close(self):
        """Close an owned path's handle; just flush a borrowed one."""
        if self._owns:
            self._handle.close()
        else:
            self._handle.flush()


class StreamHealthMonitor:
    """Publishes windowed-rate health findings while the run executes.

    Keeps the newest ``rate_window`` metrics points (a run's closing
    point takes the place of its grid period's point, as in the
    series) and, on each new point, applies
    :func:`~repro.obs.health.rate_findings` to the window.  Each rule
    fires at most once per run (the first crossing is the interesting
    moment; the end-of-run :func:`~repro.obs.health.analyze_series`
    pass reports final rates).
    """

    def __init__(self, bus, thresholds=None, window=None):
        self.bus = bus
        self.thresholds = thresholds if thresholds is not None \
            else HealthThresholds()
        self.window = window if window is not None \
            else self.thresholds.rate_window
        self._points = deque(maxlen=max(2, self.window))
        self.fired = set()
        bus.subscribe("metrics", self._on_point)

    def _on_point(self, topic, payload):
        points = self._points
        now = payload["sim_now_fs"]
        if points and points[-1]["sim_now_fs"] // GRID_PERIOD \
                == now // GRID_PERIOD:
            points[-1] = payload
        else:
            points.append(payload)
        if len(points) < 2:
            return
        first = points[0]
        for finding in rate_findings(
                first, payload, grid_periods(first["sim_now_fs"], now),
                self.thresholds):
            if finding.rule in self.fired:
                continue
            self.fired.add(finding.rule)
            self.bus.publish("health", dict(
                finding.as_dict(), sim_now_fs=now,
                timestep=payload["timestep"]))


def attach_stream(system, bus=None, monitor=False, thresholds=None):
    """Wire a bus into a built :class:`RouterSystem`.

    Taps the system tracer (each emitted event published on ``trace``)
    and attaches the telemetry sampler's ``metrics`` feed; with
    *monitor* true, a :class:`StreamHealthMonitor` evaluates the
    windowed-rate rules live.  Returns the bus; ``bus.close()``
    detaches the tap again.
    """
    if bus is None:
        bus = StreamBus()
    tracer = system.tracer
    if tracer.enabled:
        def tap(event):
            bus.publish("trace", event.as_dict())
        tracer.add_tap(tap)
        bus.add_closer(lambda: tracer.remove_tap(tap))
    sampler = system.telemetry
    if sampler is not None:
        sampler.attach_bus(bus)
    if monitor:
        StreamHealthMonitor(bus, thresholds=thresholds)
    return bus


def publish_report(bus, report):
    """Publish each finding of a HealthReport as a ``health`` event."""
    for finding in report.findings:
        bus.publish("health", finding.as_dict())
    return len(report.findings)
