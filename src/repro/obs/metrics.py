"""Telemetry time-series on a simulated-time grid (docs/observability.md).

The tracer and BENCH records answer *what happened over the whole
run*; this module answers *what was happening as simulated time went
by*.  A :class:`MetricsSampler` attaches to the SystemC kernel as a
trace sink (``Kernel.add_trace``), so it is offered every timestep —
after the scheduler hooks have run, which is exactly where the
parallel dispatcher has already committed its quantum — and appends
one :class:`MetricsPoint` to a bounded sim-time-indexed ring at the
first timestep at or after each boundary of a fixed
:data:`GRID_PERIOD` grid, whenever the co-simulation made *sync
progress* since the last point.  So the series has the same density,
at most one point per grid period, for every scheme and sync quantum.

Determinism contract: a point carries only counters derived from
simulation state (:class:`~repro.cosim.metrics.CosimMetrics` totals,
the per-CPU tier counters, the DMI warp counters, the tracer's drop
count), and the sampling gate is itself a function of simulated time
and those counters — so two runs of the same seeded scenario, serial
or parallel, thread or process backend, produce byte-identical series
(``tests/obs/test_telemetry_identity.py`` asserts this across
scheme x quantum x tier).  Checkpoints serialize the series through
:meth:`MetricsSeries.state` and replay regenerates it identically.

The module also renders any flat counter mapping in the Prometheus
text exposition format (``repro metrics --format prom``), so the
series doubles as a scrape surface.
"""

from collections import deque
from operator import getitem

#: The telemetry grid period, in femtoseconds (10 us): a point is due
#: at the first timestep at or after each multiple of it.
GRID_PERIOD = 10_000_000_000

#: Default ring capacity: at most one point per grid period, so it
#: holds the last 40 ms of simulated time (a 10 ms ``table1`` cell
#: records 1 000 points); eviction is counted, never silent.
DEFAULT_SERIES_CAPACITY = 4096


def grid_periods(first_now, last_now):
    """The grid periods a window from *first_now* to *last_now* spans.

    Counted from the period holding *first_now* to *last_now*'s, and
    at least 1: the span a windowed rate divides by.
    """
    return max(1, last_now // GRID_PERIOD - first_now // GRID_PERIOD)


def sampled_counters():
    """The fixed counter order of every series point: the CosimMetrics
    numeric fields, then the tracer drop count, then the warp sums.

    Resolved lazily (``repro.cosim`` imports the SystemC kernel, which
    imports :mod:`repro.obs.tracer` — an eager import here would close
    that cycle).
    """
    from repro.cosim.binding import ClockBinding
    from repro.cosim.metrics import _NUMERIC_FIELDS
    return (_NUMERIC_FIELDS + ("trace_dropped",)
            + ClockBinding.WARP_COUNTERS)


#: Exposition names that are instantaneous readings, not cumulative
#: counters (every :func:`sampled_counters` entry is cumulative).
GAUGE_NAMES = frozenset(("sim_now_fs", "timestep", "points",
                         "points_evicted"))


class MetricsPoint:
    """One telemetry sample: sim-time index plus the counter tuple."""

    __slots__ = ("now", "timestep", "values")

    def __init__(self, now, timestep, values):
        self.now = now
        self.timestep = timestep
        self.values = values

    def __repr__(self):
        return "MetricsPoint(now=%d, timestep=%d)" % (self.now,
                                                      self.timestep)

    def as_list(self):
        """The point as plain JSON types: ``[now, timestep, [...]]``."""
        return [self.now, self.timestep, list(self.values)]


class MetricsSeries:
    """A bounded ring of :class:`MetricsPoint` samples.

    The counter order is fixed at construction (and serialized with
    the state image), so a point's ``values`` tuple and the series'
    canonical dump are byte-stable across runs and code that only
    *appends* counters.
    """

    def __init__(self, counters=None, capacity=DEFAULT_SERIES_CAPACITY):
        if counters is None:
            counters = sampled_counters()
        self.counters = tuple(counters)
        self.capacity = capacity
        self._points = deque(maxlen=capacity if capacity else 1)
        self._index = {name: position for position, name
                       in enumerate(self.counters)}
        self.evicted = 0

    def __len__(self):
        return len(self._points)

    def append(self, now, timestep, values):
        """Append one sample; evictions at capacity are counted."""
        if len(self._points) == self._points.maxlen:
            self.evicted += 1
        point = MetricsPoint(now, timestep, tuple(values))
        self._points.append(point)
        return point

    def points(self):
        """All buffered points, oldest first."""
        return list(self._points)

    def latest(self):
        """The newest point, or None on an empty series."""
        return self._points[-1] if self._points else None

    def value(self, name):
        """The newest sampled value of counter *name* (0 when empty)."""
        point = self.latest()
        if point is None:
            return 0
        return point.values[self._index[name]]

    def window(self, count):
        """The newest *count* points, oldest first."""
        if count <= 0:
            return []
        points = self._points
        if count >= len(points):
            return list(points)
        return list(points)[-count:]

    def rates(self, window):
        """Per-grid-period counter deltas over the newest *window* points.

        Returns ``{counter: (last - first) / periods}`` — e.g.
        retransmits per 10 us of simulated time, with *periods* the
        :func:`grid_periods` between the first and last point — or
        ``{}`` when fewer than two points exist.  The windowed health
        rules (:func:`repro.obs.health.analyze_series`) evaluate these.
        """
        points = self.window(window)
        if len(points) < 2:
            return {}
        first, last = points[0], points[-1]
        span = grid_periods(first.now, last.now)
        return {name: (last.values[position] - first.values[position])
                / span for position, name in enumerate(self.counters)}

    def latest_sample(self):
        """The newest point as a flat ``{name: value}`` mapping.

        Includes the sim-time index under ``sim_now_fs``/``timestep``
        and the ring accounting, so the mapping is directly
        renderable by :func:`prometheus_text` or ``repro top``.
        """
        point = self.latest()
        if point is None:
            return None
        sample = dict(zip(self.counters, point.values))
        sample["sim_now_fs"] = point.now
        sample["timestep"] = point.timestep
        sample["points"] = len(self._points)
        sample["points_evicted"] = self.evicted
        return sample

    def state(self):
        """Checkpoint-stable plain-JSON image of the whole series."""
        return {
            "counters": list(self.counters),
            "capacity": self.capacity,
            "evicted": self.evicted,
            "points": [point.as_list() for point in self._points],
        }

    def dump(self):
        """Canonical byte-stable JSON of :meth:`state`.

        The serial-vs-parallel identity tests compare these strings
        directly.
        """
        import json
        return json.dumps(self.state(), sort_keys=True,
                          separators=(",", ":"))

    def to_ndjson_lines(self):
        """One canonical JSON object per point (streaming export)."""
        import json
        lines = []
        for point in self._points:
            record = dict(zip(self.counters, point.values))
            record["sim_now_fs"] = point.now
            record["timestep"] = point.timestep
            lines.append(json.dumps(record, sort_keys=True,
                                    separators=(",", ":")))
        return lines


class MetricsSampler:
    """The kernel trace sink feeding a :class:`MetricsSeries`.

    Offered every timestep by ``Kernel._advance_time`` after every hook
    has run, so a parallel run's quantum commit is always complete when
    the sample is taken.  The quiet-timestep skips offer it the
    timesteps they cover at the same point of each
    (:meth:`~repro.sysc.hooks.KernelHook.skip_steps`), with
    ``kernel.now`` and ``kernel.timestep_count`` set.

    A point is due at the first timestep at or after each boundary of
    the :data:`GRID_PERIOD` grid (:attr:`due`); an offer before that
    costs one compare.  At a due timestep a point is recorded only when
    the *sync progress* composite — quantum syncs, sync transactions,
    grants and Driver-Kernel messages — moved since the last point:
    idle stretches (and the local scheme, which has none of this
    traffic) produce no points.  So a lock-step run, where every
    timestep syncs, records one point per grid period, not one per
    timestep.  :meth:`close_run` records a run's closing point, so
    the series always ends on the run's final counters.

    The counter layout is resolved once, at construction (see
    :meth:`_resolve_layout`), and a point costs one C-level pass over
    the counters and one tuple, with no per-sample dicts or attribute
    lookups.
    """

    def __init__(self, system, capacity=DEFAULT_SERIES_CAPACITY):
        self.system = system
        self.metrics = system.metrics
        self.series = MetricsSeries(capacity=capacity)
        #: The next grid boundary: an offer before it records nothing.
        #: The kernel's skips read it to sample a due timestep in place.
        #: A point sums the grid period before it, so the first is due
        #: one period in, never at t=0.
        self.due = GRID_PERIOD
        # Starts at the no-progress composite so a run's first point
        # lands at the first due timestep after one actually synced.
        self._last_progress = 0
        self._bus = None
        self._resolve_layout(self.series.counters)

    def attach_bus(self, bus):
        """Publish every new point as a ``metrics`` bus event."""
        self._bus = bus
        return bus

    def sample(self, kernel):
        """Record a point at a due timestep if sync progress was made.

        Returns the point, or None.
        """
        now = kernel.now
        if now < self.due:
            return None
        self.due = now - now % GRID_PERIOD + GRID_PERIOD
        return self._record(kernel)

    def close_run(self, kernel):
        """Record a kernel run's closing point if sync progress is pending.

        Returns the point, or None.  Budgets flushed at the end of a
        run sync after its last timestep, and progress since the last
        grid point would otherwise wait for the next run's first due
        timestep.  Off the grid, the closing point takes the place of
        a point already recorded in its grid period, so no period
        holds two.
        """
        if kernel.now >= self.due:
            return self.sample(kernel)
        return self._record(kernel, replace=True)

    def _record(self, kernel, replace=False):
        """Append one point unless the progress composite stood still;
        with *replace*, in place of a newest point of the same period."""
        metrics = self.metrics
        progress = (metrics.quantum_syncs + metrics.sync_transactions
                    + metrics.grants + metrics.messages_sent
                    + metrics.messages_received)
        if progress == self._last_progress:
            return None
        self._last_progress = progress
        # The counters, read in series order straight out of their
        # owners' instance dicts (see _resolve_layout).  Through a list:
        # a tuple grown from an iterator keeps the larger block it grew
        # into, and the ring holds thousands of them.
        values = tuple(list(map(getitem, self._sources, self._names)))
        series = self.series
        latest = series.latest()
        if (replace and latest is not None
                and latest.now // GRID_PERIOD == kernel.now // GRID_PERIOD):
            series._points.pop()
        point = series.append(kernel.now, kernel.timestep_count, values)
        bus = self._bus
        if bus is not None:
            payload = dict(zip(series.counters, point.values))
            payload["sim_now_fs"] = point.now
            payload["timestep"] = point.timestep
            bus.publish("metrics", payload)
        return point

    def _resolve_layout(self, counters):
        """Resolve, once, where each counter of a point is read.

        Every counter is a plain instance attribute: a CosimMetrics
        field, a CPU tier counter (the shared-metrics copies lag until
        the next fold), a binding's warp counter, or the tracer's drop
        count.  Reading it out of the owner's instance ``__dict__``
        skips the class lookup ``getattr`` makes per name, so a point
        is one C-level ``map(getitem, sources, names)`` in series order.
        A tier or warp counter of several CPUs or bindings is read as
        a column sum (:class:`_ColumnSum`).  CPU and binding counters
        are synced to the master before the kernel runs its sinks, so
        the values are committed state under every backend.  A
        system's CPUs, bindings and tracer are fixed once it is built,
        so they are resolved here too.
        """
        from repro.cosim.binding import ClockBinding
        from repro.iss.cpu import CPU_COUNTERS
        system = self.system
        bindings = [binding for __, binding in system.bindings()]
        owners = dict.fromkeys(CPU_COUNTERS, system.cpus)
        owners.update(dict.fromkeys(ClockBinding.WARP_COUNTERS, bindings))
        owners["trace_dropped"] = [system.kernel.tracer]
        sources = []
        for name in counters:
            namespaces = [vars(owner)
                          for owner in owners.get(name, [self.metrics])]
            sources.append(namespaces[0] if len(namespaces) == 1
                           else _ColumnSum(namespaces))
        self._sources = tuple(sources)
        # The tracer calls its counter plain ``dropped``.
        self._names = tuple("dropped" if name == "trace_dropped" else name
                            for name in counters)


class _ColumnSum:
    """One counter summed over several instance dicts, read like one."""

    __slots__ = ("namespaces",)

    def __init__(self, namespaces):
        self.namespaces = namespaces

    def __getitem__(self, name):
        return sum(namespace[name] for namespace in self.namespaces)


def _prom_escape(value):
    return (str(value).replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _prom_name(name, prefix):
    cleaned = "".join(ch if ch.isalnum() or ch == "_" else "_"
                      for ch in name)
    return "%s_%s" % (prefix, cleaned)


def prometheus_text(sample, labels=None, prefix="repro"):
    """Render a flat ``{name: number}`` mapping as Prometheus text.

    One ``# TYPE`` line per metric (``counter`` for the cumulative
    simulation counters, ``gauge`` for the :data:`GAUGE_NAMES`
    readings), names prefixed and sanitized, label sets sorted — the
    output is byte-stable for identical samples.  Non-numeric values
    are skipped.
    """
    label_text = ""
    if labels:
        label_text = "{%s}" % ",".join(
            '%s="%s"' % (key, _prom_escape(value))
            for key, value in sorted(labels.items()))
    lines = []
    for name in sorted(sample):
        value = sample[name]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        metric = _prom_name(name, prefix)
        kind = "gauge" if name in GAUGE_NAMES else "counter"
        lines.append("# TYPE %s %s" % (metric, kind))
        rendered = "%d" % value if isinstance(value, int) else repr(value)
        lines.append("%s%s %s" % (metric, label_text, rendered))
    return "\n".join(lines) + ("\n" if lines else "")
