"""Rule-based co-simulation health analysis.

Co-simulation failure has recurring shapes: a transaction that opened
but never closed (a guest blocked on a READ_REPLY that is not coming),
a retransmission storm (the transport fighting a bad link instead of
making progress), a watchdog quarantine, flow-control holds dominating
breakpoint servicing, and latency distributions drifting between
revisions.  :func:`analyze_run` applies those rules to one finished
traced run; :func:`analyze_records` applies the record-level rules to a
directory of ``BENCH_*.json`` files (optionally against committed
baselines).  Both produce a :class:`HealthReport` whose
:attr:`~HealthReport.exit_code` is CI-friendly: ``0`` when no finding
is critical, ``1`` otherwise — ``repro health`` exits with it.
"""

import os
from dataclasses import dataclass, field

from repro.obs.bench import load_report
from repro.obs.hist import LATENCY_KINDS
from repro.obs.metrics import grid_periods
from repro.obs.spans import build_spans

SEVERITIES = ("info", "warning", "critical")

#: Span kinds whose open-at-end-of-trace state means a peer owes a
#: response — a genuine stall.  ``breakpoint_sync`` is absent by
#: design: the GDB schemes *deliberately* park a guest on a
#: flow-control hold until a port goes fresh, so a run routinely ends
#: with held stops open (reported as info; pathological hold rates are
#: caught by the hold-hot-spot rule instead).
STALL_CRITICAL_KINDS = frozenset((
    "driver_round_trip", "driver_write", "interrupt_delivery",
    "transport", "parallel_window"))


@dataclass(frozen=True)
class HealthThresholds:
    """Tuning knobs of the analyzer rules."""

    #: retransmits on one endpoint label before it counts as a storm.
    retransmit_storm: int = 8
    #: timesteps a span may stay open before it counts as stalled.
    stall_age_timesteps: int = 50
    #: flow-control holds per breakpoint stop before servicing counts
    #: as hold-dominated (a commit-stall hot spot).
    commit_stall_ratio: float = 0.5
    #: multiplier over the baseline p90 before a latency counter
    #: counts as regressed.
    latency_regression: float = 1.5
    #: DMI invalidations hitting one guest page of one context before
    #: the grant/invalidate cycle counts as a storm (the zero-copy
    #: tier thrashing against a precision trigger instead of falling
    #: back cleanly — see docs/dmi.md).
    dmi_invalidation_storm: int = 6
    #: telemetry points of the windowed-rate rules' sliding window
    #: (:func:`rate_findings`; at most one point per 10 us grid
    #: period, so the window covers the same simulated time for every
    #: scheme and sync quantum).
    rate_window: int = 8
    #: retransmits per grid period, sustained over the window, before
    #: the link counts as storming *right now* — the live counterpart
    #: of the run-total ``retransmit_storm`` rule.
    retransmit_rate: float = 2.0
    #: DMI invalidations per grid period over the window before the
    #: grant/invalidate cycle counts as thrashing live.
    dmi_invalidation_rate: float = 1.5


@dataclass(frozen=True)
class Finding:
    """One analyzer observation."""

    severity: str
    rule: str
    subject: str
    message: str

    def render(self):
        """The finding as one aligned plain-text line."""
        return "%-8s %-18s %-20s %s" % (self.severity.upper(), self.rule,
                                        self.subject, self.message)

    def as_dict(self):
        """The finding as a plain JSON-serialisable dict."""
        return {"severity": self.severity, "rule": self.rule,
                "subject": self.subject, "message": self.message}


@dataclass
class HealthReport:
    """The findings of one analysis pass."""

    findings: list = field(default_factory=list)

    def add(self, severity, rule, subject, message):
        """Record one finding."""
        if severity not in SEVERITIES:
            raise ValueError("unknown severity %r" % (severity,))
        self.findings.append(Finding(severity, rule, subject, message))

    def by_severity(self, severity):
        """The findings of one severity, in insertion order."""
        return [finding for finding in self.findings
                if finding.severity == severity]

    @property
    def exit_code(self):
        """``1`` when any finding is critical, else ``0``."""
        return 1 if self.by_severity("critical") else 0

    def extend(self, other):
        """Fold *other* report's findings into this one."""
        self.findings.extend(other.findings)

    def render(self):
        """The report as plain text (stable ordering)."""
        if not self.findings:
            return "health: OK (no findings)"
        ordered = sorted(
            self.findings,
            key=lambda f: (-SEVERITIES.index(f.severity), f.rule,
                           f.subject))
        lines = ["health: %d finding(s), %d critical"
                 % (len(self.findings), len(self.by_severity("critical")))]
        lines.extend(finding.render() for finding in ordered)
        return "\n".join(lines)

    def as_dict(self):
        """The report as a plain JSON-serialisable dict.

        Findings keep their stable :meth:`render` ordering (severity
        descending, then rule/subject) so the machine-readable form of
        one analysis is byte-stable; the summary mirrors
        :attr:`exit_code` for consumers that only gate.
        """
        ordered = sorted(
            self.findings,
            key=lambda f: (-SEVERITIES.index(f.severity), f.rule,
                           f.subject))
        return {
            "findings": [finding.as_dict() for finding in ordered],
            "counts": {severity: len(self.by_severity(severity))
                       for severity in SEVERITIES},
            "exit_code": self.exit_code,
        }

    def to_json(self):
        """:meth:`as_dict` serialised canonically (``--format json``)."""
        import json
        return json.dumps(self.as_dict(), sort_keys=True, indent=2)


def analyze_run(events, metrics=None, thresholds=None, dropped=0,
                spans=None):
    """Apply the trace-level rules to one finished run.

    *events* is the tracer's event list; *metrics* (optional) supplies
    the quarantine log; *dropped* is the tracer's overflow count;
    *spans* may be passed to reuse an already-built span set.
    """
    thresholds = thresholds or HealthThresholds()
    report = HealthReport()
    if spans is None:
        spans = build_spans(events)
    final_timestep = max((event.timestep for event in events), default=0)

    retransmits = {}
    holds = {}
    stops = {}
    dmi_invalidations = {}
    for event in events:
        key = event.key
        if key == "transport/retransmit":
            retransmits[event.scope] = retransmits.get(event.scope, 0) + 1
        elif key == "cosim/flow_hold":
            holds[event.scope] = holds.get(event.scope, 0) + 1
        elif key == "cosim/bp_stop":
            stops[event.scope] = stops.get(event.scope, 0) + 1
        elif key == "cosim/dmi_invalidate":
            spot = (event.scope, event.args.get("page", -1))
            dmi_invalidations[spot] = dmi_invalidations.get(spot, 0) + 1
        elif key == "cosim/quarantine":
            report.add("critical", "quarantine", event.scope,
                       "context quarantined: %s"
                       % event.args.get("reason", "?"))

    # Quarantines recorded by metrics but outside the trace window
    # (e.g. the ring dropped the event) still count.
    if metrics is not None:
        traced = {finding.subject
                  for finding in report.findings
                  if finding.rule == "quarantine"}
        for context, reason in metrics.quarantine_log():
            if context not in traced:
                report.add("critical", "quarantine", context,
                           "context quarantined: %s" % reason)

    for scope, count in sorted(retransmits.items()):
        if count >= thresholds.retransmit_storm:
            report.add("critical", "retransmit-storm", scope,
                       "%d retransmissions (threshold %d): the link is "
                       "losing frames faster than the run makes progress"
                       % (count, thresholds.retransmit_storm))
        else:
            report.add("info", "retransmits", scope,
                       "%d retransmission(s) recovered" % count)

    for (scope, page), count in sorted(dmi_invalidations.items()):
        if count >= thresholds.dmi_invalidation_storm:
            report.add("critical", "dmi-storm",
                       "%s:page%d" % (scope, page),
                       "%d DMI invalidations on one page (threshold %d): "
                       "the grant/invalidate cycle is thrashing against "
                       "a precision trigger instead of degrading"
                       % (count, thresholds.dmi_invalidation_storm))
        else:
            report.add("info", "dmi-invalidations",
                       "%s:page%d" % (scope, page),
                       "%d precise fallback(s) to the transactional tier"
                       % count)

    for span in spans:
        if span.closed:
            continue
        if span.kind == "dmi_window":
            # A grant still open at end of run is the tier's healthy
            # steady state, not a stalled peer (docs/dmi.md).
            continue
        age = final_timestep - span.open_timestep
        if age >= thresholds.stall_age_timesteps:
            severity = ("critical" if span.kind in STALL_CRITICAL_KINDS
                        else "info")
            report.add(severity, "stalled-span", span.span_id,
                       "%s open for %d timesteps (threshold %d)"
                       % (span.kind, age, thresholds.stall_age_timesteps))

    for scope, count in sorted(holds.items()):
        total = stops.get(scope, 0)
        if total and count / total >= thresholds.commit_stall_ratio:
            report.add("warning", "hold-hot-spot", scope,
                       "%d of %d breakpoint stops flow-control held "
                       "(>= %d%%): a consumer is starving this context"
                       % (count, total,
                          round(thresholds.commit_stall_ratio * 100)))

    if dropped:
        report.add("warning", "trace-dropped", "tracer",
                   "%d event(s) dropped by the trace ring: span and "
                   "latency figures are incomplete" % dropped)
    return report


def analyze_recovery_log(log, max_attempts=2):
    """Report crash-recovery events recorded by a CheckpointRunner.

    *log* is the runner's ``recovery_log`` (or the ``recovery.json``
    it writes next to its checkpoints).  Each successful recovery is
    a warning — the run completed, but something crashed along the
    way; a context that spent the whole *max_attempts* budget was
    degraded to quarantine, which is critical.
    """
    report = HealthReport()
    if not log:
        report.add("info", "crash-recovery", "checkpoint",
                   "no recovery events recorded")
        return report
    attempts = {}
    for entry in log:
        context = entry.get("context", "?")
        attempts[context] = max(attempts.get(context, 0),
                                entry.get("attempt", 1))
        report.add("warning", "crash-recovery", context,
                   "recovered from %s in slice %s (attempt %s, at %s)"
                   % (entry.get("code", "?"), entry.get("slice", "?"),
                      entry.get("attempt", "?"),
                      entry.get("where", "?")))
    for context, used in sorted(attempts.items()):
        if used >= max_attempts:
            report.add("critical", "recovery-exhausted", context,
                       "%d failed recoveries: context degraded to "
                       "quarantine" % used)
    return report


def analyze_records(records_dir, baseline_dir=None, thresholds=None):
    """Apply the record-level rules to a ``BENCH_*.json`` directory.

    Checks every record for quarantines, retransmission storms and
    truncated traces; with *baseline_dir*, additionally compares each
    record's ``latency.*.p90`` counters against the same-named baseline
    record and flags regressions beyond the threshold multiplier.
    """
    thresholds = thresholds or HealthThresholds()
    report = HealthReport()
    names = sorted(name for name in os.listdir(records_dir)
                   if name.startswith("BENCH_") and name.endswith(".json"))
    if not names:
        report.add("warning", "no-records", records_dir,
                   "no BENCH_*.json records found")
        return report
    for name in names:
        record = load_report(os.path.join(records_dir, name))
        counters = record.get("counters", {})
        subject = record.get("name", name)
        if counters.get("contexts_quarantined", 0):
            report.add("critical", "quarantine", subject,
                       "%d context(s) quarantined"
                       % counters["contexts_quarantined"])
        retransmits = counters.get("retransmits", 0)
        if retransmits >= thresholds.retransmit_storm:
            report.add("critical", "retransmit-storm", subject,
                       "%d retransmissions (threshold %d)"
                       % (retransmits, thresholds.retransmit_storm))
        invalidations = counters.get("dmi_invalidations", 0)
        if invalidations >= thresholds.dmi_invalidation_storm:
            report.add("critical", "dmi-storm", subject,
                       "%d DMI invalidations (threshold %d)"
                       % (invalidations, thresholds.dmi_invalidation_storm))
        if counters.get("trace.dropped", 0):
            report.add("warning", "trace-dropped", subject,
                       "%d trace event(s) dropped"
                       % counters["trace.dropped"])
        if baseline_dir is not None:
            baseline_path = os.path.join(baseline_dir, name)
            if os.path.exists(baseline_path):
                _compare_latency(report, subject, counters,
                                 load_report(baseline_path), thresholds)
    return report


def rate_findings(first, last, span, thresholds):
    """The windowed-rate rules over one window of telemetry points.

    *first* and *last* map counter names to the cumulative values of
    the window's oldest and newest point; *span* is the grid periods
    between them (:func:`repro.obs.metrics.grid_periods`), so every
    rate is per 10 us of simulated time.  The end-of-run
    :func:`analyze_series` and the live
    :class:`~repro.obs.stream_bus.StreamHealthMonitor` both apply
    these rules; returns their :class:`Finding` list.
    """
    def rate(name):
        return (last.get(name, 0) - first.get(name, 0)) / span

    findings = []
    retransmit_rate = rate("retransmits")
    if retransmit_rate >= thresholds.retransmit_rate:
        findings.append(Finding(
            "critical", "retransmit-rate", "transport",
            "%.2f retransmits/period over the last %d grid period(s) "
            "(threshold %g): the link is storming right now"
            % (retransmit_rate, span, thresholds.retransmit_rate)))
    dmi_rate = rate("dmi_invalidations")
    if dmi_rate >= thresholds.dmi_invalidation_rate:
        findings.append(Finding(
            "critical", "dmi-invalidation-rate", "dmi",
            "%.2f invalidations/period over the last %d grid period(s) "
            "(threshold %g): the grant/invalidate cycle is thrashing "
            "live" % (dmi_rate, span, thresholds.dmi_invalidation_rate)))
    if rate("iss_cycles") == 0.0 and rate("sc_timesteps") > 0.0:
        findings.append(Finding(
            "warning", "no-execution-progress", "iss",
            "0 ISS cycles retired over the last %d grid period(s) while "
            "SystemC advanced: every context is parked or wedged"
            % span))
    return findings


def analyze_series(series, thresholds=None):
    """Windowed-rate rules over a telemetry time-series.

    *series* is a :class:`~repro.obs.metrics.MetricsSeries` (at most
    one point per 10 us grid period).  Where :func:`analyze_run` sees
    only run totals, these rules (:func:`rate_findings`) evaluate the
    *recent* per-period rates over the newest
    ``thresholds.rate_window`` points: a link can be storming right now
    even though the whole-run retransmit total is still under the storm
    threshold, and a run that stopped retiring ISS cycles while SystemC
    timesteps keep advancing is wedged no matter what the totals say.
    """
    thresholds = thresholds or HealthThresholds()
    report = HealthReport()
    if len(series) < 2:
        report.add("info", "telemetry", "series",
                   "%d telemetry point(s): too few for windowed rates"
                   % len(series))
        return report
    points = series.window(thresholds.rate_window)
    first, last = points[0], points[-1]
    report.findings.extend(rate_findings(
        dict(zip(series.counters, first.values)),
        dict(zip(series.counters, last.values)),
        grid_periods(first.now, last.now), thresholds))
    if not report.findings:
        report.add("info", "telemetry", "series",
                   "%d point(s), window %d: rates within thresholds"
                   % (len(series), len(points)))
    return report


def _compare_latency(report, subject, counters, baseline, thresholds):
    base_counters = baseline.get("counters", {})
    for kind in LATENCY_KINDS:
        key = "latency.%s.p90" % kind
        base_value = base_counters.get(key, 0)
        value = counters.get(key, 0)
        if base_value and value > base_value * thresholds.latency_regression:
            report.add("critical", "latency-regression",
                       "%s:%s" % (subject, kind),
                       "p90 %d fs vs baseline %d fs (> x%.1f)"
                       % (value, base_value,
                          thresholds.latency_regression))
