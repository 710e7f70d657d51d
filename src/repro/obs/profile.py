"""Per-scheme profiling layered onto :class:`~repro.cosim.metrics.CosimMetrics`.

A :class:`SchemeProfile` snapshots one run's counters and derives the
per-timestep rates that make the paper's Table 1 comparison legible:
how many synchronisation transactions, cheap polls and driver messages
each scheme pays per unit of simulated time.  :func:`compare_profiles`
renders several profiles side by side — the cross-scheme view described
in ``docs/observability.md``.
"""

from dataclasses import dataclass, field

#: Counters whose per-timestep rate is the interesting number.
RATE_COUNTERS = ("sync_transactions", "cheap_polls",
                 "transfer_transactions", "messages_sent",
                 "messages_received", "interrupts_posted", "iss_cycles")


@dataclass
class SchemeProfile:
    """One run's counters plus derived per-timestep rates."""

    scheme: str
    counters: dict = field(default_factory=dict)
    rates: dict = field(default_factory=dict)       # per sc timestep
    event_counts: dict = field(default_factory=dict)  # from the tracer
    latency: dict = field(default_factory=dict)     # kind -> summary

    @classmethod
    def from_run(cls, metrics, tracer=None):
        """Profile a finished run from its metrics (and tracer)."""
        counters = metrics.counters()
        timesteps = counters.get("sc_timesteps") or 0
        rates = {}
        for name in RATE_COUNTERS:
            value = counters.get(name, 0)
            rates[name + "_per_timestep"] = (
                round(value / timesteps, 4) if timesteps else 0.0)
        event_counts = dict(sorted(tracer.counts().items())) \
            if tracer is not None else {}
        if tracer is not None:
            counters["trace_dropped"] = tracer.dropped
        return cls(scheme=metrics.scheme, counters=counters,
                   rates=rates, event_counts=event_counts,
                   latency=dict(getattr(metrics, "latency", {}) or {}))

    def as_dict(self):
        """The profile as one JSON-serialisable dict."""
        return {
            "scheme": self.scheme,
            "counters": dict(self.counters),
            "rates": dict(self.rates),
            "event_counts": dict(self.event_counts),
            "latency": dict(self.latency),
        }

    def render(self):
        """A short plain-text summary of this profile."""
        lines = ["profile[%s]" % self.scheme]
        if self.counters.get("trace_dropped"):
            lines.append("  WARNING: %d trace event(s) dropped — the "
                         "ring overflowed, figures below are incomplete"
                         % self.counters["trace_dropped"])
        for name in sorted(self.counters):
            value = self.counters[name]
            if isinstance(value, (int, float)) and value:
                lines.append("  %-24s %12s" % (name, value))
        for name in sorted(self.rates):
            if self.rates[name]:
                lines.append("  %-24s %12.4f" % (name, self.rates[name]))
        for kind in sorted(self.latency):
            summary = self.latency[kind]
            if summary.get("count"):
                lines.append(
                    "  latency[%s]: n=%d p50=%dfs p90=%dfs max=%dfs"
                    % (kind, summary["count"], summary["p50"],
                       summary["p90"], summary["max"]))
        return "\n".join(lines)


def compare_profiles(profiles):
    """Render *profiles* side by side, one counter per row.

    Returns a plain-text table whose columns are schemes — the
    cross-scheme comparison view (sync cost per timestep is the row
    that reproduces the paper's Table 1 argument).
    """
    profiles = list(profiles)
    names = []
    for profile in profiles:
        for name in list(profile.counters) + list(profile.rates):
            if name not in names:
                names.append(name)
    header = ["%-28s" % "counter"] + ["%16s" % p.scheme for p in profiles]
    lines = ["".join(header)]
    for name in names:
        values = []
        interesting = False
        for profile in profiles:
            value = profile.counters.get(name, profile.rates.get(name, 0))
            if isinstance(value, float):
                text = "%.4f" % value
            else:
                text = str(value)
            if value:
                interesting = True
            values.append("%16s" % text)
        if interesting:
            lines.append("".join(["%-28s" % name] + values))
    return "\n".join(lines)
