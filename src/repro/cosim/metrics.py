"""Co-simulation metrics.

Counters that attribute where co-simulation time goes, powering the
ablation benchmark (DESIGN.md Section 5): per-cycle synchronisation
transactions (the GDB-Wrapper bottleneck), cheap polls (the GDB-Kernel
replacement), data-transfer transactions at breakpoints, and
Driver-Kernel messages.
"""

from dataclasses import dataclass, field, fields

# Stable quarantine reason codes.  These strings land in traces,
# metrics, and health reports, so they must never embed exception
# ``repr`` text (which varies across Python versions and runs); the
# free-form detail is kept on :attr:`CosimMetrics.quarantine_details`,
# outside every golden-trace-relevant field.
QUARANTINE_TRANSPORT = "transport-error"
QUARANTINE_WATCHDOG = "watchdog-timeout"
QUARANTINE_WORKER = "worker-crash"

QUARANTINE_CODES = (QUARANTINE_TRANSPORT, QUARANTINE_WATCHDOG,
                    QUARANTINE_WORKER)


@dataclass
class CosimMetrics:
    """Mutable counter bundle shared by a scheme's components."""

    scheme: str = ""
    sync_transactions: int = 0      # per-cycle RSP round-trips (wrapper)
    cheap_polls: int = 0            # per-cycle pipe checks (kernel schemes)
    transfer_transactions: int = 0  # RSP m/M/c exchanges at breakpoints
    transfer_blocks: int = 0        # bulk m/M block exchanges
    transfer_words: int = 0         # words moved inside those blocks
    breakpoint_hits: int = 0
    messages_sent: int = 0          # Driver-Kernel data messages
    messages_received: int = 0
    interrupts_posted: int = 0
    isr_dispatches: int = 0
    iss_cycles: int = 0
    sc_timesteps: int = 0
    grants: int = 0                 # budget grant+drive round trips
    retransmits: int = 0            # reliable-transport resends
    drops_detected: int = 0         # sequence gaps seen by a receiver
    corrupt_rejected: int = 0       # frames failing their checksum
    contexts_quarantined: int = 0   # ISS contexts detached by watchdog
    quantum_syncs: int = 0          # batched synchronisations performed
    quantum_steps_batched: int = 0  # timesteps covered by those syncs
    blocks_compiled: int = 0        # ISS basic blocks compiled
    block_hits: int = 0             # ISS block-cache hits
    block_invalidations: int = 0    # ISS blocks dropped (SMC/bp/flush)
    superblocks_compiled: int = 0   # ISS superblock chains compiled
    superblock_exits: int = 0       # superblock executions (any exit)
    superblock_invalidations: int = 0  # superblocks dropped (SMC/bp/flush)
    superblock_side_exits: int = 0  # superblock exits through a guard
    dmi_reads: int = 0              # words read through DMI grant views
    dmi_writes: int = 0             # words written through DMI grant views
    dmi_invalidations: int = 0      # DMI grants dropped (precise fallback)
    per_context: dict = field(default_factory=dict)  # name -> {counter: n}
    extra: dict = field(default_factory=dict)
    # Post-run latency summaries (kind -> {count,p50,p90,max}) attached
    # by the observability layer (repro.obs.hist).  Deliberately absent
    # from as_dict(): the overhead guard fingerprints as_dict() across
    # traced/disabled/untraced runs, and only traced runs can have
    # span latencies.
    latency: dict = field(default_factory=dict)
    # Free-form quarantine diagnostics (context, code, detail).  Kept
    # out of as_dict()/extra on purpose: the detail embeds exception
    # text, which must never reach golden-trace-relevant fields.
    quarantine_details: list = field(default_factory=list)

    def counters(self):
        """The numeric counters as a flat dict, in declaration order."""
        return {name: getattr(self, name) for name in _NUMERIC_FIELDS}

    def as_dict(self):
        """All counters as a plain dict (for stats reporting)."""
        return {
            "scheme": self.scheme,
            **self.counters(),
            "per_context": {name: dict(counters) for name, counters
                            in sorted(self.per_context.items())},
            **self.extra,
        }

    def bump_context(self, name, **deltas):
        """Attribute counter deltas to one named ISS context.

        The flat counters stay authoritative for scheme-wide totals;
        this keeps an MPSoC-grade per-core breakdown alongside them so
        fairness of parallel scheduling is observable per context.
        """
        bucket = self.per_context.setdefault(name, {})
        for counter, delta in deltas.items():
            bucket[counter] = bucket.get(counter, 0) + delta

    def attach_latency(self, summaries):
        """Attach per-span-kind latency summaries (post-run, traced)."""
        self.latency = dict(summaries)

    def record_quarantine(self, context_name, reason, detail=None):
        """Count a quarantined context and log why it was detached.

        *reason* should be one of the stable ``QUARANTINE_*`` codes;
        *detail* (free-form exception text) stays on
        :attr:`quarantine_details`, outside the golden-relevant log.
        """
        self.contexts_quarantined += 1
        self.extra.setdefault("quarantine_log", []).append(
            (context_name, reason))
        if detail is not None:
            self.quarantine_details.append((context_name, reason,
                                            str(detail)))

    def quarantine_log(self):
        """The ``(context, reason)`` pairs recorded by the watchdogs."""
        return list(self.extra.get("quarantine_log", []))

    @classmethod
    def aggregate(cls, bundles, scheme="aggregate"):
        """Sum several counter bundles into one (multi-run profiling).

        The observability layer uses this to fold per-scheme runs into
        one comparable record; ``extra`` dicts are not merged (they may
        hold non-numeric logs).
        """
        total = cls(scheme=scheme)
        for bundle in bundles:
            for name in _NUMERIC_FIELDS:
                setattr(total, name,
                        getattr(total, name) + getattr(bundle, name))
            for context, counters in bundle.per_context.items():
                total.bump_context(context, **counters)
        return total


#: The numeric counters, in declaration order: every field declared
#: ``int``.  The telemetry series (repro.obs.metrics) and BENCH
#: records read them in this order.
_NUMERIC_FIELDS = tuple(spec.name for spec in fields(CosimMetrics)
                        if spec.type is int)
