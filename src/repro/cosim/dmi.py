"""TLM2-style loosely-timed DMI binding tier (docs/dmi.md).

The transaction tiers move every kernel<->ISS word through an RSP
``m``/``M`` exchange (GDB schemes) or a marshalled socket message
(Driver-Kernel).  This module adds the third tier the ROADMAP's open
item 2 calls for, modeled on SystemC TLM-2.0 temporal decoupling: a
:class:`DmiTable` per ISS context maps the bound guest windows (pragma
variables, driver buffers) directly onto the context's guest RAM — the
same buffer :meth:`Memory.export_shared` hands to process workers — so
data motion becomes a zero-copy view access counted by the
``dmi_reads``/``dmi_writes`` metrics instead of transfer transactions.

The tier is *precise* because every grant can die: the grant/invalidate
contract (`docs/dmi.md` section 3) forces fallback to the transactional
path exactly where quantum batching already degrades:

- **watchpoints** — an armed watchpoint invalidates every grant of the
  context until it is removed (transactional accesses keep the stop
  semantics inspectable);
- **breakpoints** — a code breakpoint armed inside a granted window
  invalidates that grant, word-precisely;
- **SMC** — guest stores into a kernel->guest granted window are
  reported through the existing word-precise code-page listener
  machinery (:meth:`Memory.add_code_listener`) and invalidate the
  grant at the next main-thread use, so self-modifying code never
  races a direct write;
- **transport faults** — a context with a fault plan or reliable
  transport never grants (``dmi_safe`` mirrors ``parallel_safe``), and
  quarantine permanently degrades the table.

All grant/invalidate decisions that emit events or touch metrics run
on the main thread in context-attach order, so DMI-tier traces, span
sets, and :class:`CosimMetrics` stay byte-identical between serial and
parallel runs — the same argument ``docs/parallel.md`` makes for the
transaction tiers.  Correlation ids follow the ``bp:`` discipline:
``dmi:<context>:<n>`` spans open at ``cosim/dmi_grant`` and close at
``cosim/dmi_invalidate`` (a still-open grant at end of run is the
healthy steady state, so the health analyzer exempts ``dmi_window``
spans from the stalled-span rule).
"""

from repro.obs.tracer import NULL_TRACER

#: Stable invalidation reason codes (trace args, health findings).
INVALIDATE_WATCHPOINT = "watchpoint"
INVALIDATE_BREAKPOINT = "breakpoint"
INVALIDATE_SMC = "smc"
INVALIDATE_TRANSPORT = "transport"
INVALIDATE_RESTORE = "restore"

INVALIDATE_REASONS = (INVALIDATE_WATCHPOINT, INVALIDATE_BREAKPOINT,
                      INVALIDATE_SMC, INVALIDATE_TRANSPORT,
                      INVALIDATE_RESTORE)

#: Directions a grant can cover, named from the SystemC side like the
#: pragma kinds: ``out`` windows are written by the kernel (iss_out
#: data flowing into guest variables), ``in`` windows are read by it.
GRANT_OUT = "out"
GRANT_IN = "in"


class DmiGrant:
    """One direct-memory window over ``[base, base + size)``."""

    __slots__ = ("base", "size", "kind", "span", "reads", "writes",
                 "active")

    def __init__(self, base, size, kind, span=None):
        self.base = base
        self.size = size
        self.kind = kind
        self.span = span      # correlation id, None on untraced runs
        self.reads = 0        # words read through this window
        self.writes = 0       # words written through this window
        self.active = True

    def covers(self, base, size):
        """True when ``[base, base+size)`` lies inside this window."""
        return self.base <= base and base + size <= self.base + self.size

    def overlaps(self, address):
        """True when *address* falls inside this window."""
        return self.base <= address < self.base + self.size

    def as_dict(self):
        """Checkpoint-stable description of this grant."""
        return {"base": self.base, "size": self.size, "kind": self.kind,
                "span": self.span, "reads": self.reads,
                "writes": self.writes, "active": self.active}

    def __repr__(self):
        return "DmiGrant(0x%08x, %d, %s, %s)" % (
            self.base, self.size, self.kind,
            "active" if self.active else "invalid")


class DmiTable:
    """Per-context DMI grant table over one guest :class:`Memory`.

    Built by the scheme at attach time; ``enabled`` is False when the
    context is not *dmi_safe* (fault plan or reliable transport
    configured), in which case every :meth:`acquire` returns None and
    the transactional tier runs exactly as before.
    """

    def __init__(self, name, cpu, metrics, tracer=None, enabled=True):
        self.name = name
        self.cpu = cpu
        self.memory = cpu.memory
        self.metrics = metrics
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.enabled = enabled
        self.degraded = None          # permanent-degradation reason code
        self._grants = {}             # (base, size, kind) -> DmiGrant
        self._seq = 0                 # correlation-id counter (traced runs)
        self._pending_smc = []        # store addresses from code listeners
        if enabled:
            self.memory.add_code_listener(self._on_code_store)

    # -- grant lifecycle ----------------------------------------------------

    @property
    def active(self):
        """True while the table can still hand out grants."""
        return self.enabled and self.degraded is None

    def grants(self):
        """The live grants, in deterministic acquisition order."""
        return [grant for grant in self._grants.values() if grant.active]

    def acquire(self, base, size, kind, breakpoints=None):
        """Return a grant covering ``[base, base+size)``, or None.

        Must be called from the main thread (commit order): this is
        where pending SMC reports drain, where the watchpoint and
        breakpoint fallback triggers are enforced, and where
        ``cosim/dmi_grant`` events are emitted.
        """
        if not self.active:
            return None
        self._drain_pending_smc()
        if breakpoints is not None:
            if breakpoints.has_watchpoints:
                # Watchpoints demand transactional precision; drop every
                # window until they are gone (re-acquire afterwards).
                for grant in self.grants():
                    self._invalidate(grant, INVALIDATE_WATCHPOINT)
                return None
            if any(base <= address < base + size
                   for address in breakpoints._code):
                grant = self._grants.get((base, size, kind))
                if grant is not None and grant.active:
                    self._invalidate(grant, INVALIDATE_BREAKPOINT)
                return None
        grant = self._grants.get((base, size, kind))
        if grant is not None and grant.active:
            return grant
        span = None
        if self.tracer.enabled:
            self._seq += 1
            span = "dmi:%s:%d" % (self.name, self._seq)
        grant = DmiGrant(base, size, kind, span)
        self._grants[(base, size, kind)] = grant
        if self.tracer.enabled:
            self.tracer.emit("cosim", "dmi_grant", scope=self.name,
                             span=span, base=base, words=size // 4,
                             kind=kind, page=base >> 8)
        return grant

    def _invalidate(self, grant, reason):
        grant.active = False
        self._grants.pop((grant.base, grant.size, grant.kind), None)
        self.metrics.dmi_invalidations += 1
        self.metrics.bump_context(self.name, dmi_invalidations=1)
        if self.tracer.enabled:
            self.tracer.emit("cosim", "dmi_invalidate", scope=self.name,
                             span=grant.span, reason=reason,
                             base=grant.base, page=grant.base >> 8)

    def invalidate_all(self, reason):
        """Drop every live grant (quarantine, restore, chaos)."""
        for grant in self.grants():
            self._invalidate(grant, reason)

    def degrade(self, reason=INVALIDATE_TRANSPORT):
        """Permanently fall back to the transactional tier.

        Wired into the quarantine paths: a context whose transport
        faulted or whose worker crashed must never satisfy another
        access from a direct view.
        """
        self.invalidate_all(reason)
        self.degraded = reason

    # -- SMC reporting (word-precise code-page listeners) --------------------

    def _on_code_store(self, address):
        """Memory code listener: a guest store hit a watched code page.

        May run on a worker thread during prefetch, so it only records
        the address; :meth:`_drain_pending_smc` turns reports into
        invalidations at the next main-thread acquire.  Only stores
        into kernel->guest (``out``) windows matter: guest stores into
        its own ``in`` windows (publishing a result) are the normal
        producer flow over a coherent view.  The table's own
        :meth:`write_words` never reaches this listener: it keeps decode
        coherence through :meth:`Cpu.invalidate_code`, which touches
        only the CPU's caches.
        """
        if not self._grants:
            return
        for grant in self._grants.values():
            if grant.active and grant.kind == GRANT_OUT \
                    and grant.overlaps(address):
                self._pending_smc.append(address)
                return

    def _drain_pending_smc(self):
        if not self._pending_smc:
            return
        pending, self._pending_smc = self._pending_smc, []
        for address in pending:
            for grant in self.grants():
                if grant.kind == GRANT_OUT and grant.overlaps(address):
                    self._invalidate(grant, INVALIDATE_SMC)

    # -- zero-copy data motion ----------------------------------------------

    def read_words(self, grant, base, count):
        """Read *count* words at *base* straight from the guest view."""
        data = self.memory.data
        values = [int.from_bytes(data[base + 4 * i:base + 4 * i + 4],
                                 "little")
                  for i in range(count)]
        grant.reads += count
        self.metrics.dmi_reads += count
        self.metrics.bump_context(self.name, dmi_reads=count)
        return values

    def write_words(self, grant, base, values):
        """Write *values* at *base* straight into the guest view.

        Decode coherence is preserved word-precisely, exactly as for the
        transactional stub's ``M`` writes: :meth:`Cpu.invalidate_code`
        drops the decodes and compiled blocks covering the written
        words (queued for the worker under the process backend).  A
        kernel write through its granted window is the tier working,
        not guest SMC, so the table's own SMC listener never hears it.
        """
        data = self.memory.data
        for index, value in enumerate(values):
            address = base + 4 * index
            data[address:address + 4] = \
                (value & 0xFFFFFFFF).to_bytes(4, "little")
        self.cpu.invalidate_code(base, 4 * len(values))
        grant.writes += len(values)
        self.metrics.dmi_writes += len(values)
        self.metrics.bump_context(self.name, dmi_writes=len(values))

    # -- checkpoint support ---------------------------------------------------

    def state(self):
        """Deterministic grant-table image for checkpoint verification."""
        return {
            "enabled": self.enabled,
            "degraded": self.degraded,
            "seq": self._seq,
            "grants": [grant.as_dict() for grant in self._grants.values()],
        }
