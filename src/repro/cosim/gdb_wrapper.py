"""The GDB-Wrapper baseline (Benini et al. 2003 — reference [14]).

The state of the art the paper improves upon: the HW designer is
*aware* of the wrapper, which is explicitly instantiated as a SystemC
module.  Its communication control is "implemented by explicitly
writing a sc_method": a process sensitive to the system clock that, on
every single clock cycle, performs a full remote-debug round trip
(``qStatus``) to learn whether the ISS needs attention — the per-cycle
host-IPC overhead responsible for the scheme's limited performance
(paper Section 2: "the ISS and the SystemC simulators evolve in
lock-step, because synchronization is driven by the host operating
system via IPC").

Execution and variable transfers at breakpoints work exactly like the
GDB-Kernel scheme (the two share :class:`~repro.cosim.context.
GdbContext`), so the measured difference between the schemes isolates
what the paper changed: where the synchronisation check lives and what
it costs per cycle.  The context lifecycle — watchdog, quarantine and
the parallel round — is :mod:`repro.cosim.context`'s.
"""

from repro.cosim.context import (DRIVE_ERRORS, GRANT, SERIAL_GRANT,
                                 SERIAL_SYNC, SYNC, GdbScheme)
from repro.sysc.module import Module


def _status_exited(client):
    """The [14] status round trip: has the target exited?

    The lock-step wrapper exchanges both the target state and the
    execution state (program counter) with the ISS on every sync.
    """
    status = client.query_status()
    client.read_register(16)  # the pc, by register number
    return status.get("Status") == "exited"


class GdbWrapperModule(Module):
    """The explicitly-instantiated wrapper module of [14].

    One wrapper serves one ISS; it "loads the ISS, and establishes
    IPCs between SystemC and the ISS".  Its sc_method hands the
    context to the scheme on every clock posedge.
    """

    def __init__(self, context, scheme, clock):
        super().__init__(context.name, scheme.kernel)
        self.context = context
        self.scheme = scheme
        self.method(self._sync_cycle, sensitive=[clock.posedge],
                    dont_initialize=True, name="sync")

    def _sync_cycle(self):
        """The lock-step sc_method: runs on every clock posedge."""
        self.scheme._posedge(self.context)


class GdbWrapperScheme(GdbScheme):
    """Instantiates one wrapper module per ISS."""

    name = "gdb-wrapper"
    pipe_prefix = "gdbw:"
    stall_detail = "no execution progress in %d clock cycles"

    def __init__(self, kernel, clock, metrics=None, watchdog_ticks=None,
                 tracer=None, sync_quantum=1, dispatcher=None):
        super().__init__(kernel, metrics, watchdog_ticks, tracer,
                         sync_quantum, dispatcher)
        self.clock = clock
        self._round_stamp = None

    def attach_cpu(self, cpu, pragma_map, ports, cpu_hz, name=None,
                   reliability=None, faults=None, dmi=False):
        """Instantiate a wrapper module for one ISS; returns its context."""
        context = super().attach_cpu(
            cpu, pragma_map, ports, cpu_hz, name or ("wrapper:" + cpu.name),
            reliability=reliability, faults=faults, dmi=dmi)
        GdbWrapperModule(context, self, self.clock)
        return context

    def _posedge(self, context):
        """One wrapper's sc_method body.

        At ``sync_quantum=1`` this is the exact lock-step baseline.  At
        larger quanta the per-posedge RSP round trip is skipped while
        the cycle budget banks up, and one batched synchronisation
        covers the whole window — unless a stop source (interrupts, a
        held transfer, pending pipe data, armed watchpoints) could fire
        inside it, in which case the sync happens immediately.
        """
        if context.driver.finished or context.quarantined:
            return
        kernel = self.kernel
        if self._pooled:
            # Every wrapper's sc_method fires in the same delta: the
            # first to run executes the whole round in attach order
            # (the serial method order) and the rest no-op.
            stamp = (kernel.timestep_count, kernel.delta_count)
            if stamp != self._round_stamp:
                self._round_stamp = stamp
                self._parallel_round(kernel.now)
            return
        binding = context.binding
        if binding.quantum > 1:
            self.metrics.sc_timesteps += 1
            binding.accumulate(kernel.now)
            self._serial_sync(context)
            return
        self._lockstep(context, None)

    def _serial_sync(self, context):
        """The quantum>1 per-posedge work after budget banking."""
        driver = context.driver
        if driver.held_at is not None or driver.needs_attention:
            # A communication stop is active: retry the transfer with a
            # cheap local poll+drive — no RSP status round trip is
            # needed to service it.
            self.metrics.cheap_polls += 1
            try:
                driver.drive()
            except DRIVE_ERRORS as error:
                self._quarantine_error(context, error)
                return
            context.attention_serviced = True
        if context.binding.due() or self._sync_due(context):
            self.sync_context(context)

    def _lockstep(self, context, budget):
        """The full per-posedge round trip of the [14] baseline."""
        metrics = self.metrics
        driver = context.driver
        try:
            # 1. The per-cycle synchronisation over the RDI — the
            #    overhead that distinguishes this baseline.
            metrics.sync_transactions += 2
            if self.tracer.enabled:
                self.tracer.emit("cosim", "sync_cycle", scope=context.name)
            status = context.client.query_status()
            context.client.read_register(16)  # the pc, by register number
            if status.get("Status") == "exited":
                driver.finished = True
                return
            # 2. Grant the ISS the cycles corresponding to one clock
            #    period and drive it, servicing breakpoint transfers.
            budget = context.binding.cycles_for_advance(self.kernel.now)
            if budget > 0:
                metrics.grants += 1
                driver.grant(budget)
            metrics.sc_timesteps += 1
            driver.drive()
        except DRIVE_ERRORS as error:
            self._quarantine_error(context, error)
            return
        if self.watchdog_ticks is not None:
            self._watchdog(context)

    def _warp_eligible(self, context):
        """True when this sync may run inside the local time warp.

        The DMI table must still be granting and no stop source that
        demands transactional precision may be armed — exactly the
        quantum-batching degradation triggers, so the warp degrades to
        the faithful RSP sync in the same situations batching degrades
        to lock-step.
        """
        return (context.dmi is not None and context.dmi.active
                and not self._must_sync(context))

    def _sync(self, context, budget, steps):
        """Spend a drained quantum after the status exchange.

        Inside the local time warp (DMI tier, no precision trigger) the
        status exchange is reconciled against the co-located stub state
        instead of over RSP: the ISS runs ahead of SystemC time against
        its direct-memory view and the sync costs zero transactions.
        """
        if self._warp_eligible(context):
            context.binding.note_warp(budget, steps)
            exited = context.stub.exited
        else:
            self.metrics.sync_transactions += 2
            exited = _status_exited(context.client)
        if exited:
            context.driver.finished = True
            return False
        if budget > 0:
            self.metrics.grants += 1
            context.driver.grant(budget)
        context.driver.drive()
        return True

    def _classify(self, context, now):
        binding = context.binding
        driver = context.driver
        if binding.quantum > 1:
            self.metrics.sc_timesteps += 1
            binding.accumulate(now)
            # Never probe an unsafe wrapper during planning: the
            # attention probe pumps its reliable transport (retransmit
            # timers tick, transport events emit), which must happen at
            # this wrapper's serial slot to keep the trace identical to
            # a serial run.
            if (not context.parallel_safe or driver.peek_attention()
                    or self._must_sync(context)):
                return SERIAL_SYNC, None, None, None
            if not binding.due():
                return None
            budget, steps = binding.drain()
            warp = self._warp_eligible(context)
            return (SYNC, budget, (steps, warp),
                    self._prefetch_job(context, budget, warp))
        if (not context.parallel_safe or self._must_sync(context)
                or driver.peek_attention()):
            return SERIAL_GRANT, None, None, None
        budget = binding.cycles_for_advance(now)
        return GRANT, budget, None, self._prefetch_job(context, budget)

    def _prefetch_job(self, context, budget, warp=False):
        """The pool-side half of one synchronisation (see cosim.parallel).

        Reproduces the serial order of per-context work exactly: the
        RSP status round trip first (its transact events buffer in
        emission order), then the grant and the execution stretch.
        Ports, shared metrics and the kernel are never touched — the
        commit applies those at this wrapper's slot.  A *warp* job
        (DMI tier) checks the co-located stub state locally instead of
        over RSP, matching the serial :meth:`_sync` warp path.
        """
        def job():
            if (context.stub.exited if warp
                    else _status_exited(context.client)):
                return ("exited", 0)
            if budget > 0:
                context.driver.grant(budget)
            return ("ok", context.driver.prefetch())
        return job

    def _open_commit(self, context, kind, budget, data):
        if kind == SYNC:
            steps, warp = data
            self._note_sync(context, budget, steps)
            if warp:
                context.binding.note_warp(budget, steps)
            else:
                self.metrics.sync_transactions += 2
        else:
            self.metrics.sync_transactions += 2
            if self.tracer.enabled:
                self.tracer.emit("cosim", "sync_cycle", scope=context.name)
        return True

    def _apply(self, context, value, kind, budget, data):
        state, consumed = value
        if state == "exited":
            context.driver.finished = True
            return None
        if budget > 0:
            self.metrics.grants += 1
        if kind == GRANT:
            self.metrics.sc_timesteps += 1
        return super()._apply(context, consumed, kind, budget, data)
