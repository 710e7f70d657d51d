"""The context lifecycle shared by the three co-simulation schemes.

The paper's schemes differ in who is master, in what the scheduler does
at cycle begin and end (GDB-Kernel Fig. 3, Driver-Kernel Fig. 5) and in
where the synchronisation check lives (the per-posedge sc_method of the
GDB-Wrapper baseline [14]).  Everything else about an attached ISS — a
*context* — is defined here, once:

- :func:`wire_channel` stacks the resilience layers (reliable framing,
  injected link faults) over a pipe or socket;
- :class:`ContextScheme` owns the contexts and their lifecycle: the
  serial lock-step and quantum advance, the parallel classify /
  prefetch / commit round (:mod:`repro.cosim.parallel`), the watchdog,
  and quarantine with its reason codes and crash-recovery policy;
- :class:`GdbScheme` builds the GDB context (:class:`GdbContext`: RSP
  pipe, stub, client, DMI table and :class:`TargetDriver`) that the
  GDB-Kernel and GDB-Wrapper schemes share.

A scheme supplies the callbacks: ``_run`` (one serial grant: grant and
drive, or ``rtos.advance``), ``_prefetch_job`` and ``_apply`` (the two
halves of a parallel run), ``_sync_due`` (a stop source could fire in
a quantum window) and ``_parallel_eligible``; its own cycle-begin poll
and, for Driver-Kernel, interrupt delivery at cycle end.  A kernel-
embedded scheme also supplies ``_idle`` and ``_skip_polls``, the two
sides of its poll for the kernel's quiet-timestep fast-forward
(:meth:`ContextScheme.quiet_steps`), and one that :attr:`runs_ahead`
at lock-step supplies ``_run_ahead``.  See
``docs/resilience.md`` and ``docs/parallel.md``.
"""

import math
from bisect import bisect_left
from dataclasses import dataclass
from operator import attrgetter

from repro.cosim.binding import ClockBinding
from repro.cosim.channels import Pipe
from repro.cosim.dmi import DmiTable
from repro.cosim.faults import FaultyEndpoint
from repro.cosim.metrics import (CosimMetrics, QUARANTINE_TRANSPORT,
                                 QUARANTINE_WATCHDOG, QUARANTINE_WORKER)
from repro.cosim.reliable import wrap_reliable
from repro.cosim.transfer import TargetDriver
from repro.errors import CosimTransportError, RecoverableCrashError
from repro.gdb.client import GdbClient
from repro.gdb.stub import GdbStub
from repro.iss.remote import RemoteWorkerError
from repro.sysc.hooks import sinks_due

#: Failures of a drive path that quarantine the context (or elect
#: recovery) instead of stopping the simulation.
DRIVE_ERRORS = (CosimTransportError, RemoteWorkerError)

# Parallel-round plan kinds: a prefetched quantum sync or lock-step
# grant, or the serial fallback of either at the context's commit slot.
SYNC = "sync"
GRANT = "grant"
SERIAL_SYNC = "serial_sync"
SERIAL_GRANT = "serial_grant"


def wire_channel(channel, reliability, faults, metrics, tracer):
    """The ``(side a, side b)`` ends of *channel*, resilience stacked on.

    *reliability* (a :class:`~repro.cosim.reliable.ReliabilityConfig`,
    or ``True`` for the defaults) adds the reliable framing; *faults* (a
    :class:`~repro.cosim.faults.FaultPlan`) injects link faults under it.
    """
    if reliability:
        config = None if reliability is True else reliability
        return wrap_reliable(channel, config, metrics, faults=faults,
                             tracer=tracer)
    side_a, side_b = channel.a, channel.b
    if faults is not None:
        side_a = FaultyEndpoint(side_a, faults)
        side_b = FaultyEndpoint(side_b, faults)
    return side_a, side_b


@dataclass
class Context:
    """Lifecycle state of one attached ISS, common to every scheme."""

    name: str
    cpu: object
    binding: ClockBinding
    dmi: object = None          # DmiTable of the DMI binding tier, or None
    # False plans every run serial.  Reliable/fault-injected transports
    # draw from seeded RNG streams whose ordering a parallel prefetch
    # cannot preserve; a CPU that declines the process backend's fork
    # could only hold the GIL on a pool thread (ContextScheme._register).
    parallel_safe: bool = True
    quarantined: bool = False
    quarantine_reason: str = None
    # Watchdog: the progress measure at the last check, and the checks
    # since it last moved.
    _watch: int = -1
    _stall_ticks: int = 0
    # Open parallel dispatch→commit window span (trace_commits only).
    _par_span: str = None


@dataclass
class GdbContext(Context):
    """An ISS driven over the remote-debugging interface."""

    pipe: Pipe = None
    stub: GdbStub = None
    client: GdbClient = None
    driver: TargetDriver = None
    # A communication stop was serviced since the last quantum sync;
    # once the hold clears, the guest is runnable and the banked
    # budget should be granted immediately.
    attention_serviced: bool = False

    #: The target exited (a C-level getter, read per timestep).
    finished = property(attrgetter("driver.finished"))

    @property
    def progress(self):
        """The watchdog's measure: cycles the CPU has retired."""
        return self.cpu.cycles


class ContextScheme:
    """The attached contexts of one scheme and their lifecycle."""

    name = None
    #: Quarantine detail of a stalled context, given the watchdog ticks.
    stall_detail = "no execution progress in %d timesteps"

    def __init__(self, kernel, metrics=None, watchdog_ticks=None,
                 tracer=None, sync_quantum=1, dispatcher=None):
        self.kernel = kernel
        self.metrics = metrics if metrics is not None else CosimMetrics()
        self.metrics.scheme = self.name
        # Schemes share the kernel's tracer unless given their own, so
        # a single Kernel.attach_tracer() call instruments every layer.
        self.tracer = tracer if tracer is not None else kernel.tracer
        self.watchdog_ticks = watchdog_ticks
        self.sync_quantum = sync_quantum
        self.dispatcher = dispatcher
        self.contexts = []
        # Optional crash-recovery hook: ``policy(context_name, code)``
        # returning True elects recovery (RecoverableCrashError) over
        # quarantine.  Set by the checkpoint runner; None = always
        # quarantine.
        self.crash_policy = None
        # Dispatch-window span counter; main-thread only, traced only.
        self._par_seq = 0
        # The parallel round runs: a dispatcher is attached and not
        # every context declined the process backend's fork.
        self._pooled = False

    def _register(self, context):
        self.contexts.append(context)
        dispatcher = self.dispatcher
        if dispatcher is None:
            return context
        if context.parallel_safe and not dispatcher.attach_cpu(context.cpu):
            # Declined by the process backend (RTOS syscall handlers,
            # MMIO, retire observers): planned serial for good.  When
            # every context declined, the round is skipped.
            context.parallel_safe = False
        else:
            self._pooled = True
        return context

    # -- scheme callbacks ----------------------------------------------------

    def _run(self, context, budget):
        """Serially run *context* on *budget* cycles; True if it ran."""
        raise NotImplementedError

    def _prefetch_job(self, context, budget):
        """The pool-side half of a parallel run (see cosim.parallel)."""
        raise NotImplementedError

    def _apply(self, context, value, kind, budget, data):
        """The commit-side half: apply the prefetch's *value*.

        Returns the cycles consumed, or None when the context did not
        run (a parallel-commit event and the watchdog then skip it).
        """
        raise NotImplementedError

    def _sync_due(self, context):
        """Must a not-yet-full quantum synchronise this timestep?"""
        raise NotImplementedError

    def _idle(self, context):
        """Would *context*'s cycle-begin poll find nothing to do, without
        drawing from a transport layer's RNG stream?"""
        raise NotImplementedError

    def _skip_polls(self, context, steps):
        """Account *steps* idle cycle-begin polls of *context*."""
        raise NotImplementedError

    def _run_ahead(self, kernel, times, sinks):
        """Grant lock-step timesteps ahead of the kernel's delta cycles,
        up to the first that leaves work for its poll (``skip_steps``)."""
        raise NotImplementedError

    def _parallel_eligible(self, context, lockstep):
        """May *context*'s next run go to the pool instead of serial?"""
        raise NotImplementedError

    def _begin_sync(self, context):
        """Reset the per-sync state a drained quantum starts from."""

    def _sync(self, context, budget, steps):
        """Spend a drained quantum; True when the context ran."""
        return self._run(context, budget)

    def _serial_sync(self, context):
        """A quantum sync planned serial in a parallel round."""
        self.sync_context(context)

    def _open_commit(self, context, kind, budget, data):
        """Account a prefetched run before its buffered events replay.

        Returns False when nothing was dispatched for it.
        """
        if kind == SYNC:
            self._note_sync(context, budget, data)
            if budget <= 0:
                return False
        elif self.tracer.enabled:
            self.tracer.emit("cosim", "grant", scope=context.name,
                             budget=budget)
        self.metrics.grants += 1
        return True

    # -- serial advance ------------------------------------------------------

    def _advance(self, now):
        """Grant each context its cycle budget as time reaches *now*.

        At ``sync_quantum=1`` (the binding default) every timestep runs
        the grant round trip — the classic lock-step behavior.  At
        larger quanta budgets bank up and one batched sync covers the
        window, unless a stop source could fire inside it.
        """
        self.metrics.sc_timesteps += 1
        if self._pooled:
            self._parallel_round(now)
            return
        tracer = self.tracer
        for context in self.contexts:
            if context.quarantined or context.finished:
                continue
            binding = context.binding
            if binding.quantum > 1:
                binding.accumulate(now)
                if binding.due() or self._sync_due(context):
                    self.sync_context(context)
                continue
            budget = binding.cycles_for_advance(now)
            if budget <= 0:
                continue
            # _lockstep, inlined: this runs per context per timestep.
            if tracer.enabled:
                tracer.emit("cosim", "grant", scope=context.name,
                            budget=budget)
            try:
                self._run(context, budget)
            except DRIVE_ERRORS as error:
                self._quarantine_error(context, error)
                continue
            if self.watchdog_ticks is not None:
                self._watchdog(context)

    def _lockstep(self, context, budget):
        """The per-timestep grant of *budget* > 0 cycles, serially."""
        if self.tracer.enabled:
            self.tracer.emit("cosim", "grant", scope=context.name,
                             budget=budget)
        try:
            self._run(context, budget)
        except DRIVE_ERRORS as error:
            self._quarantine_error(context, error)
            return
        self._watchdog(context)

    def _note_sync(self, context, budget, steps):
        self.metrics.quantum_syncs += 1
        self.metrics.quantum_steps_batched += steps
        if self.tracer.enabled:
            self.tracer.emit("cosim", "quantum_sync", scope=context.name,
                             steps=steps, budget=budget)

    def sync_context(self, context):
        """One synchronisation covering every banked timestep."""
        self._begin_sync(context)
        budget, steps = context.binding.drain()
        self._note_sync(context, budget, steps)
        try:
            ran = self._sync(context, budget, steps)
        except DRIVE_ERRORS as error:
            self._quarantine_error(context, error)
            return
        if ran:
            self._watchdog(context)

    def flush_pending(self):
        """Spend budgets still banked when the kernel run ends."""
        for context in self.contexts:
            if (context.binding.pending_steps and not context.quarantined
                    and not context.finished):
                self.sync_context(context)

    # -- quiet-timestep fast-forward (KernelHook) ----------------------------

    #: Does the scheme run lock-step timesteps ahead (``_run_ahead``)?
    runs_ahead = False

    @property
    def skips_quiet(self):
        """A banked quantum turns a timestep into pure accounting; a
        scheme that runs ahead skips too, unless pooled."""
        return self.sync_quantum > 1 or (self.runs_ahead
                                         and not self._pooled)

    def quiet_steps(self, kernel):
        """Coming timesteps in which every context's poll finds nothing.

        Each live context must be idle (its cycle-begin poll finds
        nothing).  A run-ahead's room is unbounded: it stops itself.  Otherwise a running context must also have no
        stop source forcing a sync; its room is the timesteps its
        quantum can still bank before it falls due.  Quarantined
        contexts are never polled.
        """
        run_ahead = self.runs_ahead
        # The quantum bounds a skip even when no context is running.
        room = math.inf if run_ahead else self.sync_quantum - 1
        for context in self.contexts:
            if context.quarantined:
                continue
            if not self._idle(context):
                return 0
            if run_ahead or context.finished:
                continue
            if self._sync_due(context):
                return 0
            binding = context.binding
            room = min(room, binding.quantum - binding.pending_steps - 1)
        return room

    def skip_steps(self, kernel, times, sinks):
        """Account the skipped timesteps as the callbacks would have.

        A scheme that runs ahead runs them (``_run_ahead``).  Otherwise
        it is :meth:`_advance`'s banked step and the cycle-begin poll,
        per context and timestep, with a due trace sink sampled in
        place: after its timestep's banked step, before its poll.
        """
        if self.runs_ahead:
            return self._run_ahead(kernel, times, sinks)
        steps = len(times)
        timestep = kernel.timestep_count
        banked = polled = 0
        due = sinks_due(sinks)
        while due <= times[-1]:
            at = bisect_left(times, due, banked)
            self._cover(times[banked:at + 1], at - polled)
            banked, polled = at + 1, at
            kernel.now = times[at]
            kernel.timestep_count = timestep + banked
            for sink in sinks:
                sink.sample(kernel)
            due = sinks_due(sinks)
        self._cover(times[banked:], steps - polled)
        return steps, False

    def _cover(self, times, polls):
        """Bank the timesteps at *times* and account *polls* idle
        cycle-begin polls, per live context."""
        metrics = self.metrics
        metrics.sc_timesteps += len(times)
        for context in self.contexts:
            if context.quarantined:
                continue
            if polls:
                metrics.cheap_polls += polls
                self._skip_polls(context, polls)
            if times and not context.finished:
                context.binding.accumulate_many(times)

    # -- parallel round ------------------------------------------------------

    def _classify(self, context, now):
        """Plan one context's timestep: ``(kind, budget, data, job)``.

        None when it has nothing to do.  Classification touches only
        per-context bookkeeping (budget banking, drains, grants) and
        emits nothing.
        """
        binding = context.binding
        if binding.quantum > 1:
            binding.accumulate(now)
            if not (binding.due() or self._sync_due(context)):
                return None
            if not self._parallel_eligible(context, lockstep=False):
                return SERIAL_SYNC, None, None, None
            self._begin_sync(context)
            budget, steps = binding.drain()
            job = self._prefetch_job(context, budget) if budget > 0 else None
            return SYNC, budget, steps, job
        budget = binding.cycles_for_advance(now)
        if budget <= 0:
            return None
        if not self._parallel_eligible(context, lockstep=True):
            return SERIAL_GRANT, budget, None, None
        return GRANT, budget, None, self._prefetch_job(context, budget)

    def _parallel_round(self, now):
        """One classify / prefetch / commit round (see cosim.parallel).

        Eligible contexts' runs execute concurrently with their trace
        events captured per context; the commit then replays each
        context in attach order, reproducing the serial event sequence
        and metric totals exactly.  A round that plans no job never
        calls the dispatcher.
        """
        dispatcher = self.dispatcher
        plans = []
        jobs = []
        for context in self.contexts:
            if context.quarantined or context.finished:
                continue
            plan = self._classify(context, now)
            if plan is None:
                continue
            kind, budget, data, job = plan
            plans.append((context, kind, budget, data))
            if kind in (SERIAL_SYNC, SERIAL_GRANT):
                dispatcher.stats.serial_fallbacks += 1
            elif job is not None:
                self._trace_dispatch(context, budget)
                jobs.append((id(context), job))
        results = dispatcher.execute(jobs) if jobs else None
        for context, kind, budget, data in plans:
            if context.quarantined:
                continue
            if kind == SERIAL_SYNC:
                self._serial_sync(context)
            elif kind == SERIAL_GRANT:
                self._lockstep(context, budget)
            elif (self._open_commit(context, kind, budget, data)
                  and self._commit(context, results[id(context)], kind,
                                   budget, data)):
                self._watchdog(context)

    def _trace_dispatch(self, context, budget):
        """Open a dispatch→commit window span (``trace_commits`` only)."""
        if not (self.dispatcher.trace_commits and self.tracer.enabled):
            return
        self._par_seq += 1
        context._par_span = "par:%s:%d" % (context.name, self._par_seq)
        self.tracer.emit("cosim", "parallel_dispatch", scope=context.name,
                         budget=budget, span=context._par_span)

    def _commit(self, context, outcome, kind, budget, data):
        """Apply one prefetched context at its deterministic slot.

        True when it ran; a failed prefetch or apply quarantines it.
        """
        status, value, buffer = outcome
        self.tracer.replay(buffer.drain())
        try:
            if status == "error":
                raise value
            consumed = self._apply(context, value, kind, budget, data)
        except DRIVE_ERRORS as error:
            self._quarantine_error(context, error)
            return False
        if consumed is None:
            return False
        if self.dispatcher.trace_commits and self.tracer.enabled:
            args = dict(cycles=consumed)
            if context._par_span is not None:
                args["span"] = context._par_span
                context._par_span = None
            self.tracer.emit("cosim", "parallel_commit",
                             scope=context.name, **args)
        return True

    # -- watchdog and quarantine ---------------------------------------------

    def _watchdog(self, context):
        """Quarantine a context that made no progress in K checks."""
        if self.watchdog_ticks is None or context.finished:
            return
        progress = context.progress
        if progress != context._watch:
            context._watch = progress
            context._stall_ticks = 0
            return
        context._stall_ticks += 1
        if context._stall_ticks >= self.watchdog_ticks:
            self._quarantine(context, QUARANTINE_WATCHDOG,
                             self.stall_detail % self.watchdog_ticks)

    def _quarantine_error(self, context, error):
        """Map a caught :data:`DRIVE_ERRORS` failure to its reason code.

        A dead forked worker surfaces on any drive path — a parallel
        commit, a cheap poll servicing a stop, a serial sync — not just
        at the prefetch.
        """
        if isinstance(error, RemoteWorkerError):
            if self.dispatcher is not None:
                self.dispatcher.kill_worker(context.cpu)
            self._quarantine(context, QUARANTINE_WORKER, error)
        else:
            self._quarantine(context, QUARANTINE_TRANSPORT, error)

    def _quarantine(self, context, reason, detail=None):
        """Detach *context*; the rest of the simulation carries on.

        *reason* is a stable ``QUARANTINE_*`` code (it reaches traces
        and metrics); *detail* is free-form diagnostics kept out of
        golden-relevant fields.  When a crash policy elects recovery,
        raise instead of detaching — the checkpoint runner catches it
        at the kernel-run boundary and resumes from the last snapshot.
        """
        if (self.crash_policy is not None
                and self.crash_policy(context.name, reason)):
            raise RecoverableCrashError(
                "context %r crashed: %s (%s)"
                % (context.name, reason, detail if detail else reason),
                context=context.name, code=reason)
        if context.dmi is not None:
            # Precise fallback: a quarantined context must never be
            # served from a direct view again.
            context.dmi.degrade()
        context.quarantined = True
        context.quarantine_reason = reason
        self.metrics.record_quarantine(context.name, reason, detail=detail)
        if self.tracer.enabled:
            self.tracer.emit("cosim", "quarantine", scope=context.name,
                             reason=reason)

    # -- run boundary --------------------------------------------------------

    def bindings(self):
        """``(context name, ClockBinding)`` per context, attach order."""
        return [(context.name, context.binding)
                for context in self.contexts]

    @property
    def finished(self):
        """Every context either ran to completion or was quarantined."""
        return all(context.finished or context.quarantined
                   for context in self.contexts)

    def close(self):
        """Release parallel resources (pool threads, forked workers)."""
        if self.dispatcher is not None:
            self.dispatcher.shutdown()


class GdbScheme(ContextScheme):
    """What the two GDB schemes share: the context and its stop sources."""

    #: Prefix of each context's RSP pipe name.
    pipe_prefix = "gdb:"

    def attach_cpu(self, cpu, pragma_map, ports, cpu_hz, name=None,
                   reliability=None, faults=None, dmi=False):
        """Connect one ISS: its pragma map and variable->port mapping.

        *reliability*/*faults* stack the resilience layers over the RSP
        pipe (:func:`wire_channel`).  *dmi* enables the direct-memory
        binding tier; like parallel eligibility it silently degrades to
        the transactional path when the transport carries fault or
        reliability layers (their RSP traffic is the thing under test).
        """
        label = name or cpu.name
        tracer = self.tracer
        cpu.attach_tracer(tracer)
        pipe = Pipe(self.pipe_prefix + label)
        client_end, stub_end = wire_channel(pipe, reliability, faults,
                                            self.metrics, tracer)
        stub = GdbStub(cpu, stub_end)
        client = GdbClient(client_end, pump=stub.service_pending,
                           name=label, tracer=tracer)
        safe = not reliability and faults is None
        table = (DmiTable(label, cpu, self.metrics, tracer)
                 if dmi and safe else None)
        driver = TargetDriver(client, stub, cpu, pragma_map, dict(ports),
                              self.metrics, tracer, dmi=table)
        return self._register(GdbContext(
            name=label, cpu=cpu,
            binding=ClockBinding(cpu_hz, 1, quantum=self.sync_quantum),
            pipe=pipe, stub=stub, client=client, driver=driver, dmi=table,
            parallel_safe=safe))

    def elaborate(self):
        """Set every pragma breakpoint and put the targets in run mode."""
        for context in self.contexts:
            context.driver.elaborate()

    def _must_sync(self, context):
        """A stop source that needs a *grant* to fire is armed.

        Communication stops (pending stop data, a held transfer) are
        serviced by the scheme's cheap poll without an RSP
        synchronisation, so they do not count here.
        """
        cpu = context.cpu
        return (cpu.interrupts_enabled or cpu.irq_pending
                or cpu.breakpoints.has_watchpoints)

    def _sync_due(self, context):
        # A serviced stop left the guest runnable again: grant the
        # banked budget now instead of waiting out the quantum.
        return ((context.attention_serviced
                 and context.driver.held_at is None)
                or self._must_sync(context))

    def _begin_sync(self, context):
        context.attention_serviced = False

    def _apply(self, context, consumed, kind, budget, data):
        # Finish the prefetched drive: service any stop exactly as a
        # serial drive would have (see TargetDriver.prefetch).
        if consumed:
            self.metrics.iss_cycles += consumed
            self.metrics.bump_context(context.name, iss_cycles=consumed)
        context.driver.drive(skip_first_execute=True)
        return consumed
