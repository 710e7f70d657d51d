"""The GDB-Kernel co-simulation scheme (paper Section 3).

The wrapper is *embedded into the SystemC kernel*: a scheduler hook
checks, at the beginning of every simulation cycle, whether the GDB
stub of any attached ISS has stopped at a breakpoint — by inspecting
the IPC pipe's data structure, an O(1) poll — and only then performs
the variable transfer over the remote-debugging interface:

- a breakpoint associated with an ``iss_in`` port: the kernel reads the
  guest variable (RSP ``m``), stores the value into the port, and any
  ``iss_process`` sensitive to it runs;
- a breakpoint associated with an ``iss_out`` port: the port's value is
  copied into the guest variable (RSP ``M``) before the guest statement
  that reads it executes — held until the port has fresh data.

The hook also grants each ISS its cycle budget whenever simulated time
advances.  User modules never see any of this — they only declare
``iss_in``/``iss_out`` ports and ``iss_process``es.

Resilience (see ``docs/resilience.md``): the RSP pipe can carry the
reliable framing of :mod:`repro.cosim.reliable` over fault-injected
links, and a per-context watchdog quarantines an ISS that stops
executing — or whose transport gives up — so the remaining contexts
finish instead of wedging the whole simulation.
"""

from dataclasses import dataclass

from repro.errors import CosimTransportError, RecoverableCrashError
from repro.cosim.binding import ClockBinding
from repro.cosim.channels import Pipe
from repro.cosim.dmi import DmiTable
from repro.cosim.faults import FaultyEndpoint
from repro.cosim.metrics import (CosimMetrics, QUARANTINE_TRANSPORT,
                                 QUARANTINE_WATCHDOG, QUARANTINE_WORKER)
from repro.cosim.reliable import wrap_reliable
from repro.cosim.transfer import TargetDriver
from repro.iss.remote import RemoteWorkerError
from repro.gdb.client import GdbClient
from repro.gdb.stub import GdbStub
from repro.obs.tracer import NULL_TRACER
from repro.sysc.hooks import KernelHook


@dataclass
class _CpuContext:
    """Everything the hook needs about one attached ISS."""

    name: str
    cpu: object
    binding: ClockBinding
    pipe: Pipe
    stub: GdbStub
    client: GdbClient
    driver: TargetDriver
    dmi: object = None          # DmiTable of the DMI binding tier, or None
    quarantined: bool = False
    quarantine_reason: str = None
    # Reliable/fault-injected transports draw from seeded RNG streams
    # whose ordering a parallel prefetch cannot preserve: lock-step.
    parallel_safe: bool = True
    _watch_cycles: int = -1
    _stall_ticks: int = 0
    # A communication stop was serviced since the last quantum sync;
    # once the hold clears, the guest is runnable and the banked
    # budget should be granted immediately.
    attention_serviced: bool = False
    # Open parallel dispatch→commit window span (trace_commits only).
    _par_span: str = None

    @property
    def finished(self):
        return self.driver.finished


class GdbKernelHook(KernelHook):
    """The scheduler modification of paper Figure 3."""

    def __init__(self, metrics, watchdog_ticks=None, tracer=None,
                 dispatcher=None):
        self.metrics = metrics
        self.watchdog_ticks = watchdog_ticks
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.dispatcher = dispatcher
        self.contexts = []
        # Optional crash-recovery hook: ``policy(context_name, code)``
        # returning True elects recovery (RecoverableCrashError) over
        # quarantine.  Set by the checkpoint runner; None = PR-1
        # behavior (always quarantine).
        self.crash_policy = None
        # Dispatch-window span counter; main-thread only, traced only.
        self._par_seq = 0
        # Wall-time attribution profiler (repro.obs.attrib), attached
        # post-build by attach_attrib; None = zero-cost pass-through.
        self.attrib = None

    def active_contexts(self):
        """Contexts still participating in the co-simulation."""
        return [context for context in self.contexts
                if not context.quarantined]

    def on_cycle_begin(self, kernel):
        """Poll each ISS pipe; service stops when data is pending."""
        # "checks ... if the GDB is stopped to a breakpoint ... by
        # checking the content of the data structure of the IPC
        # mechanism used to connect the ISS and the wrapper (a pipe)".
        for context in self.contexts:
            if context.quarantined:
                continue
            self.metrics.cheap_polls += 1
            try:
                if context.driver.needs_attention:
                    if self.tracer.enabled:
                        self.tracer.emit("cosim", "attention",
                                         scope=context.name)
                    context.driver.drive()
                    context.attention_serviced = True
            except (CosimTransportError, RemoteWorkerError) as error:
                self._quarantine_error(context, error)

    def on_time_advance(self, kernel):
        """Grant each ISS its cycle budget and drive it.

        At ``sync_quantum=1`` (the binding default) every timestep
        performs the grant+drive round trip — the classic behavior.
        At larger quanta budgets bank up and one batched sync covers
        the window, unless a stop source could fire inside it.
        """
        attrib = self.attrib
        if attrib is None:
            return self._advance_contexts(kernel)
        # Transport attribution: ISS runs nested inside this measure
        # charge their own iss.* buckets, so "transport" is left with
        # the pure scheme/protocol overhead.
        with attrib.measure("transport"):
            return self._advance_contexts(kernel)

    def _advance_contexts(self, kernel):
        self.metrics.sc_timesteps += 1
        if self.dispatcher is not None:
            self._advance_parallel(kernel)
            return
        for context in self.contexts:
            if context.quarantined or context.finished:
                continue
            binding = context.binding
            if binding.quantum > 1:
                binding.accumulate(kernel.now)
                runnable_again = (context.attention_serviced
                                  and context.driver.held_at is None)
                if (binding.due() or runnable_again
                        or self._must_sync(context)):
                    self.sync_context(context)
                continue
            budget = binding.cycles_for_advance(kernel.now)
            if budget <= 0:
                continue
            self._lockstep_context(context, budget)

    def _lockstep_context(self, context, budget):
        """The classic per-timestep grant+drive round trip."""
        if self.tracer.enabled:
            self.tracer.emit("cosim", "grant", scope=context.name,
                             budget=budget)
        self.metrics.grants += 1
        try:
            context.driver.grant(budget)
            context.driver.drive()
        except (CosimTransportError, RemoteWorkerError) as error:
            self._quarantine_error(context, error)
            return
        if self.watchdog_ticks is not None:
            self._watchdog(context)

    def _parallel_eligible(self, context):
        """May *context*'s next execution stretch run on the pool?

        Exactly the conditions under which quantum batching already
        degrades, plus resilience layers (their RNG draw order is part
        of determinism): any of them sends the context down the serial
        path at its commit slot instead.
        """
        driver = context.driver
        return (context.parallel_safe
                and driver.held_at is None
                and not driver.needs_attention
                and not self._must_sync(context))

    def _advance_parallel(self, kernel):
        """One classify / prefetch / commit round (see cosim.parallel).

        Classification touches only per-context bookkeeping (budget
        banking, drains, grants) and emits nothing; the prefetch runs
        eligible contexts' execution stretches concurrently with trace
        events captured per context; the commit then replays each
        context in attach order, reproducing the serial event sequence
        and metric totals exactly.
        """
        dispatcher = self.dispatcher
        plans = []
        jobs = []
        for context in self.active_contexts():
            if context.finished:
                continue
            binding = context.binding
            if binding.quantum > 1:
                binding.accumulate(kernel.now)
                runnable_again = (context.attention_serviced
                                  and context.driver.held_at is None)
                if not (binding.due() or runnable_again
                        or self._must_sync(context)):
                    continue
                if not self._parallel_eligible(context):
                    dispatcher.stats.serial_fallbacks += 1
                    plans.append((context, "serial_sync", None))
                    continue
                context.attention_serviced = False
                budget, steps = binding.drain()
                plans.append((context, "quantum", (budget, steps)))
                if budget > 0:
                    context.driver.grant(budget)
                    self._trace_dispatch(context, budget)
                    jobs.append((id(context), context.driver.prefetch))
            else:
                budget = binding.cycles_for_advance(kernel.now)
                if budget <= 0:
                    continue
                if not self._parallel_eligible(context):
                    dispatcher.stats.serial_fallbacks += 1
                    plans.append((context, "serial_grant", budget))
                    continue
                plans.append((context, "grant", budget))
                context.driver.grant(budget)
                self._trace_dispatch(context, budget)
                jobs.append((id(context), context.driver.prefetch))
        results = dispatcher.execute(jobs)
        for context, kind, data in plans:
            if context.quarantined:
                continue
            if kind == "serial_sync":
                self.sync_context(context)
            elif kind == "serial_grant":
                self._lockstep_context(context, data)
            elif kind == "quantum":
                budget, steps = data
                self.metrics.quantum_syncs += 1
                self.metrics.quantum_steps_batched += steps
                if self.tracer.enabled:
                    self.tracer.emit("cosim", "quantum_sync",
                                     scope=context.name, steps=steps,
                                     budget=budget)
                if budget <= 0:
                    continue
                self.metrics.grants += 1
                self._commit_context(context, results[id(context)])
            else:
                if self.tracer.enabled:
                    self.tracer.emit("cosim", "grant", scope=context.name,
                                     budget=data)
                self.metrics.grants += 1
                self._commit_context(context, results[id(context)])

    def _trace_dispatch(self, context, budget):
        """Open a dispatch→commit window span (``trace_commits`` only)."""
        if not (self.dispatcher.trace_commits and self.tracer.enabled):
            return
        self._par_seq += 1
        context._par_span = "par:%s:%d" % (context.name, self._par_seq)
        self.tracer.emit("cosim", "parallel_dispatch", scope=context.name,
                         budget=budget, span=context._par_span)

    def _commit_context(self, context, outcome):
        """Apply one prefetched context at its deterministic slot."""
        status, value, buffer = outcome
        self.tracer.replay(buffer.drain())
        if status == "error":
            if isinstance(value, RemoteWorkerError):
                self.dispatcher.kill_worker(context.cpu)
                self._quarantine(context, QUARANTINE_WORKER, value)
                return
            if isinstance(value, CosimTransportError):
                self._quarantine(context, QUARANTINE_TRANSPORT, value)
                return
            raise value
        consumed = value
        if consumed:
            self.metrics.iss_cycles += consumed
            self.metrics.bump_context(context.name, iss_cycles=consumed)
        try:
            context.driver.drive(skip_first_execute=True)
        except (CosimTransportError, RemoteWorkerError) as error:
            self._quarantine_error(context, error)
            return
        if self.dispatcher.trace_commits and self.tracer.enabled:
            args = dict(cycles=consumed)
            if context._par_span is not None:
                args["span"] = context._par_span
                context._par_span = None
            self.tracer.emit("cosim", "parallel_commit",
                             scope=context.name, **args)
        self._watchdog(context)

    def _must_sync(self, context):
        """A stop source could fire in the window: degrade to lock-step.

        Pipe attention (pending stop data, held-transfer retries) is
        already serviced every cycle by :meth:`on_cycle_begin`'s cheap
        poll, so only the sources that need a *grant* to make progress
        count here.
        """
        cpu = context.cpu
        return (cpu.interrupts_enabled or cpu.irq_pending
                or cpu.breakpoints.has_watchpoints)

    def sync_context(self, context):
        """One grant+drive covering every banked timestep."""
        context.attention_serviced = False
        budget, steps = context.binding.drain()
        self.metrics.quantum_syncs += 1
        self.metrics.quantum_steps_batched += steps
        if self.tracer.enabled:
            self.tracer.emit("cosim", "quantum_sync", scope=context.name,
                             steps=steps, budget=budget)
        if budget <= 0:
            return
        self.metrics.grants += 1
        try:
            context.driver.grant(budget)
            context.driver.drive()
        except (CosimTransportError, RemoteWorkerError) as error:
            self._quarantine_error(context, error)
            return
        self._watchdog(context)

    def _watchdog(self, context):
        """Quarantine a context whose CPU retired nothing in K ticks."""
        if self.watchdog_ticks is None or context.finished:
            return
        cycles = context.cpu.cycles
        if cycles != context._watch_cycles:
            context._watch_cycles = cycles
            context._stall_ticks = 0
            return
        context._stall_ticks += 1
        if context._stall_ticks >= self.watchdog_ticks:
            self._quarantine(
                context, QUARANTINE_WATCHDOG,
                "no execution progress in %d timesteps"
                % self.watchdog_ticks)

    def _quarantine_error(self, context, error):
        """Map a caught transport/worker failure to its reason code.

        A dead forked worker (the PR-4 ``RemoteWorkerError`` path) can
        surface through the serial drive paths too — e.g. the cheap
        poll servicing a stop — not just at a parallel commit slot.
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
        if getattr(context, "dmi", None) is not None:
            # Precise fallback: a quarantined context must never be
            # served from a direct view again.
            context.dmi.degrade()
        context.quarantined = True
        context.quarantine_reason = reason
        self.metrics.record_quarantine(context.name, reason,
                                       detail=detail)
        if self.tracer.enabled:
            self.tracer.emit("cosim", "quarantine", scope=context.name,
                             reason=reason)


class GdbKernelScheme:
    """Builds and owns the kernel-embedded co-simulation machinery."""

    name = "gdb-kernel"

    def __init__(self, kernel, metrics=None, watchdog_ticks=None,
                 tracer=None, sync_quantum=1, dispatcher=None):
        self.kernel = kernel
        self.metrics = metrics if metrics is not None else CosimMetrics()
        self.metrics.scheme = self.name
        # Schemes share the kernel's tracer unless given their own, so
        # a single Kernel.attach_tracer() call instruments every layer.
        self.tracer = tracer if tracer is not None else kernel.tracer
        self.sync_quantum = sync_quantum
        self.dispatcher = dispatcher
        self.hook = GdbKernelHook(self.metrics, watchdog_ticks,
                                  self.tracer, dispatcher=dispatcher)
        kernel.add_hook(self.hook)

    def attach_cpu(self, cpu, pragma_map, ports, cpu_hz, name=None,
                   reliability=None, faults=None, dmi=False):
        """Connect one ISS: its pragma map and variable->port mapping.

        *reliability*/*faults* stack the resilience layers over the RSP
        pipe, exactly as in
        :meth:`~repro.cosim.driver_kernel.DriverKernelScheme.attach_rtos`.
        *dmi* enables the direct-memory binding tier; like parallel
        eligibility it silently degrades to the transactional path when
        the transport carries fault or reliability layers (their RSP
        traffic is the thing under test).
        """
        label = name or cpu.name
        cpu.attach_tracer(self.tracer)
        pipe = Pipe("gdb:" + label)
        client_end, stub_end = _wire_pipe(pipe, reliability, faults,
                                          self.metrics, self.tracer)
        stub = GdbStub(cpu, stub_end)
        client = GdbClient(client_end, pump=stub.service_pending,
                           name=label, tracer=self.tracer)
        dmi_safe = not reliability and faults is None
        dmi_table = (DmiTable(label, cpu, self.metrics, self.tracer)
                     if dmi and dmi_safe else None)
        driver = TargetDriver(client, stub, cpu, pragma_map, dict(ports),
                              self.metrics, self.tracer, dmi=dmi_table)
        context = _CpuContext(
            label, cpu,
            ClockBinding(cpu_hz, 1, quantum=self.sync_quantum),
            pipe, stub, client, driver, dmi=dmi_table,
            parallel_safe=not reliability and faults is None)
        self.hook.contexts.append(context)
        if self.dispatcher is not None and context.parallel_safe:
            self.dispatcher.attach_cpu(cpu)
        return context

    def elaborate(self):
        """Set every pragma breakpoint and put the targets in run mode."""
        for context in self.hook.contexts:
            context.driver.elaborate()

    def flush_pending(self):
        """Spend budgets still banked when the kernel run ends."""
        for context in self.hook.active_contexts():
            if context.binding.pending_steps and not context.finished:
                self.hook.sync_context(context)

    def bindings(self):
        """``(context name, ClockBinding)`` per context, attach order."""
        return [(context.name, context.binding)
                for context in self.hook.contexts]

    @property
    def finished(self):
        """Every context either ran to completion or was quarantined."""
        return all(context.finished or context.quarantined
                   for context in self.hook.contexts)

    def close(self):
        """Release parallel resources (pool threads, forked workers)."""
        if self.dispatcher is not None:
            self.dispatcher.shutdown()


def _wire_pipe(pipe, reliability, faults, metrics, tracer=None):
    """Stack the resilience layers over an RSP pipe's two ends."""
    if reliability:
        config = None if reliability is True else reliability
        return wrap_reliable(pipe, config, metrics, faults=faults,
                             tracer=tracer)
    side_a, side_b = pipe.a, pipe.b
    if faults is not None:
        side_a = FaultyEndpoint(side_a, faults)
        side_b = FaultyEndpoint(side_b, faults)
    return side_a, side_b
