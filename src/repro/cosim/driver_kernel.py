"""The Driver-Kernel co-simulation scheme (paper Section 4).

The ISS masters the co-simulation: guest applications talk to the
SystemC hardware through a device driver inside the RTOS.  The driver
exchanges messages with the SystemC kernel on the *socket data port*
(4444); the kernel notifies interrupts on the *socket interrupt port*
(4445).  The SystemC scheduler is modified (paper Figure 5) to:

- at the beginning of each simulation cycle, check for driver messages:
  a WRITE stores data into the named ``iss_in`` port and starts the
  ``iss_process``es sensitive to it; a READ is answered with the
  current values of the named ``iss_out`` ports;
- at the end of each cycle, check whether hardware raised an interrupt
  and, if so, send it on the interrupt socket.

There is no GDB anywhere in this scheme — "the GDB interface overhead
has been removed from the ISS side" — which is where its speed comes
from; the price is writing the driver (Section 5's 9x guest-side code
overhead) and the RTOS overhead visible in Figure 7.

Resilience (see ``docs/resilience.md``): both sockets can carry the
reliable framing of :mod:`repro.cosim.reliable` over fault-injected
links (:mod:`repro.cosim.faults`), and a per-context watchdog
quarantines an ISS that stops making progress — or whose transport
gives up — so the remaining contexts finish instead of wedging the
whole simulation.
"""

from dataclasses import dataclass, field

from repro.errors import (CosimError, CosimTransportError,
                          RecoverableCrashError)
from repro.cosim.binding import ClockBinding
from repro.cosim.channels import Socket
from repro.cosim.dmi import GRANT_IN, GRANT_OUT, DmiTable
from repro.cosim.faults import FaultyEndpoint
from repro.cosim.messages import (DATA_PORT, DESCRIPTOR, INTERRUPT_PORT,
                                  Block, Message, MessageType,
                                  interrupt_message, pack_message,
                                  unpack_message)
from repro.cosim.metrics import (CosimMetrics, QUARANTINE_TRANSPORT,
                                 QUARANTINE_WATCHDOG, QUARANTINE_WORKER)
from repro.cosim.ports import IssInPort, IssOutPort
from repro.cosim.reliable import wrap_reliable
from repro.iss.remote import RemoteWorkerError
from repro.obs.tracer import NULL_TRACER
from repro.sysc.hooks import KernelHook

_PORT_KINDS = {"iss_in": IssInPort, "iss_out": IssOutPort}


@dataclass
class _RtosContext:
    """One attached ISS+RTOS with its two sockets."""

    name: str
    rtos: object
    binding: ClockBinding
    data_socket: Socket = None
    interrupt_socket: Socket = None
    ports: dict = field(default_factory=dict)  # port name -> Iss{In,Out}Port
    # Kernel- and guest-side transport endpoints.  Without the reliable
    # layer these are the raw socket ends; with it, the wrapped stack.
    data_endpoint: object = None
    irq_endpoint: object = None
    guest_data_endpoint: object = None
    guest_irq_endpoint: object = None
    reliable: bool = False
    # Reliable/fault-injected transports draw from seeded RNG streams
    # whose ordering a parallel prefetch cannot preserve: lock-step.
    parallel_safe: bool = True
    # DMI grant table for zero-copy payload motion (None = pure
    # transactional tier; mirrors the parallel-safety contract).
    dmi: object = None
    # Graceful-degradation state.
    quarantined: bool = False
    quarantine_reason: str = None
    activity: int = 0            # driver messages handled for this context
    _watch_activity: int = 0
    _stall_ticks: int = 0
    # An interrupt message was sent and the guest has not run since;
    # forces a sync so ISR dispatch is not delayed by budget banking.
    irq_inflight: bool = False
    # Driver activity level at the last quantum sync: traffic since
    # then (e.g. a READ_REPLY the guest is blocked on) forces a sync.
    _synced_activity: int = 0
    # Open parallel dispatch→commit window span (trace_commits only).
    _par_span: str = None

    @property
    def finished(self):
        return self.rtos.cpu.halted


class DriverKernelHook(KernelHook):
    """The scheduler modification of paper Figure 5."""

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
        self._pending_interrupts = []   # (context, vector)
        # Span counters, advanced only under `if tracer.enabled:` and
        # always on the main thread, so correlation ids are identical
        # under serial and parallel execution.
        self._irq_seq = {}              # context name -> interrupts sent
        self._par_seq = 0
        # Wall-time attribution profiler (repro.obs.attrib), attached
        # post-build by attach_attrib; None = zero-cost pass-through.
        self.attrib = None

    def active_contexts(self):
        """Contexts still participating in the co-simulation."""
        return [context for context in self.contexts
                if not context.quarantined]

    # Hardware modules call this (via the scheme) during evaluate.
    def queue_interrupt(self, context, vector):
        """Hardware side: queue *vector* for delivery at cycle end."""
        self._pending_interrupts.append((context, vector))

    def on_cycle_begin(self, kernel):
        """Drain driver messages at the start of the cycle (Fig. 5)."""
        for context in self.active_contexts():
            try:
                self.metrics.cheap_polls += 1
                if context.reliable:
                    # Service the interrupt socket's ACK/retransmit
                    # machinery; it has no receive path on this side.
                    context.irq_endpoint.poll()
                if not context.data_endpoint.poll():
                    continue
                while True:
                    payload = context.data_endpoint.recv()
                    if payload is None:
                        break
                    self._handle_message(context, unpack_message(payload))
            except CosimTransportError as error:
                self._quarantine(context, QUARANTINE_TRANSPORT, error)

    def on_cycle_end(self, kernel):
        """Forward interrupts raised this cycle (Fig. 5)."""
        if not self._pending_interrupts:
            return
        pending, self._pending_interrupts = self._pending_interrupts, []
        for context, vector in pending:
            if context.quarantined:
                continue
            context.irq_endpoint.send(pack_message(interrupt_message(vector)))
            context.irq_inflight = True
            self.metrics.interrupts_posted += 1
            if self.tracer.enabled:
                sequence = self._irq_seq.get(context.name, 0) + 1
                self._irq_seq[context.name] = sequence
                self.tracer.emit("driver", "interrupt", scope=context.name,
                                 vector=vector,
                                 span="irq:%s:%d" % (context.rtos.name,
                                                     sequence))

    def on_time_advance(self, kernel):
        """Grant each guest RTOS its cycle budget.

        At ``sync_quantum=1`` (the binding default) every timestep
        calls into the guest RTOS — the classic behavior.  At larger
        quanta budgets bank up and one batched advance covers the
        window, unless interrupt delivery is pending (an in-flight
        interrupt message, a raised IRQ line, or a deliverable vector),
        which forces an immediate sync so ISR latency is unchanged.
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
        for context in self.active_contexts():
            if context.finished:
                continue
            binding = context.binding
            if binding.quantum > 1:
                binding.accumulate(kernel.now)
                if binding.due() or self._must_sync(context):
                    self.sync_context(context)
                continue
            budget = binding.cycles_for_advance(kernel.now)
            if budget <= 0:
                continue
            self._lockstep_context(context, budget)

    def _lockstep_context(self, context, budget):
        """The classic per-timestep RTOS advance."""
        if self.tracer.enabled:
            self.tracer.emit("cosim", "grant", scope=context.name,
                             budget=budget)
        self.metrics.grants += 1
        try:
            consumed = context.rtos.advance(budget)
        except CosimTransportError as error:
            self._quarantine(context, QUARANTINE_TRANSPORT, error)
            return
        self.metrics.iss_cycles += consumed
        self.metrics.bump_context(context.name, iss_cycles=consumed)
        self._watchdog(context)

    def _parallel_eligible(self, context, lockstep=False):
        """May *context*'s RTOS advance run on the pool?

        Pending interrupt delivery (and resilience layers, whose RNG
        draw order is part of determinism) degrade to the serial path —
        the same conditions under which quantum batching degrades.  At
        lock-step (quantum 1) the driver-activity term is irrelevant:
        the serial path advances every timestep regardless, so only the
        interrupt-delivery sources gate eligibility.
        """
        if not context.parallel_safe:
            return False
        if lockstep:
            # irq_inflight is excluded: serial lock-step never reads or
            # clears it (it informs quantum batching only), so it
            # latches true after the first interrupt and would disable
            # parallelism permanently.  Consuming the interrupt message
            # is per-context work; the live delivery state is visible
            # through irq_pending / has_deliverable.
            return not (context.rtos.cpu.irq_pending
                        or context.rtos.vectors.has_deliverable)
        return not self._must_sync(context)

    def _advance_parallel(self, kernel):
        """One classify / prefetch / commit round (see cosim.parallel).

        The RTOS advance is the entire per-context prefetch: it touches
        only the context's CPU, scheduler and guest-side endpoints
        (driver messages it sends queue on the kernel-side socket and
        are drained by the next cycle's ``on_cycle_begin``, exactly as
        in serial execution).
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
                if not (binding.due() or self._must_sync(context)):
                    continue
                if not self._parallel_eligible(context):
                    dispatcher.stats.serial_fallbacks += 1
                    plans.append((context, "serial_sync", None))
                    continue
                context._synced_activity = context.activity
                budget, steps = binding.drain()
                plans.append((context, "quantum", (budget, steps)))
                if budget > 0:
                    self._trace_dispatch(context, budget)
                    jobs.append((id(context),
                                 self._prefetch_job(context, budget)))
            else:
                budget = binding.cycles_for_advance(kernel.now)
                if budget <= 0:
                    continue
                if not self._parallel_eligible(context, lockstep=True):
                    dispatcher.stats.serial_fallbacks += 1
                    plans.append((context, "serial_grant", budget))
                    continue
                plans.append((context, "grant", budget))
                self._trace_dispatch(context, budget)
                jobs.append((id(context),
                             self._prefetch_job(context, budget)))
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
                if self._commit_context(context, results[id(context)]):
                    context.irq_inflight = False
                    self._watchdog(context)
            else:
                if self.tracer.enabled:
                    self.tracer.emit("cosim", "grant", scope=context.name,
                                     budget=data)
                self.metrics.grants += 1
                if self._commit_context(context, results[id(context)]):
                    self._watchdog(context)

    @staticmethod
    def _prefetch_job(context, budget):
        return lambda: context.rtos.advance(budget)

    def _trace_dispatch(self, context, budget):
        """Open a dispatch→commit window span (``trace_commits`` only)."""
        if not (self.dispatcher.trace_commits and self.tracer.enabled):
            return
        self._par_seq += 1
        context._par_span = "par:%s:%d" % (context.name, self._par_seq)
        self.tracer.emit("cosim", "parallel_dispatch", scope=context.name,
                         budget=budget, span=context._par_span)

    def _commit_context(self, context, outcome):
        """Apply one prefetched advance; True when it completed."""
        status, value, buffer = outcome
        self.tracer.replay(buffer.drain())
        if status == "error":
            if isinstance(value, RemoteWorkerError):
                self.dispatcher.kill_worker(context.rtos.cpu)
                self._quarantine(context, QUARANTINE_WORKER, value)
                return False
            if isinstance(value, CosimTransportError):
                self._quarantine(context, QUARANTINE_TRANSPORT, value)
                return False
            raise value
        self.metrics.iss_cycles += value
        self.metrics.bump_context(context.name, iss_cycles=value)
        if self.dispatcher.trace_commits and self.tracer.enabled:
            args = dict(cycles=value)
            if context._par_span is not None:
                args["span"] = context._par_span
                context._par_span = None
            self.tracer.emit("cosim", "parallel_commit",
                             scope=context.name, **args)
        return True

    def _must_sync(self, context):
        """Interrupt delivery is pending: degrade to lock-step.

        The guest RTOS keeps ``interrupts_enabled`` asserted whenever
        it runs, so (unlike the GDB schemes) that flag alone cannot be
        the degradation trigger — the actionable sources are an
        interrupt message in flight on the socket, a raised IRQ line,
        and a vector the RTOS has accepted but not yet dispatched.
        """
        return (context.irq_inflight or context.rtos.cpu.irq_pending
                or context.rtos.vectors.has_deliverable
                or context.activity != context._synced_activity)

    def sync_context(self, context):
        """One RTOS advance covering every banked timestep."""
        context._synced_activity = context.activity
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
            consumed = context.rtos.advance(budget)
        except CosimTransportError as error:
            self._quarantine(context, QUARANTINE_TRANSPORT, error)
            return
        self.metrics.iss_cycles += consumed
        self.metrics.bump_context(context.name, iss_cycles=consumed)
        context.irq_inflight = False
        self._watchdog(context)

    def _watchdog(self, context):
        """Quarantine a context with no driver traffic in K timesteps."""
        if self.watchdog_ticks is None or context.finished:
            return
        if context.activity != context._watch_activity:
            context._watch_activity = context.activity
            context._stall_ticks = 0
            return
        context._stall_ticks += 1
        if context._stall_ticks >= self.watchdog_ticks:
            self._quarantine(
                context, QUARANTINE_WATCHDOG,
                "no driver traffic in %d timesteps"
                % self.watchdog_ticks)

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
            context.dmi.degrade()
        context.quarantined = True
        context.quarantine_reason = reason
        self.metrics.record_quarantine(context.name, reason,
                                       detail=detail)
        if self.tracer.enabled:
            self.tracer.emit("cosim", "quarantine", scope=context.name,
                             reason=reason)

    def _handle_message(self, context, message):
        self.metrics.messages_received += 1
        context.activity += 1
        if self.tracer.enabled:
            args = dict(sequence=message.sequence,
                        ports=[block.port for block in message.blocks])
            # Correlate with the guest-side issue event: the driver
            # stamps requests with its own sequence numbers, so the id
            # needs no extra plumbing across the socket.  DMI message
            # variants keep the base event names so the driver spans
            # open and close identically in both tiers.
            name = message.type.name.lower()
            if message.type in (MessageType.READ, MessageType.READ_DMI):
                name = "read"
                args["span"] = "drv:%s:%d" % (context.rtos.name,
                                              message.sequence)
            elif message.type in (MessageType.WRITE,
                                  MessageType.WRITE_DMI):
                name = "write"
                args["span"] = "drvw:%s:%d" % (context.rtos.name,
                                               message.sequence)
            self.tracer.emit("driver", name, scope=context.name, **args)
        if message.type is MessageType.WRITE:
            for block in message.blocks:
                port = self._port(context, block.port, "iss_in")
                if len(block.data) == 4:
                    port.deliver(int.from_bytes(block.data, "little"))
                else:
                    port.deliver(block.data)
        elif message.type is MessageType.WRITE_DMI:
            for block in message.blocks:
                port = self._port(context, block.port, "iss_in")
                address, count = DESCRIPTOR.unpack(block.data)
                data = self._dmi_read(context, address, count)
                if len(data) == 4:
                    port.deliver(int.from_bytes(data, "little"))
                else:
                    port.deliver(data)
        elif message.type is MessageType.READ:
            reply = Message(MessageType.READ_REPLY, [], message.sequence)
            for block in message.blocks:
                block.data = self._collect_bytes(context, block.port)
                reply.blocks.append(block)
            context.data_endpoint.send(pack_message(reply))
            self.metrics.messages_sent += 1
        elif message.type is MessageType.READ_DMI:
            address, max_words = DESCRIPTOR.unpack(message.blocks[0].data)
            payload = b"".join(self._collect_bytes(context, block.port)
                               for block in message.blocks)
            words = min(max_words, len(payload) // 4)
            reply = self._dmi_reply(context, address, words, payload,
                                    message.sequence)
            context.data_endpoint.send(pack_message(reply))
            self.metrics.messages_sent += 1
        else:
            raise CosimError("unexpected %s message from driver"
                             % message.type.name)

    def _collect_bytes(self, context, port_name):
        """Sample one ``iss_out`` port into its wire-format bytes."""
        port = self._port(context, port_name, "iss_out")
        value = port.collect()
        if isinstance(value, int):
            if not 0 <= value <= 0xFFFFFFFF:
                raise CosimError(
                    "iss_out port %r value %#x does not fit the "
                    "32-bit wire format" % (port_name, value))
            value = value.to_bytes(4, "little")
        elif not isinstance(value, (bytes, bytearray)):
            raise CosimError(
                "iss_out port %r holds unserialisable value %r"
                % (port_name, value))
        return bytes(value)

    def _dmi_read(self, context, address, count):
        """Move a WRITE_DMI payload out of guest RAM.

        Through a grant view when one can be acquired; otherwise a
        precise in-process fallback copy, which reads the same bytes a
        marshalled payload would carry since both happen at this drain
        point (the guest is frozen between advances).
        """
        table = context.dmi
        grant = None
        if table is not None:
            grant = table.acquire(address, 4 * count, GRANT_IN,
                                  breakpoints=context.rtos.cpu.breakpoints)
        if grant is not None:
            words = table.read_words(grant, address, count)
            return b"".join((word & 0xFFFFFFFF).to_bytes(4, "little")
                            for word in words)
        return bytes(context.rtos.cpu.memory.read_bytes(address, 4 * count))

    def _dmi_reply(self, context, address, words, payload, sequence):
        """Answer a READ_DMI: direct-to-buffer when a grant allows it.

        On a grant the reply words land straight in the guest buffer
        and a READ_REPLY_DMI descriptor confirms it; when the grant is
        refused (watchpoints, breakpoints in the window) the reply
        degrades to a payload-carrying READ_REPLY the driver copies,
        exactly the transactional tier.
        """
        table = context.dmi
        grant = None
        if table is not None and words:
            grant = table.acquire(address, 4 * words, GRANT_OUT,
                                  breakpoints=context.rtos.cpu.breakpoints)
        if grant is not None:
            values = [int.from_bytes(payload[4 * i:4 * i + 4], "little")
                      for i in range(words)]
            table.write_words(grant, address, values)
            return Message(MessageType.READ_REPLY_DMI,
                           [Block("dmi", DESCRIPTOR.pack(address, words))],
                           sequence)
        return Message(MessageType.READ_REPLY,
                       [Block("dmi", payload[:4 * words])], sequence)

    @staticmethod
    def _port(context, port_name, expected):
        port = context.ports.get(port_name)
        if port is None:
            raise CosimError("driver referenced unknown SystemC port %r"
                             % port_name)
        if not isinstance(port, _PORT_KINDS[expected]):
            raise CosimError(
                "driver used port %r as an %s but it is a %s"
                % (port_name, expected, type(port).__name__))
        return port


class DriverKernelScheme:
    """Builds and owns the Driver-Kernel machinery."""

    name = "driver-kernel"

    def __init__(self, kernel, metrics=None, watchdog_ticks=None,
                 tracer=None, sync_quantum=1, dispatcher=None):
        self.kernel = kernel
        self.metrics = metrics if metrics is not None else CosimMetrics()
        self.metrics.scheme = self.name
        # Shares the kernel's tracer unless given a dedicated one.
        self.tracer = tracer if tracer is not None else kernel.tracer
        self.sync_quantum = sync_quantum
        self.dispatcher = dispatcher
        self.hook = DriverKernelHook(self.metrics, watchdog_ticks,
                                     self.tracer, dispatcher=dispatcher)
        kernel.add_hook(self.hook)

    def attach_rtos(self, rtos, ports, cpu_hz, name=None, reliability=None,
                    faults=None, dmi=False):
        """Connect one guest RTOS; wires both sockets.

        *reliability* (a :class:`~repro.cosim.reliable.ReliabilityConfig`,
        or ``True`` for the defaults) stacks the reliable framing over
        both sockets; *faults* (a :class:`~repro.cosim.faults.FaultPlan`)
        injects link faults underneath it.  *dmi* enables the zero-copy
        binding tier on a *dmi-safe* context (no fault plan, no
        reliable transport — the same contract as parallel safety).
        """
        context = _RtosContext(
            name=name or rtos.name,
            rtos=rtos,
            binding=ClockBinding(cpu_hz, 1, quantum=self.sync_quantum),
            parallel_safe=not reliability and faults is None,
        )
        if dmi and context.parallel_safe:
            context.dmi = DmiTable(context.name, rtos.cpu,
                                   self.metrics, self.tracer)
            # The guest-side driver consults the table to pick the
            # zero-copy message variants.
            rtos.dmi = context.dmi
        rtos.cpu.attach_tracer(self.tracer)
        if self.dispatcher is not None and context.parallel_safe:
            # The process backend declines RTOS CPUs (their syscall
            # handlers close over master-side state); the attempt just
            # records the fallback and the context runs on the pool.
            self.dispatcher.attach_cpu(rtos.cpu)
        context.data_socket = Socket(DATA_PORT, "data:" + context.name)
        context.interrupt_socket = Socket(INTERRUPT_PORT,
                                          "irq:" + context.name)
        context.ports = dict(ports)
        self._wire_transport(context, reliability, faults)
        rtos.attach_cosim(context.guest_data_endpoint,
                          context.guest_irq_endpoint)
        self.hook.contexts.append(context)
        return context

    def _wire_transport(self, context, reliability, faults):
        if reliability:
            config = None if reliability is True else reliability
            context.reliable = True
            context.data_endpoint, context.guest_data_endpoint = \
                wrap_reliable(context.data_socket, config, self.metrics,
                              faults=faults, tracer=self.tracer)
            context.irq_endpoint, context.guest_irq_endpoint = \
                wrap_reliable(context.interrupt_socket, config,
                              self.metrics, faults=faults,
                              tracer=self.tracer)
            return
        data_a, data_b = context.data_socket.a, context.data_socket.b
        irq_a, irq_b = (context.interrupt_socket.a,
                        context.interrupt_socket.b)
        if faults is not None:
            data_a = FaultyEndpoint(data_a, faults)
            data_b = FaultyEndpoint(data_b, faults)
            irq_a = FaultyEndpoint(irq_a, faults)
            irq_b = FaultyEndpoint(irq_b, faults)
        context.data_endpoint, context.guest_data_endpoint = data_a, data_b
        context.irq_endpoint, context.guest_irq_endpoint = irq_a, irq_b

    def raise_interrupt(self, context, vector):
        """Hardware-side interrupt request (delivered at cycle end)."""
        self.hook.queue_interrupt(context, vector)
        return vector

    def elaborate(self):
        """Start every attached guest RTOS."""
        for context in self.hook.contexts:
            if not context.rtos.started:
                context.rtos.start()

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
