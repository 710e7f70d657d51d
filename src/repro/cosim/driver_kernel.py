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

The context lifecycle — watchdog, quarantine, quantum batching and the
parallel round — is :mod:`repro.cosim.context`'s.
"""

from dataclasses import dataclass
from operator import attrgetter

from repro.errors import CosimError
from repro.cosim.binding import ClockBinding
from repro.cosim.channels import Endpoint, Socket
from repro.cosim.context import (DRIVE_ERRORS, SYNC, Context, ContextScheme,
                                 wire_channel)
from repro.cosim.dmi import GRANT_IN, GRANT_OUT, DmiTable
from repro.cosim.messages import (DATA_PORT, DESCRIPTOR, INTERRUPT_PORT,
                                  Block, Message, MessageType,
                                  interrupt_message, pack_message,
                                  unpack_message)
from repro.cosim.ports import IssInPort, IssOutPort
from repro.sysc.hooks import KernelHook, sinks_due

_PORT_KINDS = {"iss_in": IssInPort, "iss_out": IssOutPort}


@dataclass
class RtosContext(Context):
    """One attached ISS+RTOS with its two sockets' endpoints."""

    rtos: object = None
    ports: dict = None      # port name -> Iss{In,Out}Port
    # Kernel- and guest-side transport endpoints.  Without the reliable
    # layer these are the raw socket ends; with it, the wrapped stack.
    data_endpoint: object = None
    irq_endpoint: object = None
    guest_data_endpoint: object = None
    guest_irq_endpoint: object = None
    reliable: bool = False
    activity: int = 0            # driver messages handled for this context
    _watch: int = 0
    # An interrupt message was sent and the guest has not run since;
    # forces a sync so ISR dispatch is not delayed by budget banking.
    irq_inflight: bool = False
    # Driver activity level at the last quantum sync: traffic since
    # then (e.g. a READ_REPLY the guest is blocked on) forces a sync.
    _synced_activity: int = 0

    #: The guest halted.  A C-level getter: ``_advance`` reads it for
    #: every context at every timestep.
    finished = property(attrgetter("cpu.halted"))

    @property
    def progress(self):
        """The watchdog's measure: driver messages handled."""
        return self.activity


class DriverKernelScheme(ContextScheme, KernelHook):
    """The scheduler modification of paper Figure 5."""

    name = "driver-kernel"
    stall_detail = "no driver traffic in %d timesteps"

    def __init__(self, kernel, metrics=None, watchdog_ticks=None,
                 tracer=None, sync_quantum=1, dispatcher=None):
        super().__init__(kernel, metrics, watchdog_ticks, tracer,
                         sync_quantum, dispatcher)
        self._pending_interrupts = []   # (context, vector)
        # Span counter, advanced only under `if tracer.enabled:` and
        # always on the main thread, so correlation ids are identical
        # under serial and parallel execution.
        self._irq_seq = {}              # context name -> interrupts sent
        kernel.add_hook(self)

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
        name = name or rtos.name
        safe = not reliability and faults is None
        table = None
        if dmi and safe:
            table = DmiTable(name, rtos.cpu, self.metrics, self.tracer)
            # The guest-side driver consults the table to pick the
            # zero-copy message variants.
            rtos.dmi = table
        rtos.cpu.attach_tracer(self.tracer)
        data_endpoint, guest_data_endpoint = wire_channel(
            Socket(DATA_PORT, "data:" + name), reliability, faults,
            self.metrics, self.tracer)
        irq_endpoint, guest_irq_endpoint = wire_channel(
            Socket(INTERRUPT_PORT, "irq:" + name), reliability, faults,
            self.metrics, self.tracer)
        context = RtosContext(
            name=name, cpu=rtos.cpu, rtos=rtos,
            binding=ClockBinding(cpu_hz, 1, quantum=self.sync_quantum),
            dmi=table, parallel_safe=safe, ports=dict(ports),
            data_endpoint=data_endpoint, irq_endpoint=irq_endpoint,
            guest_data_endpoint=guest_data_endpoint,
            guest_irq_endpoint=guest_irq_endpoint,
            reliable=bool(reliability))
        rtos.attach_cosim(guest_data_endpoint, guest_irq_endpoint)
        return self._register(context)

    def raise_interrupt(self, context, vector):
        """Hardware side: queue *vector* for delivery at cycle end."""
        self._pending_interrupts.append((context, vector))
        return vector

    def elaborate(self):
        """Start every attached guest RTOS."""
        for context in self.contexts:
            if not context.rtos.started:
                context.rtos.start()

    def on_cycle_begin(self, kernel):
        """Drain driver messages at the start of the cycle (Fig. 5)."""
        for context in self.contexts:
            if context.quarantined:
                continue
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
            except DRIVE_ERRORS as error:
                self._quarantine_error(context, error)

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

        A quantum sync is forced while interrupt delivery is pending
        (an in-flight interrupt message, a raised IRQ line, or a
        deliverable vector), so ISR latency is unchanged by batching.
        """
        self._advance(kernel.now)

    def _run(self, context, budget):
        """One RTOS advance."""
        if budget <= 0:
            return False
        metrics = self.metrics
        metrics.grants += 1
        consumed = context.rtos.advance(budget)
        metrics.iss_cycles += consumed
        # bump_context(name, iss_cycles=consumed), minus the kwargs
        # dict: this runs once per context per timestep.
        bucket = metrics.per_context.setdefault(context.name, {})
        bucket["iss_cycles"] = bucket.get("iss_cycles", 0) + consumed
        return True

    def _begin_sync(self, context):
        context._synced_activity = context.activity

    def _sync(self, context, budget, steps):
        if not self._run(context, budget):
            return False
        context.irq_inflight = False
        return True

    def _sync_due(self, context):
        """Interrupt delivery is pending: degrade to lock-step.

        The guest RTOS keeps ``interrupts_enabled`` asserted whenever
        it runs, so (unlike the GDB schemes) that flag alone cannot be
        the degradation trigger — the actionable sources are an
        interrupt message in flight on the socket, a raised IRQ line,
        and a vector the RTOS has accepted but not yet dispatched.
        """
        return (context.irq_inflight or context.cpu.irq_pending
                or context.rtos.vectors.has_deliverable
                or context.activity != context._synced_activity)

    def _idle(self, context):
        """No interrupt awaits delivery and the data socket is plain
        and empty (a reliable one also polls the interrupt socket)."""
        endpoint = context.data_endpoint
        return (not self._pending_interrupts
                and type(endpoint) is Endpoint and not endpoint.pending)

    def _skip_polls(self, context, steps):
        context.data_endpoint.poll_count += steps

    @property
    def runs_ahead(self):
        """At lock-step the guest runs ahead over quiet timesteps."""
        return self.sync_quantum == 1

    def _run_ahead(self, kernel, times, sinks):
        """Run lock-step timesteps ahead of the kernel's delta cycles.

        The guest is master (Fig. 5): between two timesteps the kernel
        sees it only through the cycle-begin drain of its data socket.
        So each timestep at *times* gets what its materialised time
        hook and sinks do — :meth:`_advance`'s grants, then the due
        samples — and, while every polled data socket stays empty, its
        cycle begin is accounted (the poll, as ``_skip_polls``) and the
        next timestep follows.  The first timestep that leaves a message
        to drain, an interrupt to deliver or a stop request is entered:
        the kernel runs its delta cycle, so ``on_cycle_begin`` drains
        the message exactly when it would have
        (:meth:`~repro.sysc.hooks.KernelHook.skip_steps`).
        """
        metrics = self.metrics
        contexts = self.contexts
        advance = self._advance
        due = sinks_due(sinks)
        steps = 0
        for now in times:
            kernel.now = now
            kernel.timestep_count += 1
            advance(now)
            if now >= due:
                for sink in sinks:
                    sink.sample(kernel)
                due = sinks_due(sinks)
            if kernel._stop_requested or self._pending_interrupts:
                return steps, True
            # quiet_steps admitted only plain sockets: their inbox is
            # what Endpoint.poll reads.
            polled = 0
            for context in contexts:
                if not context.quarantined:
                    if context.data_endpoint._inbox:
                        return steps, True
                    polled += 1
            metrics.cheap_polls += polled
            for context in contexts:
                if not context.quarantined:
                    context.data_endpoint.poll_count += 1
            steps += 1
        return steps, False

    def _parallel_eligible(self, context, lockstep):
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
            return not (context.cpu.irq_pending
                        or context.rtos.vectors.has_deliverable)
        return not self._sync_due(context)

    def _prefetch_job(self, context, budget):
        # The RTOS advance is the entire prefetch: it touches only the
        # context's CPU, scheduler and guest-side endpoints (driver
        # messages it sends queue on the kernel-side socket and are
        # drained by the next cycle's on_cycle_begin, as in serial
        # execution).
        return lambda: context.rtos.advance(budget)

    def _apply(self, context, consumed, kind, budget, data):
        self.metrics.iss_cycles += consumed
        self.metrics.bump_context(context.name, iss_cycles=consumed)
        if kind == SYNC:
            context.irq_inflight = False
        return consumed

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


# The wall-time benchmark's ledger (benchmarks/wall/ledger.py) times
# the scheduler-hook methods under this name.
DriverKernelHook = DriverKernelScheme
