"""Target driving and breakpoint-to-port transfers for the GDB schemes.

When an ISS stops at a pragma breakpoint, each associated binding is a
variable transfer over the remote-debugging interface:

- ``iss_in``: read the guest variable (RSP ``m``) and deliver it to the
  SystemC port;
- ``iss_out``: copy the port value into the guest variable (RSP ``M``)
  — *only if the port holds fresh data*.  Otherwise the ISS is held
  stopped; the scheme retries at a later simulation cycle.  This is the
  master-side kernel implementing blocking guest reads (flow control)
  without the guest burning cycles.

:class:`TargetDriver` owns the execution side: the ISS earns cycle
budgets as SystemC time advances and spends them through
:meth:`TargetDriver.drive`, which services any number of breakpoint
stops back-to-back.  Stops therefore cost *host* work (the RSP
exchanges the paper's Table 1 measures) but no simulated time — in the
real system the ISS runs in a separate host process while SystemC's
clock is frozen at the synchronisation point.
"""

from repro.cosim.dmi import GRANT_IN, GRANT_OUT
from repro.errors import CosimError
from repro.gdb.client import StopKind
from repro.obs.tracer import NULL_TRACER


def _binding_runs(bindings):
    """Split *bindings* into contiguous same-direction runs.

    A run is a maximal stretch of bindings with the same kind whose
    guest addresses ascend word by word — exactly what one RSP ``m``
    or ``M`` block exchange can cover.  Singleton runs take the
    original per-word path so existing pragma layouts keep their exact
    transaction counts and trace events.
    """
    runs = []
    for binding in bindings:
        if (runs and runs[-1][-1].kind == binding.kind
                and binding.variable_address
                == runs[-1][-1].variable_address + 4):
            runs[-1].append(binding)
        else:
            runs.append([binding])
    return runs


def attempt_transfer(client, pragma_map, ports, breakpoint_address, metrics,
                     tracer=NULL_TRACER, span=None, dmi=None,
                     breakpoints=None):
    """Try to service a breakpoint stop; returns resume-allowed.

    The return value is falsy on a flow-control hold, ``"dmi"`` when
    every binding run moved through a direct-memory grant (the caller
    may then resume the target locally, without an RSP round trip),
    and ``"transactional"`` when at least one run paid an ``m``/``M``
    exchange.

    *span* is the correlation id of the enclosing breakpoint-sync span
    (``bp:<target>:<n>``); every transfer event emitted while servicing
    the stop carries it, so the span builder can attribute the RSP
    exchanges to the transaction that caused them.  *dmi* is the
    context's :class:`~repro.cosim.dmi.DmiTable` (or None for the pure
    transaction tiers); *breakpoints* the CPU's breakpoint set, which
    the grant table consults for its precise-fallback triggers.
    """
    bindings = pragma_map.bindings_at(breakpoint_address)
    if not bindings:
        raise CosimError("ISS stopped at unassociated breakpoint 0x%08x"
                         % breakpoint_address)
    # Flow control first: every iss_out port involved must be fresh.
    for binding in bindings:
        if binding.kind == "iss_out":
            port = _port_for(ports, binding.variable)
            if not port.fresh:
                return False
    outcome = "dmi"
    for run in _binding_runs(bindings):
        if dmi is not None:
            base = run[0].variable_address
            kind = GRANT_IN if run[0].kind == "iss_in" else GRANT_OUT
            grant = dmi.acquire(base, 4 * len(run), kind,
                                breakpoints=breakpoints)
            if grant is not None:
                if kind == GRANT_IN:
                    values = dmi.read_words(grant, base, len(run))
                    for binding, value in zip(run, values):
                        _port_for(ports, binding.variable).deliver(value)
                else:
                    dmi.write_words(
                        grant, base,
                        [_port_for(ports, binding.variable).collect()
                         for binding in run])
                if tracer.enabled:
                    args = dict(kind=run[0].kind, first=run[0].variable,
                                words=len(run), address=breakpoint_address)
                    if span is not None:
                        args["span"] = span
                    tracer.emit("cosim", "dmi_transfer", scope=client.name,
                                **args)
                continue
        outcome = "transactional"
        if len(run) == 1:
            binding = run[0]
            port = _port_for(ports, binding.variable)
            if binding.kind == "iss_in":
                value = client.read_memory_word(binding.variable_address)
                port.deliver(value)
            else:
                client.write_memory_word(binding.variable_address,
                                         port.collect())
            metrics.transfer_transactions += 2  # the m/M plus the continue
            metrics.bump_context(client.name, transfer_transactions=2)
            if tracer.enabled:
                args = dict(kind=binding.kind, variable=binding.variable,
                            address=breakpoint_address)
                if span is not None:
                    args["span"] = span
                tracer.emit("cosim", "transfer", scope=client.name, **args)
        else:
            base = run[0].variable_address
            if run[0].kind == "iss_in":
                values = client.read_memory_block(base, len(run))
                for binding, value in zip(run, values):
                    _port_for(ports, binding.variable).deliver(value)
            else:
                client.write_memory_block(
                    base, [_port_for(ports, binding.variable).collect()
                           for binding in run])
            # One m/M exchange (plus the continue) moves the whole run.
            metrics.transfer_transactions += 2
            metrics.transfer_blocks += 1
            metrics.transfer_words += len(run)
            metrics.bump_context(client.name, transfer_transactions=2,
                                 transfer_blocks=1,
                                 transfer_words=len(run))
            if tracer.enabled:
                args = dict(kind=run[0].kind, first=run[0].variable,
                            words=len(run), address=breakpoint_address)
                if span is not None:
                    args["span"] = span
                tracer.emit("cosim", "transfer_block", scope=client.name,
                            **args)
    return outcome


def _port_for(ports, variable):
    port = ports.get(variable)
    if port is None:
        raise CosimError("no SystemC port associated with guest variable %r"
                         % variable)
    return port


class TargetDriver:
    """Budget-carrying execution and stop servicing for one GDB target."""

    def __init__(self, client, stub, cpu, pragma_map, ports, metrics,
                 tracer=None, dmi=None):
        self.client = client
        self.stub = stub
        self.cpu = cpu
        self.pragma_map = pragma_map
        self.ports = ports
        self.metrics = metrics
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.dmi = dmi
        self.budget_remaining = 0
        self.held_at = None
        self.finished = False
        # Breakpoint-sync span bookkeeping.  The counter is advanced
        # only under `if tracer.enabled:` (the overhead guard proves a
        # disabled tracer pays nothing), and stop servicing always runs
        # on the main thread in context-attach order, so the allocated
        # ids are identical under serial and parallel execution.
        self._bp_seq = 0
        self._held_span = None

    @property
    def needs_attention(self):
        """True when drive() has (or may have) work to do right now."""
        return self.held_at is not None or self.client.poll_cheap()

    def peek_attention(self):
        """:attr:`needs_attention` without counting a pipe poll.

        For parallel planning: the poll count is checkpointed state, and
        a serial run never plans, so planning must not poll.
        """
        return self.held_at is not None or self.client.peek_pending()

    def grant(self, cycles):
        """Award execution budget (called as SystemC time advances)."""
        self.budget_remaining += cycles

    def _resume(self, outcome):
        """Resume a serviced stop by the tier that serviced it.

        A stop whose every binding run moved through DMI grants resumes
        the co-located stub directly — no RSP ``c`` round trip, which
        is the loosely-timed half of the DMI tier's transaction win.
        Any transactional exchange keeps the protocol-faithful resume.
        """
        if outcome == "dmi":
            self.stub.resume_direct()
        else:
            self.client.continue_()

    def prefetch(self):
        """Run the port-free first half of :meth:`drive`; returns cycles.

        This is the only part of a drive that a parallel worker may
        perform: it touches exclusively per-context state (this
        target's stub, pipe and CPU) — never SystemC ports, shared
        metrics or the kernel.  The consumed cycle count is returned so
        the quantum-boundary commit can apply it to the shared metrics
        on the main thread, after which :meth:`drive` must be called
        with ``skip_first_execute=True`` to service any stop exactly as
        serial execution would have.
        """
        if self.finished or self.held_at is not None:
            return 0
        self.stub.service_pending()
        consumed = 0
        if self.budget_remaining > 0 and self.stub.running:
            before = self.cpu.cycles
            self.stub.execute(self.budget_remaining)
            consumed = self.cpu.cycles - before
            self.budget_remaining -= consumed
        return consumed

    def drive(self, skip_first_execute=False):
        """Spend budget and service stops until held, starved or running.

        Multiple breakpoint stops are serviced back-to-back within one
        call; only a flow-control hold (an ``iss_out`` port without
        fresh data) or budget exhaustion leaves work pending.

        ``skip_first_execute`` resumes a drive whose first execution
        stretch already ran via :meth:`prefetch`: the first loop
        iteration goes straight to stop servicing, so the target is
        never executed twice for one grant (a second ``cpu.run`` on a
        waiting CPU would emit a duplicate stop event and break
        serial/parallel trace equivalence).
        """
        # The ISS process's own event loop: serve requests already on
        # the pipe.  Over a reliable transport this is what picks up
        # retransmitted frames (e.g. a lost continue) and drives the
        # stub side's ACK/retransmit machinery.
        self.stub.service_pending()
        skip_execute = skip_first_execute
        while not self.finished:
            if self.held_at is not None:
                outcome = attempt_transfer(self.client, self.pragma_map,
                                           self.ports, self.held_at,
                                           self.metrics, self.tracer,
                                           span=self._held_span,
                                           dmi=self.dmi,
                                           breakpoints=self.cpu.breakpoints)
                if not outcome:
                    return
                if self.tracer.enabled and self._held_span is not None:
                    self.tracer.emit("cosim", "bp_resume",
                                     scope=self.client.name,
                                     span=self._held_span, pc=self.held_at)
                self.held_at = None
                self._held_span = None
                self._resume(outcome)
            if (not skip_execute and self.budget_remaining > 0
                    and self.stub.running):
                before = self.cpu.cycles
                self.stub.execute(self.budget_remaining)
                consumed = self.cpu.cycles - before
                self.budget_remaining -= consumed
                metrics = self.metrics
                metrics.iss_cycles += consumed
                # bump_context(name, iss_cycles=consumed), minus the
                # kwargs dict: this runs on every per-timestep grant.
                bucket = metrics.per_context.setdefault(self.client.name, {})
                bucket["iss_cycles"] = bucket.get("iss_cycles", 0) + consumed
            skip_execute = False
            if not self.client.poll_cheap():
                return
            event = self.client.poll_stop()
            if event is None:
                return
            if event.kind is StopKind.EXITED:
                self.finished = True
                return
            if event.kind is not StopKind.BREAKPOINT:
                continue
            self.metrics.breakpoint_hits += 1
            self.metrics.bump_context(self.client.name, breakpoint_hits=1)
            span = None
            if self.tracer.enabled:
                self._bp_seq += 1
                span = "bp:%s:%d" % (self.client.name, self._bp_seq)
                self.tracer.emit("cosim", "bp_stop", scope=self.client.name,
                                 span=span, pc=event.pc)
            outcome = attempt_transfer(self.client, self.pragma_map,
                                       self.ports, event.pc, self.metrics,
                                       self.tracer, span=span,
                                       dmi=self.dmi,
                                       breakpoints=self.cpu.breakpoints)
            if outcome:
                if span is not None:
                    self.tracer.emit("cosim", "bp_resume",
                                     scope=self.client.name, span=span,
                                     pc=event.pc)
                self._resume(outcome)
            else:
                if self.tracer.enabled:
                    args = dict(pc=event.pc)
                    if span is not None:
                        args["span"] = span
                    self.tracer.emit("cosim", "flow_hold",
                                     scope=self.cpu.name, **args)
                self.held_at = event.pc
                self._held_span = span
                return

    def elaborate(self):
        """Set every pragma breakpoint and put the target in run mode."""
        for address in self.pragma_map.breakpoint_addresses():
            self.client.set_breakpoint(address)
        self.client.continue_()
