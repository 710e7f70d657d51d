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

The context lifecycle — watchdog, quarantine, quantum batching and the
parallel round — is :mod:`repro.cosim.context`'s.
"""

from repro.cosim.channels import Endpoint
from repro.cosim.context import DRIVE_ERRORS, GdbScheme
from repro.sysc.hooks import KernelHook


class GdbKernelScheme(GdbScheme, KernelHook):
    """The scheduler modification of paper Figure 3."""

    name = "gdb-kernel"

    def __init__(self, kernel, metrics=None, watchdog_ticks=None,
                 tracer=None, sync_quantum=1, dispatcher=None):
        super().__init__(kernel, metrics, watchdog_ticks, tracer,
                         sync_quantum, dispatcher)
        kernel.add_hook(self)

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
            except DRIVE_ERRORS as error:
                self._quarantine_error(context, error)

    def on_time_advance(self, kernel):
        """Grant each ISS its cycle budget and drive it."""
        self._advance(kernel.now)

    def _idle(self, context):
        """Nothing pending or stashed on the client, and a held target
        stays held: the hold's ``iss_out`` ports have no fresh value."""
        client = context.client
        if type(client.endpoint) is not Endpoint or client.peek_pending():
            return False
        driver = context.driver
        if driver.held_at is None:
            return True
        # A held target is driven at every poll: the stub must have no
        # request to serve and the transfer must hold again.
        stub_end = context.stub.endpoint
        if type(stub_end) is not Endpoint or stub_end.pending:
            return False
        for binding in driver.pragma_map.bindings_at(driver.held_at):
            if binding.kind == "iss_out":
                port = driver.ports.get(binding.variable)
                if port is None or port.fresh:
                    return False
        return True

    def _skip_polls(self, context, steps):
        if context.driver.held_at is None:
            context.client.endpoint.poll_count += steps
        else:
            # needs_attention short-circuits on the hold without a pipe
            # poll; the drive it triggers finds the hold still in place.
            context.attention_serviced = True

    def _run(self, context, budget):
        """One grant+drive round trip."""
        if budget <= 0:
            return False
        self.metrics.grants += 1
        driver = context.driver
        driver.grant(budget)
        driver.drive()
        return True

    def _parallel_eligible(self, context, lockstep):
        """Exactly the conditions under which quantum batching already
        degrades, plus resilience layers (their RNG draw order is part
        of determinism)."""
        return (context.parallel_safe
                and not context.driver.peek_attention()
                and not self._must_sync(context))

    def _prefetch_job(self, context, budget):
        context.driver.grant(budget)
        return context.driver.prefetch


# The wall-time benchmark's ledger (benchmarks/wall/ledger.py) times
# the scheduler-hook methods under this name.
GdbKernelHook = GdbKernelScheme
