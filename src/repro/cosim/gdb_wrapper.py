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
GDB-Kernel scheme (the two share :class:`~repro.cosim.transfer.
TargetDriver`), so the measured difference between the schemes isolates
what the paper changed: where the synchronisation check lives and what
it costs per cycle.

Resilience mirrors the other schemes: the RSP pipe can carry reliable
framing over fault-injected links, and a per-wrapper watchdog
quarantines a stalled or transport-dead ISS so its siblings finish.
"""

from repro.errors import CosimTransportError, RecoverableCrashError
from repro.cosim.binding import ClockBinding
from repro.cosim.channels import Pipe
from repro.cosim.dmi import DmiTable
from repro.cosim.gdb_kernel import _wire_pipe
from repro.cosim.metrics import (CosimMetrics, QUARANTINE_TRANSPORT,
                                 QUARANTINE_WATCHDOG, QUARANTINE_WORKER)
from repro.cosim.transfer import TargetDriver
from repro.gdb.client import GdbClient
from repro.gdb.stub import GdbStub
from repro.iss.remote import RemoteWorkerError
from repro.obs.tracer import NULL_TRACER
from repro.sysc.module import Module


class GdbWrapperModule(Module):
    """The explicitly-instantiated wrapper module of [14].

    One wrapper serves one ISS; it "loads the ISS, and establishes
    IPCs between SystemC and the ISS".
    """

    def __init__(self, name, clock, cpu, pragma_map, ports, cpu_hz,
                 metrics, kernel=None, watchdog_ticks=None,
                 reliability=None, faults=None, tracer=None,
                 sync_quantum=1, coordinator=None, dmi=False):
        super().__init__(name, kernel)
        self.cpu = cpu
        self.binding = ClockBinding(cpu_hz, 1, quantum=sync_quantum)
        self.metrics = metrics
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.watchdog_ticks = watchdog_ticks
        self.quarantined = False
        self.quarantine_reason = None
        # Optional crash-recovery hook: ``policy(name, code)`` returning
        # True elects recovery over quarantine (checkpoint runner).
        self.crash_policy = None
        # Open parallel dispatch→commit window span (trace_commits
        # only; ids come from the scheme's main-thread counter).
        self._par_span = None
        # The scheme, when a parallel dispatcher coordinates the
        # wrappers' posedge methods as one classify/prefetch/commit
        # round (all wrappers fire in the same delta).
        self.coordinator = coordinator
        self.parallel_safe = not reliability and faults is None
        # DMI mirrors the parallel-safety contract: fault plans and
        # reliable transports keep the pure transactional tier.
        self.dmi = (DmiTable(name, cpu, metrics, self.tracer)
                    if dmi and self.parallel_safe else None)
        self._watch_cycles = -1
        self._stall_ticks = 0
        # Wall-time attribution profiler (repro.obs.attrib), attached
        # post-build by attach_attrib; None = zero-cost pass-through.
        self.attrib = None
        cpu.attach_tracer(self.tracer)
        self.pipe = Pipe("gdbw:" + name)
        client_end, stub_end = _wire_pipe(self.pipe, reliability, faults,
                                          metrics, self.tracer)
        self.stub = GdbStub(cpu, stub_end)
        self.client = GdbClient(client_end, pump=self.stub.service_pending,
                                name=name, tracer=self.tracer)
        self.driver = TargetDriver(self.client, self.stub, cpu, pragma_map,
                                   dict(ports), metrics, self.tracer,
                                   dmi=self.dmi)
        self.method(self._sync_cycle, sensitive=[clock.posedge],
                    dont_initialize=True, name="sync")

    @property
    def finished(self):
        return self.driver.finished or self.quarantined

    def elaborate(self):
        """Set the pragma breakpoints and put the target in run mode."""
        self.driver.elaborate()

    def _sync_cycle(self):
        """The lock-step sc_method: runs on every clock posedge.

        At ``sync_quantum=1`` this is the exact lock-step baseline.  At
        larger quanta the per-posedge RSP round trip is skipped while
        the cycle budget banks up, and one batched synchronisation
        covers the whole window — unless a stop source (interrupts, a
        held transfer, pending pipe data, armed watchpoints) could fire
        inside it, in which case the sync happens immediately.
        """
        attrib = self.attrib
        if attrib is None:
            return self._sync_body()
        # Transport attribution: ISS runs nested inside this measure
        # charge their own iss.* buckets, so "transport" is left with
        # the pure scheme/protocol overhead.
        with attrib.measure("transport"):
            return self._sync_body()

    def _sync_body(self):
        if self.driver.finished or self.quarantined:
            return
        if self.coordinator is not None:
            self.coordinator.parallel_cycle()
            return
        if self.binding.quantum > 1:
            self.metrics.sc_timesteps += 1
            self.binding.accumulate(self.kernel.now)
            self._quantum_body()
            return
        self._lockstep_cycle()

    def _quantum_body(self):
        """The quantum>1 per-posedge work after budget banking."""
        attention = (self.driver.held_at is not None
                     or self.driver.needs_attention)
        if attention:
            # A communication stop is active: retry the transfer
            # with a cheap local poll+drive — no RSP status round
            # trip is needed to service it.
            self.metrics.cheap_polls += 1
            try:
                self.driver.drive()
            except (CosimTransportError, RemoteWorkerError) as error:
                self._quarantine_error(error)
                return
        # A serviced stop leaves the guest runnable again: grant
        # the banked budget now instead of waiting out the quantum.
        runnable_again = attention and self.driver.held_at is None
        if self.binding.due() or runnable_again or self._must_sync():
            self._sync_batch()

    def _lockstep_cycle(self):
        """The full per-posedge round trip of the [14] baseline."""
        try:
            # 1. The per-cycle synchronisation over the RDI — the
            #    overhead that distinguishes this baseline.  The
            #    lock-step wrapper of [14] exchanges both the target
            #    state and the execution state (program counter) with
            #    the ISS every cycle.
            self.metrics.sync_transactions += 2
            if self.tracer.enabled:
                self.tracer.emit("cosim", "sync_cycle", scope=self.name)
            status = self.client.query_status()
            self.client.read_register(16)  # the pc, by register number
            if status.get("Status") == "exited":
                self.driver.finished = True
                return
            # 2. Grant the ISS the cycles corresponding to one clock
            #    period and drive it, servicing breakpoint transfers.
            budget = self.binding.cycles_for_advance(self.kernel.now)
            if budget > 0:
                self.metrics.grants += 1
                self.driver.grant(budget)
            self.metrics.sc_timesteps += 1
            self.driver.drive()
        except (CosimTransportError, RemoteWorkerError) as error:
            self._quarantine_error(error)
            return
        self._watchdog()

    def _must_sync(self):
        """A stop source could fire in the window: degrade to lock-step.

        Communication stops (a held transfer, pending pipe data) are
        serviced by the per-posedge local drive above and do not force
        an RSP synchronisation.
        """
        cpu = self.cpu
        return (cpu.interrupts_enabled or cpu.irq_pending
                or cpu.breakpoints.has_watchpoints)

    def _warp_eligible(self):
        """True when this sync may run inside the local time warp.

        The DMI table must still be granting and no stop source that
        demands transactional precision may be armed — exactly the
        quantum-batching degradation triggers, so the warp degrades to
        the faithful RSP sync in the same situations batching degrades
        to lock-step.
        """
        return (self.dmi is not None and self.dmi.active
                and not self._must_sync())

    def _sync_batch(self):
        """One synchronisation covering every banked timestep.

        Inside the local time warp (DMI tier, no precision trigger) the
        status exchange is reconciled against the co-located stub state
        instead of over RSP: the ISS runs ahead of SystemC time against
        its direct-memory view and the sync costs zero transactions.
        """
        budget, steps = self.binding.drain()
        self.metrics.quantum_syncs += 1
        self.metrics.quantum_steps_batched += steps
        if self.tracer.enabled:
            self.tracer.emit("cosim", "quantum_sync", scope=self.name,
                             steps=steps, budget=budget)
        warp = self._warp_eligible()
        try:
            if warp:
                self.binding.note_warp(budget, steps)
                if self.stub.exited:
                    self.driver.finished = True
                    return
            else:
                self.metrics.sync_transactions += 2
                status = self.client.query_status()
                self.client.read_register(16)  # the pc, by register number
                if status.get("Status") == "exited":
                    self.driver.finished = True
                    return
            if budget > 0:
                self.metrics.grants += 1
                self.driver.grant(budget)
            self.driver.drive()
        except (CosimTransportError, RemoteWorkerError) as error:
            self._quarantine_error(error)
            return
        self._watchdog()

    def _prefetch_job(self, budget, warp=False):
        """The pool-side half of one synchronisation (see cosim.parallel).

        Reproduces the serial order of per-context work exactly: the
        RSP status round trip first (its transact events buffer in
        emission order), then the grant and the execution stretch.
        Ports, shared metrics and the kernel are never touched — the
        commit applies those at this wrapper's slot.  A *warp* job
        (DMI tier) checks the co-located stub state locally instead of
        over RSP, matching the serial :meth:`_sync_batch` warp path.
        """
        def job():
            if warp:
                if self.stub.exited:
                    return ("exited", 0)
            else:
                status = self.client.query_status()
                self.client.read_register(16)  # the pc, by register number
                if status.get("Status") == "exited":
                    return ("exited", 0)
            if budget > 0:
                self.driver.grant(budget)
            return ("ok", self.driver.prefetch())
        return job

    def flush_pending(self):
        """Spend any banked budget at end of run (quantum > 1 only)."""
        if (self.binding.pending_steps
                and not (self.driver.finished or self.quarantined)):
            self._sync_batch()

    def _watchdog(self):
        """Quarantine this wrapper if its CPU retired nothing lately."""
        if self.watchdog_ticks is None or self.driver.finished:
            return
        cycles = self.cpu.cycles
        if cycles != self._watch_cycles:
            self._watch_cycles = cycles
            self._stall_ticks = 0
            return
        self._stall_ticks += 1
        if self._stall_ticks >= self.watchdog_ticks:
            self._quarantine(
                QUARANTINE_WATCHDOG,
                "no execution progress in %d clock cycles"
                % self.watchdog_ticks)

    def _quarantine_error(self, error):
        """Map a caught transport/worker failure to its reason code.

        A dead forked worker can surface on the serial drive paths
        (cheap polls, lock-step rounds), not just at a commit slot.
        """
        if isinstance(error, RemoteWorkerError):
            if (self.coordinator is not None
                    and self.coordinator.dispatcher is not None):
                self.coordinator.dispatcher.kill_worker(self.cpu)
            self._quarantine(QUARANTINE_WORKER, error)
        else:
            self._quarantine(QUARANTINE_TRANSPORT, error)

    def _quarantine(self, reason, detail=None):
        """Detach this wrapper — or raise for recovery when a crash
        policy elects it (see the kernel schemes' ``_quarantine``)."""
        if (self.crash_policy is not None
                and self.crash_policy(self.name, reason)):
            raise RecoverableCrashError(
                "context %r crashed: %s (%s)"
                % (self.name, reason, detail if detail else reason),
                context=self.name, code=reason)
        if self.dmi is not None:
            self.dmi.degrade()
        self.quarantined = True
        self.quarantine_reason = reason
        self.metrics.record_quarantine(self.name, reason, detail=detail)
        if self.tracer.enabled:
            self.tracer.emit("cosim", "quarantine", scope=self.name,
                             reason=reason)


class GdbWrapperScheme:
    """Convenience builder mirroring the other schemes' interface."""

    name = "gdb-wrapper"

    def __init__(self, kernel, clock, metrics=None, watchdog_ticks=None,
                 tracer=None, sync_quantum=1, dispatcher=None):
        self.kernel = kernel
        self.clock = clock
        self.metrics = metrics if metrics is not None else CosimMetrics()
        self.metrics.scheme = self.name
        self.tracer = tracer if tracer is not None else kernel.tracer
        self.watchdog_ticks = watchdog_ticks
        self.sync_quantum = sync_quantum
        self.dispatcher = dispatcher
        self._round_stamp = None
        self.wrappers = []
        # Dispatch-window span counter; main-thread only, traced only.
        self._par_seq = 0

    def attach_cpu(self, cpu, pragma_map, ports, cpu_hz, name=None,
                   reliability=None, faults=None, dmi=False):
        """Instantiate a wrapper module for one ISS."""
        wrapper = GdbWrapperModule(
            name or ("wrapper:" + cpu.name), self.clock, cpu, pragma_map,
            ports, cpu_hz, self.metrics, self.kernel,
            watchdog_ticks=self.watchdog_ticks, reliability=reliability,
            faults=faults, tracer=self.tracer,
            sync_quantum=self.sync_quantum,
            coordinator=self if self.dispatcher is not None else None,
            dmi=dmi)
        self.wrappers.append(wrapper)
        if self.dispatcher is not None and wrapper.parallel_safe:
            self.dispatcher.attach_cpu(cpu)
        return wrapper

    def parallel_cycle(self):
        """One classify / prefetch / commit round over every wrapper.

        All wrapper sc_methods are sensitive to the same clock posedge,
        so they fire within one delta: the first to run executes the
        whole round in wrapper-attach order (reproducing the serial
        method order) and the rest no-op via the delta stamp.
        """
        stamp = (self.kernel.timestep_count, self.kernel.delta_count)
        if stamp == self._round_stamp:
            return
        self._round_stamp = stamp
        dispatcher = self.dispatcher
        plans = []
        jobs = []
        for wrapper in self.wrappers:
            if wrapper.driver.finished or wrapper.quarantined:
                continue
            binding = wrapper.binding
            if binding.quantum > 1:
                self.metrics.sc_timesteps += 1
                binding.accumulate(self.kernel.now)
                if not wrapper.parallel_safe:
                    # Never probe an unsafe wrapper during planning:
                    # the attention probe pumps its reliable transport
                    # (retransmit timers tick, transport events emit),
                    # which must happen at this wrapper's serial slot
                    # to keep the trace identical to a serial run.
                    dispatcher.stats.serial_fallbacks += 1
                    plans.append((wrapper, "serial_quantum", None))
                    continue
                attention = (wrapper.driver.held_at is not None
                             or wrapper.driver.needs_attention)
                will_sync = binding.due() or wrapper._must_sync()
                if attention or (will_sync and wrapper._must_sync()):
                    dispatcher.stats.serial_fallbacks += 1
                    plans.append((wrapper, "serial_quantum", None))
                    continue
                if not will_sync:
                    continue
                budget, steps = binding.drain()
                warp = wrapper._warp_eligible()
                plans.append((wrapper, "batch", (budget, steps, warp)))
                self._trace_dispatch(wrapper, budget)
                jobs.append((id(wrapper),
                             wrapper._prefetch_job(budget, warp=warp)))
            else:
                if (not wrapper.parallel_safe or wrapper._must_sync()
                        or wrapper.driver.held_at is not None
                        or wrapper.driver.needs_attention):
                    dispatcher.stats.serial_fallbacks += 1
                    plans.append((wrapper, "serial_cycle", None))
                    continue
                budget = binding.cycles_for_advance(self.kernel.now)
                plans.append((wrapper, "cycle", budget))
                self._trace_dispatch(wrapper, budget)
                jobs.append((id(wrapper), wrapper._prefetch_job(budget)))
        results = dispatcher.execute(jobs)
        for wrapper, kind, data in plans:
            if wrapper.quarantined:
                continue
            if kind == "serial_quantum":
                wrapper._quantum_body()
            elif kind == "serial_cycle":
                wrapper._lockstep_cycle()
            elif kind == "batch":
                budget, steps, warp = data
                self.metrics.quantum_syncs += 1
                self.metrics.quantum_steps_batched += steps
                if self.tracer.enabled:
                    self.tracer.emit("cosim", "quantum_sync",
                                     scope=wrapper.name, steps=steps,
                                     budget=budget)
                if warp:
                    wrapper.binding.note_warp(budget, steps)
                else:
                    self.metrics.sync_transactions += 2
                self._commit_wrapper(wrapper, results[id(wrapper)], budget)
            else:
                budget = data
                self.metrics.sync_transactions += 2
                if self.tracer.enabled:
                    self.tracer.emit("cosim", "sync_cycle",
                                     scope=wrapper.name)
                self._commit_wrapper(wrapper, results[id(wrapper)], budget,
                                     lockstep=True)

    def _trace_dispatch(self, wrapper, budget):
        """Open a dispatch→commit window span (``trace_commits`` only)."""
        if not (self.dispatcher.trace_commits and self.tracer.enabled):
            return
        self._par_seq += 1
        wrapper._par_span = "par:%s:%d" % (wrapper.name, self._par_seq)
        self.tracer.emit("cosim", "parallel_dispatch", scope=wrapper.name,
                         budget=budget, span=wrapper._par_span)

    def _commit_wrapper(self, wrapper, outcome, budget, lockstep=False):
        """Apply one prefetched wrapper at its deterministic slot."""
        status, value, buffer = outcome
        self.tracer.replay(buffer.drain())
        if status == "error":
            if isinstance(value, RemoteWorkerError):
                self.dispatcher.kill_worker(wrapper.cpu)
                wrapper._quarantine(QUARANTINE_WORKER, value)
                return
            if isinstance(value, CosimTransportError):
                wrapper._quarantine(QUARANTINE_TRANSPORT, value)
                return
            raise value
        state, consumed = value
        if state == "exited":
            wrapper.driver.finished = True
            return
        if budget > 0:
            self.metrics.grants += 1
        if lockstep:
            self.metrics.sc_timesteps += 1
        if consumed:
            self.metrics.iss_cycles += consumed
            self.metrics.bump_context(wrapper.name, iss_cycles=consumed)
        try:
            wrapper.driver.drive(skip_first_execute=True)
        except CosimTransportError as error:
            wrapper._quarantine(QUARANTINE_TRANSPORT, error)
            return
        if self.dispatcher.trace_commits and self.tracer.enabled:
            args = dict(cycles=consumed)
            if wrapper._par_span is not None:
                args["span"] = wrapper._par_span
                wrapper._par_span = None
            self.tracer.emit("cosim", "parallel_commit",
                             scope=wrapper.name, **args)
        wrapper._watchdog()

    def elaborate(self):
        """Elaborate every wrapper module."""
        for wrapper in self.wrappers:
            wrapper.elaborate()

    def flush_pending(self):
        """Spend budgets still banked when the kernel run ends."""
        for wrapper in self.wrappers:
            wrapper.flush_pending()

    def bindings(self):
        """``(context name, ClockBinding)`` per wrapper, attach order."""
        return [(wrapper.name, wrapper.binding)
                for wrapper in self.wrappers]

    @property
    def finished(self):
        return all(wrapper.finished for wrapper in self.wrappers)

    def close(self):
        """Release parallel resources (pool threads, forked workers)."""
        if self.dispatcher is not None:
            self.dispatcher.shutdown()
