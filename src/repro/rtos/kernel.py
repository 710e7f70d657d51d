"""The RTOS kernel proper.

Responsibilities:

- thread lifecycle and the priority round-robin scheduler with timer
  tick preemption;
- trap handling: the SYS_* handlers registered on the CPU's syscall
  table, including the blocking primitives that context-switch inline;
- interrupt delivery: saving the interrupted context, running the
  guest ISR on a dedicated interrupt stack, restoring at SYS_IRET;
- the co-simulation plumbing of the Driver-Kernel scheme: draining
  READ_REPLY messages from the data socket and interrupt messages from
  the interrupt socket at every advance.

Guest time: :meth:`RtosKernel.advance` spends exactly the cycle budget
granted by the co-simulation clock binding — executing instructions,
charging kernel service costs, or idling (an idle thread spinning in
``wfi``), so OS overhead is visible as guest cycles not spent in the
application (the mechanism behind Figure 7).
"""

from repro.errors import RtosError
from repro.cosim.channels import Endpoint
from repro.cosim.messages import MessageType, unpack_message
from repro.iss.cpu import StopReason
from repro.iss import syscalls as sysno
from repro.iss.assembler import assemble
from repro.rtos.costs import CostModel
from repro.rtos.interrupts import VectorTable
from repro.rtos.sync import Semaphore, Mailbox
from repro.rtos.thread import GuestThread, STACK_CANARY, ThreadState

# Reserved low-memory layout for kernel-owned guest code/stacks.
IDLE_PC = 0x40
_IDLE_CODE = """
        .org 0x40
idle:
        wfi
        b idle
"""


class RtosKernel:
    """An eCos-like kernel running guest threads on one CPU."""

    def __init__(self, cpu, costs=None, name="rtos",
                 irq_stack_top=0x1000):
        self.cpu = cpu
        self.costs = costs if costs is not None else CostModel()
        self.name = name
        self.threads = []
        self._ready = []
        self.current = None
        self.idle_thread = GuestThread("idle", IDLE_PC, irq_stack_top - 256,
                                       priority=999)
        self.vectors = VectorTable()
        self.semaphores = {}
        self.mailboxes = {}
        self.drivers = {}
        self.handles = {}
        self.data_endpoint = None
        self.interrupt_endpoint = None
        self._raw_inboxes = ((), ())
        # DMI grant table of the zero-copy binding tier (docs/dmi.md);
        # set by the Driver-Kernel scheme at attach when dmi-safe.
        self.dmi = None
        self.in_isr = False
        self._isr_saved = None
        self._next_tick = self.costs.tick_period
        self._budget_debt = 0
        self._sleepers = []       # (wake_cycle, thread)
        self.started = False
        self.irq_stack_top = irq_stack_top
        self.idle_cycles = 0
        self.charged_cycles = 0
        self.tick_count = 0
        self.context_switches = 0
        self.isr_count = 0
        self._install_idle_code()
        self._register_traps()

    # -- construction -----------------------------------------------------

    def _install_idle_code(self):
        program = assemble(_IDLE_CODE)
        for address, data in program.chunks:
            self.cpu.memory.write_bytes(address, data)
        self.cpu.flush_decode_cache()

    def _register_traps(self):
        table = self.cpu.syscalls
        table.register(sysno.SYS_EXIT, self._sys_exit, "exit")
        table.register(sysno.SYS_YIELD, self._sys_yield, "yield")
        table.register(sysno.SYS_SLEEP, self._sys_sleep, "sleep")
        table.register(sysno.SYS_SEM_WAIT, self._sys_sem_wait, "sem_wait")
        table.register(sysno.SYS_SEM_POST, self._sys_sem_post, "sem_post")
        table.register(sysno.SYS_MBOX_PUT, self._sys_mbox_put, "mbox_put")
        table.register(sysno.SYS_MBOX_GET, self._sys_mbox_get, "mbox_get")
        table.register(sysno.SYS_GETTIME, self._sys_gettime, "gettime")
        table.register(sysno.SYS_DEV_OPEN, self._sys_dev_open, "dev_open")
        table.register(sysno.SYS_DEV_READ, self._sys_dev_read, "dev_read")
        table.register(sysno.SYS_DEV_WRITE, self._sys_dev_write, "dev_write")
        table.register(sysno.SYS_DEV_IOCTL, self._sys_dev_ioctl, "dev_ioctl")
        table.register(sysno.SYS_IRET, self._sys_iret, "iret")

    def attach_cosim(self, data_endpoint, interrupt_endpoint):
        """Wire the guest side of the data and interrupt sockets."""
        self.data_endpoint = data_endpoint
        self.interrupt_endpoint = interrupt_endpoint
        # Plain socket ends: advance may look straight at their queues
        # and skip an empty poll.  A wrapped transport (reliable
        # framing, injected faults) works on every receive.
        self._raw_inboxes = None
        if (type(data_endpoint) is Endpoint
                and type(interrupt_endpoint) is Endpoint):
            self._raw_inboxes = (data_endpoint._inbox,
                                 interrupt_endpoint._inbox)

    # -- kernel object factories ----------------------------------------------

    def create_thread(self, name, entry, stack_top, priority=1,
                      stack_size=None):
        """Create a guest thread.

        With *stack_size*, a canary word is planted at
        ``stack_top - stack_size`` and verified on every context
        switch away from the thread — guest stack overflows then fail
        loudly instead of silently corrupting a neighbour."""
        stack_limit = None
        if stack_size is not None:
            if stack_size <= 0 or stack_size % 4:
                raise RtosError("stack size must be a positive multiple "
                                "of 4")
            stack_limit = stack_top - stack_size
            self.cpu.memory.store_word(stack_limit, STACK_CANARY)
        thread = GuestThread(name, entry, stack_top, priority,
                             stack_limit)
        self.threads.append(thread)
        self._ready.append(thread)
        return thread

    def _check_stack(self, thread):
        if thread.stack_limit is None:
            return
        if self.cpu.memory.load_word(thread.stack_limit) != STACK_CANARY:
            raise RtosError(
                "stack overflow in guest thread %r: canary at 0x%08x "
                "destroyed (sp=0x%08x)"
                % (thread.name, thread.stack_limit,
                   thread.regs[13]))

    def create_semaphore(self, sem_id, initial=0, name=None):
        """Create a semaphore reachable from the guest by *sem_id*."""
        if sem_id in self.semaphores:
            raise RtosError("semaphore id %d already exists" % sem_id)
        semaphore = Semaphore(sem_id, initial, name)
        self.semaphores[sem_id] = semaphore
        return semaphore

    def create_mailbox(self, box_id, capacity=16, name=None):
        """Create a mailbox reachable from the guest by *box_id*."""
        if box_id in self.mailboxes:
            raise RtosError("mailbox id %d already exists" % box_id)
        mailbox = Mailbox(box_id, capacity, name)
        self.mailboxes[box_id] = mailbox
        return mailbox

    def register_driver(self, driver):
        """Install a device driver under its device id."""
        if driver.device_id in self.drivers:
            raise RtosError("device id %d already registered"
                            % driver.device_id)
        driver.attach(self)
        self.drivers[driver.device_id] = driver
        return driver

    # -- lifecycle ------------------------------------------------------------

    def start(self):
        """Install the first thread and enable interrupts."""
        if self.started:
            raise RtosError("kernel already started")
        self.started = True
        self.current = self._pick_next()
        self.current.state = ThreadState.RUNNING
        self.current.restore_to(self.cpu)
        self.cpu.interrupts_enabled = True

    # -- accounting -----------------------------------------------------------

    def charge(self, cycles):
        """Charge *cycles* of kernel-service time to the guest."""
        self.cpu.cycles += cycles
        self.charged_cycles += cycles

    # -- scheduling -----------------------------------------------------------

    def _pick_next(self):
        """Highest-priority READY thread (FIFO within a priority)."""
        best = None
        for thread in self._ready:
            if thread.state is not ThreadState.READY:
                continue
            if best is None or thread.priority < best.priority:
                best = thread
        if best is not None:
            self._ready.remove(best)
            return best
        return self.idle_thread

    def _has_ready(self):
        return any(thread.state is ThreadState.READY
                   for thread in self._ready)

    def _make_ready(self, thread):
        if thread is self.idle_thread or thread.state is ThreadState.DONE:
            return
        thread.state = ThreadState.READY
        if thread not in self._ready:
            self._ready.append(thread)

    def _switch_inline(self, next_thread):
        """Context switch while the CPU is mid-run (trap context)."""
        if self.current is not None and self.current is not next_thread:
            self.current.save_from(self.cpu)
            self._check_stack(self.current)
            if self.current.state is ThreadState.RUNNING:
                self._make_ready(self.current)
        next_thread.state = ThreadState.RUNNING
        next_thread.run_count += 1
        next_thread.restore_to(self.cpu)
        self.current = next_thread
        self.context_switches += 1
        self.charge(self.costs.context_switch)

    # -- trap handlers --------------------------------------------------------

    def _sys_exit(self, cpu):
        if self.current is None or self.current is self.idle_thread:
            cpu.halted = True
            cpu.exit_code = cpu.regs[0]
            self.charge(self.costs.syscall)
            return 0
        self.current.state = ThreadState.DONE
        self._switch_inline(self._pick_next())
        self.charge(self.costs.syscall)
        return 0

    def _sys_yield(self, cpu):
        self._make_ready(self.current)
        self._switch_inline(self._pick_next())
        self.charge(self.costs.syscall)
        return 0

    def _sys_sleep(self, cpu):
        wake_cycle = cpu.cycles + cpu.regs[0]
        self.current.state = ThreadState.BLOCKED
        self._sleepers.append((wake_cycle, self.current))
        self._switch_inline(self._pick_next())
        self.charge(self.costs.syscall)
        return 0

    def _sem(self, cpu):
        semaphore = self.semaphores.get(cpu.regs[0])
        if semaphore is None:
            raise RtosError("guest referenced unknown semaphore %d"
                            % cpu.regs[0])
        return semaphore

    def _sys_sem_wait(self, cpu):
        semaphore = self._sem(cpu)
        if not semaphore.try_wait(self.current):
            self._switch_inline(self._pick_next())
        self.charge(self.costs.syscall + self.costs.sem_operation)
        return 0

    def _sys_sem_post(self, cpu):
        woken = self._sem(cpu).post()
        if woken is not None:
            self._make_ready(woken)
        self.charge(self.costs.syscall + self.costs.sem_operation)
        return 0

    def _mbox(self, cpu):
        mailbox = self.mailboxes.get(cpu.regs[0])
        if mailbox is None:
            raise RtosError("guest referenced unknown mailbox %d"
                            % cpu.regs[0])
        return mailbox

    def _sys_mbox_put(self, cpu):
        """r0 = mailbox id, r1 = value; r0 <- 1 accepted / 0 full."""
        accepted, woken = self._mbox(cpu).try_put(cpu.regs[1])
        if woken is not None:
            self._make_ready(woken)
        cpu.regs[0] = 1 if accepted else 0
        self.charge(self.costs.syscall + self.costs.sem_operation)
        return 0

    def _sys_mbox_get(self, cpu):
        """r0 = mailbox id; blocks until a message arrives; r0 <- value."""
        ok, value = self._mbox(cpu).try_get(self.current)
        if ok:
            cpu.regs[0] = value
        else:
            # Blocked: the poster hands the value straight into r0 of
            # the saved context (Mailbox.try_put), so just switch away.
            self._switch_inline(self._pick_next())
        self.charge(self.costs.syscall + self.costs.sem_operation)
        return 0

    def _sys_gettime(self, cpu):
        """r0 <- current guest cycle count (low 32 bits)."""
        cpu.regs[0] = cpu.cycles & 0xFFFFFFFF
        self.charge(self.costs.syscall)
        return 0

    def _driver_for_handle(self, handle):
        driver = self.handles.get(handle)
        if driver is None:
            raise RtosError("guest used bad device handle %d" % handle)
        return driver

    def _sys_dev_open(self, cpu):
        driver = self.drivers.get(cpu.regs[0])
        if driver is None:
            raise RtosError("guest opened unknown device %d" % cpu.regs[0])
        handle = driver.open(self.current)
        self.handles[handle] = driver
        cpu.regs[0] = handle
        self.charge(self.costs.syscall + self.costs.driver_call)
        return 0

    def _sys_dev_read(self, cpu):
        driver = self._driver_for_handle(cpu.regs[0])
        result = driver.read(self.current, cpu.regs[1], cpu.regs[2])
        if result is None:
            # Blocked awaiting the READ_REPLY; switch away.
            self._switch_inline(self._pick_next())
        else:
            cpu.regs[0] = result
        self.charge(self.costs.syscall + self.costs.driver_call)
        return 0

    def _sys_dev_write(self, cpu):
        driver = self._driver_for_handle(cpu.regs[0])
        word_count = cpu.regs[2]
        result = driver.write(self.current, cpu.regs[1], word_count)
        cpu.regs[0] = result
        return (self.costs.syscall + self.costs.driver_call
                + self.costs.driver_per_word * word_count)

    def _sys_dev_ioctl(self, cpu):
        driver = self._driver_for_handle(cpu.regs[0])
        cpu.regs[0] = driver.ioctl(self.current, cpu.regs[1], cpu.regs[2])
        self.charge(self.costs.syscall + self.costs.driver_call)
        return 0

    def _sys_iret(self, cpu):
        if not self.in_isr or self._isr_saved is None:
            raise RtosError("SYS_IRET outside interrupt context")
        saved_regs, saved_pc = self._isr_saved
        cpu.regs[:] = saved_regs
        cpu.pc = saved_pc
        self._isr_saved = None
        self.in_isr = False
        cpu.interrupts_enabled = True
        self.charge(self.costs.isr_exit)
        return 0

    # -- interrupt delivery ---------------------------------------------------

    def post_interrupt(self, vector):
        """Hardware side: queue *vector* for guest ISR delivery."""
        if self.vectors.post(vector):
            self.cpu.raise_irq(vector)
            return True
        return False

    def _enter_isr(self):
        vector = self.vectors.next_deliverable()
        if vector is None:
            self.cpu.clear_irq()
            return
        handler = self.vectors.handler_for(vector)
        self._isr_saved = (list(self.cpu.regs), self.cpu.pc)
        self.cpu.regs[13] = self.irq_stack_top
        self.cpu.pc = handler
        self.cpu.waiting = False
        self.cpu.interrupts_enabled = False
        self.in_isr = True
        self.isr_count += 1
        if not self.vectors.has_deliverable:
            self.cpu.clear_irq()
        self.charge(self.costs.isr_entry)
        tracer = self.cpu.tracer
        if tracer.enabled:
            # Closes the interrupt-delivery span(s): the span builder
            # matches every open ``irq:<name>:*`` span with this
            # vector, which handles vector coalescing without plumbing
            # an id through the interrupt socket.
            tracer.emit("rtos", "isr_enter", scope=self.name,
                        vector=vector)

    # -- co-simulation message plumbing ---------------------------------------

    def _poll_cosim(self):
        if self.interrupt_endpoint is not None:
            while True:
                payload = self.interrupt_endpoint.recv()
                if payload is None:
                    break
                message = unpack_message(payload)
                if message.type is MessageType.INTERRUPT:
                    for block in message.blocks:
                        self.post_interrupt(block.data[0])
        if self.data_endpoint is not None:
            while True:
                payload = self.data_endpoint.recv()
                if payload is None:
                    break
                message = unpack_message(payload)
                if message.type not in (MessageType.READ_REPLY,
                                        MessageType.READ_REPLY_DMI):
                    raise RtosError("unexpected %s message on guest data "
                                    "socket" % message.type.name)
                self._complete_read(message)

    def _complete_read(self, message):
        for driver in self.drivers.values():
            if getattr(driver, "_pending_read", None) is not None:
                pending_seq = driver._pending_read[3]
                if pending_seq == message.sequence:
                    woken = driver.complete_read(message)
                    self._make_ready(woken)
                    tracer = self.cpu.tracer
                    if tracer.enabled:
                        # Closes the driver round-trip span opened by
                        # the guest-side ``driver/read_issue``.
                        tracer.emit("driver", "read_reply",
                                    scope=self.name,
                                    sequence=message.sequence,
                                    span="drv:%s:%d" % (self.name,
                                                        message.sequence))
                    return
        raise RtosError("READ_REPLY (seq %d) matches no pending read"
                        % message.sequence)

    # -- sleepers / tick ------------------------------------------------------

    def _wake_sleepers(self):
        if not self._sleepers:
            return
        now = self.cpu.cycles
        due = [entry for entry in self._sleepers if entry[0] <= now]
        if due:
            self._sleepers = [e for e in self._sleepers if e[0] > now]
            for __, thread in due:
                self._make_ready(thread)

    def _tick(self):
        self.tick_count += 1
        self._next_tick += self.costs.tick_period
        self.charge(self.costs.tick)
        self._wake_sleepers()
        # Round-robin rotation: preempt the running thread if a peer
        # (or better) priority thread is ready.  Never while an ISR is
        # on the CPU — the current TCB does not own that context.
        if (not self.in_isr
                and self.current is not None
                and self.current.state is ThreadState.RUNNING
                and any(t.state is ThreadState.READY for t in self._ready)):
            candidate = min((t for t in self._ready
                             if t.state is ThreadState.READY),
                            key=lambda t: t.priority)
            if candidate.priority <= self.current.priority:
                self.current.save_from(self.cpu)
                self._make_ready(self.current)
                self.current = None

    # -- introspection ---------------------------------------------------------

    def state_summary(self):
        """The kernel's dynamic state as plain JSON types (checkpoints).

        Covers every thread's saved context, the scheduler queues,
        sleepers, synchronisation objects, pending interrupt vectors,
        and the accounting counters.  Purely read-only.
        """
        def thread_state(thread):
            return {
                "name": thread.name,
                "priority": thread.priority,
                "regs": list(thread.regs),
                "pc": thread.pc,
                "state": thread.state.name,
                "run_count": thread.run_count,
                "switched_in_cycles": thread.switched_in_cycles,
            }

        return {
            "name": self.name,
            "threads": [thread_state(t) for t in self.threads],
            "idle": thread_state(self.idle_thread),
            "current": self.current.name if self.current else None,
            "ready": [t.name for t in self._ready],
            "sleepers": sorted(
                [cycle, thread.name] for cycle, thread in self._sleepers),
            "semaphores": {
                str(sem_id): {"count": sem.count,
                              "waiters": [t.name for t in sem.waiters],
                              "posts": sem.post_count,
                              "waits": sem.wait_count}
                for sem_id, sem in sorted(self.semaphores.items())},
            "mailboxes": {
                str(box_id): {"messages": [int(m) for m in box.messages],
                              "waiters": [t.name for t in box.waiters]}
                for box_id, box in sorted(self.mailboxes.items())},
            "vectors_pending": list(self.vectors.pending),
            "vectors_delivered": self.vectors.delivered_count,
            "vectors_dropped": self.vectors.dropped_count,
            "in_isr": self.in_isr,
            "next_tick": self._next_tick,
            "budget_debt": self._budget_debt,
            "idle_cycles": self.idle_cycles,
            "charged_cycles": self.charged_cycles,
            "tick_count": self.tick_count,
            "context_switches": self.context_switches,
            "isr_count": self.isr_count,
        }

    # -- the advance loop (called once per SystemC timestep) ------------------

    def advance(self, budget):
        """Spend *budget* guest cycles; returns cycles actually consumed.

        A kernel service straddling the budget boundary may overshoot;
        the overshoot is recorded as debt and repaid from subsequent
        budgets, so granted and consumed time agree in the long run.
        """
        if not self.started:
            raise RtosError("kernel not started")
        cpu = self.cpu
        # Skip the socket poll when both plain inboxes are empty: it
        # would receive nothing and charge nothing.
        inboxes = self._raw_inboxes
        traffic = inboxes is None or inboxes[0] or inboxes[1]
        budget -= self._budget_debt
        if budget <= 0:
            if not traffic:
                self._budget_debt = -budget
                return 0
            before = cpu.cycles
            self._poll_cosim()
            # Completion work charged during the poll is guest time
            # too; fold it into the outstanding debt.
            self._budget_debt = -budget + (cpu.cycles - before)
            return 0
        start = cpu.cycles
        end = start + budget
        if traffic:
            self._poll_cosim()
        if self._sleepers:
            self._wake_sleepers()
        vectors = self.vectors
        while cpu.cycles < end and not cpu.halted:
            if (vectors.pending and vectors.has_deliverable
                    and cpu.interrupts_enabled and not self.in_isr):
                self._enter_isr()
                continue
            if not self.in_isr and (
                    self.current is None
                    or self.current.state is not ThreadState.RUNNING
                    or (self.current is self.idle_thread
                        and self._has_ready())):
                next_thread = self._pick_next()
                if self.current is not next_thread:
                    self._switch_inline(next_thread)
            slice_end = min(end, self._next_tick)
            if slice_end > cpu.cycles:
                reason = cpu.run(max_cycles=slice_end - cpu.cycles)
            else:
                reason = None
            if reason is StopReason.WFI:
                if cpu.irq_pending or self.vectors.has_deliverable:
                    cpu.waiting = False
                    continue
                if self._has_ready():
                    # A thread became runnable (e.g. an I/O completion
                    # at the top of this advance): leave idle at once.
                    cpu.waiting = False
                    self._switch_inline(self._pick_next())
                    continue
                # Nothing to do until the outside world acts: idle-burn
                # the rest of the slice.
                burn = slice_end - cpu.cycles
                cpu.cycles = slice_end
                self.idle_cycles += burn
                cpu.waiting = False
                # Re-park the idle loop on its wfi for the next advance.
            elif reason is StopReason.HALT:
                break
            elif reason is StopReason.INTERRUPT:
                continue
            if cpu.cycles >= self._next_tick:
                self._tick()
        consumed = cpu.cycles - start
        self._budget_debt = max(0, consumed - budget)
        return consumed
