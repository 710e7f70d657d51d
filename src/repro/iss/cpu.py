"""The R32 processor core.

A fetch/decode/execute interpreter with:

- per-instruction cycle accounting (see :mod:`repro.iss.isa` costs);
- a decode cache keyed by address (invalidated word-precisely when a
  guest store or a host write lands on decoded code);
- GDB-style breakpoints (stop *before* the instruction) and
  watchpoints (stop *after* the access);
- an external interrupt line with an enable flag — delivery itself is
  performed by the host RTOS layer (:mod:`repro.rtos.interrupts`), the
  core only *stops* when an enabled interrupt is pending;
- a trap (SYS) interface dispatching to host-registered handlers.
"""

import enum

from repro.errors import GuestFault, IssError
from repro.iss import blocks as _blocks
from repro.iss import superblocks as _superblocks
from repro.iss import isa
from repro.obs.tracer import NULL_TRACER
from repro.iss.breakpoints import BreakpointSet
from repro.iss.memory import Memory
from repro.iss.profile import BlockProfiler
from repro.iss.syscalls import SyscallTable

NUM_REGS = isa.NUM_REGS
REG_SP = isa.REG_SP
REG_LR = isa.REG_LR

_WORD = isa.WORD_MASK

_signed = isa.to_signed32

_BRANCHES = {
    "beq": lambda a, b: a == b,
    "bne": lambda a, b: a != b,
    "blt": lambda a, b: _signed(a) < _signed(b),
    "bge": lambda a, b: _signed(a) >= _signed(b),
    "bltu": lambda a, b: a < b,
    "bgeu": lambda a, b: a >= b,
}


#: The ISS execution tiers, slowest to fastest (docs/performance.md):
#: the reference interpreter, closure-compiled basic blocks, and
#: profile-promoted superblocks.  All three are observationally
#: equivalent; ``Cpu.tier`` selects one.
TIERS = ("interp", "blocks", "superblocks")


class StopReason(enum.Enum):
    """Why a run() call returned."""
    HALT = "halt"
    BREAKPOINT = "breakpoint"
    WATCHPOINT = "watchpoint"
    INTERRUPT = "interrupt"
    WFI = "wfi"
    CYCLE_LIMIT = "cycle_limit"
    INSTRUCTION_LIMIT = "instruction_limit"


#: The scalar architectural state, beside the register file: what a
#: snapshot, a checkpoint image and the process-backend exchange carry.
ARCH_STATE = ("pc", "cycles", "instructions", "halted", "waiting",
              "exit_code", "interrupts_enabled", "irq_pending",
              "irq_vector")

#: The execution-tier counters: deterministic, checkpointed, shipped
#: back from a process worker, and folded into the shared metrics.
CPU_COUNTERS = ("blocks_compiled", "block_hits", "block_invalidations",
                "superblocks_compiled", "superblock_exits",
                "superblock_invalidations", "superblock_side_exits")


class Cpu:
    """One R32 core attached to a :class:`~repro.iss.memory.Memory`."""

    def __init__(self, memory=None, name="cpu0"):
        self.name = name
        self.memory = memory if memory is not None else Memory()
        self.regs = [0] * NUM_REGS
        self.pc = 0
        self.cycles = 0
        self.instructions = 0
        self.halted = False
        self.waiting = False            # parked by WFI
        self.exit_code = None
        self.breakpoints = BreakpointSet()
        self.syscalls = SyscallTable()
        self.irq_pending = False
        self.irq_vector = 0             # informational; host RTOS delivers
        self.interrupts_enabled = False
        self.tracer = NULL_TRACER
        self._decode_cache = {}
        self._decoded_pages = {}        # code page -> decoded addresses
        self._block_cache = {}          # start pc -> BasicBlock
        self._blocks_by_page = {}       # code page -> block start pcs
        self._code_dirty = False        # guest stored into cached code
        self.use_blocks = True          # closure-block fast path enabled
        self.use_superblocks = False    # profile-promoted superblock tier
        self.block_trace = False        # opt-in iss/*_compile events
        self.blocks_compiled = 0
        self.block_hits = 0
        self.block_invalidations = 0
        self.block_profiler = BlockProfiler()
        self._superblock_cache = {}     # start pc -> Superblock
        self._superblocks_by_page = {}  # code page -> superblock start pcs
        self._superblock_failed = set()  # hot pcs where no chain forms
        self.superblocks_compiled = 0
        self.superblock_exits = 0
        self.superblock_invalidations = 0
        self.superblock_side_exits = 0  # exits through a guard, not the end
        self.side_exit_sites = {}       # superblock start pc -> side exits
        self._observers = []            # retire-callback observers
        self._resume_skip = None        # bp address we are stepping past
        self._watch_hit = None          # (watchpoint, address, value, is_write)
        self._last_stop = None
        self._remote = None             # process-backend execution proxy
        self.memory.add_code_listener(self._on_code_store)
        self.breakpoints.on_code_change = self._on_breakpoints_changed

    def __repr__(self):
        return "Cpu(%r, pc=0x%08x, cycles=%d)" % (self.name, self.pc, self.cycles)

    # -- register helpers ----------------------------------------------------

    @property
    def sp(self):
        return self.regs[REG_SP]

    @sp.setter
    def sp(self, value):
        self.regs[REG_SP] = value & _WORD

    @property
    def lr(self):
        return self.regs[REG_LR]

    @lr.setter
    def lr(self, value):
        self.regs[REG_LR] = value & _WORD

    # -- execution tiers -------------------------------------------------------

    @property
    def tier(self):
        """The active execution tier name (one of :data:`TIERS`)."""
        if not self.use_blocks:
            return "interp"
        return "superblocks" if self.use_superblocks else "blocks"

    @tier.setter
    def tier(self, value):
        if value not in TIERS:
            raise IssError("unknown execution tier %r (one of %s)"
                           % (value, ", ".join(TIERS)))
        self.use_blocks = value != "interp"
        self.use_superblocks = value == "superblocks"

    # -- debugger-facing helpers ----------------------------------------------

    def flush_decode_cache(self):
        """Drop every decode, block and superblock (loader, restore).

        Host writes of a known range use :meth:`invalidate_code`
        instead, which only pays for the words it overlaps.
        """
        if self._remote is not None:
            # The worker owns the live caches; it flushes (and counts
            # the invalidations) before its next run, exactly when a
            # serial CPU's flushed cache would next matter.
            self._remote.pending_flush = True
        self._decode_cache.clear()
        self._decoded_pages.clear()
        if self._block_cache:
            self.block_invalidations += len(self._block_cache)
            self._block_cache.clear()
        self._blocks_by_page.clear()
        if self._superblock_cache:
            self.superblock_invalidations += len(self._superblock_cache)
            self._superblock_cache.clear()
        self._superblocks_by_page.clear()
        self._superblock_failed.clear()
        self._code_dirty = True

    def invalidate_code(self, address, length):
        """Drop cached code a host write of *length* bytes at *address* hit.

        The host-side twin of the guest-store code listener, used by
        the GDB stub's ``M``/``X`` handlers and the DMI tier's kernel
        writes: every 4-byte word overlapping the range on a watched
        code page goes through :meth:`_on_code_store`, so data sharing
        a page with code keeps every decode, block and superblock.
        Under the process backend the worker owns the live caches; the
        range is queued and applied at the top of its next run or sync.
        A zero-length write changes nothing and drops nothing.
        """
        if length <= 0:
            return
        if self._remote is not None:
            self._remote.pending_code_writes.append((address, length))
        code_pages = self.memory._code_pages
        if not code_pages:
            return
        for word in range(address & ~3, address + length, 4):
            if (word >> 8) in code_pages:
                self._on_code_store(word)

    def _on_code_store(self, address):
        """Guest store hit a page holding decoded code: invalidate it.

        Registered with :meth:`Memory.add_code_listener`; fixes the
        self-modifying-code staleness bug where a guest ``sw``/``sb``
        into a ``_decode_cache`` address kept executing the stale
        decode.  Invalidation is word-precise: data that merely shares
        a 256-byte page with code (a common layout — constants after a
        loop) does not thrash the caches, only a store overlapping a
        decoded instruction pays.  Every word a cached block or
        superblock covers was decoded to build it, so a store to any
        other word returns after one set lookup.
        """
        word = address & ~3
        page = address >> 8
        decoded = self._decoded_pages.get(page)
        if not decoded or word not in decoded:
            return
        decoded.discard(word)
        self._decode_cache.pop(word, None)
        if not decoded:
            del self._decoded_pages[page]
        self._code_dirty = True
        starts = self._blocks_by_page.get(page)
        if starts:
            dead = [start for start in starts
                    if self._block_cache[start].covers(word)]
            for start in dead:
                self._drop_block(start)
        sb_starts = self._superblocks_by_page.get(page)
        if sb_starts:
            dead = [start for start in sb_starts
                    if self._superblock_cache[start].covers(word)]
            for start in dead:
                self._drop_superblock(start)
            if dead:
                # The stored word may re-chain differently now; retry
                # any promotion that previously failed to form a chain.
                self._superblock_failed.clear()

    def _drop_block(self, start):
        """Evict one compiled block and its page-index entries."""
        block = self._block_cache.pop(start, None)
        if block is None:
            return
        self.block_invalidations += 1
        for page in range(block.start >> 8, ((block.end - 1) >> 8) + 1):
            starts = self._blocks_by_page.get(page)
            if starts is not None:
                starts.discard(start)
                if not starts:
                    del self._blocks_by_page[page]

    def _drop_superblock(self, start):
        """Evict one superblock and its page-index entries."""
        superblock = self._superblock_cache.pop(start, None)
        if superblock is None:
            return
        self.superblock_invalidations += 1
        for page in superblock.pages:
            starts = self._superblocks_by_page.get(page)
            if starts is not None:
                starts.discard(start)
                if not starts:
                    del self._superblocks_by_page[page]
        if self.block_trace and self.tracer.enabled:
            self.tracer.emit("iss", "superblock_invalidate",
                             scope=self.name, pc=start)

    def _on_breakpoints_changed(self, address):
        """Drop compiled blocks so a new mid-block breakpoint is honored."""
        if self._block_cache:
            self.block_invalidations += len(self._block_cache)
            self._block_cache.clear()
            self._blocks_by_page.clear()
        if self._superblock_cache:
            # A superblock may chain *through* the new breakpoint
            # address even when no single block covers it; the chain
            # rule (never chain onto a breakpoint) must be re-applied.
            self.superblock_invalidations += len(self._superblock_cache)
            self._superblock_cache.clear()
            self._superblocks_by_page.clear()
        self._superblock_failed.clear()
        self._code_dirty = True

    def attach_tracer(self, tracer):
        """Route this core's stop/breakpoint events to *tracer*.

        Per-instruction tracing stays opt-in via an
        :class:`~repro.obs.tracer.Tracer`-backed retire observer (see
        :func:`instruction_observer`); the core itself only emits at
        stop boundaries so tracing cannot slow the fetch loop.
        """
        self.tracer = tracer
        self.breakpoints.tracer = tracer
        self.breakpoints.owner = self.name
        return tracer

    def attach_observer(self, observer):
        """Attach a retire observer (tracer/profiler); returns it.

        The observer's ``on_retire(cpu, pc, decoded, cycles)`` is
        called once per retired instruction.
        """
        self._observers.append(observer)
        return observer

    def detach_observer(self, observer):
        """Remove a retire observer."""
        self._observers.remove(observer)

    def raise_irq(self, vector=0):
        """Assert the external interrupt line (host hardware side)."""
        self.irq_pending = True
        self.irq_vector = vector
        # An interrupt wakes a WFI-parked core even before delivery.
        self.waiting = False

    def clear_irq(self):
        """Deassert the external interrupt line."""
        self.irq_pending = False

    def snapshot(self):
        """Capture full architectural state (registers, pc, counters,
        memory) for later :meth:`restore` — checkpoint/replay debugging.

        Host-side attachments (breakpoints, syscall handlers,
        observers) are configuration, not architectural state, and are
        not captured."""
        return {
            "regs": list(self.regs),
            **{name: getattr(self, name) for name in ARCH_STATE},
            "memory": bytes(self.memory.data),
        }

    def restore(self, snapshot):
        """Reinstall state captured by :meth:`snapshot`."""
        if len(snapshot["memory"]) != self.memory.size:
            raise IssError(
                "snapshot memory size %d does not match CPU memory %d"
                % (len(snapshot["memory"]), self.memory.size))
        self.regs[:] = snapshot["regs"]
        for name in ARCH_STATE:
            setattr(self, name, snapshot[name])
        self.memory.data[:] = snapshot["memory"]
        self.flush_decode_cache()
        self._resume_skip = None
        self._watch_hit = None

    @property
    def last_stop(self):
        return self._last_stop

    @property
    def watch_hit(self):
        return self._watch_hit

    # -- execution ------------------------------------------------------------

    def _decode_at(self, address):
        decoded = self._decode_cache.get(address)
        if decoded is None:
            word = self.memory.load_word(address)
            self.memory.load_count -= 1   # fetches aren't data accesses
            decoded = isa.decode(word)
            self._decode_cache[address] = decoded
            self._decoded_pages.setdefault(address >> 8, set()).add(address)
            self.memory.watch_code(address)
        return decoded

    def run(self, max_instructions=None, max_cycles=None):
        """Execute until a stop condition; returns a :class:`StopReason`.

        ``max_cycles`` is a *budget* relative to the current cycle
        counter — the unit the co-simulation clock bindings hand out.

        Execution normally takes the closure-compiled basic-block fast
        path (:mod:`repro.iss.blocks`); the legacy per-instruction
        interpreter remains for retire observers and as the reference
        in differential tests (set ``use_blocks = False``).  Both paths
        are observationally equivalent.
        """
        if self._remote is not None:
            return self._remote.run(max_instructions, max_cycles)
        cycle_limit = None if max_cycles is None else self.cycles + max_cycles
        instruction_limit = (None if max_instructions is None
                             else self.instructions + max_instructions)
        self._watch_hit = None
        if self.use_blocks and not self._observers:
            return self._run_blocks(instruction_limit, cycle_limit)
        return self._run_interpreter(instruction_limit, cycle_limit)

    # -- block-compiled fast path ---------------------------------------------

    def _block_at(self, pc):
        """The cached block at *pc*, compiling and indexing on a miss.

        Shared by the dispatch loop and the superblock chain builder
        so both populate the same cache and counters.  Returns None
        for undecodable or MMIO-resident code.
        """
        block = self._block_cache.get(pc)
        if block is not None:
            return block
        block = _blocks.build_block(self, pc)
        if block is None:
            return None
        self.blocks_compiled += 1
        self._block_cache[pc] = block
        for page in range(block.start >> 8, ((block.end - 1) >> 8) + 1):
            self._blocks_by_page.setdefault(page, set()).add(pc)
        if self.block_trace and self.tracer.enabled:
            self.tracer.emit("iss", "block_compile", scope=self.name,
                             pc=pc, count=block.count, end=block.end)
        return block

    def _promote(self, pc):
        """Try to chain a superblock at hot *pc*; returns it or None.

        A failed chain (no second block reachable) is remembered so
        steady-state dispatch pays one set lookup, not a rebuild; the
        failure set is cleared whenever code or breakpoints change.
        """
        if pc in self._superblock_failed:
            return None
        superblock = _superblocks.build_superblock(self, pc)
        if superblock is None:
            self._superblock_failed.add(pc)
            return None
        self.superblocks_compiled += 1
        self._superblock_cache[pc] = superblock
        for page in superblock.pages:
            self._superblocks_by_page.setdefault(page, set()).add(pc)
        if self.block_trace and self.tracer.enabled:
            self.tracer.emit("iss", "superblock_compile", scope=self.name,
                             pc=pc, blocks=len(superblock.block_starts),
                             count=superblock.count)
        return superblock

    def _run_blocks(self, instruction_limit, cycle_limit):
        """Closure-block execution loop (see :mod:`repro.iss.blocks`).

        Halt/irq/breakpoint checks run once per basic block instead of
        once per instruction; the limit checks are hoisted entirely
        when the remaining budget provably covers the whole block.
        Block entries feed the execution-count profiler; on the
        superblock tier, hot starts are promoted to superblocks
        (:mod:`repro.iss.superblocks`) that run whenever the remaining
        budget covers their minimum (the prefix plus one pass of their
        re-rolled loop, or the whole chain without one) and stop short
        of both limits; below it dispatch degrades to per-block
        execution, exactly where quantum batching degrades to lock-step.
        """
        regs = self.regs
        memory = self.memory
        block_cache = self._block_cache
        breakpoints = self.breakpoints
        profile_counts = self.block_profiler.counts
        hot_threshold = self.block_profiler.hot_threshold
        use_superblocks = self.use_superblocks
        superblock_cache = self._superblock_cache
        while True:
            if self.halted:
                return self._stop(StopReason.HALT)
            if self.waiting:
                return self._stop(StopReason.WFI)
            if self.irq_pending and self.interrupts_enabled:
                return self._stop(StopReason.INTERRUPT)
            pc = self.pc
            if breakpoints.has_code(pc) and pc != self._resume_skip:
                breakpoints.record_code_hit(pc)
                return self._stop(StopReason.BREAKPOINT)
            self._resume_skip = None
            entries = profile_counts.get(pc, 0) + 1
            profile_counts[pc] = entries
            if use_superblocks and entries >= hot_threshold:
                superblock = superblock_cache.get(pc)
                if superblock is None:
                    superblock = self._promote(pc)
                if superblock is not None and \
                        (instruction_limit is None
                         or instruction_limit - self.instructions
                         >= superblock.min_count) and \
                        (cycle_limit is None
                         or cycle_limit - self.cycles
                         >= superblock.min_cycles):
                    # The generated function commits pc, cycles,
                    # instructions and its exit counters on every exit.
                    superblock.run(self, regs, memory,
                                   instruction_limit, cycle_limit)
                    if self._watch_hit is not None:
                        return self._stop(StopReason.WATCHPOINT)
                    if instruction_limit is not None and \
                            self.instructions >= instruction_limit:
                        return self._stop(StopReason.INSTRUCTION_LIMIT)
                    if cycle_limit is not None and \
                            self.cycles >= cycle_limit:
                        return self._stop(StopReason.CYCLE_LIMIT)
                    continue
            block = block_cache.get(pc)
            if block is None:
                block = self._block_at(pc)
                if block is None:
                    # Undecodable or MMIO-resident code at pc: the
                    # interpreter reproduces the legacy fetch behavior
                    # (including the exact decode error) for the rest
                    # of this run() call.
                    return self._run_interpreter(instruction_limit,
                                                 cycle_limit)
            else:
                self.block_hits += 1
            fits = ((instruction_limit is None
                     or instruction_limit - self.instructions >= block.count)
                    and (cycle_limit is None
                         or cycle_limit - self.cycles >= block.max_cycles))
            if fits:
                self._exec_block_fast(block)
                if self._watch_hit is not None:
                    return self._stop(StopReason.WATCHPOINT)
                if instruction_limit is not None and \
                        self.instructions >= instruction_limit:
                    return self._stop(StopReason.INSTRUCTION_LIMIT)
                if cycle_limit is not None and self.cycles >= cycle_limit:
                    return self._stop(StopReason.CYCLE_LIMIT)
            else:
                stop = self._exec_block_checked(block, instruction_limit,
                                                cycle_limit)
                if stop is not None:
                    return stop

    def _exec_block_fast(self, block):
        """Run a whole block; limits were prechecked to cover it.

        Memory steps re-check watchpoint hits, stores into cached code,
        and interrupt delivery (an MMIO store may raise the IRQ line
        mid-block); pure ALU steps run back to back.
        """
        regs = self.regs
        memory = self.memory
        self._code_dirty = False
        cycles = 0
        retired = 0
        try:
            for step, is_mem, _static_pc in block.steps:
                cycles += step(self, regs, memory)
                retired += 1
                if is_mem and (self._watch_hit is not None
                               or self._code_dirty
                               or (self.irq_pending
                                   and self.interrupts_enabled)):
                    return
        finally:
            # A faulting step contributes neither cycles nor an
            # instruction, exactly like the interpreter.
            self.cycles += cycles
            self.instructions += retired
            if retired == block.count and block.steps[-1][2] is not None:
                self.pc = block.end

    def _exec_block_checked(self, block, instruction_limit, cycle_limit):
        """Run a block with the legacy per-instruction limit checks.

        Taken when a limit could expire inside the block; returns the
        stop reason when one fires, else None (outer loop continues).
        """
        self._code_dirty = False
        regs = self.regs
        memory = self.memory
        for step, is_mem, static_pc in block.steps:
            cycles = step(self, regs, memory)
            self.cycles += cycles
            self.instructions += 1
            if static_pc is not None:
                self.pc = static_pc
            if self._watch_hit is not None:
                return self._stop(StopReason.WATCHPOINT)
            if instruction_limit is not None and \
                    self.instructions >= instruction_limit:
                return self._stop(StopReason.INSTRUCTION_LIMIT)
            if cycle_limit is not None and self.cycles >= cycle_limit:
                return self._stop(StopReason.CYCLE_LIMIT)
            if is_mem and (self._code_dirty
                           or (self.irq_pending
                               and self.interrupts_enabled)):
                return None
        return None

    # -- legacy interpreter ----------------------------------------------------

    def _run_interpreter(self, instruction_limit, cycle_limit):
        """The reference per-instruction fetch/decode/execute loop."""
        regs = self.regs
        memory = self.memory
        while True:
            if self.halted:
                return self._stop(StopReason.HALT)
            if self.waiting:
                return self._stop(StopReason.WFI)
            if self.irq_pending and self.interrupts_enabled:
                return self._stop(StopReason.INTERRUPT)
            pc = self.pc
            if self.breakpoints.has_code(pc) and pc != self._resume_skip:
                self.breakpoints.record_code_hit(pc)
                return self._stop(StopReason.BREAKPOINT)
            self._resume_skip = None
            decoded = self._decode_at(pc)
            spec = decoded.spec
            self.pc = (pc + 4) & _WORD
            cycles = spec.cycles
            name = spec.name
            # -- ALU and move ------------------------------------------------
            if name == "add":
                regs[decoded.rd] = (regs[decoded.rs1] + regs[decoded.rs2]) & _WORD
            elif name == "addi":
                regs[decoded.rd] = (regs[decoded.rs1] + decoded.imm) & _WORD
            elif name == "sub":
                regs[decoded.rd] = (regs[decoded.rs1] - regs[decoded.rs2]) & _WORD
            elif name == "lw":
                address = (regs[decoded.rs1] + decoded.imm) & _WORD
                regs[decoded.rd] = memory.load_word(address)
                self._note_access(address, False, regs[decoded.rd])
            elif name == "sw":
                address = (regs[decoded.rs1] + decoded.imm) & _WORD
                memory.store_word(address, regs[decoded.rd])
                self._note_access(address, True, regs[decoded.rd])
            elif name in _BRANCHES:
                if _BRANCHES[name](regs[decoded.rs1], regs[decoded.rs2]):
                    self.pc = (pc + 4 + 4 * decoded.imm) & _WORD
                    cycles += spec.taken_extra
            elif name == "li":
                regs[decoded.rd] = decoded.imm & _WORD
            elif name == "lui":
                regs[decoded.rd] = (decoded.imm << 16) & _WORD
            elif name == "mov":
                regs[decoded.rd] = regs[decoded.rs1]
            elif name == "mul":
                regs[decoded.rd] = (regs[decoded.rs1] * regs[decoded.rs2]) & _WORD
            elif name == "divu":
                divisor = regs[decoded.rs2]
                if divisor == 0:
                    raise GuestFault("division by zero at pc=0x%08x" % pc)
                regs[decoded.rd] = (regs[decoded.rs1] // divisor) & _WORD
            elif name == "remu":
                divisor = regs[decoded.rs2]
                if divisor == 0:
                    raise GuestFault("remainder by zero at pc=0x%08x" % pc)
                regs[decoded.rd] = (regs[decoded.rs1] % divisor) & _WORD
            elif name == "and":
                regs[decoded.rd] = regs[decoded.rs1] & regs[decoded.rs2]
            elif name == "or":
                regs[decoded.rd] = regs[decoded.rs1] | regs[decoded.rs2]
            elif name == "xor":
                regs[decoded.rd] = regs[decoded.rs1] ^ regs[decoded.rs2]
            elif name == "not":
                regs[decoded.rd] = (~regs[decoded.rs1]) & _WORD
            elif name == "shl":
                regs[decoded.rd] = (regs[decoded.rs1]
                                    << (regs[decoded.rs2] & 31)) & _WORD
            elif name == "shr":
                regs[decoded.rd] = regs[decoded.rs1] >> (regs[decoded.rs2] & 31)
            elif name == "sar":
                regs[decoded.rd] = (isa.to_signed32(regs[decoded.rs1])
                                    >> (regs[decoded.rs2] & 31)) & _WORD
            elif name == "slt":
                regs[decoded.rd] = int(isa.to_signed32(regs[decoded.rs1])
                                       < isa.to_signed32(regs[decoded.rs2]))
            elif name == "sltu":
                regs[decoded.rd] = int(regs[decoded.rs1] < regs[decoded.rs2])
            elif name == "andi":
                regs[decoded.rd] = regs[decoded.rs1] & decoded.imm
            elif name == "ori":
                regs[decoded.rd] = regs[decoded.rs1] | decoded.imm
            elif name == "xori":
                regs[decoded.rd] = regs[decoded.rs1] ^ decoded.imm
            elif name == "shli":
                regs[decoded.rd] = (regs[decoded.rs1]
                                    << (decoded.imm & 31)) & _WORD
            elif name == "shri":
                regs[decoded.rd] = regs[decoded.rs1] >> (decoded.imm & 31)
            # -- memory (byte) ------------------------------------------------
            elif name == "lb":
                address = (regs[decoded.rs1] + decoded.imm) & _WORD
                regs[decoded.rd] = isa.to_unsigned32(
                    isa.sign_extend(memory.load_byte(address), 8))
                self._note_access(address, False, regs[decoded.rd])
            elif name == "lbu":
                address = (regs[decoded.rs1] + decoded.imm) & _WORD
                regs[decoded.rd] = memory.load_byte(address)
                self._note_access(address, False, regs[decoded.rd])
            elif name == "sb":
                address = (regs[decoded.rs1] + decoded.imm) & _WORD
                memory.store_byte(address, regs[decoded.rd] & 0xFF)
                self._note_access(address, True, regs[decoded.rd] & 0xFF)
            # -- control flow -------------------------------------------------
            elif name == "jmp":
                self.pc = (pc + 4 + 4 * decoded.imm) & _WORD
            elif name == "jal":
                regs[REG_LR] = self.pc
                self.pc = (pc + 4 + 4 * decoded.imm) & _WORD
            elif name == "jr":
                self.pc = regs[decoded.rd]
            elif name == "jalr":
                target = regs[decoded.rd]
                regs[REG_LR] = self.pc
                self.pc = target
            elif name == "push":
                address = (regs[REG_SP] - 4) & _WORD
                memory.store_word(address, regs[decoded.rd])
                regs[REG_SP] = address
            elif name == "pop":
                value = memory.load_word(regs[REG_SP])
                regs[decoded.rd] = value
                regs[REG_SP] = (regs[REG_SP] + 4) & _WORD
            # -- system -------------------------------------------------------
            elif name == "nop":
                pass
            elif name == "halt":
                self.halted = True
            elif name == "wfi":
                self.waiting = True
            elif name == "sys":
                cycles += self.syscalls.dispatch(self, decoded.imm)
            else:  # pragma: no cover - table is exhaustive
                raise IssError("unexecutable instruction %r" % name)
            self.cycles += cycles
            self.instructions += 1
            if self._observers:
                for observer in self._observers:
                    observer.on_retire(self, pc, decoded, cycles)
            if self._watch_hit is not None:
                return self._stop(StopReason.WATCHPOINT)
            if instruction_limit is not None and \
                    self.instructions >= instruction_limit:
                return self._stop(StopReason.INSTRUCTION_LIMIT)
            if cycle_limit is not None and self.cycles >= cycle_limit:
                return self._stop(StopReason.CYCLE_LIMIT)

    def step(self):
        """Execute exactly one instruction (debugger single-step)."""
        if self.breakpoints.has_code(self.pc):
            # Single-step is allowed to step *off* a breakpoint.
            self._resume_skip = self.pc
        return self.run(max_instructions=1)

    def resume_from_breakpoint(self):
        """Arm the step-past logic so run() does not re-trip the current bp."""
        self._resume_skip = self.pc

    def _note_access(self, address, is_write, value):
        if self.breakpoints.has_watchpoints:
            watchpoint = self.breakpoints.check_access(address, is_write)
            if watchpoint is not None:
                self._watch_hit = (watchpoint, address, value, is_write)

    def _stop(self, reason):
        self._last_stop = reason
        if self.tracer.enabled:
            self.tracer.emit("iss", "stop", scope=self.name,
                             reason=reason.value, pc=self.pc,
                             cycles=self.cycles,
                             instructions=self.instructions)
        return reason


def instruction_observer(tracer, cpu):
    """An opt-in per-retire observer emitting one event per instruction.

    Attach with ``cpu.attach_observer(instruction_observer(tracer,
    cpu))``; this is deliberately *not* part of :meth:`Cpu.attach_tracer`
    because per-instruction events dominate any trace they appear in.
    """

    class _InstructionTracer:
        def on_retire(self, cpu, pc, decoded, cycles):
            if tracer.enabled:
                tracer.emit("iss", "retire", scope=cpu.name, pc=pc,
                            op=decoded.spec.name, cycles=cycles)

    return _InstructionTracer()
