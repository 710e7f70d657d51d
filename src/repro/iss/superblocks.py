"""Profile-guided superblocks: the second ISS execution tier.

:mod:`repro.iss.blocks` removed per-instruction dispatch; this module
removes the per-*block* costs that remain on hot code.  When the
execution-count profiler (:class:`repro.iss.profile.BlockProfiler`)
marks a block start hot, :func:`build_superblock` chains the blocks
reachable through statically-predicted control transfers into one
**superblock**:

- **fallthrough** from a block cut short of a control transfer;
- **unconditional** ``jmp``/``jal`` (compile-time targets);
- **statically-predicted conditional branches** — backward branches
  predicted taken (the classic loop heuristic, so a counted loop
  unrolls into the superblock), forward branches predicted
  not-taken.  A mispredicted branch is a **side exit**: the branch
  closure already set the exact pc and returned the exact cycle cost,
  so the executor just leaves.
- **if-converted short forward skips** — when a forward conditional
  skips a span of provably pure ALU instructions that lies entirely
  inside the next chained block (the ``beq .. skip; a; b; skip:``
  idiom, e.g. the conditional polynomial xor of the guest's bitwise
  CRC-32), the branch is *predicated* instead of predicted: the
  generated function evaluates the comparison and conditionally runs
  the span inline, retiring/charging exactly the architectural path.
  A data-dependent skip then costs one Python ``if`` instead of a
  ~50%-probable side exit, which is what keeps checksum-style loops
  on the fast tier.

The chain stops at dynamic transfers (``jr``/``jalr``), at
``sys``/``wfi``/``halt`` (the outer run loop must observe them), at
any armed code-breakpoint address, and at MMIO-resident or
undecodable code.

Within the superblock, runs of provably pure ALU instructions (no
memory, no faults, no pc writes, constant cycle cost) are *fused*: the
register updates are generated as Python source and ``exec``-compiled
into a single function over the register file, so the per-step
closure-call, cycle-accumulate and side-exit-test overhead disappears
for the straight-line majority of hot loop bodies.  One ``exec`` per
superblock compiles each *distinct* body once: the unrolled
iterations of a loop generate identical text and share one function
object, so promoting a 256-step CRC-32 chain compiles a handful of
functions, not one per fused unit.  Memory steps and
faultable steps stay individual closures with the exact per-step
accounting and side-exit checks of the block executor, preserving
observable equivalence (watchpoints, SMC, IRQ delivery, fault pc and
counters) instruction for instruction.

Cycle/instruction accounting is batched: the executor accumulates in
locals and commits once at the superblock exit (side exits included —
the ``finally`` commit reconciles exact cycles and pc).  A superblock
only runs when the remaining budget provably covers its worst case,
so it degrades to per-block execution exactly where quantum batching
degrades to lock-step.

Invalidation mirrors the block contract word-precisely: the CPU
registers every page a superblock's constituent blocks touch, and a
guest store overlapping any chained instruction word — or any
breakpoint change, or a host flush — drops the superblock back to its
constituent blocks (see ``Cpu._on_code_store``).
"""

from repro.iss import isa

_WORD = isa.WORD_MASK

#: Upper bound on instructions per superblock.  Large enough to unroll
#: a hot loop many times (amortizing the outer-loop checks), small
#: enough that typical quantum cycle budgets still cover whole
#: superblocks.
MAX_SUPERBLOCK_STEPS = 256

#: Upper bound on chained blocks (unrolled iterations count each time).
MAX_CHAIN_BLOCKS = 64

#: Execution-unit tags (ints, not strings: the executor dispatches on
#: them in its inner loop).
UNIT_ALU = 0      # (UNIT_ALU, fused_fn, count, cycles)
UNIT_MEM = 1      # (UNIT_MEM, closure) — side-exit checks after
UNIT_OP = 2       # (UNIT_OP, closure) — faultable / pc-writing
#: If-converted forward skip: (UNIT_PRED, fn, taken_count,
#: taken_cycles, fall_count, fall_cycles).  ``fn(regs)`` performs the
#: leading ALU run, evaluates the branch, and either returns truthy
#: (taken: span skipped) or runs the span inline and returns falsy;
#: the executor charges the exact per-path instruction/cycle cost.
#: No side exit: both architectural paths rejoin inside the
#: superblock.
UNIT_PRED = 3
#: Fused ALU run ending in a statically-predicted conditional branch:
#: (UNIT_FUSED_BRANCH, fn, count, base_cycles, taken_pc, taken_cycles,
#:  fall_pc, fall_cycles, predicted_pc).  ``fn(regs)`` performs the
#: run's register updates and returns the branch comparison; the
#: executor accounts the exact taken/fall-through cycle cost, writes
#: the exact pc, and side-exits on a misprediction.
UNIT_FUSED_BRANCH = 4

_UNCONDITIONAL = ("jmp", "jal")
_CONDITIONAL = frozenset(
    ["beq", "bne", "blt", "bge", "bltu", "bgeu"])

# -- fused-ALU code generation ------------------------------------------------
#
# One source statement per instruction, textually identical in effect
# to the closure in repro.iss.blocks (same masking, same signedness
# helper), so fusing cannot change a single register bit.  Only ops
# with constant cycle cost and no cpu/memory/pc access qualify.


def _t_nop(d):
    return None


def _t_mov(d):
    return "r[%d] = r[%d]" % (d.rd, d.rs1)


def _t_not(d):
    return "r[%d] = (~r[%d]) & 4294967295" % (d.rd, d.rs1)


def _t_add(d):
    return "r[%d] = (r[%d] + r[%d]) & 4294967295" % (d.rd, d.rs1, d.rs2)


def _t_sub(d):
    return "r[%d] = (r[%d] - r[%d]) & 4294967295" % (d.rd, d.rs1, d.rs2)


def _t_mul(d):
    return "r[%d] = (r[%d] * r[%d]) & 4294967295" % (d.rd, d.rs1, d.rs2)


def _t_and(d):
    return "r[%d] = r[%d] & r[%d]" % (d.rd, d.rs1, d.rs2)


def _t_or(d):
    return "r[%d] = r[%d] | r[%d]" % (d.rd, d.rs1, d.rs2)


def _t_xor(d):
    return "r[%d] = r[%d] ^ r[%d]" % (d.rd, d.rs1, d.rs2)


def _t_shl(d):
    return "r[%d] = (r[%d] << (r[%d] & 31)) & 4294967295" % (
        d.rd, d.rs1, d.rs2)


def _t_shr(d):
    return "r[%d] = r[%d] >> (r[%d] & 31)" % (d.rd, d.rs1, d.rs2)


# Sign conversion inlined branchlessly: to_signed32(x) on a masked
# 32-bit value is exactly (x ^ 0x80000000) - 0x80000000, and the
# textual form saves two function calls per use in hot loops.
_SIGNED = "((r[%d] ^ 2147483648) - 2147483648)"


def _t_sar(d):
    return ("r[%%d] = ((%s >> (r[%%d] & 31)) & 4294967295)"
            % _SIGNED) % (d.rd, d.rs1, d.rs2)


def _t_slt(d):
    return ("r[%%d] = int(%s < %s)" % (_SIGNED, _SIGNED)) % (
        d.rd, d.rs1, d.rs2)


def _t_sltu(d):
    return "r[%d] = int(r[%d] < r[%d])" % (d.rd, d.rs1, d.rs2)


def _t_addi(d):
    return "r[%d] = (r[%d] + (%d)) & 4294967295" % (d.rd, d.rs1, d.imm)


def _t_andi(d):
    return "r[%d] = r[%d] & (%d)" % (d.rd, d.rs1, d.imm)


def _t_ori(d):
    return "r[%d] = r[%d] | (%d)" % (d.rd, d.rs1, d.imm)


def _t_xori(d):
    return "r[%d] = r[%d] ^ (%d)" % (d.rd, d.rs1, d.imm)


def _t_shli(d):
    return "r[%d] = (r[%d] << %d) & 4294967295" % (d.rd, d.rs1, d.imm & 31)


def _t_shri(d):
    return "r[%d] = r[%d] >> %d" % (d.rd, d.rs1, d.imm & 31)


def _t_li(d):
    return "r[%d] = %d" % (d.rd, d.imm & _WORD)


def _t_lui(d):
    return "r[%d] = %d" % (d.rd, (d.imm << 16) & _WORD)


_ALU_TEMPLATES = {
    "nop": _t_nop,
    "mov": _t_mov,
    "not": _t_not,
    "add": _t_add,
    "sub": _t_sub,
    "mul": _t_mul,
    "and": _t_and,
    "or": _t_or,
    "xor": _t_xor,
    "shl": _t_shl,
    "shr": _t_shr,
    "sar": _t_sar,
    "slt": _t_slt,
    "sltu": _t_sltu,
    "addi": _t_addi,
    "andi": _t_andi,
    "ori": _t_ori,
    "xori": _t_xori,
    "shli": _t_shli,
    "shri": _t_shri,
    "li": _t_li,
    "lui": _t_lui,
}


#: Branch comparison expressions, textually identical in effect to the
#: ``_branch_factory`` closures in :mod:`repro.iss.blocks`.
_BRANCH_EXPRS = {
    "beq": lambda d: "r[%d] == r[%d]" % (d.rs1, d.rs2),
    "bne": lambda d: "r[%d] != r[%d]" % (d.rs1, d.rs2),
    "blt": lambda d: ("%s < %s" % (_SIGNED, _SIGNED)) % (d.rs1, d.rs2),
    "bge": lambda d: ("%s >= %s" % (_SIGNED, _SIGNED)) % (d.rs1, d.rs2),
    "bltu": lambda d: "r[%d] < r[%d]" % (d.rs1, d.rs2),
    "bgeu": lambda d: "r[%d] >= r[%d]" % (d.rs1, d.rs2),
}


class _CodeBuffer:
    """Batches the distinct generated functions of one superblock.

    One ``exec`` per superblock instead of one per fused unit: the
    CPython compile step dominates chain-build time, so batching cuts
    the warmup cost of promoting a hot loop several-fold.  Bodies are
    keyed by their text, so the identical iterations of an unrolled
    loop compile once and share one function object.  That is sound
    because a fused body is a pure function of the register file: any
    pc-dependent constant (``jal``'s link value) is part of the text.
    Fused units carry the generated function's *name* until
    :meth:`compile` resolves them all at once.
    """

    __slots__ = ("chunks", "names")

    def __init__(self):
        self.chunks = []
        self.names = {}       # body text -> placeholder name

    def add(self, body_lines):
        """Queue one function body; returns its placeholder name.

        A body already queued returns the name it was given first.
        """
        body = "\n".join(body_lines)
        name = self.names.get(body)
        if name is None:
            name = self.names[body] = "_f%d" % len(self.chunks)
            self.chunks.append("def %s(r):\n%s" % (name, body))
        return name

    def compile(self):
        """Compile every queued function; returns the namespace."""
        namespace = {}
        exec("\n".join(self.chunks), namespace)
        return namespace


def _compile_fused(buffer, pending, branch=None):
    """Queue pending ``(statement, cycles)`` pairs as one function.

    Without *branch*, returns a ``(UNIT_ALU, name, count, cycles)``
    unit whose generated function performs every register update
    inline.  With *branch* — a ``(decoded, branch_pc, fall_pc,
    predicted)`` tuple — the function additionally returns the branch
    comparison and the unit is a :data:`UNIT_FUSED_BRANCH` 9-tuple.
    The ``name`` slot is resolved to the compiled function when the
    whole superblock's *buffer* compiles.
    """
    count = len(pending)
    cycles = 0
    lines = []
    for statement, cost in pending:
        cycles += cost
        if statement is not None:
            lines.append("    " + statement)
    if branch is None:
        if not lines:
            lines.append("    pass")
    else:
        decoded, branch_pc, fall_pc, predicted = branch
        lines.append("    return " + _BRANCH_EXPRS[decoded.spec.name](decoded))
    name = buffer.add(lines)
    if branch is None:
        return (UNIT_ALU, name, count, cycles)
    target = (branch_pc + 4 + 4 * decoded.imm) & _WORD
    spec = decoded.spec
    return (UNIT_FUSED_BRANCH, name, count + 1, cycles,
            target, spec.cycles + spec.taken_extra,
            fall_pc, spec.cycles, predicted)


def _compile_predicated(buffer, pending, decoded, span):
    """Queue an if-converted forward skip as one function.

    *pending* is the leading ALU run, *decoded* the forward
    conditional, *span* the ``(statement, cycles)`` pairs of the
    skipped pure-ALU region.  Returns a :data:`UNIT_PRED` 6-tuple; the
    function retires/charges are split per architectural path so the
    accounting matches the interpreter bit for bit.
    """
    cycles = 0
    lines = []
    for statement, cost in pending:
        cycles += cost
        if statement is not None:
            lines.append("    " + statement)
    lines.append("    if %s:" % _BRANCH_EXPRS[decoded.spec.name](decoded))
    lines.append("        return 1")
    span_cycles = 0
    for statement, cost in span:
        span_cycles += cost
        if statement is not None:
            lines.append("    " + statement)
    lines.append("    return 0")
    spec = decoded.spec
    count = len(pending)
    return (UNIT_PRED, buffer.add(lines),
            count + 1, cycles + spec.cycles + spec.taken_extra,
            count + 1 + len(span), cycles + spec.cycles + span_cycles)


def _skip_span(cpu, fall_pc, target, next_block):
    """The skipped region as fused statements, or None.

    If-conversion requires the span ``[fall_pc, target)`` to consist
    entirely of pure ALU-template instructions *and* to lie entirely
    within *next_block* (the chained fall-through block).  The block
    compiler already cut *next_block* before any breakpoint, MMIO or
    undecodable word, so a span that passes the length check is
    guaranteed free of stop conditions — skipping or running it can
    never hide an architecturally visible event.
    """
    span_words = (target - fall_pc) >> 2
    if span_words > next_block.count:
        return None
    span = []
    address = fall_pc
    for __ in range(span_words):
        decoded = cpu._decode_at(address)
        template = _ALU_TEMPLATES.get(decoded.spec.name)
        if template is None:
            return None
        span.append((template(decoded), decoded.spec.cycles))
        address = (address + 4) & _WORD
    return span


# -- superblock formation -----------------------------------------------------


class Superblock:
    """A chain of basic blocks compiled into one execution-unit list.

    ``units`` is a tuple of tagged execution units (see ``UNIT_*``);
    ``count``/``max_cycles`` bound the whole chain for the budget
    precheck; ``ranges`` are the deduplicated ``(start, end)`` address
    spans of the constituent blocks (word-precise invalidation);
    ``end_static`` is the fall-through pc to install on full
    completion when the final step does not write ``cpu.pc`` itself.
    """

    __slots__ = ("start", "units", "count", "max_cycles", "end_static",
                 "ranges", "pages", "block_starts")

    def __init__(self, start, units, count, max_cycles, end_static,
                 ranges, block_starts):
        self.start = start
        self.units = units
        self.count = count
        self.max_cycles = max_cycles
        self.end_static = end_static
        self.ranges = ranges
        self.pages = tuple(sorted(set(
            page for begin, end in ranges
            for page in range(begin >> 8, ((end - 1) >> 8) + 1))))
        self.block_starts = block_starts

    def __repr__(self):
        return "Superblock(0x%08x, %d blocks, %d ops)" % (
            self.start, len(self.block_starts), self.count)

    def covers(self, address):
        """True when *address* holds one of the chained instructions."""
        for begin, end in self.ranges:
            if begin <= address < end:
                return True
        return False


def _continuation(cpu, block):
    """Where the chain goes after *block*: ``(next_pc, predicted)``.

    ``predicted`` is non-None when the transfer is a conditional
    branch executed under a static prediction (the executor guards
    the real pc against it).  ``(None, None)`` stops the chain.
    """
    if not block.has_terminal:
        # Cut short of a control transfer: pure fallthrough.  If the
        # cut was for MMIO/undecodable code ahead, the next block
        # build fails and the chain stops there anyway.
        return block.end, None
    last_pc = (block.end - 4) & _WORD
    decoded = cpu._decode_at(last_pc)
    name = decoded.spec.name
    if name in _UNCONDITIONAL:
        return (last_pc + 4 + 4 * decoded.imm) & _WORD, None
    if name in _CONDITIONAL:
        target = (last_pc + 4 + 4 * decoded.imm) & _WORD
        # Static prediction: backward taken (loops), forward not-taken.
        predicted = target if target <= last_pc else block.end
        return predicted, predicted
    return None, None   # jr/jalr/sys/wfi/halt: dynamic or must-observe


def build_superblock(cpu, start):
    """Chain and compile the superblock entered at *start* on *cpu*.

    Returns ``None`` when no chain forms (fewer than two blocks end to
    end): a superblock must beat plain block dispatch to be worth the
    cache entry.
    """
    breakpoints = cpu.breakpoints
    chained = []          # (block, guard_pc or None) in chain order
    total_steps = 0
    pc = start
    while len(chained) < MAX_CHAIN_BLOCKS:
        if chained and breakpoints.has_code(pc):
            # Never chain *onto* a breakpoint address — the outer run
            # loop must get a chance to stop there.  (The superblock's
            # own start mirrors the block rule: resuming off a
            # breakpoint enters it.)
            break
        block = cpu._block_at(pc)
        if block is None:
            break
        if total_steps + block.count > MAX_SUPERBLOCK_STEPS:
            break
        next_pc, predicted = _continuation(cpu, block)
        chained.append((block, predicted))
        total_steps += block.count
        if next_pc is None:
            break
        pc = next_pc
    if len(chained) < 2:
        return None

    units = []
    buffer = _CodeBuffer()
    max_cycles = 0
    pending = []          # (statement, cycles) run awaiting fusion
    last_position = len(chained) - 1
    next_skip = 0         # leading steps of the next block already
                          # emitted inside an if-converted unit
    for position, (block, predicted) in enumerate(chained):
        max_cycles += block.max_cycles
        skip = next_skip
        next_skip = 0
        address = (block.start + 4 * skip) & _WORD
        last_index = block.count - 1
        for index in range(skip, block.count):
            closure, is_mem, _static_pc = block.steps[index]
            decoded = cpu._decode_at(address)
            name = decoded.spec.name
            if name in _ALU_TEMPLATES:
                pending.append((_ALU_TEMPLATES[name](decoded),
                                decoded.spec.cycles))
            elif (predicted is not None and index == last_index
                    and name in _CONDITIONAL):
                target = (address + 4 + 4 * decoded.imm) & _WORD
                span = None
                if (predicted == block.end and target > block.end
                        and position != last_position):
                    span = _skip_span(cpu, block.end, target,
                                      chained[position + 1][0])
                if span is not None:
                    # If-conversion: predicate the skipped span
                    # instead of predicting the branch — no side
                    # exit either way.
                    units.append(_compile_predicated(
                        buffer, pending, decoded, span))
                    next_skip = len(span)
                else:
                    # Statically-predicted branch: absorb it (and any
                    # pending ALU run) into one generated function.
                    units.append(_compile_fused(
                        buffer, pending,
                        (decoded, address, block.end, predicted)))
                pending = []
            elif (name in _UNCONDITIONAL and position != last_position
                    and index == last_index):
                # A chained jmp/jal's pc write is dead — the next unit
                # continues at the compile-time target, and every exit
                # path writes the exact pc itself.  jal's link-register
                # write stays, fused as a plain constant store.
                if name == "jal":
                    pending.append((
                        "r[%d] = %d" % (isa.REG_LR, (address + 4) & _WORD),
                        decoded.spec.cycles))
                else:
                    pending.append((None, decoded.spec.cycles))
            else:
                if pending:
                    units.append(_compile_fused(buffer, pending))
                    pending = []
                if is_mem:
                    units.append((UNIT_MEM, closure))
                else:
                    units.append((UNIT_OP, closure))
            address = (address + 4) & _WORD
    if pending:
        units.append(_compile_fused(buffer, pending))

    # One exec for the whole chain: resolve each fused unit's function
    # name against the batch-compiled namespace.
    namespace = buffer.compile()
    units = [unit if unit[0] in (UNIT_MEM, UNIT_OP)
             else (unit[0], namespace[unit[1]]) + unit[2:]
             for unit in units]

    final_block = chained[-1][0]
    end_static = (final_block.end
                  if final_block.steps[-1][2] is not None else None)
    ranges = tuple(sorted(set(
        (block.start, block.end) for block, _predicted in chained)))
    block_starts = tuple(block.start for block, _predicted in chained)
    return Superblock(start, tuple(units), total_steps, max_cycles,
                      end_static, ranges, block_starts)
