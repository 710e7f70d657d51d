"""Closure compilation of decoded instructions into basic blocks.

The interpreter in :mod:`repro.iss.cpu` pays a ~40-arm string dispatch
chain plus halt/irq/breakpoint/limit re-checks on *every* instruction.
This module removes both costs:

- :func:`compile_instruction` turns one :class:`~repro.iss.isa.Decoded`
  into a Python closure over ``(cpu, regs, memory)`` with the operand
  indices, immediates, next-pc constant and cycle cost all bound at
  compile time — executing it is one call, no dispatch;
- :func:`build_block` strings consecutive closures into a
  :class:`BasicBlock`: a straight-line run ending at a control transfer
  (branch/jump/``jr``/``jalr``), a ``sys``/``wfi``/``halt``, a code
  breakpoint address, an undecodable word, or :data:`MAX_BLOCK_LENGTH`.

The CPU caches blocks by start address and executes them with the
boundary checks hoisted out of the inner loop (see
``Cpu._run_blocks``).  Observable equivalence with the interpreter is
preserved exactly: faulting and memory-touching closures set ``cpu.pc``
before acting (so faults and watchpoint stops see the interpreter's
pc), division faults raise the same :class:`~repro.errors.GuestFault`
messages, and memory closures route through ``Cpu._note_access`` so
watchpoints fire identically.

Each compiled step is a ``(closure, is_mem, static_next_pc)`` triple:
``is_mem`` marks closures after which the executor must re-check
watchpoint hits, guest stores into cached code, and interrupt
delivery (an MMIO store may raise the IRQ line mid-block);
``static_next_pc`` is the fall-through pc for closures that do not
write ``cpu.pc`` themselves (pure ALU ops), letting the limit-checked
executor stop mid-block with an exact program counter.
"""

from repro.errors import (GuestFault, IllegalInstructionError,
                          MemoryAccessError)
from repro.iss import isa

_WORD = isa.WORD_MASK
_REG_SP = isa.REG_SP
_REG_LR = isa.REG_LR
_signed = isa.to_signed32

#: Upper bound on instructions per block, bounding ``max_cycles`` so a
#: typical co-simulation cycle budget still covers whole blocks.
MAX_BLOCK_LENGTH = 32

#: Instructions that end a basic block (control transfer or a state
#: change the outer run loop must observe before continuing).
TERMINAL_OPS = frozenset([
    "beq", "bne", "blt", "bge", "bltu", "bgeu",
    "jmp", "jal", "jr", "jalr", "sys", "wfi", "halt",
])


class BasicBlock:
    """A compiled straight-line run of instructions.

    ``steps`` is a tuple of ``(closure, is_mem, static_next_pc)``;
    ``max_cycles`` is the worst-case cycle cost (taken branches
    included) used to decide whether the block fits a budget without
    per-instruction limit checks; ``end`` doubles as the fall-through
    pc for blocks cut short of a control transfer (it is the address
    of the first instruction past the block by construction).
    """

    __slots__ = ("start", "end", "steps", "count", "max_cycles",
                 "has_terminal")

    def __init__(self, start, end, steps, max_cycles, has_terminal):
        self.start = start
        self.end = end
        self.steps = steps
        self.count = len(steps)
        self.max_cycles = max_cycles
        self.has_terminal = has_terminal

    def __repr__(self):
        return "BasicBlock(0x%08x..0x%08x, %d ops)" % (
            self.start, self.end, self.count)

    def covers(self, address):
        """True when *address* holds one of this block's instructions."""
        return self.start <= address < self.end


# -- per-instruction compilers ------------------------------------------------
#
# Each factory binds the decoded fields and returns (closure, is_mem).
# Closures that may fault or touch memory assign cpu.pc first, exactly
# where the interpreter would have it.

def _c_nop(d, pc, next_pc):
    def op(cpu, regs, memory):
        return 1
    return op, False


def _c_halt(d, pc, next_pc):
    def op(cpu, regs, memory):
        cpu.pc = next_pc
        cpu.halted = True
        return 1
    return op, False


def _c_wfi(d, pc, next_pc):
    def op(cpu, regs, memory):
        cpu.pc = next_pc
        cpu.waiting = True
        return 1
    return op, False


def _c_sys(d, pc, next_pc):
    imm = d.imm
    base = d.spec.cycles

    def op(cpu, regs, memory):
        cpu.pc = next_pc
        return base + cpu.syscalls.dispatch(cpu, imm)
    return op, False


def _c_mov(d, pc, next_pc):
    rd, rs1 = d.rd, d.rs1

    def op(cpu, regs, memory):
        regs[rd] = regs[rs1]
        return 1
    return op, False


def _c_not(d, pc, next_pc):
    rd, rs1 = d.rd, d.rs1

    def op(cpu, regs, memory):
        regs[rd] = (~regs[rs1]) & _WORD
        return 1
    return op, False


def _c_add(d, pc, next_pc):
    rd, rs1, rs2 = d.rd, d.rs1, d.rs2

    def op(cpu, regs, memory):
        regs[rd] = (regs[rs1] + regs[rs2]) & _WORD
        return 1
    return op, False


def _c_sub(d, pc, next_pc):
    rd, rs1, rs2 = d.rd, d.rs1, d.rs2

    def op(cpu, regs, memory):
        regs[rd] = (regs[rs1] - regs[rs2]) & _WORD
        return 1
    return op, False


def _c_mul(d, pc, next_pc):
    rd, rs1, rs2 = d.rd, d.rs1, d.rs2

    def op(cpu, regs, memory):
        regs[rd] = (regs[rs1] * regs[rs2]) & _WORD
        return 3
    return op, False


def _c_divu(d, pc, next_pc):
    rd, rs1, rs2 = d.rd, d.rs1, d.rs2

    def op(cpu, regs, memory):
        cpu.pc = next_pc
        divisor = regs[rs2]
        if divisor == 0:
            raise GuestFault("division by zero at pc=0x%08x" % pc)
        regs[rd] = (regs[rs1] // divisor) & _WORD
        return 12
    return op, False


def _c_remu(d, pc, next_pc):
    rd, rs1, rs2 = d.rd, d.rs1, d.rs2

    def op(cpu, regs, memory):
        cpu.pc = next_pc
        divisor = regs[rs2]
        if divisor == 0:
            raise GuestFault("remainder by zero at pc=0x%08x" % pc)
        regs[rd] = (regs[rs1] % divisor) & _WORD
        return 12
    return op, False


def _c_and(d, pc, next_pc):
    rd, rs1, rs2 = d.rd, d.rs1, d.rs2

    def op(cpu, regs, memory):
        regs[rd] = regs[rs1] & regs[rs2]
        return 1
    return op, False


def _c_or(d, pc, next_pc):
    rd, rs1, rs2 = d.rd, d.rs1, d.rs2

    def op(cpu, regs, memory):
        regs[rd] = regs[rs1] | regs[rs2]
        return 1
    return op, False


def _c_xor(d, pc, next_pc):
    rd, rs1, rs2 = d.rd, d.rs1, d.rs2

    def op(cpu, regs, memory):
        regs[rd] = regs[rs1] ^ regs[rs2]
        return 1
    return op, False


def _c_shl(d, pc, next_pc):
    rd, rs1, rs2 = d.rd, d.rs1, d.rs2

    def op(cpu, regs, memory):
        regs[rd] = (regs[rs1] << (regs[rs2] & 31)) & _WORD
        return 1
    return op, False


def _c_shr(d, pc, next_pc):
    rd, rs1, rs2 = d.rd, d.rs1, d.rs2

    def op(cpu, regs, memory):
        regs[rd] = regs[rs1] >> (regs[rs2] & 31)
        return 1
    return op, False


def _c_sar(d, pc, next_pc):
    rd, rs1, rs2 = d.rd, d.rs1, d.rs2

    def op(cpu, regs, memory):
        regs[rd] = (_signed(regs[rs1]) >> (regs[rs2] & 31)) & _WORD
        return 1
    return op, False


def _c_slt(d, pc, next_pc):
    rd, rs1, rs2 = d.rd, d.rs1, d.rs2

    def op(cpu, regs, memory):
        regs[rd] = int(_signed(regs[rs1]) < _signed(regs[rs2]))
        return 1
    return op, False


def _c_sltu(d, pc, next_pc):
    rd, rs1, rs2 = d.rd, d.rs1, d.rs2

    def op(cpu, regs, memory):
        regs[rd] = int(regs[rs1] < regs[rs2])
        return 1
    return op, False


def _c_addi(d, pc, next_pc):
    rd, rs1, imm = d.rd, d.rs1, d.imm

    def op(cpu, regs, memory):
        regs[rd] = (regs[rs1] + imm) & _WORD
        return 1
    return op, False


def _c_andi(d, pc, next_pc):
    rd, rs1, imm = d.rd, d.rs1, d.imm

    def op(cpu, regs, memory):
        regs[rd] = regs[rs1] & imm
        return 1
    return op, False


def _c_ori(d, pc, next_pc):
    rd, rs1, imm = d.rd, d.rs1, d.imm

    def op(cpu, regs, memory):
        regs[rd] = regs[rs1] | imm
        return 1
    return op, False


def _c_xori(d, pc, next_pc):
    rd, rs1, imm = d.rd, d.rs1, d.imm

    def op(cpu, regs, memory):
        regs[rd] = regs[rs1] ^ imm
        return 1
    return op, False


def _c_shli(d, pc, next_pc):
    rd, rs1, shift = d.rd, d.rs1, d.imm & 31

    def op(cpu, regs, memory):
        regs[rd] = (regs[rs1] << shift) & _WORD
        return 1
    return op, False


def _c_shri(d, pc, next_pc):
    rd, rs1, shift = d.rd, d.rs1, d.imm & 31

    def op(cpu, regs, memory):
        regs[rd] = regs[rs1] >> shift
        return 1
    return op, False


def _c_li(d, pc, next_pc):
    rd, value = d.rd, d.imm & _WORD

    def op(cpu, regs, memory):
        regs[rd] = value
        return 1
    return op, False


def _c_lui(d, pc, next_pc):
    rd, value = d.rd, (d.imm << 16) & _WORD

    def op(cpu, regs, memory):
        regs[rd] = value
        return 1
    return op, False


def _c_lw(d, pc, next_pc):
    rd, rs1, imm = d.rd, d.rs1, d.imm

    def op(cpu, regs, memory):
        cpu.pc = next_pc
        address = (regs[rs1] + imm) & _WORD
        value = memory.load_word(address)
        regs[rd] = value
        cpu._note_access(address, False, value)
        return 2
    return op, True


def _c_lb(d, pc, next_pc):
    rd, rs1, imm = d.rd, d.rs1, d.imm

    def op(cpu, regs, memory):
        cpu.pc = next_pc
        address = (regs[rs1] + imm) & _WORD
        value = isa.to_unsigned32(
            isa.sign_extend(memory.load_byte(address), 8))
        regs[rd] = value
        cpu._note_access(address, False, value)
        return 2
    return op, True


def _c_lbu(d, pc, next_pc):
    rd, rs1, imm = d.rd, d.rs1, d.imm

    def op(cpu, regs, memory):
        cpu.pc = next_pc
        address = (regs[rs1] + imm) & _WORD
        value = memory.load_byte(address)
        regs[rd] = value
        cpu._note_access(address, False, value)
        return 2
    return op, True


def _c_sw(d, pc, next_pc):
    rd, rs1, imm = d.rd, d.rs1, d.imm

    def op(cpu, regs, memory):
        cpu.pc = next_pc
        address = (regs[rs1] + imm) & _WORD
        memory.store_word(address, regs[rd])
        cpu._note_access(address, True, regs[rd])
        return 2
    return op, True


def _c_sb(d, pc, next_pc):
    rd, rs1, imm = d.rd, d.rs1, d.imm

    def op(cpu, regs, memory):
        cpu.pc = next_pc
        address = (regs[rs1] + imm) & _WORD
        value = regs[rd] & 0xFF
        memory.store_byte(address, value)
        cpu._note_access(address, True, value)
        return 2
    return op, True


def _c_push(d, pc, next_pc):
    rd = d.rd

    def op(cpu, regs, memory):
        cpu.pc = next_pc
        address = (regs[_REG_SP] - 4) & _WORD
        memory.store_word(address, regs[rd])
        regs[_REG_SP] = address
        return 2
    return op, True


def _c_pop(d, pc, next_pc):
    rd = d.rd

    def op(cpu, regs, memory):
        cpu.pc = next_pc
        value = memory.load_word(regs[_REG_SP])
        regs[rd] = value
        regs[_REG_SP] = (regs[_REG_SP] + 4) & _WORD
        return 2
    return op, True


def _c_jmp(d, pc, next_pc):
    target = (pc + 4 + 4 * d.imm) & _WORD

    def op(cpu, regs, memory):
        cpu.pc = target
        return 2
    return op, False


def _c_jal(d, pc, next_pc):
    target = (pc + 4 + 4 * d.imm) & _WORD

    def op(cpu, regs, memory):
        regs[_REG_LR] = next_pc
        cpu.pc = target
        return 2
    return op, False


def _c_jr(d, pc, next_pc):
    rd = d.rd

    def op(cpu, regs, memory):
        cpu.pc = regs[rd]
        return 2
    return op, False


def _c_jalr(d, pc, next_pc):
    rd = d.rd

    def op(cpu, regs, memory):
        target = regs[rd]
        regs[_REG_LR] = next_pc
        cpu.pc = target
        return 2
    return op, False


def _branch_factory(compare):
    def factory(d, pc, next_pc):
        rs1, rs2 = d.rs1, d.rs2
        target = (pc + 4 + 4 * d.imm) & _WORD
        taken_cycles = d.spec.cycles + d.spec.taken_extra
        fall_cycles = d.spec.cycles

        def op(cpu, regs, memory):
            if compare(regs[rs1], regs[rs2]):
                cpu.pc = target
                return taken_cycles
            cpu.pc = next_pc
            return fall_cycles
        return op, False
    return factory


_COMPILERS = {
    "nop": _c_nop,
    "halt": _c_halt,
    "wfi": _c_wfi,
    "sys": _c_sys,
    "mov": _c_mov,
    "not": _c_not,
    "add": _c_add,
    "sub": _c_sub,
    "mul": _c_mul,
    "divu": _c_divu,
    "remu": _c_remu,
    "and": _c_and,
    "or": _c_or,
    "xor": _c_xor,
    "shl": _c_shl,
    "shr": _c_shr,
    "sar": _c_sar,
    "slt": _c_slt,
    "sltu": _c_sltu,
    "addi": _c_addi,
    "andi": _c_andi,
    "ori": _c_ori,
    "xori": _c_xori,
    "shli": _c_shli,
    "shri": _c_shri,
    "li": _c_li,
    "lui": _c_lui,
    "lw": _c_lw,
    "lb": _c_lb,
    "lbu": _c_lbu,
    "sw": _c_sw,
    "sb": _c_sb,
    "push": _c_push,
    "pop": _c_pop,
    "jmp": _c_jmp,
    "jal": _c_jal,
    "jr": _c_jr,
    "jalr": _c_jalr,
    "beq": _branch_factory(lambda a, b: a == b),
    "bne": _branch_factory(lambda a, b: a != b),
    "blt": _branch_factory(lambda a, b: _signed(a) < _signed(b)),
    "bge": _branch_factory(lambda a, b: _signed(a) >= _signed(b)),
    "bltu": _branch_factory(lambda a, b: a < b),
    "bgeu": _branch_factory(lambda a, b: a >= b),
}


def compile_instruction(decoded, pc):
    """Compile one decoded instruction for execution at *pc*.

    Returns ``(closure, is_mem, is_terminal)``; see the module
    docstring for the closure contract.
    """
    name = decoded.spec.name
    factory = _COMPILERS.get(name)
    if factory is None:  # pragma: no cover - table is exhaustive
        raise IllegalInstructionError("uncompilable instruction %r" % name)
    next_pc = (pc + 4) & _WORD
    closure, is_mem = factory(decoded, pc, next_pc)
    return closure, is_mem, name in TERMINAL_OPS


def build_block(cpu, start):
    """Compile the basic block starting at *start* on *cpu*.

    The block is cut before any code-breakpoint address other than its
    own start (resuming off a breakpoint enters the block), and before
    the first undecodable word so the interpreter can raise the exact
    fetch/decode error with the interpreter's state.  Returns ``None``
    when not even one instruction compiles.
    """
    steps = []
    max_cycles = 0
    address = start
    has_terminal = False
    breakpoints = cpu.breakpoints
    memory = cpu.memory
    while len(steps) < MAX_BLOCK_LENGTH:
        if steps and breakpoints.has_code(address):
            break
        if memory._find_region(address) is not None:
            # Never decode *ahead* through MMIO: reading a device
            # register (e.g. a FIFO) is a side effect the guest did
            # not ask for yet.  The interpreter fallback fetches it
            # exactly when executed.
            break
        count_before = memory.load_count
        try:
            decoded = cpu._decode_at(address)
        except (IllegalInstructionError, MemoryAccessError):
            # Undo any fetch accounting so the interpreter's own raise
            # at this pc leaves identical counters.
            memory.load_count = count_before
            break
        next_pc = (address + 4) & _WORD
        closure, is_mem, terminal = compile_instruction(decoded, address)
        # Closures that write cpu.pc themselves need no static pc; the
        # pure ones record the fall-through so the limit-checked
        # executor can stop mid-block with an exact program counter.
        static_pc = None if (is_mem or terminal) else next_pc
        steps.append((closure, is_mem, static_pc))
        max_cycles += decoded.spec.cycles + decoded.spec.taken_extra
        address = next_pc
        if terminal:
            has_terminal = True
            break
    if not steps:
        return None
    return BasicBlock(start, address, tuple(steps), max_cycles,
                      has_terminal)
