"""The profile-guided superblock tier (repro.iss.superblocks).

The three-way differential suite in ``test_differential.py`` proves
tier equivalence over random instruction streams; these tests pin the
superblock *machinery* itself — profiler-driven promotion, chain
formation (loop unrolling, if-conversion), the bounded loop passes and
the minimum-budget precheck that degrades the tier exactly where
quantum batching degrades, and every invalidation rule of the
word-precise SMC contract.
"""

import pytest

from repro.apps.sources import checksum_routine
from repro.errors import IssError, MemoryAccessError
from repro.iss import superblocks
from repro.iss.breakpoints import WatchKind
from repro.iss.cpu import TIERS, Cpu, StopReason
from repro.iss.memory import MmioRegion
from repro.iss.profile import HOT_THRESHOLD, BlockProfiler
from repro.iss.superblocks import MAX_SUPERBLOCK_STEPS, build_superblock
from repro.obs.tracer import Tracer
from tests.iss import test_code_coherence as code_coherence
from tests.support import make_cpu, run_to_halt

COUNTER_LOOP = """
    li r0, 0
    li r1, 200
loop:
    addi r0, r0, 1
    bne r0, r1, loop
    halt
data: .word 7
"""

# The guest CRC idiom: a data-dependent forward branch skipping one
# pure-ALU instruction — the if-conversion case.
SKIP_LOOP = """
    li r0, 0
    li r1, 100
    li r2, 0
    li r3, 0
loop:
    andi r7, r0, 1
    beq r7, r3, skip
    xori r2, r2, 255
skip:
    addi r0, r0, 1
    bne r0, r1, loop
    halt
"""

# The guest's bitwise CRC-32 routine over a four-word buffer: its bit
# loop unrolls into a 256-step chain of identical iterations.
CRC_PROGRAM = """
    .entry main
main:
    la r0, table
    li r1, 4
    call checksum_words
    halt
%s
table: .word 287454020, 3735928559, 0, 4294967295
""" % checksum_routine("crc32")


def _hot_cpu(source, threshold=2):
    """A superblock-tier CPU that promotes almost immediately."""
    cpu, prog, __ = make_cpu(source)
    cpu.tier = "superblocks"
    cpu.block_profiler.hot_threshold = threshold
    return cpu, prog


def _exits(cpu):
    return (cpu.superblock_exits, cpu.superblock_side_exits,
            dict(cpu.side_exit_sites))


def _drive_tiers(source, drive, arm=None):
    """Drive *source* on every tier; returns the superblock-tier CPU.

    ``drive(cpu)`` returns what the run observed (stop reasons, a fault
    message); it and the final registers, pc, cycles, instructions and
    data-load count must match the interpreter on every tier.
    """
    outcomes = []
    for tier in TIERS:
        cpu, prog, __ = make_cpu(source)
        cpu.tier = tier
        cpu.block_profiler.hot_threshold = 2
        if arm is not None:
            arm(cpu, prog)
        observed = drive(cpu)
        outcomes.append((observed, list(cpu.regs), cpu.pc, cpu.cycles,
                         cpu.instructions, cpu.memory.load_count))
    assert outcomes[1] == outcomes[0]
    assert outcomes[2] == outcomes[0]
    return cpu


class TestPromotion:
    def test_hot_loop_promotes_and_executes(self):
        cpu, _ = _hot_cpu(COUNTER_LOOP)
        run_to_halt(cpu)
        assert cpu.regs[0] == 200
        assert cpu.superblocks_compiled >= 1
        assert cpu.superblock_exits >= 1
        assert cpu._superblock_cache

    def test_promotion_waits_for_hot_threshold(self):
        cpu, _, __ = make_cpu(COUNTER_LOOP)
        cpu.tier = "superblocks"
        assert cpu.block_profiler.hot_threshold == HOT_THRESHOLD
        # Fewer loop entries than the threshold: no promotion yet.
        assert cpu.run(max_instructions=2 + 2 * (HOT_THRESHOLD - 2)) \
            is StopReason.INSTRUCTION_LIMIT
        assert cpu.superblocks_compiled == 0

    def test_blocks_tier_never_promotes(self):
        cpu, _, __ = make_cpu(COUNTER_LOOP)
        run_to_halt(cpu)
        assert cpu.block_profiler.counts       # profiler is always on...
        assert cpu.superblocks_compiled == 0   # ...promotion is not

    def test_failed_chain_is_cached_not_retried(self):
        # Straight-line code into halt: no chain of two blocks forms.
        cpu, _, __ = make_cpu("    li r0, 1\n    halt\n")
        cpu.tier = "superblocks"
        assert cpu._promote(0) is None
        assert 0 in cpu._superblock_failed
        compiled = cpu.blocks_compiled
        assert cpu._promote(0) is None         # cached: no new attempt
        assert cpu.blocks_compiled == compiled


class TestFormation:
    def test_backward_branch_unrolls_loop(self):
        cpu, prog = _hot_cpu(COUNTER_LOOP)
        start = prog.symbols.resolve("loop")
        superblock = build_superblock(cpu, start)
        assert superblock is not None
        # The loop body is one block; static backward-taken prediction
        # chains it into itself many times over.
        assert set(superblock.block_starts) == {start}
        assert len(superblock.block_starts) > 1
        assert superblock.count <= MAX_SUPERBLOCK_STEPS

    def test_forward_skip_is_if_converted(self):
        # The CRC bit loop's data-dependent skip of the polynomial xor
        # goes both ways within one run of the chain, yet never exits.
        cpu, prog = _hot_cpu(CRC_PROGRAM)
        start = prog.symbols.resolve("crc_bit_loop")
        superblock = build_superblock(cpu, start)
        cpu.pc = start
        cpu.regs[2] = 0x12345678      # crc: mixed low bits
        cpu.regs[6] = 1000            # bit counter: never leaves the loop
        state = list(cpu.regs)
        superblock.run(cpu, cpu.regs, cpu.memory, None, None)
        assert cpu.superblock_exits == 1
        assert cpu.superblock_side_exits == 0
        assert cpu.pc == start
        # 32 passes of 5 (skip) or 8 (xor) instructions: both ran.
        assert 5 * 32 < cpu.instructions < 8 * 32
        reference, __, __ = make_cpu(CRC_PROGRAM)
        reference.tier = "interp"
        reference.pc = start
        reference.regs[:] = state
        reference.run(max_instructions=cpu.instructions)
        assert (reference.regs, reference.pc, reference.cycles) \
            == (cpu.regs, cpu.pc, cpu.cycles)

    def test_chain_never_crosses_breakpoint(self):
        cpu, prog = _hot_cpu(COUNTER_LOOP)
        start = prog.symbols.resolve("loop")
        cpu.breakpoints.add_code(start)
        # Entering *at* the breakpoint mirrors the block rule (resume
        # past it), but the chain must not loop back onto it: only the
        # single body block remains, so no superblock forms.
        assert build_superblock(cpu, start) is None


    def test_unrolled_loop_compiles_each_body_once(self, monkeypatch):
        cpu, prog = _hot_cpu(CRC_PROGRAM)
        start = prog.symbols.resolve("crc_bit_loop")
        superblock = build_superblock(cpu, start)
        source = superblock.source
        # The bit loop unrolls 32 times; its period is generated once,
        # and the function runs as many of the 32 passes as fit.
        assert superblock.count == MAX_SUPERBLOCK_STEPS
        assert source.count("for i in range(") == 1
        assert "for i in range(m):" in source
        assert "m = 32\n" in source
        assert source.count("r[2] = r[2] >> 1") == 1
        # CPUs running the same program share one compiled code object.
        other, __ = _hot_cpu(CRC_PROGRAM)
        twin = build_superblock(other, start)
        assert twin.source == source
        assert twin.run is not superblock.run
        assert twin.run.__code__ is superblock.run.__code__
        # More unrolling does not make the text any longer.
        monkeypatch.setattr(superblocks, "MAX_SUPERBLOCK_STEPS",
                            2 * MAX_SUPERBLOCK_STEPS)
        monkeypatch.setattr(superblocks, "MAX_CHAIN_BLOCKS",
                            2 * superblocks.MAX_CHAIN_BLOCKS)
        longer = build_superblock(cpu, start)
        assert longer.count == 2 * superblock.count
        assert "m = 64\n" in longer.source
        assert longer.source.count("for i in range(") == 1
        assert len(longer.source) == len(source)


class TestEquivalence:
    @pytest.mark.parametrize("source", [COUNTER_LOOP, SKIP_LOOP, CRC_PROGRAM],
                             ids=["counter", "skip", "crc32"])
    def test_tiers_agree_to_halt(self, source):
        cpu = _drive_tiers(source, lambda cpu: cpu.run())
        assert cpu.last_stop is StopReason.HALT

    def test_misprediction_side_exit_is_exact(self):
        # Stop mid-flight: the unrolled loop's final mispredicted
        # branch (and the instruction-limit stop) land on identical
        # pc/cycles/instructions in every tier.
        cpu = _drive_tiers(COUNTER_LOOP,
                           lambda cpu: cpu.run(max_instructions=150))
        assert cpu.last_stop is StopReason.INSTRUCTION_LIMIT

    def test_budget_precheck_degrades_to_blocks(self):
        cpu, prog = _hot_cpu(COUNTER_LOOP)
        superblock = build_superblock(cpu, prog.symbols.resolve("loop"))
        # One pass of the loop (addi, taken bne) is the least budget
        # the superblock runs on; the whole chain is 64 passes.
        assert (superblock.min_count, superblock.min_cycles) == (2, 3)
        for limit, minimum, stop in (
                ("max_instructions", superblock.min_count,
                 StopReason.INSTRUCTION_LIMIT),
                ("max_cycles", superblock.min_cycles,
                 StopReason.CYCLE_LIMIT)):
            for budget in (minimum - 1, minimum):
                states = []
                for tier in ("blocks", "superblocks"):
                    cpu, _, __ = make_cpu(COUNTER_LOOP)
                    cpu.tier = tier
                    cpu.block_profiler.hot_threshold = 2
                    cpu.run(max_instructions=2)    # to the loop head
                    while cpu.run(**{limit: budget}) is stop:
                        pass
                    states.append((list(cpu.regs), cpu.pc, cpu.cycles,
                                   cpu.instructions))
                assert states[0] == states[1]
                # Promotion happened either way; below the minimum
                # execution stayed per-block, at it each chunk ran a
                # pass in the superblock.
                assert cpu.superblocks_compiled >= 1
                assert (cpu.superblock_exits > 0) == (budget == minimum)

    def test_watchpoint_fires_inside_superblock(self):
        source = """
            la r1, buf
            li r0, 0
            li r4, 40
        loop:
            sw r0, [r1]
            addi r1, r1, 4
            addi r0, r0, 1
            bne r0, r4, loop
            halt
        buf:
        """ + "    .word 0\n" * 40

        def arm(cpu, prog):
            watched = prog.symbols.variable_address("buf") + 4 * 20
            cpu.breakpoints.add_watch(watched, kind=WatchKind.WRITE)

        cpu = _drive_tiers(source, lambda cpu: cpu.run(), arm=arm)
        assert cpu.last_stop is StopReason.WATCHPOINT
        assert cpu.regs[0] == 20
        # The hit lands in a pass of the re-rolled loop.
        assert _exits(cpu) == EXPECTED_WATCH_EXITS


# A load walking off the end of the 1 MiB memory in 64 KiB strides:
# pass 16 of the loop faults.
FAULT_LOOP = """
    li r0, 0
    lui r8, 1
    li r3, 0
    li r4, 100
loop:
    lw r5, [r0]
    add r2, r2, r5
    add r0, r0, r8
    addi r4, r4, -1
    bne r4, r3, loop
    halt
"""

# A store pointer walks through an eight-word buffer into the loop's
# own code: pass 8 patches the first loop word, pass 9 the store itself.
SMC_LOOP = """
    la r10, buf
    la r11, patch
    lw r9, [r11]
    li r0, 0
    li r4, 40
    b loop
buf:
""" + "    .word 0\n" * 8 + """
loop:
    addi r2, r2, 1
    sw r9, [r10]
    addi r10, r10, 4
    addi r0, r0, 1
    bne r0, r4, loop
    halt
patch:
    addi r2, r2, 100
"""

# Each pass stores its counter to a device register; the device raises
# the IRQ line when it sees 20.
IRQ_BASE = 0xF0000
IRQ_LOOP = """
    li32 r12, %d
    li r0, 0
    li r4, 60
loop:
    addi r0, r0, 1
    sw r0, [r12]
    xor r2, r2, r0
    bne r0, r4, loop
    halt
""" % IRQ_BASE


class _IrqDevice(MmioRegion):
    def __init__(self, cpu):
        super().__init__(IRQ_BASE, 4, "irq")
        self.cpu = cpu

    def store_word(self, offset, value):
        if value == 20:
            self.cpu.raise_irq(5)


# A countdown whose superblock side-exits to its own start outside any
# re-rolled loop: ``start`` chains into ``count`` and predicts the exit
# to ``finish``, so every pass but the last mispredicts back to ``start``.
COUNTDOWN = """
    li r0, 0
    li r3, 0
    li r4, 50
    b start
finish:
    halt
count:
    addi r4, r4, -1
    beq r4, r3, finish
start:
    addi r0, r0, 1
    b count
"""

# The CRC-32 routine over sixteen bytes read from a device window.
ROM_BASE = 0xF0000
CRC_ROM_PROGRAM = CRC_PROGRAM.replace("la r0, table",
                                      "li32 r0, %d" % ROM_BASE)

# A nested loop whose superblock starts after the inner loop and re-enters
# itself once per outer pass; the load address gains *delta* bytes once
# the outer counter r4 drops below 5, so pass 9 of 12 faults.
LATE_FAULT_LOOP = """
    la r0, buf
    li32 r12, %d
    li r3, 0
    li r4, 12
    li r11, 5
outer:
    sltu r10, r4, r11
    mul r10, r10, r12
    add r10, r10, r0
    lw r5, [r10]
    add r2, r2, r5
    li r6, 3
inner:
    addi r6, r6, -1
    bne r6, r3, inner
    addi r4, r4, -1
    bne r4, r3, outer
    halt
buf:
    .word 7
"""

# The same nested shape storing each outer pass's counter to the IRQ
# device, which raises the line on 20: the store in pass 20 of 60 exits.
IRQ_NESTED_LOOP = """
    li32 r12, %d
    li r3, 0
    li r0, 0
    li r4, 60
outer:
    addi r0, r0, 1
    sw r0, [r12]
    li r6, 2
inner:
    addi r6, r6, -1
    bne r6, r3, inner
    addi r4, r4, -1
    bne r4, r3, outer
    halt
""" % IRQ_BASE


# A loop summing memory words, so its re-rolled period holds a load.
LOAD_LOOP = """
    la r0, buf
    li r3, 0
    li r4, 1000
loop:
    lw r5, [r0]
    add r2, r2, r5
    addi r0, r0, 4
    addi r4, r4, -1
    bne r4, r3, loop
    halt
buf:
    .word 3, 5, 7, 11
"""


def _arm_crc(label, crc):
    """Start the CRC routine at *label* with *crc* and a bit counter
    that never runs out, so every pass the budget allows stays in the
    loop."""
    def arm(cpu, prog):
        cpu.block_profiler.hot_threshold = 1
        cpu.pc = prog.symbols.resolve(label)
        cpu.regs[0] = prog.symbols.variable_address("table")
        cpu.regs[1] = 16
        cpu.regs[2] = crc
        cpu.regs[6] = 1000
    return arm


def _arm_load_loop(cpu, prog):
    cpu.block_profiler.hot_threshold = 1
    cpu.pc = prog.symbols.resolve("loop")
    cpu.regs[0] = prog.symbols.variable_address("buf")
    cpu.regs[4] = 1000


# ``(source, arm, label)``: the armed CPU enters the superblock at
# *label* on its first dispatch.  crc_skip's superblock re-enters itself
# whenever its last bit skips the polynomial xor, which a zero crc
# always does.
BOUNDED_LOOPS = {
    "bit-loop": (CRC_PROGRAM, _arm_crc("crc_bit_loop", 0x12345678),
                 "crc_bit_loop"),
    "load-loop": (LOAD_LOOP, _arm_load_loop, "loop"),
    "re-entering": (CRC_PROGRAM, _arm_crc("crc_skip", 0), "crc_skip"),
}


def _check_limits(monkeypatch):
    """Wrap every superblock built from now on so each run asserts it
    ended within the limits it was given; returns the exits per run."""
    build = superblocks.build_superblock
    runs = []

    def checked_build(cpu, start):
        superblock = build(cpu, start)
        if superblock is None:
            return None
        run = superblock.run

        def checked(cpu, regs, memory, instruction_limit, cycle_limit):
            exits = cpu.superblock_exits
            run(cpu, regs, memory, instruction_limit, cycle_limit)
            assert instruction_limit is None \
                or cpu.instructions <= instruction_limit
            assert cycle_limit is None or cpu.cycles <= cycle_limit
            runs.append((start, cpu.superblock_exits - exits))

        superblock.run = checked
        return superblock

    monkeypatch.setattr(superblocks, "build_superblock", checked_build)
    return runs


class _RomDevice(MmioRegion):
    """A read-only window of deterministic words that counts its reads."""

    def __init__(self):
        super().__init__(ROM_BASE, 16, "rom")
        self.reads = 0

    def load_word(self, offset):
        self.reads += 1
        return (offset * 0x9E3779B1 + 0x01234567) & 0xFFFFFFFF


# Superblock exit counters, ``(superblock_exits, superblock_side_exits,
# side_exit_sites)``.  The sweep and pass literals were regenerated when
# re-rolled loops became budget-bounded: more budgets enter superblocks.
EXPECTED_SWEEP_TOTALS = [5004, 5004]
EXPECTED_SWEEP_SITES = {0x24: 29, 0x28: 264, 0x34: 280, 0x38: 5,
                        0x3C: 8, 0x40: 375, 0x44: 1, 0x48: 2, 0x4C: 389,
                        0x50: 7, 0x54: 3644}
# Per bit count 1..33; the first exit of each is the bit loop's, in pass
# r6 - 1 (0x34 marks the loop exit to 0x54; 33 completes the chain).
EXPECTED_PASS_EXITS = [
    (5, 5, {0x34: 1, 0x54: 4}), (6, 6, {0x34: 1, 0x54: 4, 0x4C: 1}),
    (6, 6, {0x34: 1, 0x54: 4, 0x4C: 1}), (7, 7, {0x34: 1, 0x54: 4, 0x4C: 2}),
    (7, 7, {0x34: 1, 0x54: 4, 0x4C: 2}), (5, 5, {0x34: 1, 0x54: 4}),
    (6, 6, {0x34: 1, 0x54: 4, 0x4C: 1}), (5, 5, {0x34: 1, 0x54: 3, 0x4C: 1}),
    (5, 5, {0x34: 1, 0x54: 3, 0x4C: 1}), (5, 5, {0x34: 1, 0x54: 4}),
    (5, 5, {0x34: 1, 0x54: 3, 0x4C: 1}), (5, 5, {0x34: 1, 0x54: 3, 0x4C: 1}),
    (5, 5, {0x34: 1, 0x54: 3, 0x4C: 1}), (4, 4, {0x34: 1, 0x54: 3}),
    (5, 5, {0x34: 1, 0x54: 3, 0x4C: 1}), (4, 4, {0x34: 1, 0x54: 3}),
    (5, 5, {0x34: 1, 0x54: 3, 0x4C: 1}), (4, 4, {0x34: 1, 0x54: 3}),
    (3, 3, {0x34: 1, 0x54: 2}), (4, 4, {0x34: 1, 0x54: 2, 0x4C: 1}),
    (4, 4, {0x34: 1, 0x54: 2, 0x4C: 1}), (4, 4, {0x34: 1, 0x54: 2, 0x4C: 1}),
    (4, 4, {0x34: 1, 0x54: 2, 0x4C: 1}), (4, 4, {0x34: 1, 0x54: 2, 0x4C: 1}),
    (3, 3, {0x34: 1, 0x54: 2}), (3, 3, {0x34: 1, 0x54: 2}),
    (4, 4, {0x34: 1, 0x54: 2, 0x4C: 1}), (3, 3, {0x34: 1, 0x54: 1, 0x4C: 1}),
    (3, 3, {0x34: 1, 0x54: 1, 0x4C: 1}), (3, 3, {0x34: 1, 0x54: 1, 0x4C: 1}),
    (3, 3, {0x34: 1, 0x54: 1, 0x4C: 1}), (3, 3, {0x34: 1, 0x54: 1, 0x4C: 1}),
    (4, 3, {0x34: 1, 0x54: 1, 0x4C: 1})]
EXPECTED_FAULT_EXITS = (1, 1, {0x10: 1})
EXPECTED_WATCH_EXITS = (1, 1, {0x10: 1})
EXPECTED_SMC_EXITS = (3, 3, {0x40: 2, 0x48: 1})
EXPECTED_IRQ_EXITS = (1, 1, {0x10: 1})


# The re-entry programs' ``(source, last, step)`` sweeps: the limit
# steps by *step* from 1 to *last*, one past the instructions the program
# runs to halt (the cycle sweep goes a quarter further), so runs end
# inside every pass.
RE_ENTRY_SWEEPS = {"countdown": (COUNTDOWN, 207, 1),
                   "crc32": (CRC_PROGRAM, 964, 3)}

# ``_counts`` (exit counters plus profiler entry counts), recorded from
# the dispatcher round trip that in-place re-entry replaced; the crc32
# entries were regenerated when re-rolled loops became budget-bounded.
EXPECTED_LIMIT_SWEEPS = {
    "countdown": ([4802, 4800], {0x1C: 4800},
                  {0x0: 206, 0x14: 298, 0x1C: 5200}),
    "crc32": ([2744, 2744], {0x28: 291, 0x34: 146, 0x40: 309, 0x4C: 1,
                             0x54: 1997},
              {0x0: 321, 0x14: 319, 0x24: 377, 0x28: 689, 0x34: 709,
               0x40: 724, 0x4C: 369, 0x54: 2390, 0x60: 1}),
}
EXPECTED_CYCLE_SWEEPS = {
    "countdown": ([5929, 5928], {0x1C: 5928},
                  {0x0: 257, 0x14: 396, 0x1C: 6475}),
    "crc32": ([3451, 3451], {0x28: 370, 0x34: 77, 0x40: 388, 0x54: 2616},
              {0x0: 402, 0x10: 12, 0x14: 400, 0x24: 473, 0x28: 858,
               0x34: 764, 0x40: 916, 0x4C: 409, 0x54: 3111, 0x60: 13}),
}
EXPECTED_BREAKPOINT_COUNTS = (49, 48, {0x1C: 48},
                              {0x0: 1, 0x14: 1, 0x1C: 50})
EXPECTED_WATCH_READ_COUNTS = (
    18, 18, {0x28: 1, 0x34: 1, 0x40: 1, 0x54: 15},
    {0x0: 1, 0x10: 1, 0x14: 1, 0x24: 1, 0x28: 2, 0x2C: 1, 0x34: 2, 0x40: 2,
     0x4C: 1, 0x54: 16, 0x60: 1})
EXPECTED_ROM_COUNTS = (
    17, 17, {0x28: 1, 0x4C: 1, 0x54: 15},
    {0x0: 1, 0x10: 1, 0x14: 1, 0x24: 1, 0x28: 2, 0x34: 1, 0x4C: 2, 0x54: 16,
     0x60: 1})
EXPECTED_LATE_FAULT_COUNTS = (9, 9, {0x34: 2, 0x3C: 7},
                              {0x0: 1, 0x1C: 1, 0x34: 3, 0x3C: 8})
EXPECTED_IRQ_NESTED_COUNTS = (19, 19, {0x20: 1, 0x28: 18},
                              {0x0: 1, 0x14: 1, 0x20: 2, 0x28: 19})


def _counts(cpu):
    """Exit counters plus the block profiler's entry counts."""
    return _exits(cpu) + (dict(cpu.block_profiler.counts),)


def _sweep(source, limits, drive_for):
    """Sum :func:`_counts` over one single-limit run per limit."""
    totals = [0, 0]
    sites = {}
    profile = {}
    for limit in limits:
        cpu = _drive_tiers(source, drive_for(limit))
        exits, side_exits, run_sites, run_profile = _counts(cpu)
        totals[0] += exits
        totals[1] += side_exits
        for into, counts in ((sites, run_sites), (profile, run_profile)):
            for pc, count in counts.items():
                into[pc] = into.get(pc, 0) + count
    return totals, sites, profile


def _until_halt(cpu):
    """Run to HALT, resuming past every breakpoint and watchpoint stop."""
    stops = []
    while True:
        stops.append(cpu.run(max_instructions=100_000))
        if stops[-1] is StopReason.BREAKPOINT:
            cpu.resume_from_breakpoint()
        elif stops[-1] is not StopReason.WATCHPOINT:
            return stops


def _to_halt_in_chunks(limit):
    def drive(cpu):
        stops = []
        while True:
            stops.append(cpu.run(max_instructions=limit))
            if stops[-1] is not StopReason.INSTRUCTION_LIMIT:
                return stops
    return drive


class TestExits:
    """Every exit of the generated function commits exact state."""

    def test_instruction_limit_sweep_over_the_crc_chain(self, monkeypatch):
        # Chunks of 256..511 instructions: each chunk can run one whole
        # superblock, and its limit then stops 1..256 steps later, so
        # chains are entered, and side-exit, at every phase.
        _check_limits(monkeypatch)
        totals = [0, 0]
        sites = {}
        for extra in range(1, MAX_SUPERBLOCK_STEPS + 1):
            cpu = _drive_tiers(
                CRC_PROGRAM,
                _to_halt_in_chunks(MAX_SUPERBLOCK_STEPS - 1 + extra))
            exits, side_exits, chunk_sites = _exits(cpu)
            totals[0] += exits
            totals[1] += side_exits
            for site, count in chunk_sites.items():
                sites[site] = sites.get(site, 0) + count
        assert totals == EXPECTED_SWEEP_TOTALS
        assert sites == EXPECTED_SWEEP_SITES

    def test_side_exit_in_every_pass_of_the_loop(self):
        # The bit counter r6 ends the loop in pass r6 - 1 of the
        # re-rolled chain; at 33 the chain completes all 32 passes.
        counters = []
        for bits in range(1, 34):
            def arm(cpu, prog, bits=bits):
                cpu.block_profiler.hot_threshold = 1
                cpu.pc = prog.symbols.resolve("crc_bit_loop")
                cpu.regs[0] = prog.symbols.variable_address("table")
                cpu.regs[1] = 16
                cpu.regs[2] = 0x12345678
                cpu.regs[6] = bits

            cpu = _drive_tiers(
                CRC_PROGRAM,
                lambda cpu: cpu.run(max_instructions=MAX_SUPERBLOCK_STEPS),
                arm=arm)
            counters.append(_exits(cpu))
        assert counters == EXPECTED_PASS_EXITS

    def test_faulting_memory_step_inside_the_loop(self):
        def drive(cpu):
            with pytest.raises(MemoryAccessError) as error:
                cpu.run(max_instructions=10_000)
            return str(error.value)

        cpu = _drive_tiers(FAULT_LOOP, drive)
        assert cpu.regs[4] == 100 - 16
        assert _exits(cpu) == EXPECTED_FAULT_EXITS

    def test_store_into_own_words_exits_the_superblock(self):
        cpu = _drive_tiers(SMC_LOOP, lambda cpu: cpu.run())
        assert cpu.last_stop is StopReason.HALT
        assert cpu.superblock_invalidations > 0
        assert _exits(cpu) == EXPECTED_SMC_EXITS

    def test_mmio_store_raising_irq_exits_mid_chain(self):
        def arm(cpu, prog):
            cpu.interrupts_enabled = True
            cpu.memory.add_region(_IrqDevice(cpu))

        cpu = _drive_tiers(IRQ_LOOP, lambda cpu: cpu.run(), arm=arm)
        assert cpu.last_stop is StopReason.INTERRUPT
        assert cpu.regs[0] == 20
        assert _exits(cpu) == EXPECTED_IRQ_EXITS


    # -- a superblock that side-exits back to its own start ----------------

    def test_pending_irq_stops_in_place_re_entry(self):
        # The dispatcher never enters with an enabled IRQ pending, so
        # called directly the function must stop where it would have.
        cpu, prog = _hot_cpu(COUNTDOWN)
        start = prog.symbols.resolve("start")
        superblock = build_superblock(cpu, start)
        cpu.pc = start
        cpu.regs[4] = 50
        cpu.irq_pending = cpu.interrupts_enabled = True
        superblock.run(cpu, cpu.regs, cpu.memory, None, None)
        assert (cpu.pc, cpu.instructions, cpu.regs[4]) == (start, 4, 49)
        assert _counts(cpu) == (1, 1, {start: 1}, {})
        cpu.irq_pending = False
        superblock.run(cpu, cpu.regs, cpu.memory, None, None)
        assert (cpu.halted, cpu.regs[4], cpu.instructions) == (True, 0, 201)
        assert _counts(cpu) == (50, 49, {start: 49}, {start: 48})

    @pytest.mark.parametrize("name", sorted(RE_ENTRY_SWEEPS))
    def test_instruction_limit_ends_inside_every_pass(self, name,
                                                      monkeypatch):
        _check_limits(monkeypatch)
        source, last, step = RE_ENTRY_SWEEPS[name]
        counts = _sweep(source, range(1, last, step),
                        lambda limit: lambda cpu: cpu.run(
                            max_instructions=limit))
        assert counts == EXPECTED_LIMIT_SWEEPS[name]

    @pytest.mark.parametrize("name", sorted(RE_ENTRY_SWEEPS))
    def test_cycle_limit_ends_inside_every_pass(self, name, monkeypatch):
        _check_limits(monkeypatch)
        source, last, step = RE_ENTRY_SWEEPS[name]
        counts = _sweep(source, range(1, last + last // 4, step),
                        lambda limit: lambda cpu: cpu.run(max_cycles=limit))
        assert counts == EXPECTED_CYCLE_SWEEPS[name]

    def test_breakpoint_on_the_superblock_start(self):
        def arm(cpu, prog):
            cpu.breakpoints.add_code(prog.symbols.resolve("start"))

        cpu = _drive_tiers(COUNTDOWN, _until_halt, arm=arm)
        assert cpu.breakpoints.code_hit_count == 50
        assert _counts(cpu) == EXPECTED_BREAKPOINT_COUNTS

    def test_read_watchpoint_on_a_loaded_byte(self):
        def arm(cpu, prog):
            cpu.breakpoints.add_watch(
                prog.symbols.variable_address("table") + 9, length=1,
                kind=WatchKind.READ)

        cpu = _drive_tiers(CRC_PROGRAM, _until_halt, arm=arm)
        assert cpu.breakpoints.watch_hit_count == 1
        assert _counts(cpu) == EXPECTED_WATCH_READ_COUNTS

    def test_load_from_an_mmio_region(self):
        devices = []

        def arm(cpu, prog):
            devices.append(cpu.memory.add_region(_RomDevice()))

        cpu = _drive_tiers(CRC_ROM_PROGRAM, lambda cpu: cpu.run(), arm=arm)
        assert cpu.last_stop is StopReason.HALT
        assert [device.reads for device in devices] == [16, 16, 16]
        assert _counts(cpu) == EXPECTED_ROM_COUNTS

    @pytest.mark.parametrize("delta", [1, 1 << 20],
                             ids=["misaligned", "out-of-bounds"])
    def test_load_faults_in_a_later_pass(self, delta):
        def drive(cpu):
            with pytest.raises(MemoryAccessError) as error:
                cpu.run(max_instructions=10_000)
            return str(error.value)

        cpu = _drive_tiers(LATE_FAULT_LOOP % delta, drive)
        assert cpu.regs[4] == 4
        assert _counts(cpu) == EXPECTED_LATE_FAULT_COUNTS

    # -- a budget that covers only part of a re-rolled loop ----------------

    @pytest.mark.parametrize("limit", ["max_instructions", "max_cycles"])
    @pytest.mark.parametrize("name", sorted(BOUNDED_LOOPS))
    def test_budget_ends_inside_every_pass(self, name, limit, monkeypatch):
        # Budgets from 1 to past two whole chains: below the minimum
        # the run stays per-block; from it on, the superblock runs
        # every pass count the budget covers and never passes a limit.
        source, arm, label = BOUNDED_LOOPS[name]
        cpu, prog = _hot_cpu(source)
        arm(cpu, prog)
        start = prog.symbols.resolve(label)
        superblock = build_superblock(cpu, start)
        minimum, whole = {
            "max_instructions": (superblock.min_count, superblock.count),
            "max_cycles": (superblock.min_cycles, superblock.max_cycles),
        }[limit]
        assert minimum < whole // 16
        runs = _check_limits(monkeypatch)
        re_entered = False
        for budget in range(1, 2 * whole + minimum):
            del runs[:]
            _drive_tiers(source, lambda cpu: cpu.run(**{limit: budget}),
                         arm=arm)
            entered = [exits for pc, exits in runs if pc == start]
            assert bool(entered) == (budget >= minimum)
            re_entered = re_entered or any(exits > 1 for exits in entered)
        assert re_entered == (name == "re-entering")

    def test_mmio_store_raises_irq_in_a_later_pass(self):
        def arm(cpu, prog):
            cpu.interrupts_enabled = True
            cpu.memory.add_region(_IrqDevice(cpu))

        cpu = _drive_tiers(IRQ_NESTED_LOOP, lambda cpu: cpu.run(), arm=arm)
        assert cpu.last_stop is StopReason.INTERRUPT
        assert cpu.regs[0] == 20
        assert _counts(cpu) == EXPECTED_IRQ_NESTED_COUNTS


class TestInvalidation:
    def _warm(self, source=COUNTER_LOOP):
        cpu, prog = _hot_cpu(source)
        assert cpu.run(max_instructions=50) is StopReason.INSTRUCTION_LIMIT
        assert cpu._superblock_cache
        return cpu, prog

    def test_store_into_covered_word_drops_superblock(self):
        cpu, prog = self._warm()
        before = cpu.superblock_invalidations
        # Patch the loop body to a nop (word 0): the store overlaps a
        # chained instruction, so the superblock must die on the spot.
        cpu.memory.store_word(prog.symbols.resolve("loop"), 0)
        assert not cpu._superblock_cache
        assert cpu.superblock_invalidations > before

    def test_store_beside_code_keeps_superblock_word_precise(self):
        cpu, prog = self._warm()
        cached = dict(cpu._superblock_cache)
        before = cpu.superblock_invalidations
        # The data word shares the loop's 256-byte page but overlaps
        # no chained instruction: word-precise invalidation keeps the
        # superblock.
        cpu.memory.store_word(prog.symbols.variable_address("data"), 9)
        assert cpu._superblock_cache == cached
        assert cpu.superblock_invalidations == before

    def test_smc_store_retries_failed_chains(self):
        cpu, prog = self._warm()
        cpu._superblock_failed.add(0x1234)
        cpu.memory.store_word(prog.symbols.resolve("loop"), 0)
        # The patched word may chain differently now.
        assert not cpu._superblock_failed

    def test_breakpoint_change_clears_all_superblocks(self):
        cpu, prog = self._warm()
        target = prog.symbols.resolve("loop")
        before = cpu.superblock_invalidations
        cpu.breakpoints.add_code(target)
        assert not cpu._superblock_cache
        assert cpu.superblock_invalidations > before
        # The new breakpoint must be honored immediately.
        assert cpu.run() is StopReason.BREAKPOINT
        assert cpu.pc == target

    def test_flush_decode_cache_drops_superblocks(self):
        cpu, _ = self._warm()
        cpu._superblock_failed.add(0x1234)
        before = cpu.superblock_invalidations
        cpu.flush_decode_cache()
        assert not cpu._superblock_cache
        assert not cpu._superblocks_by_page
        assert not cpu._superblock_failed
        assert cpu.superblock_invalidations > before


def _undecoded_words(cpu):
    """Words a cached block or superblock covers that were not decoded."""
    spans = [(block.start, block.end) for block in cpu._block_cache.values()]
    spans += [span for superblock in cpu._superblock_cache.values()
              for span in superblock.ranges]
    decoded = cpu._decoded_pages
    return [word for begin, end in spans for word in range(begin, end, 4)
            if word not in decoded.get(word >> 8, ())]


class TestDecodedWords:
    """Compiled code covers only decoded words, so a store to any other
    word on a code page returns after one set lookup."""

    @pytest.mark.parametrize("tier", ["blocks", "superblocks"])
    @pytest.mark.parametrize("source", [COUNTER_LOOP, SKIP_LOOP, CRC_PROGRAM,
                                        SMC_LOOP, COUNTDOWN, LOAD_LOOP],
                             ids=["counter", "skip", "crc32", "smc",
                                  "countdown", "load"])
    def test_compiled_code_covers_only_decoded_words(self, tier, source):
        cpu, _, __ = make_cpu(source)
        cpu.tier = tier
        cpu.block_profiler.hot_threshold = 2
        while cpu.run(max_instructions=7) is StopReason.INSTRUCTION_LIMIT:
            assert not _undecoded_words(cpu)
        assert cpu.last_stop is StopReason.HALT
        assert cpu._block_cache
        assert not _undecoded_words(cpu)

    @pytest.mark.parametrize("tier", ["blocks", "superblocks"])
    def test_host_code_writes_keep_the_invariant(self, tier):
        cpu, resolve = code_coherence._cpu(tier)
        code_coherence._host_write_sequence(cpu, resolve)
        assert cpu.block_invalidations > 0
        assert not _undecoded_words(cpu)


class TestTierSelection:
    def test_default_tier_is_blocks(self):
        assert Cpu().tier == "blocks"
        assert TIERS == ("interp", "blocks", "superblocks")

    def test_tier_round_trips(self):
        cpu = Cpu()
        for tier in TIERS:
            cpu.tier = tier
            assert cpu.tier == tier
        assert cpu.use_superblocks and cpu.use_blocks

    def test_unknown_tier_rejected(self):
        with pytest.raises(IssError):
            Cpu().tier = "turbo"


class TestBlockProfiler:
    def test_note_entry_reports_hot_at_threshold(self):
        profiler = BlockProfiler(hot_threshold=3)
        assert [profiler.note_entry(0x40) for __ in range(4)] \
            == [False, False, True, True]

    def test_state_round_trips(self):
        profiler = BlockProfiler()
        for pc, count in ((0x10, 5), (0x40, 2)):
            for __ in range(count):
                profiler.note_entry(pc)
        restored = BlockProfiler()
        restored.restore(profiler.state())
        assert restored.counts == profiler.counts

    def test_hot_blocks_ranking_is_deterministic_under_ties(self):
        profiler = BlockProfiler()
        profiler.restore([[8, 5], [0, 2], [4, 5]])
        assert profiler.hot_blocks() == [(4, 5), (8, 5), (0, 2)]


class TestTraceEvents:
    def _traced(self, block_trace):
        cpu, prog = _hot_cpu(COUNTER_LOOP)
        tracer = cpu.attach_tracer(Tracer())
        cpu.block_trace = block_trace
        assert cpu.run(max_instructions=50) is StopReason.INSTRUCTION_LIMIT
        cpu.memory.store_word(prog.symbols.resolve("loop"), 0)
        return [event.name for event in tracer.events()
                if event.category == "iss"]

    def test_compile_and_invalidate_events_when_opted_in(self):
        names = self._traced(block_trace=True)
        assert "superblock_compile" in names
        assert "superblock_invalidate" in names

    def test_events_gated_on_block_trace(self):
        names = self._traced(block_trace=False)
        assert "superblock_compile" not in names
        assert "superblock_invalidate" not in names
