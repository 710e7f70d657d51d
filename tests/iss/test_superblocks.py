"""The profile-guided superblock tier (repro.iss.superblocks).

The three-way differential suite in ``test_differential.py`` proves
tier equivalence over random instruction streams; these tests pin the
superblock *machinery* itself — profiler-driven promotion, chain
formation (loop unrolling, if-conversion), the budget precheck that
degrades the tier exactly where quantum batching degrades, and every
invalidation rule of the word-precise SMC contract.
"""

import pytest

from repro.apps.sources import checksum_routine
from repro.errors import IssError
from repro.iss import superblocks
from repro.iss.cpu import TIERS, Cpu, StopReason
from repro.iss.profile import HOT_THRESHOLD, BlockProfiler
from repro.iss.superblocks import (MAX_SUPERBLOCK_STEPS, UNIT_MEM, UNIT_OP,
                                   UNIT_PRED, build_superblock)
from repro.obs.tracer import Tracer
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


def _run_tiers(source, arm=None, **run_kwargs):
    """Run *source* on every tier; all must agree with the interpreter."""
    results = []
    for tier in TIERS:
        cpu, prog, __ = make_cpu(source)
        cpu.tier = tier
        cpu.block_profiler.hot_threshold = 2
        if arm is not None:
            arm(cpu, prog)
        reason = cpu.run(**run_kwargs)
        results.append((reason, list(cpu.regs), cpu.pc, cpu.cycles,
                        cpu.instructions))
    assert results[1] == results[0]
    assert results[2] == results[0]
    return results[0]


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
        cpu, prog = _hot_cpu(SKIP_LOOP)
        superblock = build_superblock(cpu, prog.symbols.resolve("loop"))
        assert superblock is not None
        assert any(unit[0] == UNIT_PRED for unit in superblock.units)

    def test_chain_never_crosses_breakpoint(self):
        cpu, prog = _hot_cpu(COUNTER_LOOP)
        start = prog.symbols.resolve("loop")
        cpu.breakpoints.add_code(start)
        # Entering *at* the breakpoint mirrors the block rule (resume
        # past it), but the chain must not loop back onto it: only the
        # single body block remains, so no superblock forms.
        assert build_superblock(cpu, start) is None


    def test_unrolled_loop_compiles_each_body_once(self, monkeypatch):
        bodies = []
        add = superblocks._CodeBuffer.add

        def recording_add(buffer, body_lines):
            bodies.append("\n".join(body_lines))
            return add(buffer, body_lines)

        monkeypatch.setattr(superblocks._CodeBuffer, "add", recording_add)
        cpu, prog = _hot_cpu(CRC_PROGRAM)
        superblock = build_superblock(
            cpu, prog.symbols.resolve("crc_bit_loop"))
        fused = [unit[1] for unit in superblock.units
                 if unit[0] not in (UNIT_MEM, UNIT_OP)]
        # One add() per fused unit, in unit order.
        assert len(bodies) == len(fused)
        for fn, body in zip(fused, bodies):
            for other_fn, other_body in zip(fused, bodies):
                assert (fn is other_fn) == (body == other_body)
        distinct = {id(fn) for fn in fused}
        assert len(distinct) == len(set(bodies))
        assert len(fused) >= 32
        assert len(distinct) <= 5


class TestEquivalence:
    @pytest.mark.parametrize("source", [COUNTER_LOOP, SKIP_LOOP, CRC_PROGRAM],
                             ids=["counter", "skip", "crc32"])
    def test_tiers_agree_to_halt(self, source):
        assert _run_tiers(source)[0] is StopReason.HALT

    def test_misprediction_side_exit_is_exact(self):
        # Stop mid-flight: the unrolled loop's final mispredicted
        # branch (and the instruction-limit stop) land on identical
        # pc/cycles/instructions in every tier.
        assert _run_tiers(COUNTER_LOOP, max_instructions=150)[0] \
            is StopReason.INSTRUCTION_LIMIT

    def test_budget_precheck_degrades_to_blocks(self):
        states = []
        for tier in ("blocks", "superblocks"):
            cpu, _, __ = make_cpu(COUNTER_LOOP)
            cpu.tier = tier
            cpu.block_profiler.hot_threshold = 2
            while cpu.run(max_instructions=4) \
                    is StopReason.INSTRUCTION_LIMIT:
                pass
            states.append((list(cpu.regs), cpu.pc, cpu.cycles,
                           cpu.instructions))
            if tier == "superblocks":
                # Promotion happened, but no 4-instruction budget can
                # cover a whole chain: execution stayed per-block.
                assert cpu.superblocks_compiled >= 1
                assert cpu.superblock_exits == 0
        assert states[0] == states[1]

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
        from repro.iss.breakpoints import WatchKind

        def arm(cpu, prog):
            watched = prog.symbols.variable_address("buf") + 4 * 20
            cpu.breakpoints.add_watch(watched, kind=WatchKind.WRITE)

        reason, regs, _pc, _cycles, _instructions = _run_tiers(
            source, arm=arm)
        assert reason is StopReason.WATCHPOINT
        assert regs[0] == 20


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
