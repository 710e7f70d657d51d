from types import SimpleNamespace

from repro.iss.profile import (CycleProfiler, InstructionTracer,
                               side_exit_profile)
from repro.obs.scenarios import quickstart_config, run_traced_scenario
from tests.support import make_cpu, run_to_halt

_PROGRAM = """
        .entry main
main:
        li   r0, 0
        li   r1, 5
loop:
        call work
        addi r0, r0, 1
        bne  r0, r1, loop
        halt
work:
        mul  r2, r0, r0
        mul  r2, r2, r0
        ret
"""


class TestInstructionTracer:
    def test_records_retired_instructions(self):
        cpu, __, __ = make_cpu("li r0, 1\nli r1, 2\nhalt")
        tracer = cpu.attach_observer(InstructionTracer())
        run_to_halt(cpu)
        texts = [text for __, text in tracer.entries()]
        assert texts == ["li r0, 1", "li r1, 2", "halt"]
        assert tracer.total == 3

    def test_ring_keeps_only_last_n(self):
        cpu, __, __ = make_cpu(_PROGRAM)
        tracer = cpu.attach_observer(InstructionTracer(capacity=4))
        run_to_halt(cpu)
        entries = tracer.entries()
        assert len(entries) == 4
        assert entries[-1][1] == "halt"

    def test_format_renders_addresses(self):
        cpu, __, __ = make_cpu("halt")
        tracer = cpu.attach_observer(InstructionTracer())
        run_to_halt(cpu)
        assert tracer.format() == "0x00000000  halt"

    def test_detach_stops_recording(self):
        cpu, __, __ = make_cpu("nop\nnop\nhalt")
        tracer = cpu.attach_observer(InstructionTracer())
        cpu.step()
        cpu.detach_observer(tracer)
        run_to_halt(cpu)
        assert tracer.total == 1


class TestCycleProfiler:
    def test_totals_match_cpu_counters(self):
        cpu, __, __ = make_cpu(_PROGRAM)
        profiler = cpu.attach_observer(CycleProfiler())
        run_to_halt(cpu)
        assert profiler.total_instructions == cpu.instructions
        assert profiler.total_cycles == cpu.cycles

    def test_hot_addresses_ranked_by_cycles(self):
        cpu, program, __ = make_cpu(_PROGRAM)
        profiler = cpu.attach_observer(CycleProfiler())
        run_to_halt(cpu)
        hot = profiler.hot_addresses(top=2)
        # The two mul instructions (3 cycles x 5 iterations) dominate.
        work = program.symbols.labels["work"]
        assert {pc for pc, __, __ in hot} == {work, work + 4}
        assert hot[0][1] == 15

    def test_by_symbol_attribution(self):
        cpu, program, __ = make_cpu(_PROGRAM)
        profiler = cpu.attach_observer(CycleProfiler())
        run_to_halt(cpu)
        totals = profiler.by_symbol(program.symbols)
        assert set(totals) == {"main", "loop", "work"}
        assert totals["work"] > totals["loop"] > totals["main"]
        assert sum(totals.values()) == cpu.cycles

    def test_format_by_symbol_shows_shares(self):
        cpu, program, __ = make_cpu(_PROGRAM)
        profiler = cpu.attach_observer(CycleProfiler())
        run_to_halt(cpu)
        text = profiler.format_by_symbol(program.symbols)
        assert "work" in text and "%" in text
        assert text.splitlines()[0].startswith("work")

    def test_no_labels_gives_empty_profile(self):
        cpu, program, __ = make_cpu("nop\nhalt")
        profiler = cpu.attach_observer(CycleProfiler())
        run_to_halt(cpu)
        assert profiler.by_symbol(program.symbols) == {}


def test_side_exit_profile_merges_ranks_and_limits():
    cpus = [SimpleNamespace(side_exit_sites={0x40: 3, 0x80: 1}),
            SimpleNamespace(side_exit_sites={0x40: 2, 0x20: 5})]
    profile = side_exit_profile(cpus)
    assert profile == [["0x00000020", 5], ["0x00000040", 5],
                       ["0x00000080", 1]]
    assert side_exit_profile(cpus, limit=1) == [["0x00000020", 5]]
    assert side_exit_profile([]) == []


def test_side_exit_analytics_on_a_checksum_guest():
    run = run_traced_scenario(quickstart_config(
        "gdb-kernel", tier="superblocks", algorithm="crc32",
        checksum_rounds=8, sync_quantum=8))
    cpus = run.system.cpus
    side_exits = sum(cpu.superblock_side_exits for cpu in cpus)
    assert side_exits > 0      # data-dependent CRC bit branches
    assert side_exits <= sum(cpu.superblock_exits for cpu in cpus)
    profile = side_exit_profile(cpus)
    assert profile
    assert sum(count for __, count in profile) <= side_exits
    # The counter also lands on the folded metrics bundle.
    run.system.fold_cpu_counters()
    assert run.system.metrics.superblock_side_exits == side_exits
    run.system.close()
