"""Word-precise code coherence for host-side writes (Cpu.invalidate_code).

Host writers — the GDB stub's ``M``/``X`` handlers and the DMI tier's
kernel writes — keep the decode, block and superblock caches coherent
word by word, exactly like guest stores: a write into data that shares
a 256-byte page with code throws nothing away, a write over a decoded
instruction is executed on every tier, and the process backend
invalidates exactly what a serial CPU would have.
"""

import pytest

from repro.cosim.channels import Pipe
from repro.cosim.dmi import GRANT_OUT, DmiTable
from repro.cosim.metrics import CosimMetrics
from repro.gdb.client import GdbClient
from repro.gdb.stub import GdbStub
from repro.iss import isa
from repro.iss.assembler import assemble
from repro.iss.cpu import TIERS, Cpu, StopReason
from repro.iss.loader import load_program
from repro.iss.remote import attach_remote
from repro.router.system import RouterConfig, RouterSystem
from repro.sysc.simtime import MS, US

#: A counted loop whose code and data share the first 256-byte page.
#: ``site`` and ``next`` are two adjacent decoded words the tests patch.
LOOP = """
    li r0, 0
    li r8, 40
loop:
    la r2, data
    lw r3, [r2]
    add r4, r4, r3
site:
    li r9, 1
next:
    li r10, 2
    addi r0, r0, 1
    bne r0, r8, loop
    halt
data:
    .word 5
"""

#: Counters that move only when compiled code is thrown away or rebuilt.
JIT_COUNTERS = ("blocks_compiled", "block_hits", "block_invalidations",
                 "superblocks_compiled", "superblock_exits",
                 "superblock_invalidations")

#: Instructions run before the host writes: enough loop iterations for
#: the superblock tier to promote the loop (hot threshold 16).
WARMUP = 150


def _cpu(tier, remote=False):
    """A CPU running :data:`LOOP` with no syscall handlers attached, so
    the process backend accepts it."""
    program = assemble(LOOP)
    cpu = Cpu()
    cpu.tier = tier
    load_program(cpu, program)
    if remote and attach_remote(cpu) is None:
        pytest.skip("process backend unavailable on this host")
    return cpu, program.symbols.resolve


def _session(cpu):
    pipe = Pipe("coherence")
    stub = GdbStub(cpu, pipe.b)
    return GdbClient(pipe.a, pump=stub.service_pending)


def _counters(cpu):
    return {name: getattr(cpu, name) for name in JIT_COUNTERS}


def _run_to_halt(cpu):
    """Run to HALT, then stop a process worker (its final state and
    counters are synced back into *cpu*)."""
    assert cpu.run(max_instructions=100_000) is StopReason.HALT
    if cpu._remote is not None:
        cpu._remote.detach()


def _word(name, **fields):
    return isa.encode(name, **fields).to_bytes(4, "little")


class TestDataWritesKeepCompiledCode:
    @pytest.mark.parametrize("tier", TIERS)
    def test_m_into_data_on_a_code_page_invalidates_nothing(self, tier):
        control, __ = _cpu(tier)
        assert control.run(max_instructions=WARMUP) \
            is StopReason.INSTRUCTION_LIMIT
        _run_to_halt(control)

        cpu, resolve = _cpu(tier)
        assert (resolve("data") >> 8) == (resolve("site") >> 8)
        assert cpu.run(max_instructions=WARMUP) \
            is StopReason.INSTRUCTION_LIMIT
        before = _counters(cpu)
        _session(cpu).write_memory_word(resolve("data"), 7)
        assert _counters(cpu) == before
        _run_to_halt(cpu)
        # The written value is read, and no block or superblock was
        # invalidated or compiled again because of the write.
        assert cpu.regs[4] != control.regs[4]
        for name in ("blocks_compiled", "block_invalidations",
                     "superblock_invalidations"):
            assert getattr(cpu, name) == getattr(control, name), name


class TestCodeWritesExecute:
    @pytest.mark.parametrize("packet", ["M", "X"])
    @pytest.mark.parametrize("tier", TIERS)
    def test_patched_instruction_executes(self, tier, packet):
        cpu, resolve = _cpu(tier)
        assert cpu.run(max_instructions=WARMUP) \
            is StopReason.INSTRUCTION_LIMIT
        assert cpu.regs[9] == 1
        client = _session(cpu)
        patch = _word("li", rd=9, imm=77)
        if packet == "M":
            client.write_memory(resolve("site"), patch)
        else:
            client.write_memory_binary(resolve("site"), patch)
        _run_to_halt(cpu)
        assert cpu.regs[9] == 77
        if tier != "interp":
            assert cpu.block_invalidations >= 1

    @pytest.mark.parametrize("tier", TIERS)
    def test_unaligned_write_invalidates_every_overlapping_word(self, tier):
        """A 2-byte ``M`` at ``site + 3`` straddles two decoded words:
        the top byte of ``site`` (opcode and rd's high bits) and the low
        byte of ``next`` (its immediate).  Both must be re-decoded."""
        cpu, resolve = _cpu(tier)
        site = resolve("site")
        assert resolve("next") == site + 4
        assert cpu.run(max_instructions=WARMUP) \
            is StopReason.INSTRUCTION_LIMIT
        first = _word("li", rd=1, imm=1)      # was li r9, 1
        second = _word("li", rd=10, imm=0x33)  # was li r10, 2
        assert first[:3] == _word("li", rd=9, imm=1)[:3]
        assert second[1:] == _word("li", rd=10, imm=2)[1:]
        _session(cpu).write_memory(site + 3, first[3:] + second[:1])
        assert cpu.memory.read_bytes(site, 8) == first + second
        for word in (site, site + 4):
            assert word not in cpu._decode_cache
            assert not any(block.covers(word)
                           for block in cpu._block_cache.values())
        _run_to_halt(cpu)
        assert cpu.regs[1] == 1
        assert cpu.regs[10] == 0x33


def _host_write_sequence(cpu, resolve):
    """Data write, code patch over ``M`` and ``X``, and an unaligned
    straddling patch, each between runs; returns the final state."""
    client = _session(cpu)
    cpu.run(max_instructions=WARMUP)
    client.write_memory_word(resolve("data"), 9)
    cpu.run(max_instructions=40)
    client.write_memory(resolve("site"), _word("li", rd=9, imm=77))
    cpu.run(max_instructions=40)
    client.write_memory_binary(resolve("next"), _word("li", rd=10, imm=5))
    cpu.run(max_instructions=25)
    client.write_memory(resolve("site") + 3,
                        _word("li", rd=1, imm=77)[3:]
                        + _word("li", rd=10, imm=6)[:1])
    _run_to_halt(cpu)
    return list(cpu.regs), cpu.pc, cpu.cycles, cpu.instructions, \
        _counters(cpu)


class TestSerialEqualsProcess:
    @pytest.mark.parametrize("tier", TIERS)
    def test_host_writes_match_under_attach_remote(self, tier):
        serial = _host_write_sequence(*_cpu(tier))
        remote = _host_write_sequence(*_cpu(tier, remote=True))
        assert remote == serial
        regs = serial[0]
        assert (regs[1], regs[9], regs[10]) == (77, 77, 6)

    def test_code_writes_ship_only_when_queued(self):
        cpu, resolve = _cpu("blocks", remote=True)
        remote = cpu._remote
        cpu.run(max_instructions=WARMUP)
        assert remote.pending_code_writes == []
        cpu.invalidate_code(resolve("data"), 4)
        assert remote.pending_code_writes == [(resolve("data"), 4)]
        remote.sync()
        assert remote.pending_code_writes == []
        _run_to_halt(cpu)


class _SentStates:
    """Wraps a worker pipe, keeping the state of every command sent."""

    def __init__(self, conn):
        self.conn = conn
        self.states = []

    def send(self, message):
        if len(message) == 4:            # (kind, state, limits...)
            self.states.append(message[1])
        self.conn.send(message)

    def __getattr__(self, name):
        return getattr(self.conn, name)


class TestZeroLengthWrites:
    """A zero-length ``M``/``X`` writes nothing, so it drops nothing: no
    block, superblock or decode, and no code write for a worker."""

    @pytest.mark.parametrize("remote", [False, True],
                             ids=["serial", "process"])
    @pytest.mark.parametrize("packet", ["M", "X"])
    @pytest.mark.parametrize("tier", ["blocks", "superblocks"])
    def test_zero_length_write_keeps_compiled_code(self, tier, packet,
                                                   remote, monkeypatch):
        control, __ = _cpu(tier)
        control.run(max_instructions=WARMUP)
        control.run(max_instructions=40)
        cpu, resolve = _cpu(tier, remote=remote)
        sent = None
        if remote:
            sent = _SentStates(cpu._remote.conn)
            monkeypatch.setattr(cpu._remote, "conn", sent)
        assert cpu.run(max_instructions=WARMUP) \
            is StopReason.INSTRUCTION_LIMIT
        before = _counters(cpu)
        if tier == "superblocks":
            assert before["superblocks_compiled"] > 0
        stub = GdbStub(cpu, Pipe("coherence").b)
        header = "%x,0:" % (resolve("loop") + 2)
        if packet == "M":
            assert stub._write_memory(header) == "OK"
        else:
            assert stub._write_memory_binary(header.encode("ascii")) == "OK"
        assert _counters(cpu) == before
        assert cpu.run(max_instructions=40) is StopReason.INSTRUCTION_LIMIT
        assert _counters(cpu) == _counters(control)
        assert (cpu.regs, cpu.pc, cpu.cycles) \
            == (control.regs, control.pc, control.cycles)
        if remote:
            assert cpu._remote.pending_code_writes == []
            assert len(sent.states) == 2
            assert not any("code_writes" in state for state in sent.states)
            cpu._remote.detach()


class TestDmiWriteCoherence:
    """A DMI kernel write over a decoded instruction: the worker, not
    only a serial CPU, must drop the stale decode."""

    @pytest.mark.parametrize("remote", [False, True],
                             ids=["serial", "process"])
    def test_dmi_write_over_decoded_code(self, remote):
        cpu, resolve = _cpu("blocks", remote=remote)
        assert cpu.run(max_instructions=1) is StopReason.INSTRUCTION_LIMIT
        table = DmiTable("cpu0", cpu, CosimMetrics())
        site = resolve("site")
        grant = table.acquire(site, 4, GRANT_OUT)
        table.write_words(grant, site, [isa.encode("li", rd=9, imm=77)])
        _run_to_halt(cpu)
        assert cpu.regs[9] == 77
        # A kernel write is not guest SMC: the grant survives.
        assert table.acquire(site, 4, GRANT_OUT) is grant


@pytest.mark.parametrize("scheme", ["gdb-kernel", "gdb-wrapper"])
def test_table1_cell_invalidates_no_blocks(scheme):
    """The paper's Table 1 cell: every ``iss_out`` transfer is an RSP
    ``M`` into a guest data variable, which must not cost compiled
    code."""
    system = RouterSystem(RouterConfig(
        scheme=scheme, inter_packet_delay=30 * US, sync_quantum=1,
        dmi=False, tier="blocks", parallel=None))
    system.run(1 * MS)
    stats = system.stats()
    system.close()
    assert stats.forwarded > 0
    assert system.metrics.transfer_transactions > 0
    assert system.metrics.block_invalidations == 0
    assert system.metrics.blocks_compiled < 100
