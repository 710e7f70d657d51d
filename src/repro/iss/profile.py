"""Execution tracing and profiling.

Two observers attachable to a CPU:

- :class:`InstructionTracer` — a bounded ring of the most recent
  (pc, disassembly) pairs, for post-mortem debugging of guest code;
- :class:`CycleProfiler` — per-address cycle and execution counts,
  aggregated to symbols on demand: the "software timing analysis"
  workflow that HW/SW co-simulation enables (Liu et al., CODES'98 —
  reference [11] of the paper).

Observers cost one callback per retired instruction, so they are
opt-in: attach with :meth:`repro.iss.cpu.Cpu.attach_observer`.

:class:`BlockProfiler` is different: it is not an observer but the
always-on execution-count profiler of the block dispatch loop — one
dict bump per *block* entry, not per instruction — whose counts drive
superblock promotion (:mod:`repro.iss.superblocks`) and the
``profile.hot_blocks`` section of BENCH records.
:func:`side_exit_profile` ranks the superblock tier's side-exit
counters the same way for ``profile.side_exits``.
"""

from collections import deque

from repro.iss.disasm import disassemble_word

#: Block-entry count at which a block start is promoted to a
#: superblock.  Low enough that steady-state loops promote almost
#: immediately, high enough that one-shot code never pays a chain
#: compile.
HOT_THRESHOLD = 16


class BlockProfiler:
    """Execution counts by block start pc, driving tier promotion.

    The counts are a deterministic function of guest execution (the
    dispatch loop bumps them on every block entry), so they replay
    identically across serial/parallel runs and are serialized into
    checkpoints: a restored CPU promotes the same superblocks at the
    same points a straight-through run would.
    """

    __slots__ = ("counts", "hot_threshold")

    def __init__(self, hot_threshold=HOT_THRESHOLD):
        self.counts = {}
        self.hot_threshold = hot_threshold

    def note_entry(self, pc):
        """Count one entry at *pc*; True when the block is hot."""
        count = self.counts.get(pc, 0) + 1
        self.counts[pc] = count
        return count >= self.hot_threshold

    def hot_blocks(self, top=10):
        """The *top* block starts by entry count, as (pc, count).

        Ordered by descending count then ascending pc, so the ranking
        is deterministic under ties.
        """
        ranked = sorted(self.counts.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[:top]

    def state(self):
        """The counts in canonical serializable form: [[pc, count]]."""
        return [[pc, count] for pc, count in sorted(self.counts.items())]

    def restore(self, state):
        """Reinstall counts captured by :meth:`state`."""
        self.counts = {int(pc): int(count) for pc, count in state}


def side_exit_profile(cpus, limit=8):
    """Top side-exit sites merged across *cpus*.

    Returns ``[[hex_pc, count], ...]`` hottest first (ties by address)
    — the superblock starts whose chained traces most often bail out
    through a guard, i.e. the superblock re-profiling candidates.
    Plain JSON for the BENCH ``profile.side_exits`` section.
    """
    merged = {}
    for cpu in cpus:
        for pc, count in cpu.side_exit_sites.items():
            merged[pc] = merged.get(pc, 0) + count
    ranked = sorted(merged.items(), key=lambda item: (-item[1], item[0]))
    return [["0x%08x" % pc, count] for pc, count in ranked[:limit]]


class InstructionTracer:
    """Ring buffer of recently executed instructions."""

    def __init__(self, capacity=64):
        self.capacity = capacity
        self._ring = deque(maxlen=capacity)
        self.total = 0

    def on_retire(self, cpu, pc, decoded, cycles):
        """Retire callback: record (pc, instruction word)."""
        self.total += 1
        word = int.from_bytes(cpu.memory.read_bytes(pc, 4), "little")
        self._ring.append((pc, word))

    def entries(self):
        """The trace as (pc, disassembly-text) pairs, oldest first."""
        return [(pc, disassemble_word(word, pc))
                for pc, word in self._ring]

    def format(self):
        """The trace ring as 'address  disassembly' lines."""
        return "\n".join("0x%08x  %s" % entry for entry in self.entries())


class CycleProfiler:
    """Per-address cycle/instruction accounting."""

    def __init__(self):
        self.cycles_by_pc = {}
        self.counts_by_pc = {}
        self.total_cycles = 0
        self.total_instructions = 0

    def on_retire(self, cpu, pc, decoded, cycles):
        """Retire callback: accumulate cycles/counts for this pc."""
        self.cycles_by_pc[pc] = self.cycles_by_pc.get(pc, 0) + cycles
        self.counts_by_pc[pc] = self.counts_by_pc.get(pc, 0) + 1
        self.total_cycles += cycles
        self.total_instructions += 1

    def hot_addresses(self, top=10):
        """The *top* addresses by cycles, as (pc, cycles, count)."""
        ranked = sorted(self.cycles_by_pc.items(), key=lambda kv: -kv[1])
        return [(pc, cycles, self.counts_by_pc[pc])
                for pc, cycles in ranked[:top]]

    def by_symbol(self, symbols):
        """Aggregate cycles per label region.

        Addresses are attributed to the nearest preceding code label,
        giving a flat function-level profile.
        """
        if not symbols.labels:
            return {}
        boundaries = sorted(symbols.labels.items(), key=lambda kv: kv[1])
        totals = {}
        for pc, cycles in self.cycles_by_pc.items():
            owner = None
            for name, address in boundaries:
                if address <= pc:
                    owner = name
                else:
                    break
            if owner is not None:
                totals[owner] = totals.get(owner, 0) + cycles
        return totals

    def format_by_symbol(self, symbols):
        """The per-symbol profile as aligned text with shares."""
        totals = self.by_symbol(symbols)
        lines = []
        for name, cycles in sorted(totals.items(), key=lambda kv: -kv[1]):
            share = 100.0 * cycles / max(1, self.total_cycles)
            lines.append("%-20s %10d cycles  %5.1f%%"
                         % (name, cycles, share))
        return "\n".join(lines)
