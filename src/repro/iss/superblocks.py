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
  not-taken.  A mispredicted branch is a **side exit**: the
  generated code writes the exact pc, charges the exact cycle cost of
  the path taken, and leaves.
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

Each superblock compiles into **one generated Python function** over
``(cpu, regs, memory, instruction_limit, cycle_limit)``.  Pure ALU
instructions (no memory, no faults, no pc writes, constant cycle cost)
become inline register statements, so straight-line code pays no
per-step call, accumulate or side-exit test.  Predicted branches and
if-converted skips become inline ``if`` statements.  Memory and
faultable steps call their block closures directly, with the block
executor's exact per-step checks, preserving observable equivalence
(watchpoints, SMC, IRQ delivery, fault pc and counters) instruction for
instruction.  A ``lw``/``lb``/``lbu`` step first tries an **inline RAM
load**: a direct read of ``memory.data`` with the same ``load_count``
bump, taken only for an in-bounds, aligned access while no MMIO region
exists and no watchpoint is armed — exactly when the closure would
have read RAM and observed nothing else.

A side exit back to the superblock's **own start** (a nested loop's
inner branch falling through to the outer loop's next pass, e.g. the
guest CRC-32's byte loop) **re-enters in place**: the function loops to
its top exactly when the dispatcher would have re-entered it — the
remaining budget still covers the superblock's minimum (below), no
enabled IRQ is pending, and (settled at build time, since any
breakpoint change drops every superblock) no breakpoint sits on the
start.  Each pass commits ``cycles`` and ``instructions`` as the round
trip did, and counts as one side exit and one profiled entry at the
start, so every counter reads as if the dispatcher had run the pass.

An unrolled loop is **re-rolled**: the longest run of repeated units
(a counted loop's body, unrolled about 32 times into a 256-step
CRC-32 chain) is emitted once inside a ``for`` loop, so the generated
text does not grow with unrolling.  Identical text compiles once into
a bounded process-wide cache, and CPUs that run the same program
share its code object.

The re-rolled loop is **budget-bounded**: on entry the function
computes, from the static worst case of the prefix and of one pass,
how many passes ``m`` the remaining instruction and cycle limits cover.
When they cover the whole chain it runs all of it; otherwise it runs
``m`` passes and side-exits at the loop head, charging the prefix, ``m``
times the pass and the dynamic costs exactly.  Its **minimum** — the
prefix plus one pass, or the whole chain when there is no loop — is
the dispatcher's budget precheck, so a superblock runs on any budget it
can make progress on and never passes a limit.

Cycle and instruction accounting is folded into compile-time
constants: every exit, including one from inside the re-rolled loop,
commits the static cost of the path it took (plus a pass-index term in
the loop), and only the dynamic parts (closure cycle costs, the
if-converted span) accumulate in locals.  Every exit commits ``pc``,
``cycles``, ``instructions`` and the superblock exit counters itself,
including the in-place re-entries before it: a mispredicted branch
writes its exact pc, and a faulting step contributes neither cycles
nor an instruction.  A superblock only runs when the remaining budget
covers its minimum, so it degrades to per-block execution exactly where
quantum batching degrades to lock-step.

Invalidation mirrors the block contract word-precisely: the CPU
registers every page a superblock's constituent blocks touch, and a
guest store overlapping any chained instruction word — or any
breakpoint change, or a host flush — drops the superblock back to its
constituent blocks (see ``Cpu._on_code_store``).
"""

import functools

from repro.iss import isa

_WORD = isa.WORD_MASK

#: Upper bound on instructions per superblock.  Large enough to unroll
#: a hot loop many times (amortizing the outer-loop checks), small
#: enough that typical quantum cycle budgets still cover whole
#: superblocks (a budget covering only part of a re-rolled loop runs
#: the passes it covers).
MAX_SUPERBLOCK_STEPS = 256

#: Upper bound on chained blocks (unrolled iterations count each time).
MAX_CHAIN_BLOCKS = 64

#: Distinct generated superblock sources kept compiled, process-wide.
MAX_COMPILED_SOURCES = 512

_UNCONDITIONAL = ("jmp", "jal")
_CONDITIONAL = frozenset(
    ["beq", "bne", "blt", "bge", "bltu", "bgeu"])

# -- instruction templates ----------------------------------------------------
#
# One source statement per instruction, identical in effect to the
# closure in repro.iss.blocks (same masking; the signed view is
# to_signed32 inlined branchlessly: (x ^ 0x80000000) - 0x80000000 on a
# masked value), so generating code cannot change a single register
# bit.  Only ops with constant cycle cost and no cpu/memory/pc access
# have a template; "" is a no-op.

_S1 = "((r[{rs1}] ^ 2147483648) - 2147483648)"
_S2 = "((r[{rs2}] ^ 2147483648) - 2147483648)"

_ALU_TEMPLATES = {
    "nop": "",
    "mov": "r[{rd}] = r[{rs1}]",
    "not": "r[{rd}] = (~r[{rs1}]) & 4294967295",
    "add": "r[{rd}] = (r[{rs1}] + r[{rs2}]) & 4294967295",
    "sub": "r[{rd}] = (r[{rs1}] - r[{rs2}]) & 4294967295",
    "mul": "r[{rd}] = (r[{rs1}] * r[{rs2}]) & 4294967295",
    "and": "r[{rd}] = r[{rs1}] & r[{rs2}]",
    "or": "r[{rd}] = r[{rs1}] | r[{rs2}]",
    "xor": "r[{rd}] = r[{rs1}] ^ r[{rs2}]",
    "shl": "r[{rd}] = (r[{rs1}] << (r[{rs2}] & 31)) & 4294967295",
    "shr": "r[{rd}] = r[{rs1}] >> (r[{rs2}] & 31)",
    "sar": "r[{rd}] = (" + _S1 + " >> (r[{rs2}] & 31)) & 4294967295",
    "slt": "r[{rd}] = int(" + _S1 + " < " + _S2 + ")",
    "sltu": "r[{rd}] = int(r[{rs1}] < r[{rs2}])",
    "addi": "r[{rd}] = (r[{rs1}] + ({imm})) & 4294967295",
    "andi": "r[{rd}] = r[{rs1}] & ({imm})",
    "ori": "r[{rd}] = r[{rs1}] | ({imm})",
    "xori": "r[{rd}] = r[{rs1}] ^ ({imm})",
    "shli": "r[{rd}] = (r[{rs1}] << {shift}) & 4294967295",
    "shri": "r[{rd}] = r[{rs1}] >> {shift}",
    "li": "r[{rd}] = {word}",
    "lui": "r[{rd}] = {upper}",
}

#: Branch conditions, identical in effect to the ``_branch_factory``
#: closures in :mod:`repro.iss.blocks`.
_BRANCH_TESTS = {
    "beq": "r[{rs1}] == r[{rs2}]",
    "bne": "r[{rs1}] != r[{rs2}]",
    "blt": _S1 + " < " + _S2,
    "bge": _S1 + " >= " + _S2,
    "bltu": "r[{rs1}] < r[{rs2}]",
    "bgeu": "r[{rs1}] >= r[{rs2}]",
}


#: Inline RAM paths of the load steps: ``(bound, value)`` sources.  The
#: path runs when *bound* holds for the effective address ``a`` — in
#: bounds (``top`` is the RAM size, or 0 while an MMIO region or an
#: armed watchpoint could observe the access) and, for words, aligned,
#: which also keeps all four bytes in bounds (the RAM size is a multiple
#: of 4) — and reads exactly what ``Memory.load_word``/``load_byte``
#: return.
_LOAD_TEMPLATES = {
    "lw": ("a < top and not a & 3",
           "r[{rd}] = _from_bytes(data[a:a + 4], 'little')"),
    "lb": ("a < top", "r[{rd}] = ((data[a] ^ 128) - 128) & 4294967295"),
    "lbu": ("a < top", "r[{rd}] = data[a]"),
}

#: The dispatcher's re-entry conditions after a side exit back to the
#: superblock's own start; ``il``/``cl`` are the limits less the
#: superblock's minimum.  Its breakpoint check is settled at build
#: time, and only a ``sys``/``wfi``/``halt``, which ends every chain,
#: halts or parks the core.
_REENTER = ("cpu.instructions <= il and cpu.cycles <= cl"
            " and not (cpu.irq_pending and cpu.interrupts_enabled)")


def _source(templates, d):
    """The template for decoded instruction *d*, filled with its fields."""
    return templates[d.spec.name].format(
        rd=d.rd, rs1=d.rs1, rs2=d.rs2, imm=d.imm, shift=d.imm & 31,
        word=d.imm & _WORD, upper=(d.imm << 16) & _WORD)


# -- compile-time units ------------------------------------------------------
#
# The builder first cuts the chain into units: hashable tuples whose
# first three fields are ``(kind, cycles, retired)``, the unit's static
# cost on its straight-through path.
#
# - ``("alu", cycles, count, statements)``: a run of pure ALU
#   instructions.
# - ``("pred", cycles, count, statements, test, span, span_count,
#   span_cycles)``: an if-converted forward skip.  The static cost is
#   the skipping path; when *test* holds, the *span* runs and retires
#   ``span_count`` more instructions for ``span_cycles`` more cycles.
# - ``("branch", cycles, count, statements, test, exit_pc,
#   test_cycles)``: an ALU run ending in a statically-predicted
#   conditional.  When *test* holds the prediction missed: the
#   superblock side-exits to *exit_pc* having spent *test_cycles* on
#   the unit.  ``exit_pc`` None marks a branch to its own fall-through,
#   whose two paths differ only in cost.
# - ``("mem", 0, 1, closure, worst)`` and ``("op", 0, 1, closure,
#   worst)``: a block closure whose cycle cost is its return value, at
#   most *worst* (its instruction's cost, as in ``block.max_cycles``).
#   Memory steps are followed by the watchpoint/SMC/IRQ side-exit check.
# - ``("load", 2, 1, closure, address, bound, value)``: a RAM load with
#   an inline path (see ``_LOAD_TEMPLATES``); otherwise its closure runs
#   as a memory step, charged its return value less the static 2.
#
# Equal units at equal pcs behave identically, so a repeated run of
# them is one loop period.


def _statements(pending):
    """The statements and total cycles of ``(statement, cycles)`` pairs."""
    return (tuple(statement for statement, __ in pending if statement),
            sum(cycles for __, cycles in pending))


def _alu_unit(pending):
    statements, cycles = _statements(pending)
    return ("alu", cycles, len(pending), statements)


def _branch_unit(pending, decoded, branch_pc, fall_pc, predicted):
    """An ALU run plus the statically-predicted conditional ending it."""
    statements, cycles = _statements(pending)
    spec = decoded.spec
    test = _source(_BRANCH_TESTS, decoded)
    target = (branch_pc + 4 + 4 * decoded.imm) & _WORD
    count = len(pending) + 1
    taken = cycles + spec.cycles + spec.taken_extra
    fall = cycles + spec.cycles
    if target == fall_pc:
        return ("branch", fall, count, statements, test, None, taken)
    if predicted == target:
        return ("branch", taken, count, statements, "not (%s)" % test,
                fall_pc, fall)
    return ("branch", fall, count, statements, test, target, taken)


def _load_unit(closure, decoded):
    """A load step: its closure plus the inline RAM path's sources."""
    bound, value = _LOAD_TEMPLATES[decoded.spec.name]
    return ("load", 2, 1, closure,
            "a = (r[%d] + (%d)) & 4294967295" % (decoded.rs1, decoded.imm),
            bound, value.format(rd=decoded.rd))


def _predicated_unit(pending, decoded, span):
    """An ALU run plus a forward conditional skipping the pure *span*.

    The two architectural paths rejoin inside the superblock, so there
    is no side exit; each path retires and charges exactly what the
    interpreter would.
    """
    statements, cycles = _statements(pending)
    span_statements, span_cycles = _statements(span)
    spec = decoded.spec
    return ("pred", cycles + spec.cycles + spec.taken_extra,
            len(pending) + 1, statements,
            "not (%s)" % _source(_BRANCH_TESTS, decoded),
            span_statements, len(span), span_cycles - spec.taken_extra)


# -- code generation ----------------------------------------------------------


def _find_loop(units, pcs):
    """The repetition that saves the most text: ``(prefix, period, passes)``.

    ``units[prefix:prefix + period]``, starting at ``pcs[prefix:prefix +
    period]``, repeats *passes* times back to back, so every pass starts
    at the same pc; *passes* is 0 when no run of units repeats.
    Candidate periods are the distances between consecutive equal
    units, so any period holding some unit once is found; the shortest
    period and the earliest start win ties.
    """
    ids = {}
    keys = [ids.setdefault(key, len(ids)) for key in zip(units, pcs)]
    last_seen = {}
    periods = set()
    for index, key in enumerate(keys):
        if key in last_seen:
            periods.add(index - last_seen[key])
        last_seen[key] = index
    best = (0, 0, 0)
    saved = 0
    for period in sorted(periods):
        run = 0
        for index in range(period, len(keys)):
            if keys[index] != keys[index - period]:
                run = 0
                continue
            run += 1
            passes = 1 + run // period
            if (passes - 1) * period > saved:
                saved = (passes - 1) * period
                best = (index + 1 - run - period, period, passes)
    return best


def _count(value, per_pass, index="i"):
    """Source for a static count that grows by *per_pass* each loop pass.

    *index* names the passes completed so far.
    """
    if per_pass:
        return "%d + %d * %s" % (value, per_pass, index)
    return "%d" % value


def _leave(start, cycles, retired, reenter):
    """Source committing a side exit of the superblock at *start*.

    *cycles* and *retired* are the static parts' sources; the dynamic
    ``cy``/``n`` are added, and the ``k`` in-place re-entries so far
    when the superblock re-enters.
    """
    return "_exit(cpu, %d, cy + %s, n + %s%s)" % (
        start, cycles, retired, ", k" if reenter else "")


def _bound(units):
    """The most ``(cycles, retired)`` any path through *units* costs."""
    cycles = retired = 0
    for unit in units:
        kind = unit[0]
        if kind == "pred":
            cycles += unit[1] + max(unit[7], 0)
            retired += unit[2] + unit[6]
        elif kind == "branch":
            cycles += max(unit[1], unit[6])
            retired += unit[2]
        elif kind in ("mem", "op"):
            cycles += unit[4]
            retired += 1
        else:
            cycles += unit[1]
            retired += unit[2]
    return cycles, retired


def _emit(units, out, pad, start, spent, per_pass, params, jump=None):
    """Append the source of *units* to *out*; returns the static cost.

    *spent* is the static ``(cycles, retired)`` before the first unit
    and *per_pass* the static cost of one pass of the enclosing loop
    (zeros outside one), so an exit in pass ``i`` charges ``spent + i *
    per_pass`` plus the dynamic ``cy``/``n``.  *params* maps each
    called closure to its argument name.  *jump* is the statement that
    re-enters the superblock in place (``continue``, or ``break`` inside
    the re-rolled loop); None when it never re-enters, and otherwise
    every exit also commits the ``k`` re-entries so far.
    """
    cycles, retired = spent

    def total(unit_cycles, unit_retired):
        return (_count(cycles + unit_cycles, per_pass[0]),
                _count(retired + unit_retired, per_pass[1]))

    def leave(unit_cycles, unit_retired):
        return _leave(start, *total(unit_cycles, unit_retired),
                      reenter=jump is not None)

    for unit in units:
        kind = unit[0]
        if kind in ("mem", "op", "load"):
            name = params.setdefault(unit[3], "c%d" % len(params))
            step = pad
            if kind == "load":
                out += [pad + unit[4],
                        pad + "if %s:" % unit[5],
                        pad + "    " + unit[6],
                        pad + "    memory.load_count += 1",
                        pad + "else:"]
                step = pad + "    "
            # A faulting step contributes neither cycles nor an
            # instruction; its closure already wrote cpu.pc.
            out += [step + "try:",
                    step + "    cy += %s(cpu, r, memory)%s" % (
                        name, " - %d" % unit[1] if unit[1] else ""),
                    step + "except BaseException:",
                    step + "    " + leave(0, 0),
                    step + "    raise"]
            if kind != "op":
                out += [step + "if (cpu._watch_hit is not None"
                               " or cpu._code_dirty",
                        step + "        or (cpu.irq_pending"
                               " and cpu.interrupts_enabled)):",
                        step + "    return " + leave(unit[1], 1)]
        else:
            out += [pad + statement for statement in unit[3]]
            if kind == "pred":
                out.append(pad + "if %s:" % unit[4])
                out += [pad + "    " + statement for statement in unit[5]]
                out.append(pad + "    n += %d" % unit[6])
                if unit[7]:
                    out.append(pad + "    cy += %d" % unit[7])
            elif kind == "branch" and unit[5] is None:
                out += [pad + "if %s:" % unit[4],
                        pad + "    cy += %d" % (unit[6] - unit[1])]
            elif kind == "branch" and jump and unit[5] == start:
                # A side exit back to the start: commit this pass, then
                # loop to the top where the dispatcher would re-enter.
                spent_cycles, spent_retired = total(unit[6], unit[2])
                out += [pad + "if %s:" % unit[4],
                        pad + "    cpu.cycles += cy + " + spent_cycles,
                        pad + "    cpu.instructions += n + " + spent_retired,
                        pad + "    if %s:" % _REENTER,
                        pad + "        k += 1",
                        pad + "        " + jump,
                        pad + "    cpu.pc = %d" % start,
                        pad + "    return _exit(cpu, %d, 0, 0, k)" % start]
            elif kind == "branch":
                out += [pad + "if %s:" % unit[4],
                        pad + "    cpu.pc = %d" % unit[5],
                        pad + "    return " + leave(unit[6], unit[2])]
        cycles += unit[1]
        retired += unit[2]
    return cycles, retired


def _re_enters(unit, start):
    """True for a branch unit whose side exit lands on *start*."""
    return unit[0] == "branch" and unit[5] == start


def _generate(start, units, pcs, end_pc, whole, reenter):
    """The source of one superblock, the closures it takes, and its minimum.

    The source defines ``_make(c0, c1, ...)``, which binds the block
    closures the units call and returns the superblock function.  The
    longest repeated run of units is emitted once inside a ``for``
    loop, so the text does not grow with unrolling, and the function
    runs as many passes of it as the limits cover: when *whole*, the
    chain's worst-case ``(cycles, retired)``, does not fit, it runs the
    ``m`` passes that do, then side-exits at the loop head.  The
    minimum is the worst case of the prefix plus one pass (*whole*
    without a loop), the least budget on which the function makes
    progress without passing a limit.  With *reenter*, the body runs
    inside ``while True`` and a side exit back to *start* loops to its
    top while the limits still cover the minimum.
    """
    params = {}
    body = []
    head = ["def _make(%s):",
            "    def superblock(cpu, r, memory, il, cl):"]
    pad = " " * 8
    if any(unit[0] == "load" for unit in units):
        head += [pad + "data = memory.data",
                 pad + "top = (0 if memory.regions"
                       " or cpu.breakpoints.has_watchpoints"
                       " else memory.size)"]
    prefix, period, passes = _find_loop(units, pcs)
    minimum = whole
    if passes:
        loop = units[prefix:prefix + period]
        pass_bound = _bound(loop)
        minimum = _bound(units[:prefix + period])
    if passes or reenter:
        # The limits less the minimum: what is left beyond it.
        head += [pad + "il = _INF if il is None else il - %d" % minimum[1],
                 pad + "cl = _INF if cl is None else cl - %d" % minimum[0]]
    if passes:
        # ... and less the whole chain.
        spare = (whole[0] - minimum[0], whole[1] - minimum[1])
        head += [pad + "iw = il - %d" % spare[1],
                 pad + "cw = cl - %d" % spare[0]]
    if reenter:
        head += [pad + "k = 0",
                 pad + "while True:"]
        pad += "    "
    if passes:
        # The whole chain if it fits, else every pass the limits cover.
        head += [pad + "if cpu.instructions <= iw and cpu.cycles <= cw:",
                 pad + "    m = %d" % passes,
                 pad + "else:",
                 pad + "    m = min(%d, 1 + min(il - cpu.instructions, %d)"
                       " // %d," % (passes - 1, spare[1], pass_bound[1]),
                 pad + "            1 + min(cl - cpu.cycles, %d) // %d)"
                       % (spare[0], pass_bound[0])]
    head.append(pad + "cy = n = 0")
    if any(unit[0] in ("mem", "load") for unit in units):
        # The SMC check after each memory step reads this flag.
        head.append(pad + "cpu._code_dirty = False")
    jump = "continue" if reenter else None
    spent = _emit(units[:prefix], body, pad, start, (0, 0), (0, 0), params,
                  jump)
    tail = pad
    if passes:
        per_pass = (sum(unit[1] for unit in loop),
                    sum(unit[2] for unit in loop))
        lines = []
        _emit(loop, lines, pad + "    ", start, spent, per_pass, params,
              "break" if reenter else None)
        body.append(pad + "for i in range(m):")
        body += lines or [pad + "    pass"]
        if reenter and any(_re_enters(unit, start) for unit in loop):
            # Only a re-entry breaks out of the loop: the rest of
            # the pass runs when it completes.
            body.append(pad + "else:")
            tail += "    "
        body += [tail + "if m < %d:" % passes,
                 tail + "    cpu.pc = %d" % pcs[prefix],
                 tail + "    return " + _leave(
                     start, _count(spent[0], per_pass[0], "m"),
                     _count(spent[1], per_pass[1], "m"), reenter)]
        spent = (spent[0] + passes * per_pass[0],
                 spent[1] + passes * per_pass[1])
        prefix += passes * period
    spent = _emit(units[prefix:], body, tail, start, spent, (0, 0), params,
                  jump)
    if end_pc is not None:
        body.append(tail + "cpu.pc = %d" % end_pc)
    body += [tail + "cpu.cycles += cy + %d" % spent[0],
             tail + "cpu.instructions += n + %d" % spent[1],
             tail + "cpu.superblock_exits += 1"]
    if reenter:
        body += [tail + "if k:",
                 tail + "    _reentries(cpu, %d, k)" % start,
                 tail + "return"]
    head[0] %= ", ".join(params.values())
    body.append("    return superblock")
    return "\n".join(head + body), tuple(params), minimum


def _side_exit(cpu, start, cycles, retired, passes=0):
    """Commit a guard exit of the superblock at *start*.

    Counts the exit and remembers its site for re-profiling analytics
    (``Cpu.side_exit_sites``), plus the *passes* in-place re-entries
    before it.
    """
    cpu.cycles += cycles
    cpu.instructions += retired
    cpu.superblock_exits += 1
    cpu.superblock_side_exits += 1
    sites = cpu.side_exit_sites
    sites[start] = sites.get(start, 0) + 1
    if passes:
        _reentries(cpu, start, passes)


def _reentries(cpu, start, passes):
    """Commit *passes* in-place re-entries of the superblock at *start*.

    Each counts what the dispatcher round trip it replaced counted: a
    side exit back to *start* and a profiled block entry there.
    """
    cpu.superblock_exits += passes
    cpu.superblock_side_exits += passes
    sites = cpu.side_exit_sites
    sites[start] = sites.get(start, 0) + passes
    counts = cpu.block_profiler.counts
    counts[start] = counts.get(start, 0) + passes


@functools.lru_cache(maxsize=MAX_COMPILED_SOURCES)
def _compile(source):
    """Compile generated *source* once; returns ``(source, _make)``.

    Shared by every CPU in the process: CPUs running the same program
    generate the same text, so they share one code object.  Sharing is
    safe because ``_make`` holds no state: each call binds the calling
    superblock's own closures into a fresh function.
    """
    namespace = {"_exit": _side_exit, "_reentries": _reentries,
                 "_from_bytes": int.from_bytes, "_INF": float("inf")}
    exec(compile(source, "<superblock>", "exec"), namespace)
    return source, namespace["_make"]


def _alu_steps(cpu, block):
    """Each step of *block* as ``(statement, cycles)``, None if not pure."""
    steps = []
    for index in range(block.count):
        decoded = cpu._decode_at((block.start + 4 * index) & _WORD)
        steps.append((_source(_ALU_TEMPLATES, decoded), decoded.spec.cycles)
                     if decoded.spec.name in _ALU_TEMPLATES else None)
    return steps


def _skip_span(fall_pc, target, next_steps):
    """The skipped region's ``(statement, cycles)`` steps, or None.

    If-conversion requires the span ``[fall_pc, target)`` to consist
    entirely of pure ALU-template instructions *and* to lie entirely
    within the chained fall-through block, whose :func:`_alu_steps` are
    *next_steps*.  The block compiler already cut that block before any
    breakpoint, MMIO or undecodable word, so a span that passes the
    length check is guaranteed free of stop conditions — skipping or
    running it can never hide an architecturally visible event.
    """
    span = next_steps[:(target - fall_pc) >> 2]
    if len(span) < (target - fall_pc) >> 2 or None in span:
        return None
    return span


# -- superblock formation -----------------------------------------------------


class Superblock:
    """A chain of basic blocks compiled into one generated function.

    ``run(cpu, regs, memory, instruction_limit, cycle_limit)`` executes
    as much of the chain as the limits (absolute, or None) cover without
    passing either — the whole chain, or the passes of its re-rolled
    loop that fit — re-entering it in place while they allow, and
    commits ``pc``, ``cycles``, ``instructions`` and the superblock exit
    counters itself on every exit; ``source`` is its generated text.
    ``count``/``max_cycles`` bound the whole chain;
    ``min_count``/``min_cycles``, the prefix plus one loop pass (the
    whole chain without a loop), are the least budget ``run`` needs,
    the dispatcher's precheck.  ``ranges`` are the deduplicated
    ``(start, end)`` address spans of the constituent blocks
    (word-precise invalidation).
    """

    __slots__ = ("start", "run", "source", "count", "max_cycles",
                 "min_count", "min_cycles", "ranges", "pages",
                 "block_starts")

    def __init__(self, start, run, source, count, max_cycles, minimum,
                 ranges, block_starts):
        self.start = start
        self.run = run
        self.source = source
        self.count = count
        self.max_cycles = max_cycles
        self.min_cycles, self.min_count = minimum
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
    pcs = []              # the pc of each unit's first instruction
    max_cycles = 0
    pending = []          # (statement, cycles) run awaiting a unit
    head = None           # the pc of the next unit's first instruction
    alu_steps = {}        # block start -> _alu_steps: unrolled passes
                          # revisit the same blocks
    for block, __ in chained:
        if block.start not in alu_steps:
            alu_steps[block.start] = _alu_steps(cpu, block)
    last_position = len(chained) - 1
    next_skip = 0         # leading steps of the next block already
                          # emitted inside an if-converted unit
    for position, (block, predicted) in enumerate(chained):
        max_cycles += block.max_cycles
        skip = next_skip
        next_skip = 0
        address = (block.start + 4 * skip) & _WORD
        last_index = block.count - 1
        steps = alu_steps[block.start]
        for index in range(skip, block.count):
            if head is None:
                head = address
            closure, is_mem, _static_pc = block.steps[index]
            if steps[index] is not None:
                pending.append(steps[index])
                address = (address + 4) & _WORD
                continue
            decoded = cpu._decode_at(address)
            name = decoded.spec.name
            if (predicted is not None and index == last_index
                    and name in _CONDITIONAL):
                target = (address + 4 + 4 * decoded.imm) & _WORD
                span = None
                if (predicted == block.end and target > block.end
                        and position != last_position):
                    span = _skip_span(
                        block.end, target,
                        alu_steps[chained[position + 1][0].start])
                if span is not None:
                    # If-conversion: predicate the skipped span
                    # instead of predicting the branch — no side
                    # exit either way.
                    units.append(_predicated_unit(pending, decoded, span))
                    next_skip = len(span)
                else:
                    units.append(_branch_unit(pending, decoded, address,
                                              block.end, predicted))
                pcs.append(head)
                pending = []
                head = None
            elif (name in _UNCONDITIONAL and position != last_position
                    and index == last_index):
                # A chained jmp/jal's pc write is dead — the next unit
                # continues at the compile-time target, and every exit
                # path writes the exact pc itself.  jal's link-register
                # write stays, as a plain constant store.
                if name == "jal":
                    pending.append((
                        "r[%d] = %d" % (isa.REG_LR, (address + 4) & _WORD),
                        decoded.spec.cycles))
                else:
                    pending.append(("", decoded.spec.cycles))
            else:
                if pending:
                    units.append(_alu_unit(pending))
                    pcs.append(head)
                    pending = []
                if name in _LOAD_TEMPLATES:
                    units.append(_load_unit(closure, decoded))
                else:
                    units.append(("mem" if is_mem else "op", 0, 1, closure,
                                  decoded.spec.cycles
                                  + decoded.spec.taken_extra))
                pcs.append(address)
                head = None
            address = (address + 4) & _WORD
    if pending:
        units.append(_alu_unit(pending))
        pcs.append(head)

    # On full completion the pc is the final block's fall-through, the
    # final branch's predicted target, or whatever the final closure
    # (jr, jalr, sys, a store, ...) wrote itself.  A final load may
    # have taken its inline path, which writes no pc.
    final_block, final_predicted = chained[-1]
    if final_block.steps[-1][2] is not None or units[-1][0] == "load":
        end_pc = final_block.end
    elif units[-1][0] == "branch":
        end_pc = final_predicted
    else:
        end_pc = None
    # A breakpoint on the start stops every dispatcher re-entry; it is
    # settled here because any breakpoint change drops every superblock.
    reenter = not breakpoints.has_code(start) and any(
        _re_enters(unit, start) for unit in units)
    source, closures, minimum = _generate(
        start, units, pcs, end_pc, (max_cycles, total_steps), reenter)
    source, make = _compile(source)
    ranges = tuple(sorted(set(
        (block.start, block.end) for block, _predicted in chained)))
    block_starts = tuple(block.start for block, _predicted in chained)
    return Superblock(start, make(*closures), source, total_steps,
                      max_cycles, minimum, ranges, block_starts)
