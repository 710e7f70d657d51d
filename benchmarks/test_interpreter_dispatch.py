"""Ablation: ISS dispatch tier and synchronisation quantum.

Measures the two halves of the fast-path work (docs/performance.md):

- *dispatch*: instructions/second through the tier ladder — the
  legacy name-dispatch interpreter chain, the closure-compiled
  basic-block path, and the profile-guided superblock tier — on the
  same guest workloads.  The block path must hold a >=2x advantage
  over the interpreter on the pure-ALU loop, and the superblock tier
  a further >=2x over blocks on the steady-state ALU and bitwise-CRC
  checksum loops;
- *batching*: RSP round trips per simulated clock cycle for the
  lock-step GDB-Wrapper at sync quantum 1, 8 and 64 — the deterministic
  counter ablation showing what each batched synchronisation saves.

Both attach their numbers to the machine-readable ``BENCH_*.json``
records via the ``bench_report`` fixture.
"""

import time

import pytest

from repro.iss.assembler import assemble
from repro.iss.cpu import Cpu
from repro.iss.loader import load_program
from repro.obs.scenarios import bench_scenario, quickstart_config

# A straight-line ALU body long enough to fill a basic block — the
# case the closure cache targets (per-block overhead amortises over
# the block; see docs/performance.md for the body-length sensitivity).
ALU_LOOP = "    li r0, 0\nloop:\n" + "\n".join(
    "    addi r%d, r%d, %d\n    xor r%d, r%d, r%d"
    % (i % 8, (i + 1) % 8, i + 1, (i + 2) % 8, i % 8, (i + 1) % 8)
    for i in range(8)) + "\n    b loop\n"

MIXED_LOOP = """
    li r0, 0
    la r1, data
loop:
    lw r2, [r1]
    addi r2, r2, 1
    sw r2, [r1]
    addi r0, r0, 1
    b loop
data: .word 0
"""

# The guest's bitwise CRC-32 inner loop (repro.apps.sources), looped
# forever over one data byte: the data-dependent forward skip around
# the polynomial xor is the if-conversion case the superblock tier
# must keep on the fast path.
CHECKSUM_LOOP = """
    la r0, data
    li32 r2, 0xFFFFFFFF
    li r3, 0
outer:
    lbu r5, [r0]
    xor r2, r2, r5
    li r6, 8
crc_bit_loop:
    andi r7, r2, 1
    shri r2, r2, 1
    beq r7, r3, crc_skip
    li32 r8, 0xEDB88320
    xor r2, r2, r8
crc_skip:
    addi r6, r6, -1
    bne r6, r3, crc_bit_loop
    b outer
data: .word 0x12345678
"""

BUDGET = 50_000

# The superblock comparison runs long enough that promotion and chain
# compilation amortise: the tier targets steady-state hot loops, and
# its warmup (one profile count per block entry plus one batched
# ``exec`` per promoted chain) is a real cost the shorter budget
# would overweight.
TIER_BUDGET = 500_000


def _rate(source, tier, budget=BUDGET, repeats=3):
    """Best-of-N instructions/second for one dispatch tier."""
    best = 0.0
    for __ in range(repeats):
        cpu = Cpu()
        cpu.tier = tier
        load_program(cpu, assemble(source))
        start = time.perf_counter()
        cpu.run(max_instructions=budget)
        elapsed = time.perf_counter() - start
        assert cpu.instructions == budget
        best = max(best, budget / elapsed)
    return best


@pytest.mark.parametrize("workload", ["alu", "mixed"])
def test_block_dispatch_vs_interpreter(benchmark, bench_report, summary,
                                       workload):
    """The closure-block path must clearly beat name dispatch."""
    source = ALU_LOOP if workload == "alu" else MIXED_LOOP
    interp = _rate(source, "interp")
    blocks = benchmark.pedantic(
        _rate, args=(source, "blocks"), rounds=1, iterations=1)
    speedup = blocks / interp
    benchmark.extra_info["workload"] = workload
    benchmark.extra_info["speedup"] = round(speedup, 2)
    bench_report.config["workload"] = workload
    bench_report.record(instructions=BUDGET)
    summary("dispatch[%s]: interpreter %.2fM/s, blocks %.2fM/s "
            "(%.2fx)" % (workload, interp / 1e6, blocks / 1e6, speedup))
    # The acceptance floor is 2x on the pure-ALU loop; the mixed loop
    # still does real memory work per step, so only require parity+.
    assert speedup >= (2.0 if workload == "alu" else 1.2)


@pytest.mark.parametrize("workload", ["alu", "checksum"])
def test_superblock_tier_vs_blocks(benchmark, bench_report, summary,
                                   workload):
    """The superblock tier must clearly beat per-block dispatch.

    The floor is 2x on both hot-loop workloads: the pure-ALU loop
    (fused straight-line runs plus the unrolled backward branch) and
    the guest-shaped bitwise CRC-32 loop (if-converted data-dependent
    skip).  Also records the superblock telemetry so the committed
    BENCH baselines gate promotion/invalidation behaviour as
    deterministic counters.
    """
    source = ALU_LOOP if workload == "alu" else CHECKSUM_LOOP
    blocks = _rate(source, "blocks", budget=TIER_BUDGET)
    superblocks = benchmark.pedantic(
        _rate, args=(source, "superblocks"), kwargs={"budget": TIER_BUDGET},
        rounds=1, iterations=1)
    cpu = Cpu()
    cpu.tier = "superblocks"
    load_program(cpu, assemble(source))
    cpu.run(max_instructions=TIER_BUDGET)
    speedup = superblocks / blocks
    benchmark.extra_info["workload"] = workload
    benchmark.extra_info["speedup"] = round(speedup, 2)
    bench_report.config["workload"] = workload
    bench_report.record(
        instructions=TIER_BUDGET,
        superblocks_compiled=cpu.superblocks_compiled,
        superblock_exits=cpu.superblock_exits)
    summary("tier[%s]: blocks %.2fM/s, superblocks %.2fM/s (%.2fx, "
            "%d superblocks)" % (workload, blocks / 1e6,
                                 superblocks / 1e6, speedup,
                                 cpu.superblocks_compiled))
    assert speedup >= 2.0


def test_rsp_round_trips_vs_quantum(benchmark, bench_report, summary):
    """RSP transactions per simulated cycle at quantum 1 / 8 / 64.

    Fully deterministic (seeded scenario, counter-based): the wrapper's
    per-posedge ``qStatus`` round trip is what batching removes, so the
    transactions-per-timestep figure must drop monotonically as the
    quantum grows.
    """
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    per_step = {}
    for quantum in (1, 8, 64):
        __, run = bench_scenario(
            quickstart_config("gdb-wrapper", sync_quantum=quantum),
            name="dispatch_ablation_q%d" % quantum)
        counters = run.as_dict()["counters"]
        steps = counters["sc_timesteps"]
        rsp = (counters["sync_transactions"]
               + counters["transfer_transactions"])
        per_step[quantum] = rsp / steps
        bench_report.record(**{
            "rsp_per_timestep_q%d" % quantum: round(rsp / steps, 4),
            "sync_transactions_q%d" % quantum:
                counters["sync_transactions"],
        })
    summary("rsp/timestep: q1=%.2f q8=%.2f q64=%.2f"
            % (per_step[1], per_step[8], per_step[64]))
    assert per_step[8] < per_step[1]
    assert per_step[64] <= per_step[8]
    # The batched sync must remove at least half the per-cycle RSP
    # traffic by quantum 8.
    assert per_step[8] < per_step[1] / 2
