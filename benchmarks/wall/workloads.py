"""The wall-time benchmark's workloads, as plain data.

Each workload is a set of cells (one per co-simulation scheme) that
share one ``RouterConfig`` and one simulated span.  The runner reads
this module without importing ``repro``; only the measured child turns
a cell into a config (:func:`router_config`).

Every cell pins ``parallel``, ``workers`` and ``tier`` explicitly so the
``REPRO_PARALLEL`` / ``REPRO_WORKERS`` / ``REPRO_TIER`` sweep variables
of the test suite never change what the benchmark measures.
"""

from collections import namedtuple

Workload = namedtuple("Workload", "cells span_us config checkpoint_every why")

ALL_SCHEMES = ("gdb-wrapper", "gdb-kernel", "driver-kernel")
KERNEL_SCHEMES = ("gdb-kernel", "driver-kernel")

# The paper's Table 1 cell: RouterConfig defaults (4 ports, 4 producers,
# word-sum checksum, 100 MHz ISS, lock-step sync, block tier, telemetry
# on) at analysis.table1.TABLE1_DELAY.
_TABLE1 = dict(inter_packet_delay_us=30, sync_quantum=1, dmi=False,
               tier="blocks", parallel=None, workers=2)

# ISS-bound MPSoC: four CRC-32 checksum CPUs, each packet recomputed
# 24 times, on the superblock tier with a 32-timestep sync quantum.
_MPSOC = dict(num_cpus=4, producer_count=4, algorithm="crc32",
              checksum_rounds=24, cpu_hz=1_000_000_000,
              inter_packet_delay_us=100, sync_quantum=32, dmi=False,
              tier="superblocks", parallel=None, workers=2)

WORKLOADS = {
    "table1": Workload(
        ALL_SCHEMES, 10_000, _TABLE1, None,
        "the paper's Table 1 cell on the stack as it ships; transactional "
        "RSP transport dominates"),
    "fastpath": Workload(
        ALL_SCHEMES, 20_000, dict(_TABLE1, sync_quantum=8, dmi=True), None,
        "the sync-quantum and DMI rungs: zero RSP transactions, so a "
        "gdb/RSP change must not move it"),
    "mpsoc-crc": Workload(
        KERNEL_SCHEMES, 2_000, _MPSOC, None,
        "ISS-bound superblock tier: RSP transfers keep invalidating blocks "
        "and superblocks under gdb-kernel, and none under driver-kernel"),
    "mpsoc-resilient": Workload(
        KERNEL_SCHEMES, 2_000, dict(_MPSOC, parallel="process"), 16,
        "the only workload with process-parallel dispatch and checkpoint "
        "save, restore and resume"),
}

#: Workloads whose simulated outcome must equal another's, scheme by
#: scheme: process-parallel, checkpointed and restored runs are
#: byte-identical to the serial run of the same config.
SAME_OUTCOME = {"mpsoc-resilient": "mpsoc-crc"}


def router_config(name, scheme, seed):
    """The ``RouterConfig`` of one cell of workload *name*."""
    from repro.router.system import RouterConfig
    from repro.sysc.simtime import US

    config = dict(WORKLOADS[name].config)
    config["inter_packet_delay"] = config.pop("inter_packet_delay_us") * US
    return RouterConfig(scheme=scheme, seed=seed, **config)
