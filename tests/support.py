"""Helpers shared across test modules."""

from dataclasses import fields

from hypothesis import HealthCheck
from hypothesis import strategies as st

from repro.cosim.faults import FaultPlan
from repro.cosim.reliable import ReliabilityConfig
from repro.iss.assembler import assemble
from repro.iss.cpu import Cpu
from repro.iss.loader import load_program
from repro.iss.syscalls import SYS_EXIT, SYS_PUTCHAR
from repro.obs.scenarios import COSIM_SCHEMES
from repro.router.system import RouterConfig
from repro.rtos.costs import CostModel
from repro.sysc.simtime import US

#: Shared ``@settings`` kwargs for simulation-heavy property tests:
#: few examples (each example is a full co-simulation), no deadline.
SIM_SETTINGS = dict(max_examples=5, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

#: Shared hypothesis strategies over the co-simulation scenario axes.
seeds = st.integers(min_value=0, max_value=2 ** 16)
schemes = st.sampled_from(COSIM_SCHEMES)
quanta = st.sampled_from([1, 4, 8])
mpsoc_widths = st.sampled_from([1, 2, 3])


def fault_plans(rate=0.02, reorder=0.0, delay_polls=2):
    """Seeded fault plans drawing every fault class at *rate*.

    The plan's own seed is the drawn value, so shrinking a failing
    example shrinks straight to the plan that reproduces it.  Reorder
    defaults off: the scenario-level chaos tests ride the reliable
    transport, whose NAK recovery the endpoint-level tests cover.
    """
    return seeds.map(lambda seed: FaultPlan(
        seed=seed, drop=rate, duplicate=rate, reorder=reorder,
        corrupt=rate, delay=rate, delay_polls=delay_polls))


def every_field_config():
    """A valid :class:`RouterConfig` with every field but the tracer
    off its default.

    The serializer round trips use it as a completeness guard: a field
    that ``config_to_dict``/``config_from_dict`` drop comes back at its
    default and fails the comparison.  A new field fails the field-set
    assertion until it is given a value here.  ``parallel=True`` and
    ``tier="interp"`` are values no ``REPRO_PARALLEL``/``REPRO_TIER``
    sweep produces as a default.
    """
    values = dict(
        scheme="driver-kernel", num_ports=3, num_addresses=9,
        clock_period=2 * US, cpu_hz=50_000_000,
        inter_packet_delay=30 * US, input_capacity=5, output_capacity=17,
        seed=99, max_packets=3, app_origin=0x2000, memory_size=1 << 21,
        stack_top=0x90000, rtos_costs=CostModel(syscall=41),
        local_latency=3, producer_count=2, num_cpus=2, algorithm="crc32",
        checksum_rounds=2, blocked_transfers=True, burst=2, stages=[3, 3],
        traffic={"kind": "trace", "gaps": [10 * US, 40 * US]},
        reliability=ReliabilityConfig(retry_budget=5),
        fault_plan=FaultPlan(seed=3, drop=0.01, script={4: "drop"}),
        watchdog_ticks=90, sync_quantum=4, parallel=True, workers=5,
        tier="interp", parallel_trace_commits=True, dmi=True,
        telemetry=False)
    defaults = config_values(RouterConfig())
    assert set(values) == set(defaults)
    config = RouterConfig(**values)
    assert all(value != defaults[name]
               for name, value in config_values(config).items())
    return config


def config_values(config):
    """Every serialized field of *config* as comparable plain values."""
    values = {entry.name: getattr(config, entry.name)
              for entry in fields(config) if entry.name != "tracer"}
    if config.fault_plan is not None:
        values["fault_plan"] = config.fault_plan.to_dict()
    return values


def wedge_prefetch(context, error):
    """Make a scheme context's pool-side run raise *error*."""
    def bad_prefetch(*args):
        raise error

    if hasattr(context, "driver"):
        context.driver.prefetch = bad_prefetch
    else:
        context.rtos.advance = bad_prefetch


def make_cpu(source, origin=0, stack_top=None, capture_output=True):
    """Assemble *source*, load it on a fresh CPU with exit/putchar traps.

    Returns ``(cpu, program, output_list)``.
    """
    program = assemble(source, origin)
    cpu = Cpu()
    output = []

    def sys_exit(target):
        target.halted = True
        target.exit_code = target.regs[0]

    cpu.syscalls.register(SYS_EXIT, sys_exit, "exit")
    if capture_output:
        cpu.syscalls.register(
            SYS_PUTCHAR, lambda target: output.append(target.regs[0]),
            "putchar")
    load_program(cpu, program, stack_top=stack_top)
    return cpu, program, output


def run_to_halt(cpu, max_instructions=1_000_000):
    """Run until HALT; fails the test on runaway programs."""
    from repro.iss.cpu import StopReason

    reason = cpu.run(max_instructions=max_instructions)
    assert reason is StopReason.HALT, (
        "program did not halt: %s at pc=0x%08x" % (reason, cpu.pc))
    return reason
