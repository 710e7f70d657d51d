"""Failure injection: the system must detect what it claims to detect.

The chaos classes at the bottom drive whole co-simulation runs over
fault-injected links and require *bit-identical* guest output versus
the fault-free baseline — the reliable transport must make injected
faults unobservable above it — plus graceful degradation: a wedged ISS
context is quarantined while the rest of the system finishes.
"""

import os

import pytest

from repro.cosim.channels import Socket
from repro.cosim.driver_kernel import DriverKernelScheme
from repro.cosim.faults import FaultPlan
from repro.cosim.messages import (Message, MessageType, Block, pack_message)
from repro.cosim.metrics import CosimMetrics
from repro.errors import CosimError, GuestFault, RtosError
from repro.iss.assembler import assemble
from repro.iss.cpu import Cpu
from repro.iss.loader import load_program
from repro.router.system import build_system
from repro.rtos.kernel import RtosKernel
from repro.rtos.driver import CosimPortDriver
from repro.sysc.clock import Clock
from repro.sysc.simtime import MS, US

from tests.cosim.test_driver_kernel import (_DOUBLER_RTOS, CPU_HZ,
                                            DoublerDevice)
from tests.cosim.test_gdb_schemes import _build as _build_gdb
from tests.cosim.test_gdb_schemes import _gdb_kernel, _gdb_wrapper


class TestChecksumDetection:
    def test_buggy_guest_checksum_is_caught_by_consumer(self, kernel):
        """Replace the guest's checksum algorithm with a wrong one; the
        consumer must flag every forwarded packet as corrupt."""
        system = build_system(scheme="gdb-kernel",
                              inter_packet_delay=40 * US)
        # Sabotage: make the guest's 'not r0, r2' a 'mov r0, r2'
        # (forgetting the complement - a classic off-by-algorithm bug).
        source = system.app.source.replace("not  r0, r2", "mov  r0, r2")
        program = assemble(source)
        base, image = program.flatten()
        system.cpu.memory.write_bytes(base, image)
        system.cpu.flush_decode_cache()
        system.run(1 * MS)
        stats = system.stats()
        assert stats.forwarded > 0
        assert stats.corrupt == stats.received

    def test_memory_corruption_detected(self, kernel):
        """Flipping a data word after checksumming must be detected."""
        system = build_system(scheme="local", inter_packet_delay=20 * US)
        original_put = system.router.outputs[0].nb_put

        def corrupting_put(packet):
            damaged = type(packet)(
                packet.source, packet.destination, packet.packet_id,
                ((packet.data[0] ^ 1),) + packet.data[1:],
                packet.checksum)
            return original_put(damaged)

        system.router.outputs[0].nb_put = corrupting_put
        system.run(1 * MS)
        assert system.consumers[0].corrupt == system.consumers[0].received
        assert all(c.corrupt == 0 for c in system.consumers[1:])


class TestProtocolViolations:
    def test_unassociated_breakpoint_raises(self, kernel):
        """A stop at a breakpoint with no port binding is a wiring bug
        and must fail loudly, not hang."""
        system = build_system(scheme="gdb-kernel",
                              inter_packet_delay=40 * US)
        context = system.scheme.contexts[0]
        # Plant a rogue breakpoint on the checksum loop.
        rogue = system.app.symbols.labels["chk_loop"]
        context.client.set_breakpoint(rogue)
        with pytest.raises(CosimError):
            system.run(1 * MS)

    def test_unknown_port_in_driver_message_raises(self, kernel):
        system = build_system(scheme="driver-kernel",
                              inter_packet_delay=40 * US)
        context = system.scheme.contexts[0]
        bogus = Message(MessageType.WRITE, [Block("no_such_port",
                                                  b"\x00" * 4)])
        context.guest_data_endpoint.send(pack_message(bogus))
        with pytest.raises(CosimError):
            system.run(100 * US)

    def test_reply_on_guest_socket_with_wrong_type_raises(self, kernel):
        cpu = Cpu()
        rtos = RtosKernel(cpu)
        data, irq = Socket(4444), Socket(4445)
        rtos.attach_cosim(data.b, irq.b)
        rtos.create_thread("t", 0x1000, 0x8000)
        program = assemble(".org 0x1000\nmain: wfi\nb main")
        for address, payload in program.chunks:
            cpu.memory.write_bytes(address, payload)
        cpu.flush_decode_cache()
        rtos.start()
        data.a.send(pack_message(Message(MessageType.WRITE,
                                         [Block("p", b"\x00" * 4)])))
        with pytest.raises(RtosError):
            rtos.advance(1000)


class TestGuestFaults:
    def test_guest_division_by_zero_surfaces(self, kernel):
        source = """
            .entry main
        main:
            li r0, 1
            li r1, 0
            divu r2, r0, r1
        """
        program = assemble(source)
        cpu = Cpu()
        load_program(cpu, program)
        with pytest.raises(GuestFault):
            cpu.run()

    def test_wild_jump_out_of_memory_faults(self, kernel):
        from repro.errors import MemoryAccessError
        source = """
            .entry main
        main:
            li32 r0, 0x40000000
            jr r0
        """
        program = assemble(source)
        cpu = Cpu()
        load_program(cpu, program)
        with pytest.raises(MemoryAccessError):
            cpu.run()

    def test_unhandled_trap_identifies_pc(self, kernel):
        program = assemble(".entry main\nmain: sys 77")
        cpu = Cpu()
        load_program(cpu, program)
        with pytest.raises(GuestFault, match="SYS 77"):
            cpu.run()


def _driver_doubler(kernel, requests, reliability=None, faults=None,
                    watchdog_ticks=None, period=20 * US):
    """A Driver-Kernel doubler run rig (see tests/cosim for the guest)."""
    metrics = CosimMetrics()
    scheme = DriverKernelScheme(kernel, metrics, watchdog_ticks)
    cpu = Cpu()
    rtos = RtosKernel(cpu)
    rtos.create_semaphore(1)
    program = assemble(_DOUBLER_RTOS)
    for address, data in program.chunks:
        cpu.memory.write_bytes(address, data)
    cpu.flush_decode_cache()
    rtos.create_thread("main", program.symbols.labels["main"], 0x8000)
    device = DoublerDevice(requests, period=period, kernel=kernel)
    context = scheme.attach_rtos(rtos, device.ports(), CPU_HZ,
                                 reliability=reliability, faults=faults)
    driver = CosimPortDriver(1, "dev", ["req"], "resp", 3,
                             context.guest_data_endpoint)
    rtos.register_driver(driver)
    device.raise_irq = lambda v: scheme.raise_interrupt(context, v)
    return scheme, device, metrics


_CHAOS_REQUESTS = [3, 5, 9, 21, 1]

# CI replays the chaos suite under several seed families (the
# fault-injection job's matrix); locally the base is 0.
_SEED = int(os.environ.get("COSIM_FAULT_SEED", "0"))

# Rates chosen so every class fires several times per run but stays
# within the default retry budget; each class also appears alone so a
# regression in one recovery path is attributed, not averaged away.
_FAULT_CASES = [
    ("drop", FaultPlan(seed=_SEED + 11, drop=0.08)),
    ("duplicate", FaultPlan(seed=_SEED + 12, duplicate=0.1)),
    ("reorder", FaultPlan(seed=_SEED + 13, reorder=0.1)),
    ("corrupt", FaultPlan(seed=_SEED + 14, corrupt=0.08)),
    ("delay", FaultPlan(seed=_SEED + 15, delay=0.1, delay_polls=4)),
    ("combined", FaultPlan(seed=_SEED + 16, drop=0.04, duplicate=0.04,
                           reorder=0.04, corrupt=0.04, delay=0.04)),
]


class TestChaosDriverKernel:
    """Each fault class, injected under the reliable transport, must be
    invisible to the guest: bit-identical responses vs the baseline."""

    def _run(self, kernel, reliability=None, faults=None):
        Clock(1 * US, "clk")
        scheme, device, metrics = _driver_doubler(
            kernel, _CHAOS_REQUESTS, reliability=reliability, faults=faults)
        scheme.elaborate()
        kernel.run(2 * MS)
        return device.responses, metrics

    @pytest.mark.parametrize("name,plan", _FAULT_CASES,
                             ids=[name for name, __ in _FAULT_CASES])
    def test_fault_class_recovered_bit_identical(self, kernel, name, plan):
        responses, metrics = self._run(kernel, reliability=True,
                                       faults=plan)
        assert responses == [2 * v for v in _CHAOS_REQUESTS]
        assert metrics.contexts_quarantined == 0
        if name in ("drop", "corrupt", "combined"):
            # Recovery took actual retransmissions.  (drops_detected may
            # stay 0 here: with little traffic in flight a dropped frame
            # is recovered by timeout before any gap becomes visible.)
            assert metrics.retransmits > 0
        if name == "corrupt":
            assert metrics.corrupt_rejected > 0

    def test_reliable_layer_required_for_identity(self, kernel):
        """Control experiment: dropping each side's first message
        *without* the reliable layer loses traffic — proving the chaos
        tests are not vacuous."""
        responses, __ = self._run(
            kernel, faults=FaultPlan(script={0: "drop"}))
        assert responses != [2 * v for v in _CHAOS_REQUESTS]


@pytest.mark.parametrize("factory", [_gdb_kernel, _gdb_wrapper],
                         ids=["gdb-kernel", "gdb-wrapper"])
class TestChaosGdbSchemes:
    def test_combined_faults_recovered_bit_identical(self, kernel,
                                                     factory):
        requests = [1, 2, 3, 10]
        plan = FaultPlan(seed=21, drop=0.02, duplicate=0.02,
                         reorder=0.02, corrupt=0.02, delay=0.02)
        device, scheme, metrics = _build_gdb(
            kernel, factory, requests, reliability=True, faults=plan)
        kernel.run(1 * MS)
        assert device.responses == [2 * v for v in requests]
        assert metrics.retransmits > 0


class TestGracefulDegradation:
    def test_wedged_context_quarantined_others_finish(self, kernel):
        """One guest generates no driver traffic at all; the watchdog
        must quarantine it while the healthy context keeps serving."""
        Clock(1 * US, "clk")
        scheme, device, metrics = _driver_doubler(
            kernel, list(range(1, 26)), watchdog_ticks=150)
        # Second context: a guest that spins without touching the driver.
        wedged_cpu = Cpu()
        wedged_rtos = RtosKernel(wedged_cpu, name="wedged")
        program = assemble(".org 0x1000\nmain: b main")
        for address, data in program.chunks:
            wedged_cpu.memory.write_bytes(address, data)
        wedged_cpu.flush_decode_cache()
        wedged_rtos.create_thread("main", 0x1000, 0x8000)
        wedged = scheme.attach_rtos(wedged_rtos, {}, CPU_HZ, name="wedged")
        scheme.elaborate()
        kernel.run(600 * US)
        healthy = scheme.contexts[0]
        assert wedged.quarantined
        assert "watchdog" in wedged.quarantine_reason
        assert not healthy.quarantined
        assert metrics.contexts_quarantined == 1
        assert metrics.extra["quarantine_log"] == [
            (wedged.name, wedged.quarantine_reason)]
        # The healthy context kept making progress throughout.
        assert len(device.responses) >= 15
        assert device.responses == [
            2 * v for v in range(1, len(device.responses) + 1)]

    def test_dead_link_quarantines_not_crashes(self, kernel):
        """A link whose faults exceed the retry budget must quarantine
        the context, not abort the whole simulation."""
        Clock(1 * US, "clk")
        scheme, device, metrics = _driver_doubler(
            kernel, [3, 5], reliability=True,
            faults=FaultPlan(seed=31, drop=0.9))
        scheme.elaborate()
        kernel.run(2 * MS)
        context = scheme.contexts[0]
        assert context.quarantined
        assert "transport" in context.quarantine_reason
        assert metrics.contexts_quarantined == 1
        assert scheme.finished


class TestChaosRouterSystem:
    def test_router_stats_identical_under_faults(self, kernel):
        """The full case-study system, Driver-Kernel over a faulty link:
        traffic statistics must match the fault-free run exactly."""
        def run(fault_plan):
            system = build_system(
                scheme="driver-kernel", inter_packet_delay=40 * US,
                max_packets=3, reliability=True, fault_plan=fault_plan)
            system.run(2 * MS)
            stats = system.stats()
            return ((stats.generated, stats.forwarded, stats.received,
                     stats.corrupt), stats.metrics)

        baseline, base_metrics = run(None)
        faulty, fault_metrics = run(
            FaultPlan(seed=41, drop=0.02, duplicate=0.02, corrupt=0.02))
        assert faulty == baseline
        assert baseline[3] == 0          # nothing flagged corrupt
        assert fault_metrics["retransmits"] > 0
        assert base_metrics["retransmits"] == 0
        assert fault_metrics["contexts_quarantined"] == 0
