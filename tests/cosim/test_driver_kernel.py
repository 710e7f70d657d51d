"""Scheme-level tests of Driver-Kernel co-simulation.

The doubler again, but through the RTOS: an interrupt announces each
request; the guest ISR posts a semaphore; the main thread reads the
request through the device driver, doubles it, and writes it back.
"""

import pytest

from repro.cosim.driver_kernel import DriverKernelScheme
from repro.cosim.metrics import CosimMetrics
from repro.cosim.ports import IssInPort, IssOutPort, make_iss_process
from repro.iss.assembler import assemble
from repro.iss.cpu import Cpu
from repro.rtos.driver import CosimPortDriver
from repro.rtos.kernel import RtosKernel
from repro.sysc.clock import Clock
from repro.sysc.module import Module
from repro.sysc.simtime import MS, US

CPU_HZ = 100_000_000

_DOUBLER_RTOS = """
        .org 0x1000
main:
        li r0, 1
        sys 32              ; dev_open
        mov r4, r0
        mov r0, r4
        li r1, 1
        la r2, isr
        sys 35              ; ioctl: register ISR
loop:
        li r0, 1
        sys 18              ; sem_wait
        mov r0, r4
        la r1, buf
        li r2, 1
        sys 33              ; dev_read
        lw r5, [r1]
        add r5, r5, r5
        la r6, out
        sw r5, [r6]
        mov r0, r4
        la r1, out
        li r2, 1
        sys 34              ; dev_write
        b loop
isr:
        li r0, 1
        sys 19              ; sem_post
        sys 48              ; iret
buf: .word 0
out: .word 0
"""


class DoublerDevice(Module):
    def __init__(self, requests, raise_irq=None, period=20 * US,
                 kernel=None):
        super().__init__("doubler", kernel)
        self.req_port = IssOutPort("req")
        self.resp_port = IssInPort("resp")
        self.requests = list(requests)
        self.period = period
        self.responses = []
        self.raise_irq = raise_irq
        make_iss_process(self, self._on_resp, [self.resp_port])
        self.thread(self._submit, name="submit")

    def ports(self):
        return {"req": self.req_port, "resp": self.resp_port}

    def _submit(self):
        for index, value in enumerate(self.requests):
            self.req_port.post(value)
            self.raise_irq(3)
            while len(self.responses) < index + 1:
                yield self.resp_port.received
            yield self.period

    def _on_resp(self):
        self.responses.append(self.resp_port.read())


@pytest.fixture
def system(kernel):
    Clock(1 * US, "clk")
    metrics = CosimMetrics()
    scheme = DriverKernelScheme(kernel, metrics)
    cpu = Cpu()
    rtos = RtosKernel(cpu)
    rtos.create_semaphore(1)
    program = assemble(_DOUBLER_RTOS)
    for address, data in program.chunks:
        cpu.memory.write_bytes(address, data)
    cpu.flush_decode_cache()
    rtos.create_thread("main", program.symbols.labels["main"], 0x8000)
    device = DoublerDevice([3, 5, 9], kernel=kernel)
    context = scheme.attach_rtos(rtos, device.ports(), CPU_HZ)
    driver = CosimPortDriver(1, "dev", rx_ports=["req"], tx_port="resp",
                             irq_vector=3,
                             data_endpoint=context.guest_data_endpoint)
    rtos.register_driver(driver)
    device.raise_irq = lambda v: scheme.raise_interrupt(context, v)
    scheme.elaborate()
    return scheme, device, rtos, metrics, driver


class TestDriverKernelScheme:
    def test_doubler_round_trips(self, kernel, system):
        scheme, device, rtos, metrics, driver = system
        kernel.run(2 * MS)
        assert device.responses == [6, 10, 18]

    def test_interrupts_flow_on_interrupt_socket(self, kernel, system):
        scheme, device, rtos, metrics, driver = system
        kernel.run(2 * MS)
        assert metrics.interrupts_posted == 3
        assert rtos.isr_count == 3

    def test_message_counts(self, kernel, system):
        scheme, device, rtos, metrics, driver = system
        kernel.run(2 * MS)
        # Per request: one READ + one WRITE received; one READ_REPLY sent.
        assert metrics.messages_received == 6
        assert metrics.messages_sent == 3

    def test_no_gdb_machinery_involved(self, kernel, system):
        scheme, device, rtos, metrics, driver = system
        kernel.run(2 * MS)
        assert metrics.sync_transactions == 0
        assert metrics.transfer_transactions == 0
        assert metrics.breakpoint_hits == 0

    def test_rtos_burns_full_time_budget(self, kernel, system):
        scheme, device, rtos, metrics, driver = system
        kernel.run(1 * MS)
        # 1 ms at 100 MHz = 100k cycles, all consumed (run or idle).
        assert rtos.cpu.cycles == pytest.approx(100_000, abs=200)

    def test_boot_race_interrupt_before_isr_registration(self, kernel):
        """An interrupt raised at t=0 — before the guest has run at all
        — must still be delivered once the driver registers its ISR."""
        Clock(1 * US, "clk")
        scheme = DriverKernelScheme(kernel)
        cpu = Cpu()
        rtos = RtosKernel(cpu)
        rtos.create_semaphore(1)
        program = assemble(_DOUBLER_RTOS)
        for address, data in program.chunks:
            cpu.memory.write_bytes(address, data)
        cpu.flush_decode_cache()
        rtos.create_thread("main", program.symbols.labels["main"], 0x8000)
        device = DoublerDevice([11], kernel=kernel)
        context = scheme.attach_rtos(rtos, device.ports(), CPU_HZ)
        driver = CosimPortDriver(1, "dev", ["req"], "resp", 3,
                                 context.guest_data_endpoint)
        rtos.register_driver(driver)
        device.raise_irq = lambda v: scheme.raise_interrupt(context, v)
        scheme.elaborate()
        kernel.run(2 * MS)
        assert device.responses == [22]


def _bare_context(kernel, ports):
    """A minimal context for exercising the hook's message handling."""
    from repro.cosim.channels import Pipe
    from repro.cosim.driver_kernel import RtosContext

    pipe = Pipe("unit")
    context = RtosContext(name="unit", cpu=None, rtos=None, binding=None,
                          ports=dict(ports), data_endpoint=pipe.a)
    return context, pipe.b


class TestMessageValidation:
    """Hook-level wire-format and port-kind checks."""

    def test_oversized_iss_out_value_rejected(self, kernel):
        """A port value that does not fit the 32-bit wire format must
        raise instead of being silently masked."""
        from repro.cosim.driver_kernel import DriverKernelScheme
        from repro.cosim.messages import Block, Message, MessageType
        from repro.cosim.ports import IssOutPort
        from repro.errors import CosimError

        port = IssOutPort("wide", kernel=kernel)
        port.signal.force(1 << 32)
        hook = DriverKernelScheme(kernel)
        context, __ = _bare_context(kernel, {"wide": port})
        message = Message(MessageType.READ, [Block("wide", b"")], 1)
        with pytest.raises(CosimError, match="32-bit wire format"):
            hook._handle_message(context, message)

    def test_negative_iss_out_value_rejected(self, kernel):
        from repro.cosim.driver_kernel import DriverKernelScheme
        from repro.cosim.messages import Block, Message, MessageType
        from repro.cosim.ports import IssOutPort
        from repro.errors import CosimError

        port = IssOutPort("neg", kernel=kernel)
        port.signal.force(-1)
        hook = DriverKernelScheme(kernel)
        context, __ = _bare_context(kernel, {"neg": port})
        message = Message(MessageType.READ, [Block("neg", b"")], 1)
        with pytest.raises(CosimError, match="32-bit wire format"):
            hook._handle_message(context, message)

    def test_max_u32_still_fits(self, kernel):
        from repro.cosim.driver_kernel import DriverKernelScheme
        from repro.cosim.messages import (Block, Message, MessageType,
                                          unpack_message)
        from repro.cosim.ports import IssOutPort

        port = IssOutPort("edge", kernel=kernel)
        port.signal.force(0xFFFFFFFF)
        hook = DriverKernelScheme(kernel)
        context, guest_end = _bare_context(kernel, {"edge": port})
        hook._handle_message(
            context, Message(MessageType.READ, [Block("edge", b"")], 1))
        reply = unpack_message(guest_end.recv())
        assert reply.blocks[0].data == b"\xff\xff\xff\xff"

    def test_write_to_iss_out_port_rejected(self, kernel):
        """The driver writing into an iss_out port is a protocol error,
        not a silent type confusion."""
        from repro.cosim.driver_kernel import DriverKernelScheme
        from repro.cosim.messages import Block, Message, MessageType
        from repro.cosim.ports import IssOutPort
        from repro.errors import CosimError

        port = IssOutPort("outp", kernel=kernel)
        hook = DriverKernelScheme(kernel)
        context, __ = _bare_context(kernel, {"outp": port})
        message = Message(
            MessageType.WRITE, [Block("outp", (5).to_bytes(4, "little"))], 1)
        with pytest.raises(CosimError, match="as an iss_in"):
            hook._handle_message(context, message)

    def test_read_from_iss_in_port_rejected(self, kernel):
        from repro.cosim.driver_kernel import DriverKernelScheme
        from repro.cosim.messages import Block, Message, MessageType
        from repro.cosim.ports import IssInPort
        from repro.errors import CosimError

        port = IssInPort("inp", kernel=kernel)
        hook = DriverKernelScheme(kernel)
        context, __ = _bare_context(kernel, {"inp": port})
        message = Message(MessageType.READ, [Block("inp", b"")], 1)
        with pytest.raises(CosimError, match="as an iss_out"):
            hook._handle_message(context, message)

    def test_unknown_port_still_rejected(self, kernel):
        from repro.cosim.driver_kernel import DriverKernelScheme
        from repro.cosim.messages import Block, Message, MessageType
        from repro.errors import CosimError

        hook = DriverKernelScheme(kernel)
        context, __ = _bare_context(kernel, {})
        message = Message(MessageType.READ, [Block("ghost", b"")], 1)
        with pytest.raises(CosimError, match="unknown SystemC port"):
            hook._handle_message(context, message)


class TestReliableTransport:
    def test_doubler_over_reliable_sockets(self, kernel):
        """The full scheme works unchanged with the reliable framing
        stacked over both sockets (no faults: zero retransmissions)."""
        Clock(1 * US, "clk")
        metrics = CosimMetrics()
        scheme = DriverKernelScheme(kernel, metrics)
        cpu = Cpu()
        rtos = RtosKernel(cpu)
        rtos.create_semaphore(1)
        program = assemble(_DOUBLER_RTOS)
        for address, data in program.chunks:
            cpu.memory.write_bytes(address, data)
        cpu.flush_decode_cache()
        rtos.create_thread("main", program.symbols.labels["main"], 0x8000)
        device = DoublerDevice([3, 5, 9], kernel=kernel)
        context = scheme.attach_rtos(rtos, device.ports(), CPU_HZ,
                                     reliability=True)
        driver = CosimPortDriver(1, "dev", ["req"], "resp", 3,
                                 context.guest_data_endpoint)
        rtos.register_driver(driver)
        device.raise_irq = lambda v: scheme.raise_interrupt(context, v)
        scheme.elaborate()
        kernel.run(2 * MS)
        assert device.responses == [6, 10, 18]
        assert metrics.retransmits == 0
        assert metrics.contexts_quarantined == 0
