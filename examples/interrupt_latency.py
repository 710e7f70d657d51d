"""Measure guest interrupt latency under the Driver-Kernel scheme.

Run:  python examples/interrupt_latency.py

The Driver-Kernel scheme's distinguishing capability (paper Section 4)
is interrupt modeling: the SystemC device raises an interrupt, the
kernel forwards it on the socket interrupt port, and the RTOS runs the
guest ISR.  This example measures the full hardware-event-to-ISR and
hardware-event-to-application latencies in guest cycles, and shows how
they scale with the RTOS cost model.
"""

from repro.cosim.driver_kernel import DriverKernelScheme
from repro.cosim.ports import IssInPort, IssOutPort, make_iss_process
from repro.iss.assembler import assemble
from repro.iss.cpu import Cpu
from repro.rtos.costs import CostModel
from repro.rtos.driver import CosimPortDriver
from repro.rtos.kernel import RtosKernel
from repro.sysc.clock import Clock
from repro.sysc.kernel import Kernel, set_current_kernel
from repro.sysc.module import Module
from repro.sysc.simtime import MS, US

CPU_HZ = 100_000_000

GUEST = """
        .org 0x1000
main:
        li r0, 1
        sys 32              ; dev_open
        mov r4, r0
        mov r0, r4
        li r1, 1
        la r2, isr
        sys 35              ; register ISR
loop:
        li r0, 1
        sys 18              ; sem_wait (posted by the ISR)
        ; application-level response: echo a token to the device
        la r1, token
        li r5, 1
        sw r5, [r1]
        mov r0, r4
        li r2, 1
        sys 34              ; dev_write
        b loop
isr:
        li r0, 1
        sys 19              ; sem_post
        sys 48              ; iret
token: .word 0
"""


class Pinger(Module):
    """Raises an interrupt and waits for the guest's echo."""

    def __init__(self, rounds, raise_irq=None):
        super().__init__("pinger")
        self.port = IssOutPort("unused_rx", "unused_rx")
        self.echo = IssInPort("echo", "echo")
        self.rounds = rounds
        self.raise_irq = raise_irq
        self.sent_at = []
        self.echoed_at = []
        make_iss_process(self, self.on_echo, [self.echo])
        self.thread(self.ping)

    def ping(self):
        for __ in range(self.rounds):
            self.sent_at.append(self.kernel.now)
            self.raise_irq(3)
            while len(self.echoed_at) < len(self.sent_at):
                yield self.echo.received
            yield 50 * US

    def on_echo(self):
        self.echoed_at.append(self.kernel.now)


def measure(cost_scale):
    kernel = Kernel("irq-latency")
    Clock(1 * US, "clk")
    scheme = DriverKernelScheme(kernel)
    cpu = Cpu()
    rtos = RtosKernel(cpu, CostModel().scaled(cost_scale))
    rtos.create_semaphore(1)
    program = assemble(GUEST)
    for address, data in program.chunks:
        cpu.memory.write_bytes(address, data)
    cpu.flush_decode_cache()
    rtos.create_thread("main", program.symbols.labels["main"], 0x8000)
    pinger = Pinger(rounds=20)
    context = scheme.attach_rtos(
        rtos, {"echo": pinger.echo, "unused_rx": pinger.port}, CPU_HZ)
    driver = CosimPortDriver(1, "dev", ["unused_rx"], "echo", 3,
                             context.guest_data_endpoint)
    rtos.register_driver(driver)
    pinger.raise_irq = lambda v: scheme.raise_interrupt(context, v)
    scheme.elaborate()
    kernel.run(5 * MS)
    set_current_kernel(None)
    latencies_us = [(echo - sent) / (1 * US)
                    for sent, echo in zip(pinger.sent_at,
                                          pinger.echoed_at)]
    # Skip the first round (boot effects).
    steady = latencies_us[1:]
    return sum(steady) / len(steady), rtos.isr_count


def main():
    print("hardware-interrupt -> application-echo latency "
          "(simulated time):\n")
    print("  OS cost scale   mean latency    ISRs")
    for scale in (0.0, 0.5, 1.0, 2.0, 4.0):
        latency, isrs = measure(scale)
        bar = "#" * int(latency)
        print("  %8.1fx      %7.2f us     %3d   %s"
              % (scale, latency, isrs, bar))
    print("\nLatency grows with the RTOS cost model - the overhead the "
          "paper's Figure 7 visualises at system level.")


if __name__ == "__main__":
    main()
