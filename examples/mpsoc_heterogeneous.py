"""A heterogeneous multi-processor SoC in one simulation.

Run:  python examples/mpsoc_heterogeneous.py

The paper's architectural template is "several processors interacting
with hardware blocks".  This example instantiates TWO processor cores
inside one SystemC simulation, each coupled with a *different*
co-simulation scheme:

- core 0: bare-metal firmware under the GDB-Kernel scheme, acting as a
  multiplier unit;
- core 1: an RTOS application under the Driver-Kernel scheme, acting as
  an accumulator with interrupt-driven input.

A pipeline module streams values through both cores:
value -> (core 0: x * 3) -> (core 1: running sum) -> result.
"""

from repro.cosim.driver_kernel import DriverKernelScheme
from repro.cosim.gdb_kernel import GdbKernelScheme
from repro.cosim.pragmas import build_pragma_map
from repro.cosim.ports import IssInPort, IssOutPort, make_iss_process
from repro.iss.assembler import assemble
from repro.iss.cpu import Cpu
from repro.iss.loader import load_program
from repro.rtos.driver import CosimPortDriver
from repro.rtos.kernel import RtosKernel
from repro.sysc.clock import Clock
from repro.sysc.kernel import Kernel
from repro.sysc.module import Module
from repro.sysc.simtime import MS, US

CPU_HZ = 100_000_000

TRIPLER_FIRMWARE = """
        .entry main
main:
loop:
        la   r10, req
        ;#pragma iss_out req
        lw   r0, [r10]
        add  r1, r0, r0
        add  r0, r1, r0         ; r0 = 3 * req
        la   r10, resp
        ;#pragma iss_in resp
        sw   r0, [r10]
        nop
        b    loop
req:    .word 0
resp:   .word 0
"""

ACCUMULATOR_APP = """
        .org 0x1000
main:
        li r0, 1
        sys 32                  ; dev_open
        mov r4, r0
        mov r0, r4
        li r1, 1
        la r2, isr
        sys 35                  ; register ISR
        li r7, 0                ; running sum
loop:
        li r0, 1
        sys 18                  ; sem_wait
        mov r0, r4
        la r1, buf
        li r2, 1
        sys 33                  ; dev_read -> one word
        lw r5, [r1]
        add r7, r7, r5
        la r6, out
        sw r7, [r6]
        mov r0, r4
        la r1, out
        li r2, 1
        sys 34                  ; dev_write (current sum)
        b loop
isr:
        li r0, 1
        sys 19
        sys 48
buf: .word 0
out: .word 0
"""


class Pipeline(Module):
    """Feeds values through the tripler core then the accumulator core."""

    def __init__(self, values, kernel=None):
        super().__init__("pipeline", kernel)
        # Stage 1 ports (GDB-Kernel core).
        self.mul_req = IssOutPort("mul_req", "req")
        self.mul_resp = IssInPort("mul_resp", "resp")
        # Stage 2 ports (Driver-Kernel core).
        self.acc_req = IssOutPort("acc_req", "acc_req")
        self.acc_resp = IssInPort("acc_resp", "acc_resp")
        self.raise_irq = None
        self.values = values
        self.tripled = []
        self.sums = []
        make_iss_process(self, self._stage2_feed, [self.mul_resp])
        make_iss_process(self, self._collect, [self.acc_resp])
        self.thread(self._feed, name="feed")

    def _feed(self):
        for index, value in enumerate(self.values):
            self.mul_req.post(value)
            while len(self.sums) < index + 1:
                yield self.acc_resp.received
            yield 20 * US

    def _stage2_feed(self):
        tripled = self.mul_resp.read()
        self.tripled.append(tripled)
        self.acc_req.post(tripled)
        self.raise_irq(3)

    def _collect(self):
        self.sums.append(self.acc_resp.read())


def main():
    kernel = Kernel("mpsoc")
    Clock(1 * US, "clk")
    values = [1, 2, 3, 4, 5]
    pipeline = Pipeline(values)

    # Core 0: GDB-Kernel scheme, bare-metal tripler firmware.
    gdb_scheme = GdbKernelScheme(kernel)
    firmware = assemble(TRIPLER_FIRMWARE)
    core0 = Cpu(name="core0")
    load_program(core0, firmware, stack_top=0x8000)
    gdb_scheme.attach_cpu(core0, build_pragma_map(firmware),
                          {"req": pipeline.mul_req,
                           "resp": pipeline.mul_resp}, CPU_HZ)
    gdb_scheme.elaborate()

    # Core 1: Driver-Kernel scheme, RTOS accumulator.
    driver_scheme = DriverKernelScheme(kernel)
    core1 = Cpu(name="core1")
    rtos = RtosKernel(core1)
    rtos.create_semaphore(1)
    app = assemble(ACCUMULATOR_APP)
    for address, data in app.chunks:
        core1.memory.write_bytes(address, data)
    core1.flush_decode_cache()
    rtos.create_thread("acc", app.symbols.labels["main"], 0x8000)
    context = driver_scheme.attach_rtos(
        rtos, {"acc_req": pipeline.acc_req,
               "acc_resp": pipeline.acc_resp}, CPU_HZ)
    driver = CosimPortDriver(1, "acc_dev", ["acc_req"], "acc_resp", 3,
                             context.guest_data_endpoint)
    rtos.register_driver(driver)
    pipeline.raise_irq = \
        lambda vector: driver_scheme.raise_interrupt(context, vector)
    driver_scheme.elaborate()

    kernel.run(5 * MS)

    print("inputs:          ", values)
    print("core0 tripled:   ", pipeline.tripled, "(GDB-Kernel, bare metal)")
    print("core1 running sum:", pipeline.sums,
          "(Driver-Kernel, RTOS + ISR)")
    expected = []
    total = 0
    for value in values:
        total += 3 * value
        expected.append(total)
    assert pipeline.sums == expected
    print("\ncore0: %d instructions; core1: %d instructions, %d ISRs"
          % (core0.instructions, core1.instructions, rtos.isr_count))


if __name__ == "__main__":
    main()
