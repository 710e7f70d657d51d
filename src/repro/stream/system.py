"""Builder for the streaming case study (Driver-Kernel scheme)."""

from dataclasses import dataclass
from typing import Optional

from repro.cosim.driver_kernel import DriverKernelScheme
from repro.cosim.metrics import CosimMetrics
from repro.errors import CosimError
from repro.iss.assembler import assemble
from repro.iss.cpu import Cpu
from repro.iss.loader import load_program
from repro.rtos.costs import CostModel
from repro.rtos.driver import CosimPortDriver
from repro.rtos.kernel import RtosKernel
from repro.stream.filter_app import (FILTER_DEVICE_ID,
                                     FILTER_SEMAPHORE_ID,
                                     build_filter_app)
from repro.stream.sink import SAMPLES_OUT_PORT, SampleSink
from repro.stream.source import (FILTER_IRQ_VECTOR, SAMPLES_IN_PORT,
                                 SampleSource)
from repro.sysc.clock import Clock
from repro.sysc.kernel import Kernel
from repro.sysc.simtime import US


@dataclass
class StreamConfig:
    """Parameters of one streaming run."""

    scheme: str = "driver-kernel"   # or "gdb-kernel" (per-sample)
    total_samples: int = 256
    block_words: int = 16
    window: int = 4
    inter_block_delay: int = 5 * US
    clock_period: int = 1 * US
    cpu_hz: int = 100_000_000
    seed: int = 1
    stack_top: int = 0x80000
    rtos_costs: Optional[CostModel] = None


class StreamSystem:
    """The wired-up streaming scenario."""

    def __init__(self, config):
        if config.scheme not in ("driver-kernel", "gdb-kernel"):
            raise CosimError("stream scheme must be driver-kernel or "
                             "gdb-kernel, got %r" % config.scheme)
        self.config = config
        self.kernel = Kernel("stream")
        Clock(config.clock_period, "clk")
        self.metrics = CosimMetrics()
        self.rtos = None
        self.cpu = Cpu(name="dsp0")
        if config.scheme == "driver-kernel":
            self._wire_driver(config)
        else:
            self._wire_gdb(config)

    def _wire_driver(self, config):
        self.sink = SampleSink(config.total_samples, config.block_words,
                               config.window, config.seed)
        self.source = SampleSource(self.sink, config.total_samples,
                                   config.block_words,
                                   config.inter_block_delay, config.seed)
        self.app = build_filter_app(config.block_words, config.window)
        load_program(self.cpu, self.app.program,
                     stack_top=config.stack_top)
        self.rtos = RtosKernel(self.cpu, config.rtos_costs)
        self.rtos.create_semaphore(FILTER_SEMAPHORE_ID)
        self.rtos.create_thread("filter", self.app.entry,
                                config.stack_top)
        self.scheme = DriverKernelScheme(self.kernel, self.metrics)
        context = self.scheme.attach_rtos(
            self.rtos,
            {SAMPLES_IN_PORT: self.source.port,
             SAMPLES_OUT_PORT: self.sink.port},
            config.cpu_hz)
        self.driver = CosimPortDriver(
            FILTER_DEVICE_ID, "filter_dev",
            rx_ports=[SAMPLES_IN_PORT], tx_port=SAMPLES_OUT_PORT,
            irq_vector=FILTER_IRQ_VECTOR,
            data_endpoint=context.guest_data_endpoint)
        self.rtos.register_driver(self.driver)
        self.source.raise_irq = \
            lambda vector: self.scheme.raise_interrupt(context, vector)
        self.scheme.elaborate()

    def _wire_gdb(self, config):
        from repro.cosim.gdb_kernel import GdbKernelScheme
        from repro.cosim.pragmas import build_pragma_map
        from repro.stream.gdb_variant import (PerSampleSink,
                                              PerSampleSource,
                                              SAMPLE_IN_VAR,
                                              SAMPLE_OUT_VAR,
                                              gdb_filter_source)

        self.sink = PerSampleSink(config.total_samples, config.window,
                                  config.seed)
        # Per-sample pacing: spread the block delay over its samples.
        delay = max(1, config.inter_block_delay // config.block_words)
        self.source = PerSampleSource(self.sink, config.total_samples,
                                      delay, config.seed)
        program = assemble(gdb_filter_source(config.window))
        self.app = program
        load_program(self.cpu, program, stack_top=config.stack_top)
        self.scheme = GdbKernelScheme(self.kernel, self.metrics)
        self.scheme.attach_cpu(
            self.cpu, build_pragma_map(program),
            {SAMPLE_IN_VAR: self.source.port,
             SAMPLE_OUT_VAR: self.sink.port},
            config.cpu_hz)
        self.scheme.elaborate()

    @property
    def complete(self):
        return len(self.sink.received) >= self.config.total_samples

    def run(self, duration):
        """Advance the co-simulation by *duration* femtoseconds."""
        return self.kernel.run(duration)

    def throughput_samples_per_ms(self):
        """Filtered samples per simulated millisecond so far."""
        if self.kernel.now == 0:
            return 0.0
        return len(self.sink.received) / (self.kernel.now / 1e12)


def build_stream_system(config=None, **overrides):
    """Build a StreamSystem from a config or keyword overrides."""
    if config is None:
        config = StreamConfig(**overrides)
    return StreamSystem(config)
