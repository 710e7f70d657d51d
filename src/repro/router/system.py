"""Full case-study scenario builder.

Assembles the complete Figure 6 system — router, producers, consumers,
checksum application on the ISS — wired through any of the three
co-simulation schemes (or an ideal local engine as the control), and
exposes the statistics the paper's evaluation reports.
"""

import os
from dataclasses import asdict, dataclass, field, fields
from typing import Optional

from repro.apps.build import build_driver_app, build_gdb_app
from repro.apps.sources import CHECKSUM_DEVICE_ID, DATA_SEMAPHORE_ID
from repro.cosim.driver_kernel import DriverKernelScheme
from repro.cosim.gdb_kernel import GdbKernelScheme
from repro.cosim.gdb_wrapper import GdbWrapperScheme
from repro.cosim.metrics import CosimMetrics
from repro.cosim.parallel import make_dispatcher
from repro.errors import CosimError
from repro.iss.cpu import CPU_COUNTERS, TIERS, Cpu
from repro.iss.loader import load_program
from repro.router.consumer import Consumer
from repro.router.engines import (CHECKSUM_IRQ_VECTOR, DriverChecksumEngine,
                                  GdbChecksumEngine, LocalChecksumEngine)
from repro.router.producer import Producer
from repro.router.router import Router
from repro.router.routing_table import RoutingTable
from repro.rtos.costs import CostModel
from repro.rtos.driver import CosimPortDriver
from repro.rtos.kernel import RtosKernel
from repro.sysc.clock import Clock
from repro.sysc.kernel import Kernel
from repro.sysc.simtime import US

SCHEMES = ("local", "gdb-wrapper", "gdb-kernel", "driver-kernel")

#: Environment overrides for the parallel execution defaults, so an
#: unmodified test suite can be swept across dispatcher configurations
#: (the CI parallel matrix leg sets these).
PARALLEL_ENV = "REPRO_PARALLEL"
WORKERS_ENV = "REPRO_WORKERS"

#: Environment override for the ISS execution tier, so the same suite
#: sweeps interp/blocks/superblocks (the CI superblock-tier leg sets
#: this to "superblocks").
TIER_ENV = "REPRO_TIER"


def _env_parallel():
    value = os.environ.get(PARALLEL_ENV, "").strip().lower()
    if value in ("", "0", "off", "false", "none"):
        return None
    if value in ("1", "on", "true", "thread"):
        return "thread"
    return value    # "process", or rejected later by ParallelConfig


def _env_workers():
    value = os.environ.get(WORKERS_ENV, "").strip()
    return int(value) if value else 2


def _env_tier():
    value = os.environ.get(TIER_ENV, "").strip().lower()
    return value if value else "blocks"


@dataclass
class RouterConfig:
    """Parameters of one case-study run."""

    scheme: str = "gdb-kernel"
    num_ports: int = 4
    num_addresses: int = 16
    clock_period: int = 1 * US        # SystemC sync quantum
    cpu_hz: int = 100_000_000         # ISS clock
    inter_packet_delay: int = 40 * US  # Figure 7's x axis
    input_capacity: int = 8
    output_capacity: int = 64
    seed: int = 42
    max_packets: Optional[int] = None
    app_origin: int = 0x1000
    memory_size: int = 1 << 20
    stack_top: int = 0x80000
    rtos_costs: Optional[CostModel] = None
    local_latency: int = 0
    producer_count: Optional[int] = None  # defaults to num_ports
    num_cpus: int = 1                     # checksum CPUs (MPSoC config)
    algorithm: str = "sum"                # "sum" (paper) or "crc32"
    # Guest recomputes each packet checksum this many times — the
    # result is unchanged (same buffer each round) but guest compute
    # scales linearly.  The parallel-speedup benchmarks use this to
    # make ISS execution dominate synchronisation traffic.
    checksum_rounds: int = 1
    # GDB schemes only: use the blocked guest app whose packet words
    # all bind to one stacked-pragma breakpoint, so each packet moves
    # in a single RSP block exchange (docs/parallel.md bulk transfers)
    # instead of one stop per word.
    blocked_transfers: bool = False
    burst: int = 1                        # producer burstiness
    # Topology (docs/fuzzing.md): None builds the paper's single
    # ``num_ports``x``num_ports`` router; a list of stage widths (all
    # equal to num_ports — the fabric is square) builds a multi-stage
    # pipeline whose egress stage carries the ISS checksum engines and
    # whose earlier stages forward through zero-latency local engines.
    stages: Optional[list] = None
    # Traffic model spec (docs/fuzzing.md): None derives the model
    # from inter_packet_delay/burst (the paper's stream); a dict like
    # {"kind": "onoff", "on_mean": 4, "off_mean": 8} selects a
    # pluggable seeded model from repro.router.traffic.
    traffic: Optional[object] = None
    # Transport resilience (docs/resilience.md): reliable framing over
    # the co-simulation links, an injected link-fault plan underneath
    # it, and the stalled-context watchdog (in scheduler timesteps).
    reliability: Optional[object] = None  # ReliabilityConfig or True
    fault_plan: Optional[object] = None   # FaultPlan
    watchdog_ticks: Optional[int] = None
    # Co-simulation sync quantum (docs/performance.md): the ISS banks
    # this many timesteps of cycle budget per kernel synchronisation
    # when no stop source can fire in the window.  1 = lock-step.
    sync_quantum: int = 1
    # Parallel execution (docs/parallel.md): dispatch the contexts'
    # cycle budgets to a worker pool each quantum, committing in
    # deterministic attach order.  None/False = serial; "thread" or
    # True = pool threads; "process" = forked per-ISS workers with
    # shared-memory guest RAM.  Defaults honor REPRO_PARALLEL /
    # REPRO_WORKERS so an unmodified suite can be swept.
    parallel: Optional[object] = field(default_factory=_env_parallel)
    workers: int = field(default_factory=_env_workers)
    # ISS execution tier (docs/performance.md): "interp" forces the
    # legacy name-dispatch chain, "blocks" (default) the closure-block
    # compiler, "superblocks" the profile-guided superblock tier on
    # top of it.  Honors REPRO_TIER so an unmodified suite can be
    # swept across tiers.
    tier: str = field(default_factory=_env_tier)
    # Emit opt-in cosim/parallel_commit trace events (these add events
    # relative to a serial run, so they default off).
    parallel_trace_commits: bool = False
    # DMI binding tier (docs/dmi.md): map bound guest windows directly
    # onto guest RAM so kernel<->ISS data motion is zero-copy, with
    # precise fallback to the transactional tier.  Ignored by the
    # local scheme; contexts with a fault plan or reliable transport
    # stay transactional (the dmi-safe contract).
    dmi: bool = False
    # Observability (docs/observability.md): an obs.Tracer attached to
    # the kernel before the scheme is wired, so every layer shares it.
    tracer: Optional[object] = None
    # Telemetry time-series (docs/observability.md): a MetricsSampler
    # attached as a kernel trace sink records one deterministic counter
    # point per 10 us grid period with sync progress.  Cheap (one time
    # compare per timestep, a point at most once per grid period) and
    # byte-identical serial vs parallel; disable to shave the last
    # percent off a hot benchmark loop.
    telemetry: bool = True


@dataclass
class SystemStats:
    """The numbers the evaluation section reports."""

    generated: int
    input_drops: int
    forwarded: int
    received: int
    corrupt: int
    output_drops: int
    forwarded_percent: float
    latency_mean_fs: float = 0.0
    latency_p95_fs: float = 0.0
    metrics: dict = field(default_factory=dict)


def validate_config(config):
    """Reject impossible topology/traffic configurations loudly.

    Raises :class:`~repro.errors.CosimError` with a one-line message —
    the CLI surfaces these verbatim with exit code 2, and the fuzzer's
    scenario space promises never to sample a config this rejects.
    """
    from repro.router.traffic import traffic_from_dict

    if config.scheme not in SCHEMES:
        raise CosimError("unknown scheme %r (one of %s)"
                         % (config.scheme, ", ".join(SCHEMES)))
    if config.num_cpus < 1:
        raise CosimError("num_cpus must be >= 1")
    if config.sync_quantum < 1:
        raise CosimError("sync_quantum must be >= 1, got %r"
                         % (config.sync_quantum,))
    if config.parallel and config.workers < 1:
        raise CosimError("workers must be >= 1 when parallel, got %r"
                         % (config.workers,))
    if config.tier not in TIERS:
        raise CosimError("unknown tier %r (one of %s)"
                         % (config.tier, ", ".join(TIERS)))
    if config.num_ports < 2:
        raise CosimError("num_ports must be >= 2 (an NxN router needs "
                         "N >= 2), got %d" % config.num_ports)
    if config.inter_packet_delay <= 0:
        raise CosimError("inter_packet_delay must be positive, got %r"
                         % (config.inter_packet_delay,))
    if config.burst < 1:
        raise CosimError("burst must be >= 1, got %r" % (config.burst,))
    if config.stages is not None:
        widths = list(config.stages)
        if not widths:
            raise CosimError("stages must name at least one stage width")
        for width in widths:
            if not isinstance(width, int) or width < 2:
                raise CosimError("stage widths must be integers >= 2, "
                                 "got %r" % (width,))
            if width != config.num_ports:
                raise CosimError(
                    "non-square stage spec: stage width %d != num_ports "
                    "%d (every stage of the fabric must be NxN)"
                    % (width, config.num_ports))
    # Building the traffic model validates its parameters.
    traffic_from_dict(config.traffic, config.inter_packet_delay,
                      config.burst)


class RouterSystem:
    """A fully-wired case-study instance."""

    def __init__(self, config):
        validate_config(config)
        self.config = config
        self.kernel = Kernel("system:" + config.scheme)
        if config.tracer is not None:
            self.kernel.attach_tracer(config.tracer)
        self.clock = Clock(config.clock_period, "clk")
        self.metrics = CosimMetrics()
        self.dispatcher = make_dispatcher(
            config.parallel, config.workers, tracer=self.kernel.tracer,
            trace_commits=config.parallel_trace_commits)
        self.cpus = []
        self.rtoses = []
        self.scheme = None
        self.app = None
        self.engines = self._build_engines()
        self.engine = self.engines[0]
        self.routers = self._build_topology()
        self.router = self.routers[-1]      # the egress (checksum) stage
        self.table = self.router.routing_table
        producer_count = config.producer_count or config.num_ports
        ingress = self.routers[0]
        self.producers = [
            Producer("producer%d" % index,
                     ingress.inputs[index % config.num_ports],
                     config.inter_packet_delay,
                     config.num_addresses,
                     seed=config.seed + index,
                     source_address=index,
                     max_packets=config.max_packets,
                     burst=config.burst,
                     traffic=config.traffic)
            for index in range(producer_count)
        ]
        self.consumers = [
            Consumer("consumer%d" % index, self.router.outputs[index],
                     algorithm=config.algorithm)
            for index in range(config.num_ports)
        ]
        self._wire_scheme()
        # Grid telemetry sampler (repro.obs.metrics).  The local
        # scheme has no sync traffic to sample, so it stays None there.
        self.telemetry = None
        if config.telemetry and self.scheme is not None:
            from repro.obs.metrics import MetricsSampler
            self.telemetry = MetricsSampler(self)
            self.kernel.add_trace(self.telemetry)

    # -- construction helpers -------------------------------------------------

    @property
    def cpu(self):
        """The first checksum CPU (None for the local scheme)."""
        return self.cpus[0] if self.cpus else None

    @property
    def tracer(self):
        """The kernel's observability tracer (NULL_TRACER if unset)."""
        return self.kernel.tracer

    @property
    def rtos(self):
        """The first guest RTOS (Driver-Kernel scheme only)."""
        return self.rtoses[0] if self.rtoses else None

    def _build_topology(self):
        """Build the router fabric: one NxN router, or a pipeline.

        A single-stage topology is the paper's Figure 6 system,
        byte-identical to every pre-topology run.  A multi-stage spec
        chains ``len(stages)`` NxN routers: each stage's output queues
        *are* the next stage's input queues (no copy modules), stage
        *k* routes on address digit ``depth-1-k`` base N (so the
        egress stage routes exactly like the single router), and only
        the egress stage drives the ISS checksum engines — earlier
        stages forward through zero-latency local engines, modeling a
        fabric with checksum offload at the egress.
        """
        config = self.config
        widths = list(config.stages) if config.stages else \
            [config.num_ports]
        depth = len(widths)
        if depth == 1:
            table = RoutingTable.modulo(config.num_addresses,
                                        config.num_ports)
            return [Router("router", table, self.engines,
                           config.num_ports, config.input_capacity,
                           config.output_capacity)]
        routers = []
        inputs = None
        for stage in range(depth):
            last = stage == depth - 1
            table = RoutingTable.stage_modulo(
                config.num_addresses, config.num_ports, stage, depth)
            engines = self.engines if last else [LocalChecksumEngine(
                "stage%d_fwd" % stage, latency=0,
                algorithm=config.algorithm)]
            # Inter-stage queues act as the next stage's input buffers,
            # so they get the input capacity; only the egress queues —
            # drained by consumers — get the output capacity.
            capacity = (config.output_capacity if last
                        else config.input_capacity)
            router = Router("router%d" % stage, table, engines,
                            config.num_ports, config.input_capacity,
                            capacity, inputs=inputs)
            routers.append(router)
            inputs = router.outputs
        return routers

    def _build_engines(self):
        scheme = self.config.scheme
        count = self.config.num_cpus
        if scheme == "local":
            return [LocalChecksumEngine("chk_local%d" % i,
                                        latency=self.config.local_latency,
                                        algorithm=self.config.algorithm)
                    for i in range(count)]
        if scheme in ("gdb-wrapper", "gdb-kernel"):
            return [GdbChecksumEngine("chk_gdb%d" % i)
                    for i in range(count)]
        return [DriverChecksumEngine("chk_drv%d" % i)
                for i in range(count)]

    def _wire_scheme(self):
        scheme_name = self.config.scheme
        if scheme_name == "local":
            return
        if scheme_name in ("gdb-wrapper", "gdb-kernel"):
            self._wire_gdb(scheme_name)
        else:
            self._wire_driver()

    def _wire_gdb(self, scheme_name):
        config = self.config
        self.app = build_gdb_app(config.app_origin, config.algorithm,
                                 config.checksum_rounds,
                                 blocked=config.blocked_transfers)
        if scheme_name == "gdb-kernel":
            self.scheme = GdbKernelScheme(self.kernel, self.metrics,
                                          config.watchdog_ticks,
                                          sync_quantum=config.sync_quantum,
                                          dispatcher=self.dispatcher)
        else:
            self.scheme = GdbWrapperScheme(self.kernel, self.clock,
                                           self.metrics,
                                           config.watchdog_ticks,
                                           sync_quantum=config.sync_quantum,
                                           dispatcher=self.dispatcher)
        for index, engine in enumerate(self.engines):
            cpu = Cpu(name="cpu%d" % index)
            cpu.tier = config.tier
            load_program(cpu, self.app.program,
                         stack_top=config.stack_top)
            self.cpus.append(cpu)
            self.scheme.attach_cpu(cpu, self.app.pragma_map,
                                   engine.variable_ports(),
                                   config.cpu_hz,
                                   reliability=config.reliability,
                                   faults=config.fault_plan,
                                   dmi=config.dmi)
        self.scheme.elaborate()

    def _wire_driver(self):
        config = self.config
        self.app = build_driver_app(config.app_origin, config.algorithm,
                                    config.checksum_rounds)
        self.scheme = DriverKernelScheme(self.kernel, self.metrics,
                                         config.watchdog_ticks,
                                         sync_quantum=config.sync_quantum,
                                         dispatcher=self.dispatcher)
        self.drivers = []
        for index, engine in enumerate(self.engines):
            cpu = Cpu(name="cpu%d" % index)
            cpu.tier = config.tier
            load_program(cpu, self.app.program,
                         stack_top=config.stack_top)
            self.cpus.append(cpu)
            rtos = RtosKernel(cpu, config.rtos_costs,
                              name="rtos%d" % index)
            rtos.create_semaphore(DATA_SEMAPHORE_ID, 0, "data_ready")
            rtos.create_thread("checksum_main", self.app.entry,
                               config.stack_top)
            self.rtoses.append(rtos)
            context = self.scheme.attach_rtos(
                rtos, engine.socket_ports(), config.cpu_hz,
                reliability=config.reliability,
                faults=config.fault_plan,
                dmi=config.dmi)
            driver = CosimPortDriver(
                CHECKSUM_DEVICE_ID, "chk_dev%d" % index,
                rx_ports=[engine.data_port.variable],
                tx_port=engine.result_port.variable,
                irq_vector=CHECKSUM_IRQ_VECTOR,
                data_endpoint=context.guest_data_endpoint,
            )
            rtos.register_driver(driver)
            self.drivers.append(driver)
            engine.raise_irq = (
                lambda vector, ctx=context:
                self.scheme.raise_interrupt(ctx, vector))
        self.driver = self.drivers[0]
        self.scheme.elaborate()

    # -- running --------------------------------------------------------------

    def run(self, duration):
        """Advance the co-simulation by *duration* femtoseconds."""
        result = self.kernel.run(duration)
        if self.scheme is not None:
            # Spend any cycle budget still banked by a sync quantum > 1
            # so a run boundary never strands guest execution.
            self.scheme.flush_pending()
        if self.telemetry is not None:
            # The closing point: progress since the last grid point,
            # flushed budgets included, so the series ends on this
            # run's final counters.
            self.telemetry.close_run(self.kernel)
        return result

    def close(self):
        """Release parallel execution resources (idempotent).

        Shuts down the dispatcher pool and detaches any forked ISS
        workers, syncing their final state back and destroying the
        shared-memory guest RAM segments.  Serial systems no-op.
        """
        if self.dispatcher is not None:
            self.dispatcher.shutdown()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def parallel_stats(self, wall_seconds=None):
        """Dispatcher pool/worker stats (None when running serial)."""
        if self.dispatcher is None:
            return None
        return self.dispatcher.stats.as_dict(wall_seconds)

    def bindings(self):
        """``(context name, ClockBinding)`` pairs (empty for local)."""
        if self.scheme is None:
            return []
        return self.scheme.bindings()

    def fold_cpu_counters(self):
        """Fold the ISS tier counters into the shared metrics.

        Idempotent (assignment, not accumulation), so :meth:`stats`
        and checkpoint capture can both call it in any order.  The
        per-context tier breakdown stays numeric only:
        ``CosimMetrics.aggregate`` folds ``per_context`` values by
        summation.
        """
        metrics = self.metrics
        for name in CPU_COUNTERS:
            setattr(metrics, name,
                    sum(getattr(cpu, name) for cpu in self.cpus))
        for cpu in self.cpus:
            metrics.per_context.setdefault(cpu.name, {}).update(
                (name, getattr(cpu, name)) for name in CPU_COUNTERS)
        # DMI warp accounting per context (ClockBinding.note_warp):
        # reconciled syncs/cycles/steps join the reads/writes/grants
        # breakdown.  Assignment, so the fold stays idempotent.
        for name, binding in self.bindings():
            metrics.per_context.setdefault(name, {}).update(
                binding.warp_state())

    def stats(self):
        """Collect the evaluation statistics of the run so far."""
        self.fold_cpu_counters()
        generated = sum(producer.generated for producer in self.producers)
        received = sum(consumer.received for consumer in self.consumers)
        corrupt = sum(consumer.corrupt for consumer in self.consumers)
        # Forwarded counts egress deliveries; drops are the producers'
        # rejected puts at the ingress plus every stage's failed
        # forwards (an inter-stage rejection is the upstream stage's
        # output drop).
        forwarded = self.router.forwarded
        percent = 100.0 * forwarded / generated if generated else 0.0
        latencies = sorted(latency for consumer in self.consumers
                           for latency in consumer.latencies)
        mean = (sum(latencies) / len(latencies)) if latencies else 0.0
        p95 = latencies[int(0.95 * (len(latencies) - 1))] \
            if latencies else 0.0
        return SystemStats(
            generated=generated,
            input_drops=self.routers[0].input_drops,
            forwarded=forwarded,
            received=received,
            corrupt=corrupt,
            output_drops=sum(router.output_drops
                             for router in self.routers),
            forwarded_percent=percent,
            latency_mean_fs=mean,
            latency_p95_fs=p95,
            metrics=self.metrics.as_dict(),
        )


def build_system(config=None, **overrides):
    """Build a :class:`RouterSystem` from a config or keyword overrides."""
    if config is None:
        config = RouterConfig(**overrides)
    elif overrides:
        raise CosimError("pass either a config object or overrides")
    return RouterSystem(config)


#: RouterConfig fields with a structured JSON form; the tracer is never
#: serialized.  Every other field is a plain JSON value, derived from the
#: dataclass so a new field cannot be left out of checkpoints and corpus
#: fixtures.
_STRUCTURED_FIELDS = ("reliability", "fault_plan", "rtos_costs", "traffic")
_PLAIN_FIELDS = tuple(
    entry.name for entry in fields(RouterConfig)
    if entry.name not in _STRUCTURED_FIELDS + ("tracer",))


def config_to_dict(config):
    """Serialize a :class:`RouterConfig` to plain JSON types.

    Checkpoints persist configs this way so a restore can rebuild the
    identical system in a fresh process.  The tracer is deliberately
    dropped (the restoring process supplies its own); everything else
    round-trips through :func:`config_from_dict`.
    """
    from repro.router.traffic import normalize_traffic_spec

    data = {name: getattr(config, name) for name in _PLAIN_FIELDS}
    reliability = config.reliability
    if reliability is not None and reliability is not True:
        reliability = asdict(reliability)
    data["reliability"] = reliability
    data["fault_plan"] = (config.fault_plan.to_dict()
                          if config.fault_plan is not None else None)
    data["rtos_costs"] = (asdict(config.rtos_costs)
                          if config.rtos_costs is not None else None)
    data["traffic"] = normalize_traffic_spec(config.traffic)
    if data["stages"] is not None:
        data["stages"] = list(data["stages"])
    return data


def config_from_dict(data, tracer=None):
    """Rebuild a :class:`RouterConfig` from :func:`config_to_dict`.

    Absent keys load as the field defaults.
    """
    from repro.cosim.faults import FaultPlan
    from repro.cosim.reliable import ReliabilityConfig

    kwargs = {name: data[name] for name in _PLAIN_FIELDS if name in data}
    reliability = data.get("reliability")
    if isinstance(reliability, dict):
        reliability = ReliabilityConfig(**reliability)
    fault_plan = data.get("fault_plan")
    if fault_plan is not None:
        fault_plan = FaultPlan.from_dict(fault_plan)
    rtos_costs = data.get("rtos_costs")
    if rtos_costs is not None:
        rtos_costs = CostModel(**rtos_costs)
    return RouterConfig(tracer=tracer, reliability=reliability,
                        fault_plan=fault_plan, rtos_costs=rtos_costs,
                        traffic=data.get("traffic"), **kwargs)
