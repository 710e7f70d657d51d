"""Unit tests of the parallel execution engine (cosim.parallel).

Covers the dispatcher mechanics — config validation, the inline and
pooled execute paths, trace-buffer capture, stats — and the scheme
integration seams: serial degradation of ineligible contexts, serial
planning of CPUs that decline the process backend's fork, and
worker-failure quarantine through the watchdog machinery.
"""

import pytest

from repro.cosim.checkpoint import capture_state
from repro.cosim.gdb_kernel import GdbKernelScheme
from repro.cosim.parallel import (BACKENDS, ParallelConfig,
                                  ParallelDispatcher, ParallelStats,
                                  make_dispatcher)
from repro.errors import CosimError, CosimTransportError
from repro.iss.remote import RemoteWorkerError
from repro.obs.scenarios import COSIM_SCHEMES
from repro.obs.tracer import Tracer, dump_events
from repro.router.system import RouterConfig, RouterSystem
from repro.sysc.simtime import US

from tests.support import wedge_prefetch


class TestConfig:
    def test_backends(self):
        assert BACKENDS == ("thread", "process")
        for backend in BACKENDS:
            assert ParallelConfig(backend=backend).backend == backend

    def test_bad_backend_rejected(self):
        with pytest.raises(CosimError):
            ParallelConfig(backend="gpu")

    def test_bad_workers_rejected(self):
        with pytest.raises(CosimError):
            ParallelConfig(workers=0)

    def test_config_and_overrides_exclusive(self):
        with pytest.raises(CosimError):
            ParallelDispatcher(ParallelConfig(), workers=3)


class TestMakeDispatcher:
    def test_falsy_is_serial(self):
        assert make_dispatcher(None, 2) is None
        assert make_dispatcher(False, 2) is None

    def test_true_means_thread(self):
        dispatcher = make_dispatcher(True, 3)
        assert dispatcher.config.backend == "thread"
        assert dispatcher.config.workers == 3
        dispatcher.shutdown()

    def test_backend_name_passes_through(self):
        dispatcher = make_dispatcher("process", 2)
        assert dispatcher.config.backend == "process"
        dispatcher.shutdown()


class TestStats:
    def test_utilization_bounds(self):
        stats = ParallelStats(workers=2, busy_seconds=1.0)
        assert stats.utilization(1.0) == 0.5
        assert stats.utilization(0.0) == 0.0
        assert ParallelStats(workers=0).utilization(1.0) == 0.0
        assert ParallelStats(workers=1,
                             busy_seconds=9.0).utilization(1.0) == 1.0

    def test_as_dict_shape(self):
        data = ParallelStats(backend="thread", workers=2).as_dict(2.0)
        assert data["backend"] == "thread"
        assert data["utilization"] == 0.0
        assert "utilization" not in ParallelStats().as_dict()


class TestExecute:
    def test_empty_jobs(self):
        dispatcher = ParallelDispatcher(workers=2)
        assert dispatcher.execute([]) == {}
        assert dispatcher.stats.rounds == 0
        dispatcher.shutdown()

    def test_single_job_runs_inline(self):
        dispatcher = ParallelDispatcher(workers=4)
        results = dispatcher.execute([("a", lambda: 41 + 1)])
        assert results["a"][:2] == ("ok", 42)
        assert dispatcher._pool is None     # never spawned a thread
        assert dispatcher.stats.jobs == 1
        dispatcher.shutdown()

    def test_one_worker_runs_inline(self):
        dispatcher = ParallelDispatcher(workers=1)
        results = dispatcher.execute([("a", lambda: 1), ("b", lambda: 2)])
        assert results["a"][1] == 1 and results["b"][1] == 2
        assert dispatcher._pool is None
        dispatcher.shutdown()

    def test_pooled_jobs_and_stats(self):
        dispatcher = ParallelDispatcher(workers=2)
        results = dispatcher.execute([(k, (lambda k=k: k * 2))
                                      for k in (1, 2, 3)])
        assert {k: v[1] for k, v in results.items()} == {1: 2, 2: 4, 3: 6}
        assert dispatcher.stats.rounds == 1
        assert dispatcher.stats.jobs == 3
        assert dispatcher.stats.busy_seconds >= 0.0
        dispatcher.shutdown()

    def test_exception_is_captured_not_raised(self):
        dispatcher = ParallelDispatcher(workers=2)

        def boom():
            raise ValueError("nope")

        results = dispatcher.execute([("a", boom), ("b", lambda: "ok")])
        status, value, _ = results["a"]
        assert status == "error" and isinstance(value, ValueError)
        assert results["b"][:2] == ("ok", "ok")
        dispatcher.shutdown()

    def test_trace_events_buffered_then_replayed(self):
        tracer = Tracer()
        dispatcher = ParallelDispatcher(workers=2, tracer=tracer)

        def job(tag):
            tracer.emit("test", "inside", scope=tag)
            return tag

        results = dispatcher.execute([(t, (lambda t=t: job(t)))
                                      for t in ("x", "y")])
        # Nothing reached the main tracer during the prefetch...
        assert len(tracer) == 0
        # ...and replaying the buffers in key order fixes the sequence.
        for tag in ("x", "y"):
            tracer.replay(results[tag][2].drain())
        events = list(tracer.events())
        assert [e.scope for e in events] == ["x", "y"]
        dispatcher.shutdown()

    def test_shutdown_idempotent(self):
        dispatcher = ParallelDispatcher(workers=2)
        dispatcher.execute([("a", lambda: 1), ("b", lambda: 2)])
        dispatcher.shutdown()
        dispatcher.shutdown()


def _system(scheme="gdb-kernel", **overrides):
    config = dict(scheme=scheme, inter_packet_delay=20 * US,
                  max_packets=2, producer_count=2, parallel="thread",
                  workers=2)
    config.update(overrides)
    return RouterSystem(RouterConfig(**config))


class TestSchemeDegradation:
    def test_reliability_degrades_to_serial(self):
        """Resilience layers are never prefetched: their RNG draw order
        is part of the determinism contract."""
        system = _system(reliability=True, sync_quantum=4)
        system.run(200 * US)
        stats = system.dispatcher.stats
        assert stats.jobs == 0
        assert stats.serial_fallbacks > 0
        system.close()

    def test_plain_run_parallelizes(self):
        system = _system(scheme="driver-kernel", sync_quantum=4)
        system.run(200 * US)
        assert system.dispatcher.stats.jobs > 0
        system.close()


def _outcome(system):
    """Everything deterministic a run computed, after *system* ran."""
    return (dump_events(system.tracer.events()), system.metrics.as_dict(),
            system.telemetry.series.dump(), capture_state(system))


class TestDeclinedForkPlanning:
    """Under the process backend a context whose CPU declines the fork
    is planned serial once, at attach (docs/parallel.md, "Backends")."""

    def _run(self, scheme, parallel, num_cpus):
        system = _system(scheme=scheme, parallel=parallel,
                         num_cpus=num_cpus, sync_quantum=4,
                         tracer=Tracer())
        try:
            system.run(200 * US)
            return _outcome(system), system.dispatcher
        finally:
            system.close()

    def test_all_declined_driver_kernel_skips_the_round(self):
        """RTOS CPUs decline (syscall handlers): no round, no job, and
        the run equals serial at the run boundary."""
        serial, __ = self._run("driver-kernel", None, 2)
        forked, dispatcher = self._run("driver-kernel", "process", 2)
        stats = dispatcher.stats
        assert stats.process_fallbacks == 2
        assert stats.process_contexts == 0
        assert stats.rounds == stats.jobs == 0
        assert stats.serial_fallbacks == 0
        assert forked == serial

    def test_declined_gdb_cpu_is_never_pooled(self, monkeypatch):
        """A GDB CPU with a retire observer declines the fork: its runs
        take the serial plans, while its forked siblings still go to
        the pool."""
        attach_cpu = GdbKernelScheme.attach_cpu
        prefetch_job = GdbKernelScheme._prefetch_job
        pooled = []

        class Observer:
            def on_retire(self, cpu, pc, decoded, cycles):
                pass

        def observed_attach(scheme, cpu, *args, **kwargs):
            if cpu.name == "cpu0":
                cpu.attach_observer(Observer())
            return attach_cpu(scheme, cpu, *args, **kwargs)

        def recorded_prefetch(scheme, context, budget):
            pooled.append(context.name)
            return prefetch_job(scheme, context, budget)

        monkeypatch.setattr(GdbKernelScheme, "attach_cpu", observed_attach)
        monkeypatch.setattr(GdbKernelScheme, "_prefetch_job",
                            recorded_prefetch)
        serial, __ = self._run("gdb-kernel", None, 3)
        assert pooled == []
        forked, dispatcher = self._run("gdb-kernel", "process", 3)
        assert dispatcher.stats.process_fallbacks == 1
        assert dispatcher.stats.process_contexts == 2
        assert "cpu0" not in pooled
        assert set(pooled) == {"cpu1", "cpu2"}
        assert forked == serial


class TestWorkerQuarantine:
    def _wedge(self, error, scheme="gdb-kernel"):
        system = _system(scheme=scheme, sync_quantum=4, num_cpus=2)
        context = system.scheme.contexts[0]
        wedge_prefetch(context, error)
        system.run(200 * US)
        return system, context

    @pytest.mark.parametrize("scheme", COSIM_SCHEMES)
    def test_remote_worker_error_quarantines(self, scheme):
        system, context = self._wedge(RemoteWorkerError("worker wedged"),
                                      scheme)
        assert context.quarantined
        assert context.quarantine_reason == "worker-crash"
        assert system.metrics.contexts_quarantined == 1
        # The healthy sibling context carried the simulation.
        assert not system.scheme.contexts[1].quarantined
        system.close()

    @pytest.mark.parametrize("scheme", COSIM_SCHEMES)
    def test_transport_error_quarantines(self, scheme):
        system, context = self._wedge(CosimTransportError("link down"),
                                      scheme)
        assert context.quarantined
        assert context.quarantine_reason == "transport-error"
        system.close()

    @pytest.mark.parametrize("scheme", ("gdb-wrapper", "gdb-kernel"))
    def test_worker_death_at_commit_quarantines(self, scheme):
        """A forked worker's death surfaces in the commit's stop
        servicing (``drive(skip_first_execute=True)`` executes again
        through the stub), not only in the prefetch."""
        system = _system(scheme=scheme, sync_quantum=4, num_cpus=2)
        context = system.scheme.contexts[0]
        drive = context.driver.drive

        def dying_drive(skip_first_execute=False):
            if skip_first_execute:
                raise RemoteWorkerError("worker died mid-commit")
            return drive(skip_first_execute)

        context.driver.drive = dying_drive
        system.run(200 * US)
        assert context.quarantined
        assert context.quarantine_reason == "worker-crash"
        assert not system.scheme.contexts[1].quarantined
        system.close()

    def test_other_errors_propagate(self):
        with pytest.raises(ZeroDivisionError):
            self._wedge(ZeroDivisionError("bug"))

    def test_kill_worker_without_remote_is_noop(self):
        dispatcher = ParallelDispatcher(workers=2)
        cpu = object.__new__(type("C", (), {}))
        dispatcher.kill_worker(cpu)
        assert dispatcher.stats.workers_killed == 0
        dispatcher.shutdown()
