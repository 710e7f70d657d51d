"""The four-part scenario oracle.

A scenario passes when every invariant the platform promises holds:

1. **Health** — the rule-based analyzer (:mod:`repro.obs.health`)
   finds no critical condition on a fault-free run.  Fault-injected
   scenarios are *chaos*: quarantines, storms and stalls are then the
   expected product of the injected faults, so criticals are recorded
   as observations instead of failures — what must still hold is 2-4.
2. **Serial/parallel byte-identity** — the serial run and the
   thread-dispatched parallel run produce identical traces, metrics
   and stats; a run that dies must die identically (same exception,
   same trace prefix) on both backends.
3. **Checkpoint round-trip** — a checkpointed run of the same config
   saves a snapshot that restores with replay verification
   (:func:`repro.cosim.checkpoint.restore_checkpoint` raises on any
   divergent section).
4. **Fast-forward** — an untraced serial run ends with the same stats,
   metrics, per-CPU instructions and cycles, kernel timestep and delta
   counts and telemetry series (minus its ``trace_dropped`` column) as
   the traced one.  Tracing disables every quiet-timestep skip
   (docs/performance.md §3), so this checks skipped ≡ materialised.

Every run builds from the scenario's full config, and is seeded and
simulated-time driven, so a failing oracle is a reproducible
counterexample, not flake.
"""

import dataclasses
import shutil
import tempfile
from dataclasses import dataclass, field

from repro.errors import CheckpointError
from repro.obs.health import analyze_run
from repro.obs.tracer import Tracer, dump_events
from repro.router.system import build_system
from repro.sysc.simtime import US

ORACLES = ("health", "byte-identity", "checkpoint", "fast-forward")

#: Ring capacity of each oracle run's tracer.
TRACE_CAPACITY = 200_000


@dataclass
class OracleResult:
    """The verdict of one scenario's oracle pass."""

    scenario: object
    passed: bool
    failures: list = field(default_factory=list)   # "oracle: detail"
    chaos: bool = False        # fault-injected: health criticals expected
    observations: list = field(default_factory=list)

    def failed_oracles(self):
        """The oracle names that failed (the minimizer's target set)."""
        return sorted({failure.split(":", 1)[0]
                       for failure in self.failures})


def _final_state(system):
    """What a finished run ends with, for the fast-forward oracle.

    The telemetry series loses its ``trace_dropped`` column: only a
    traced run's ring can drop events.
    """
    state = {
        "stats": dataclasses.asdict(system.stats()),
        "cpus": [[cpu.instructions, cpu.cycles] for cpu in system.cpus],
        "kernel": [system.kernel.timestep_count, system.kernel.delta_count],
    }
    if system.telemetry is not None:
        series = system.telemetry.series
        dropped = series.counters.index("trace_dropped")
        state["series"] = [
            [point.now, point.timestep,
             point.values[:dropped] + point.values[dropped + 1:]]
            for point in series.points()]
    return state


def _run(config, sim_us):
    """Build and run *config* over *sim_us*; the system, or an error
    signature (a run that dies, dies deterministically)."""
    system = None
    try:
        system = build_system(config)
        system.run(sim_us * US)
    except Exception as error:
        if system is not None:
            system.close()
        return None, "%s: %s" % (type(error).__name__, error)
    return system, None


def _run_outcome(scenario, parallel):
    """One traced run: (trace, metrics, stats) or a deterministic
    exception signature."""
    tracer = Tracer(capacity=TRACE_CAPACITY)
    config = dataclasses.replace(scenario.config, tracer=tracer,
                                 parallel=parallel or None)
    system, error = _run(config, scenario.sim_us)
    if error is not None:
        return {"error": error}
    stats = system.stats()
    outcome = {
        "trace": dump_events(tracer.events()),
        "metrics": system.metrics.as_dict(),
        "stats": (stats.generated, stats.forwarded, stats.received,
                  stats.corrupt, stats.input_drops, stats.output_drops),
        "events": tracer.events(),
        "system_metrics": system.metrics,
        "dropped": tracer.dropped,
        "final": _final_state(system),
    }
    system.close()
    return outcome


def _untraced_outcome(scenario):
    """The untraced serial run's final state, or its error signature."""
    config = dataclasses.replace(scenario.config, tracer=None,
                                 parallel=None)
    system, error = _run(config, scenario.sim_us)
    if error is not None:
        return {"error": error}
    final = _final_state(system)
    system.close()
    return {"final": final}


def _comparable(outcome):
    if "error" in outcome:
        return {"error": outcome["error"]}
    return {"trace": outcome["trace"], "metrics": outcome["metrics"],
            "stats": outcome["stats"]}


def _check_checkpoint(scenario, tmp_dir):
    """Run the config in checkpointed slices, restore, replay-verify.

    Checkpoints land at full-slice boundaries (never after the final
    banked-budget flush — a post-flush state is not a boundary any
    replay can reach), exactly like a production checkpointed run.
    """
    from repro.cosim.checkpoint import (CheckpointRunner,
                                        latest_checkpoint,
                                        restore_checkpoint)

    runner = CheckpointRunner(scenario.config, checkpoint_every=4,
                              out_dir=tmp_dir)
    try:
        runner.run(scenario.sim_us * US)
    finally:
        runner.close()
    path = latest_checkpoint(tmp_dir)
    if path is None:    # horizon shorter than one slice: nothing saved
        return
    restored = restore_checkpoint(path)
    restored.close()


def _fast_forward_diverges(traced, untraced):
    """The fields where the untraced run ends elsewhere, or None."""
    if "error" in traced or "error" in untraced:
        if traced.get("error") == untraced.get("error"):
            return None
        return "traced=%s, untraced=%s" % (
            traced.get("error", "completed"),
            untraced.get("error", "completed"))
    fields = [name for name in traced["final"]
              if traced["final"][name] != untraced["final"].get(name)]
    return ", ".join(fields) if fields else None


def run_oracles(scenario, checkpoint=True):
    """Judge one scenario with all four oracles.

    Returns an :class:`OracleResult`; never raises for a *failing*
    scenario (failures are data), only for oracle-machinery bugs.
    """
    chaos = scenario.config.fault_plan is not None
    result = OracleResult(scenario=scenario, passed=True, chaos=chaos)

    serial = _run_outcome(scenario, parallel=False)
    parallel = _run_outcome(scenario, parallel="thread")

    # Oracle 2: byte-identity (including identical deterministic death).
    if _comparable(serial) != _comparable(parallel):
        detail = "serial and parallel runs diverge"
        if "error" in serial or "error" in parallel:
            detail += " (serial=%s, parallel=%s)" % (
                serial.get("error", "completed"),
                parallel.get("error", "completed"))
        result.failures.append("byte-identity: %s" % detail)

    # Oracle 1: health analysis of the serial run.
    if "error" in serial:
        if not chaos:
            result.failures.append(
                "health: fault-free run died: %s" % serial["error"])
        else:
            result.observations.append(
                "chaos run died deterministically: %s" % serial["error"])
    else:
        report = analyze_run(serial["events"],
                             metrics=serial["system_metrics"],
                             dropped=serial["dropped"])
        criticals = report.by_severity("critical")
        for finding in criticals:
            line = "%s %s: %s" % (finding.rule, finding.subject,
                                  finding.message)
            if chaos:
                result.observations.append("expected-chaos " + line)
            else:
                result.failures.append("health: " + line)

    # Oracle 3: checkpoint save/restore/verify round-trip.  Only a run
    # that completes can be checkpointed; a chaos config that dies is
    # covered by the identical-death check above.
    if checkpoint and "error" not in serial:
        tmp_dir = tempfile.mkdtemp(prefix="repro-fuzz-ckpt-")
        try:
            _check_checkpoint(scenario, tmp_dir)
        except CheckpointError as error:
            result.failures.append("checkpoint: %s" % error)
        finally:
            shutil.rmtree(tmp_dir, ignore_errors=True)

    # Oracle 4: the untraced run may skip quiet timesteps; it must end
    # where the traced (materialised) run ends.
    diverged = _fast_forward_diverges(serial, _untraced_outcome(scenario))
    if diverged is not None:
        result.failures.append(
            "fast-forward: untraced run diverges from traced run (%s)"
            % diverged)

    result.passed = not result.failures
    return result
