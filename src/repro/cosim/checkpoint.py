"""Deterministic checkpoint/restore with replay-verified snapshots.

The co-simulation is a single deterministic process (the paper's
native integration), so its complete state — SystemC kernel time and
event queues, every ISS context, guest memory, RTOS threads, transport
windows, fault-RNG streams, metrics and trace counters — is
snapshottable at any committed quantum boundary.  SystemC processes
are Python generator coroutines and cannot be pickled, so *restore*
does not deserialize live coroutines: it rebuilds the system from the
serialized :class:`~repro.router.system.RouterConfig` and replays the
run deterministically to the checkpoint boundary.  The captured state
image is the byte-exact verification oracle: after replay, the live
state must match the stored image section for section, or the restore
fails with :class:`~repro.errors.CheckpointError` ("replay-verified
snapshots").

On top of snapshots, :class:`CheckpointRunner` wires crash recovery
into the schemes' quarantine paths: a :class:`RecoveryPolicy` elects
resume-from-last-checkpoint for worker crashes and watchdog timeouts,
with bounded retries and graceful degradation to the normal quarantine
when recovery fails twice.  See ``docs/checkpoint.md``.

Byte-identity contract: splitting a kernel run into slices changes the
delta/poll sequence relative to one long run, so the runner owns a
*fixed slice structure* (``checkpoint_every`` quanta per slice) used
identically by baseline, checkpointed, crashed-and-recovered, and
restored runs.  Identity claims are always runner-vs-runner.
"""

import base64
import hashlib
import json
import os
import time
import zlib
from dataclasses import replace as dataclass_replace

from repro.errors import CheckpointError, RecoverableCrashError, parse_crash
from repro.cosim.metrics import QUARANTINE_WATCHDOG, QUARANTINE_WORKER
from repro.iss.cpu import ARCH_STATE, CPU_COUNTERS

CHECKPOINT_FORMAT = "repro-checkpoint"
CHECKPOINT_VERSION = 4

#: Codes the default recovery policy heals.  ``transport-error`` is
#: deliberately absent: a deterministic fault-injected link would fail
#: identically on every replay, so recovering it can only loop.
DEFAULT_RECOVERY_CODES = (QUARANTINE_WORKER, QUARANTINE_WATCHDOG)


def _canonical(value):
    """Canonical JSON text (sorted keys, no whitespace drift)."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _digest(value):
    return hashlib.sha256(_canonical(value).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# State capture
# ---------------------------------------------------------------------------

def _binding_state(binding):
    return {
        "last_time_fs": binding._last_time_fs,
        "cycle_carry": binding._cycle_carry,
        "granted_cycles": binding.granted_cycles,
        "pending_budget": binding.pending_budget,
        "pending_steps": binding.pending_steps,
        "warp": binding.warp_state(),
    }


def _cpu_state(cpu):
    return {
        "name": cpu.name,
        "regs": list(cpu.regs),
        **{name: getattr(cpu, name) for name in ARCH_STATE + CPU_COUNTERS},
        # Canonical [[pc, count]] lists (JSON would stringify int dict
        # keys, breaking the round trip): the side-exit analytics and
        # the profiler state.  Replay must promote the same superblocks
        # and take the same guard exits; the verified image proves it.
        "side_exits": sorted([pc, count] for pc, count
                             in cpu.side_exit_sites.items()),
        "profile": cpu.block_profiler.state(),
    }


def _memory_state(memory):
    """Sparse, compressed image of guest RAM plus a full digest.

    Reads the backing buffer directly (never the counted load paths),
    so capture perturbs nothing — including the load/store counters
    that differ between serial and process-backend runs and are
    excluded from the image for exactly that reason.
    """
    pages = memory.snapshot_pages()
    return {
        "size": memory.size,
        "page_size": memory.PAGE_SIZE,
        "digest": hashlib.sha256(bytes(memory.data)).hexdigest(),
        "pages": {
            str(index): base64.b64encode(
                zlib.compress(page)).decode("ascii")
            for index, page in sorted(pages.items())},
    }


def _driver_state(driver):
    held = driver.held_at
    return {
        "finished": driver.finished,
        "held_at": list(held) if isinstance(held, tuple) else held,
        "budget_remaining": driver.budget_remaining,
        "bp_seq": driver._bp_seq,
    }


def _endpoint_state(endpoint):
    """Walk a transport endpoint stack bottom-up into plain JSON.

    Handles the three layers the schemes compose: the raw channel
    endpoint, the fault injector (including its RNG stream position),
    and the reliable framing (windows, retransmit queue, counters).
    """
    from repro.cosim.channels import Endpoint
    from repro.cosim.faults import FaultyEndpoint
    from repro.cosim.reliable import ReliableEndpoint

    if isinstance(endpoint, ReliableEndpoint):
        return {
            "kind": "reliable",
            "ticks": endpoint._ticks,
            "next_tx": endpoint._next_tx,
            "next_rx": endpoint._next_rx,
            "unacked": [
                [seq, pending.frame.hex(), pending.sent_tick,
                 pending.timeout, pending.retries]
                for seq, pending in sorted(endpoint._unacked.items())],
            "rx_buffer": [[seq, payload.hex()] for seq, payload
                          in sorted(endpoint._rx_buffer.items())],
            "delivery": [payload.hex() for payload in endpoint._delivery],
            "last_nak": (list(endpoint._last_nak)
                         if endpoint._last_nak is not None else None),
            "counters": {
                "retransmits": endpoint.retransmits,
                "acks_sent": endpoint.acks_sent,
                "naks_sent": endpoint.naks_sent,
                "duplicates_discarded": endpoint.duplicates_discarded,
                "out_of_order": endpoint.out_of_order,
                "corrupt_rejected": endpoint.corrupt_rejected,
                "window_rejected": endpoint.window_rejected,
            },
            "inner": _endpoint_state(endpoint.inner),
        }
    if isinstance(endpoint, FaultyEndpoint):
        return {
            "kind": "faulty",
            "send_index": endpoint._send_index,
            "injected": dict(endpoint.injected),
            "held": [[polls, payload.hex()]
                     for polls, payload in endpoint._held],
            "delayed": [[polls, payload.hex()]
                        for polls, payload in endpoint._delayed],
            # The full Mersenne state is huge; its digest is just as
            # strong an equality oracle.
            "rng": hashlib.sha256(
                repr(endpoint._rng.getstate()).encode()).hexdigest(),
            "inner": _endpoint_state(endpoint.inner),
        }
    if isinstance(endpoint, Endpoint):
        return {
            "kind": "raw",
            "label": endpoint.label,
            "inbox": [bytes(payload).hex()
                      for payload in endpoint._inbox],
            "sent_messages": endpoint.sent_messages,
            "sent_bytes": endpoint.sent_bytes,
            "received_messages": endpoint.received_messages,
            "received_bytes": endpoint.received_bytes,
            "poll_count": endpoint.poll_count,
        }
    return {"kind": type(endpoint).__name__}


#: Events per digest block.  The rolling trace digest consumes fixed
#: blocks so its value depends only on trace content, never on how
#: often checkpoints were taken along the way.
_DIGEST_BLOCK = 1024


def _event_tuple(event):
    return (event.seq, event.timestep, event.delta, event.now,
            event.category, event.name, event.scope,
            tuple(sorted(event.args.items())))


def _encode_events(events):
    """The value encoding a digest block hashes: canonical JSON.

    It depends only on the events' values.  Pickle bytes also depend on
    which objects are shared, which differs between a serial run and a
    process-parallel run whose events were replayed from a worker.
    """
    return _canonical([_event_tuple(e) for e in events]).encode("utf-8")


def _trace_digest(tracer):
    """Rolling sha256 over the trace, incremental across captures.

    A cache on the tracer remembers how many complete blocks a
    running hasher has consumed, so periodic checkpoints cost
    O(new events) each instead of re-hashing the whole trace every
    slice (which made auto-checkpointing quadratic in run length).
    Blocks are encoded in bulk (:func:`_encode_events`) rather than
    event by event.  The cache is invalidated whenever the ring
    dropped events or shrank.
    """
    events = tracer.events()
    total = len(events)
    cache = getattr(tracer, "_checkpoint_digest_cache", None)
    consumed, hasher = 0, hashlib.sha256()
    if (cache is not None and cache[0] <= total
            and cache[2] == tracer.dropped
            and (cache[0] == 0 or events[cache[0] - 1].seq == cache[3])):
        consumed, hasher = cache[0], cache[1]
    hasher = hasher.copy()
    last_complete = total - total % _DIGEST_BLOCK
    while consumed < last_complete:
        hasher.update(_encode_events(
            events[consumed:consumed + _DIGEST_BLOCK]))
        consumed += _DIGEST_BLOCK
    tracer._checkpoint_digest_cache = (
        consumed, hasher.copy(), tracer.dropped,
        events[consumed - 1].seq if consumed else None)
    if consumed < total:
        hasher.update(_encode_events(events[consumed:]))
    return hasher.hexdigest()


def _tracer_state(tracer):
    if tracer is None or not getattr(tracer, "enabled", False):
        return {"enabled": False}
    return {
        "enabled": True,
        "seq": tracer._seq,
        "events": len(tracer),
        "dropped": tracer.dropped,
        "digest": _trace_digest(tracer),
    }


def _traffic_state(system):
    state = {
        "router": {
            "forwarded": system.router.forwarded,
            "input_drops": system.router.input_drops,
            "output_drops": system.router.output_drops,
        },
        "producers": [[producer.name, producer.generated,
                       producer.dropped]
                      for producer in system.producers],
        "consumers": [
            {"name": consumer.name,
             "received": consumer.received,
             "corrupt": consumer.corrupt,
             "by_source": {str(source): count for source, count
                           in sorted(consumer.by_source.items())},
             "latency_count": len(consumer.latencies),
             "latency_digest": _digest(list(consumer.latencies))}
            for consumer in system.consumers],
    }
    # Multi-stage fabrics capture every stage; single-stage images stay
    # byte-compatible with pre-topology checkpoints.
    routers = getattr(system, "routers", None)
    if routers is not None and len(routers) > 1:
        state["stages"] = [
            {"name": router.name,
             "forwarded": router.forwarded,
             "output_drops": router.output_drops}
            for router in routers]
    return state


def _metrics_state(system):
    # Fold the ISS tier counters exactly as RouterSystem.stats() does
    # (idempotent assignment), so capture is consistent whether or not
    # stats() ran first.
    system.fold_cpu_counters()
    return system.metrics.as_dict()


def _telemetry_state(system):
    """The grid telemetry series (repro.obs.metrics).

    Replay regenerates the series point for point — the sampling gate
    and every sampled counter derive from simulation state — so the
    verified image proves the telemetry is deterministic too.
    """
    sampler = getattr(system, "telemetry", None)
    if sampler is None:
        return {"enabled": False}
    return dict(sampler.series.state(), enabled=True)


def _common_context_state(name, quarantined, reason, binding, cpu,
                          dmi=None):
    state = {
        "name": name,
        "quarantined": quarantined,
        "quarantine_reason": reason,
        "binding": _binding_state(binding),
        "cpu": _cpu_state(cpu),
        "memory": _memory_state(cpu.memory),
    }
    # The DMI grant table is part of the deterministic image: the same
    # replay re-acquires the same windows in the same order, so a
    # restored run's grants (ids, ranges, directions, degradation)
    # must match the stored ones exactly.
    if dmi is not None:
        state["dmi"] = dmi.state()
    return state


def _contexts_state(system):
    if system.scheme is None:
        return []
    contexts = []
    for entry in system.scheme.contexts:
        state = _common_context_state(
            entry.name, entry.quarantined, entry.quarantine_reason,
            entry.binding, entry.cpu, dmi=entry.dmi)
        if system.config.scheme == "driver-kernel":
            state["rtos"] = entry.rtos.state_summary()
            state["irq_inflight"] = entry.irq_inflight
            state["activity"] = entry.activity
            state["transport"] = {
                "data": _endpoint_state(entry.data_endpoint),
                "irq": _endpoint_state(entry.irq_endpoint),
                "guest_data": _endpoint_state(entry.guest_data_endpoint),
                "guest_irq": _endpoint_state(entry.guest_irq_endpoint),
            }
        else:
            state["driver"] = _driver_state(entry.driver)
            state["client"] = {
                "transactions": entry.client.transaction_count,
                "retransmissions": entry.client.retransmissions,
                "target_exited": entry.client.target_exited,
                "endpoint": _endpoint_state(entry.client.endpoint),
            }
            state["stub"] = {
                "running": entry.stub.running,
                "exited": entry.stub.exited,
                "packets_served": entry.stub.packets_served,
                "stop_replies_sent": entry.stub.stop_replies_sent,
                "endpoint": _endpoint_state(entry.stub.endpoint),
            }
        contexts.append(state)
    return contexts


def capture_state(system):
    """The complete co-simulation state as plain JSON types.

    Read-only: nothing in the system is advanced, no counted access
    path is used, and capturing twice in a row yields identical
    images.  Host-dependent values (wall times, pool statistics, the
    load/store counters that differ under the process backend) are
    deliberately excluded so images compare equal across serial,
    thread, and process execution.
    """
    return {
        "kernel": system.kernel.state_summary(),
        "metrics": _metrics_state(system),
        "tracer": _tracer_state(system.tracer),
        "telemetry": _telemetry_state(system),
        "traffic": _traffic_state(system),
        "contexts": _contexts_state(system),
    }


def compare_states(live, stored, context="replay"):
    """Section-wise canonical-JSON comparison of two state images.

    Raises :class:`CheckpointError` naming every divergent section —
    the debugging entry point when a replay stops being deterministic.
    """
    divergent = []
    for key in sorted(set(live) | set(stored)):
        if _canonical(live.get(key)) != _canonical(stored.get(key)):
            divergent.append(key)
    if divergent:
        raise CheckpointError(
            "%s diverged from checkpoint in section(s): %s"
            % (context, ", ".join(divergent)))


# ---------------------------------------------------------------------------
# Checkpoint files
# ---------------------------------------------------------------------------

def load_checkpoint(path):
    """Read and validate a checkpoint file; returns the payload dict.

    Purely a read: a corrupted, truncated, or version-skewed file
    raises :class:`CheckpointError` without touching any simulation
    state.
    """
    if not os.path.exists(path):
        raise CheckpointError("checkpoint file %r does not exist" % path)
    try:
        with open(path, "r") as handle:
            record = json.load(handle)
    except (OSError, ValueError) as error:
        raise CheckpointError(
            "checkpoint %r is unreadable or truncated: %s"
            % (path, error))
    if (not isinstance(record, dict) or "digest" not in record
            or "payload" not in record):
        raise CheckpointError(
            "checkpoint %r is malformed: missing digest/payload" % path)
    payload = record["payload"]
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(
            "checkpoint %r has unknown format %r"
            % (path, payload.get("format")))
    if payload.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            "checkpoint %r has format version %r; this build reads "
            "version %d" % (path, payload.get("version"),
                            CHECKPOINT_VERSION))
    if _digest(payload) != record["digest"]:
        raise CheckpointError(
            "checkpoint %r fails its digest check (corrupted or "
            "tampered)" % path)
    return payload


class RecoveryPolicy:
    """Bounds and backoff for resume-from-last-checkpoint recovery.

    *max_attempts* failed recoveries per context degrade it to the
    normal PR-1 quarantine.  *codes* selects which quarantine reason
    codes are recoverable (deterministic transport faults are not, by
    default — they replay identically).  *backoff_seconds* sleeps
    ``backoff_seconds * backoff_factor**(attempt-1)`` before each
    rebuild; host-side only, so it never affects simulated state.
    """

    def __init__(self, max_attempts=2, codes=DEFAULT_RECOVERY_CODES,
                 backoff_seconds=0.0, backoff_factor=2.0):
        self.max_attempts = max_attempts
        self.codes = tuple(codes)
        self.backoff_seconds = backoff_seconds
        self.backoff_factor = backoff_factor


class CheckpointRunner:
    """Runs a router co-simulation in fixed checkpointable slices.

    One slice = ``checkpoint_every`` sync quanta of simulated time.
    The slice structure is identical whether checkpoints are written
    or not, so a checkpointed run, a plain runner run, a crashed-and-
    recovered run, and a restored run all produce byte-identical
    traces, metrics, and span sets.
    """

    def __init__(self, config, checkpoint_every=8, out_dir=None,
                 recovery=None, keep=4, trace=True,
                 tracer_capacity=200_000):
        if checkpoint_every < 1:
            raise CheckpointError("checkpoint_every must be >= 1")
        self.base_config = dataclass_replace(config, tracer=None)
        self.checkpoint_every = checkpoint_every
        self.slice_fs = (checkpoint_every * config.sync_quantum
                         * config.clock_period)
        self.out_dir = out_dir
        self.recovery = recovery
        self.keep = keep
        self.trace = trace
        self.tracer_capacity = tracer_capacity
        self.system = None
        self.completed_slices = 0
        self.recovery_log = []    # host-side: never in traces/metrics
        self._attempts = {}       # context name -> failed recoveries
        self._durations = []      # completed slice durations (replay)
        self._saved = []          # checkpoint paths, oldest first
        self._last_image = None   # last saved state (recovery oracle)
        self._last_slice = None

    @property
    def tracer(self):
        return self.system.tracer if self.system is not None else None

    # -- construction ------------------------------------------------------

    def _build(self):
        from repro.obs.tracer import Tracer
        from repro.router.system import RouterSystem

        tracer = Tracer(capacity=self.tracer_capacity) if self.trace \
            else None
        config = dataclass_replace(self.base_config, tracer=tracer)
        self.system = RouterSystem(config)
        self._install_policy()

    def _install_policy(self):
        if self.recovery is None:
            return
        if self.system.scheme is not None:
            self.system.scheme.crash_policy = self._crash_policy

    def _crash_policy(self, context_name, code):
        """Scheme callback: elect recovery over quarantine?"""
        if code not in self.recovery.codes:
            return False
        return (self._attempts.get(context_name, 0)
                < self.recovery.max_attempts)

    # -- running -----------------------------------------------------------

    def run(self, total_fs, save=None):
        """Run to *total_fs* femtoseconds of simulated time.

        Checkpoints are written at every full-slice boundary when the
        runner has an output directory (or *save* forces it).  May be
        called on a freshly restored runner to continue the run.
        Returns the system stats.
        """
        if save is None:
            save = self.out_dir is not None
        if self.system is None:
            self._build()
        while True:
            start = sum(self._durations)
            if start >= total_fs:
                break
            duration = min(self.slice_fs, total_fs - start)
            self._run_slice(duration)
            if save and duration == self.slice_fs:
                self.save()
        self._flush()
        return self.system.stats()

    def _run_slice(self, duration):
        while True:
            try:
                self.system.kernel.run(duration)
                break
            except RecoverableCrashError as error:
                self._recover(error, where="slice")
        self.completed_slices += 1
        self._durations.append(duration)

    def _flush(self):
        """Spend banked budgets once, after the final slice only."""
        scheme = self.system.scheme
        if scheme is None:
            return
        while True:
            try:
                scheme.flush_pending()
                return
            except RecoverableCrashError as error:
                self._recover(error, where="flush")
                scheme = self.system.scheme

    # -- crash recovery ----------------------------------------------------

    def _recover(self, error, where):
        """Resume from the last checkpoint after a recoverable crash."""
        context, code = parse_crash(error)
        attempt = self._attempts.get(context, 0) + 1
        self._attempts[context] = attempt
        self.recovery_log.append({
            "slice": self.completed_slices,
            "context": context,
            "code": code,
            "attempt": attempt,
            "where": where,
        })
        self._write_recovery_log()
        policy = self.recovery
        if policy is not None and policy.backoff_seconds:
            time.sleep(policy.backoff_seconds
                       * policy.backoff_factor ** (attempt - 1))
        self._rebuild_and_replay()

    def _write_recovery_log(self):
        """Persist the host-side recovery log next to the checkpoints.

        ``repro health --checkpoint-dir`` reads this file; it never
        enters the traces, metrics, or checkpoint state images.
        """
        if self.out_dir is None:
            return
        os.makedirs(self.out_dir, exist_ok=True)
        path = os.path.join(self.out_dir, "recovery.json")
        with open(path, "w") as handle:
            json.dump(self.recovery_log, handle, sort_keys=True)

    def _rebuild_and_replay(self):
        """Discard the crashed system; rebuild and replay to position.

        Deterministic crashes live in the *crashed* slice, which is
        not in the completed-slice list, so the replay runs clean.
        When the last checkpoint sits exactly at the replay target,
        the resumed state is verified against its image — the same
        replay-verification contract restores use.
        """
        if self.system is not None:
            self.system.close()
        self._build()
        for duration in self._durations:
            self.system.kernel.run(duration)
        if (self._last_image is not None
                and self._last_slice == self.completed_slices):
            compare_states(capture_state(self.system), self._last_image,
                           context="crash-recovery replay")

    # -- snapshots ---------------------------------------------------------

    def save(self, path=None):
        """Write a checkpoint of the current state; returns its path."""
        if self.system is None:
            raise CheckpointError("nothing to save: runner has not run")
        state = capture_state(self.system)
        payload = {
            "format": CHECKPOINT_FORMAT,
            "version": CHECKPOINT_VERSION,
            "config": self._config_dict(),
            "runner": {
                "checkpoint_every": self.checkpoint_every,
                "trace": self.trace,
                "tracer_capacity": self.tracer_capacity,
            },
            "position": {
                "slice": self.completed_slices,
                "slice_fs": self.slice_fs,
                "durations": list(self._durations),
                "now": self.system.kernel.now,
            },
            "state": state,
        }
        # Serialise the payload once: the canonical text is both the
        # digest input and the bytes written, so big snapshots are not
        # JSON-encoded twice per save.
        payload_text = _canonical(payload)
        digest = hashlib.sha256(
            payload_text.encode("utf-8")).hexdigest()
        if path is None:
            if self.out_dir is None:
                raise CheckpointError(
                    "no checkpoint path given and no out_dir configured")
            os.makedirs(self.out_dir, exist_ok=True)
            path = os.path.join(
                self.out_dir,
                "checkpoint_%06d.json" % self.completed_slices)
        with open(path, "w") as handle:
            handle.write('{"digest":"%s","payload":%s}'
                         % (digest, payload_text))
        self._last_image = state
        self._last_slice = self.completed_slices
        if path not in self._saved:
            self._saved.append(path)
        while self.keep is not None and len(self._saved) > self.keep:
            stale = self._saved.pop(0)
            try:
                os.remove(stale)
            except OSError:  # pragma: no cover - already gone
                pass
        return path

    def _config_dict(self):
        from repro.router.system import config_to_dict
        return config_to_dict(self.base_config)

    # -- results -----------------------------------------------------------

    def stats(self):
        """System stats so far (requires a built system)."""
        if self.system is None:
            raise CheckpointError("runner has not run")
        return self.system.stats()

    def close(self):
        """Release the underlying system's resources (idempotent)."""
        if self.system is not None:
            self.system.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


def restore_checkpoint(path, out_dir=None, recovery=None, verify=True,
                       keep=4):
    """Rebuild a runner positioned at a checkpoint's boundary.

    Loads and validates the file (pure read), rebuilds the system from
    the serialized config, deterministically replays to the checkpoint
    slice, and — with *verify* (the default) — compares the live state
    against the stored image, raising :class:`CheckpointError` on any
    divergence.  The returned runner continues the run with
    ``runner.run(total_fs)``.
    """
    from repro.router.system import config_from_dict

    payload = load_checkpoint(path)
    config = config_from_dict(payload["config"])
    runner_meta = payload["runner"]
    runner = CheckpointRunner(
        config,
        checkpoint_every=runner_meta["checkpoint_every"],
        out_dir=out_dir, recovery=recovery, keep=keep,
        trace=runner_meta["trace"],
        tracer_capacity=runner_meta["tracer_capacity"])
    runner._build()
    for duration in payload["position"]["durations"]:
        runner._run_slice(duration)
    if verify:
        compare_states(capture_state(runner.system), payload["state"],
                       context="restore replay")
    runner._last_image = payload["state"]
    runner._last_slice = runner.completed_slices
    return runner


def verify_checkpoint(path):
    """Replay-verify a checkpoint file; returns a summary dict.

    Raises :class:`CheckpointError` when the file is corrupt or the
    deterministic replay no longer reproduces the stored image.
    """
    payload = load_checkpoint(path)
    runner = restore_checkpoint(path, verify=True)
    try:
        position = payload["position"]
        return {
            "path": path,
            "verified": True,
            "slice": position["slice"],
            "now": position["now"],
            "scheme": payload["config"]["scheme"],
            "sections": sorted(payload["state"]),
        }
    finally:
        runner.close()


def latest_checkpoint(directory):
    """The newest checkpoint file in *directory*, or None."""
    if not os.path.isdir(directory):
        return None
    names = sorted(name for name in os.listdir(directory)
                   if name.startswith("checkpoint_")
                   and name.endswith(".json"))
    return os.path.join(directory, names[-1]) if names else None
