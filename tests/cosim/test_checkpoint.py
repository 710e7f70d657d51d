"""Checkpoint/restore tests (cosim.checkpoint).

The contract under test (docs/checkpoint.md): a checkpointed run, a
plain runner run, and a restored-and-continued run all produce
byte-identical traces and stats — across schemes, sync quanta, and
execution backends — and a damaged checkpoint file fails restore with
a clean :class:`CheckpointError` before any simulation state exists.
"""

import json

import pytest

from repro.cosim.checkpoint import (CHECKPOINT_VERSION, CheckpointRunner,
                                    RecoveryPolicy, capture_state,
                                    compare_states, latest_checkpoint,
                                    load_checkpoint, restore_checkpoint,
                                    verify_checkpoint)
from repro.cosim.faults import FaultPlan
from repro.errors import (CheckpointError, RecoverableCrashError,
                          parse_crash)
from repro.router.system import (RouterConfig, config_from_dict,
                                 config_to_dict)
from repro.sysc.simtime import US
from tests.support import config_values, every_field_config

SCHEMES = ("gdb-wrapper", "gdb-kernel", "driver-kernel")
BACKENDS = (None, "thread", "process")
EVERY = 2        # sync quanta per checkpoint slice
SLICES = 6       # slices per run


def _config(scheme, quantum=1, parallel=None, **overrides):
    return RouterConfig(scheme=scheme, num_cpus=2, sync_quantum=quantum,
                        parallel=parallel, workers=2, max_packets=1,
                        **overrides)


def _total(config, slices=SLICES, every=EVERY):
    return slices * every * config.sync_quantum * config.clock_period


def _run(config, **runner_kwargs):
    """Run to the standard horizon; returns (trace, stats)."""
    runner = CheckpointRunner(config, checkpoint_every=EVERY,
                              **runner_kwargs)
    stats = runner.run(_total(config))
    trace = runner.tracer.dump()
    runner.close()
    return trace, stats


class TestReplayMatrix:
    """Replay verification across scheme x quantum x backend."""

    @pytest.mark.parametrize("parallel", BACKENDS)
    @pytest.mark.parametrize("quantum", [1, 8])
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_checkpoint_and_restore_are_byte_identical(
            self, tmp_path, scheme, quantum, parallel):
        config = _config(scheme, quantum, parallel)
        ref_trace, ref_stats = _run(config)

        # Writing checkpoints must not perturb the run.
        saved_trace, saved_stats = _run(
            _config(scheme, quantum, parallel), out_dir=str(tmp_path))
        assert saved_trace == ref_trace
        assert saved_stats == ref_stats

        # Restore replays to the boundary (verified against the stored
        # image) and the continued run reproduces the reference.
        path = latest_checkpoint(str(tmp_path))
        assert path is not None
        resumed = restore_checkpoint(path)
        stats = resumed.run(_total(config))
        trace = resumed.tracer.dump()
        resumed.close()
        assert trace == ref_trace
        assert stats == ref_stats

    def test_faulty_reliable_link_replays(self, tmp_path):
        def config():
            return _config("gdb-kernel", quantum=4, reliability=True,
                           fault_plan=FaultPlan(seed=5, drop=0.05,
                                                corrupt=0.02))
        ref_trace, ref_stats = _run(config())
        saved_trace, saved_stats = _run(config(), out_dir=str(tmp_path))
        assert saved_trace == ref_trace
        assert saved_stats == ref_stats
        resumed = restore_checkpoint(latest_checkpoint(str(tmp_path)))
        stats = resumed.run(_total(config()))
        trace = resumed.tracer.dump()
        resumed.close()
        assert trace == ref_trace
        assert stats == ref_stats


def _write_checkpoint(tmp_path, slices=3):
    config = _config("gdb-kernel")
    runner = CheckpointRunner(config, checkpoint_every=EVERY,
                              out_dir=str(tmp_path))
    runner.run(_total(config, slices=slices))
    runner.close()
    return latest_checkpoint(str(tmp_path))


class TestCheckpointFiles:
    def test_verify_reports_summary(self, tmp_path):
        path = _write_checkpoint(tmp_path)
        report = verify_checkpoint(path)
        assert report["verified"] is True
        assert report["path"] == path
        assert report["scheme"] == "gdb-kernel"
        assert report["slice"] == 3
        assert report["sections"] == ["contexts", "kernel", "metrics",
                                      "telemetry", "tracer", "traffic"]

    def test_load_is_a_pure_validated_read(self, tmp_path):
        path = _write_checkpoint(tmp_path)
        payload = load_checkpoint(path)
        assert payload["format"] == "repro-checkpoint"
        assert payload["position"]["slice"] == 3
        round_tripped = config_from_dict(payload["config"])
        assert config_to_dict(round_tripped) == payload["config"]

    def test_config_round_trip_keeps_every_field(self):
        config = every_field_config()
        round_tripped = config_from_dict(config_to_dict(config))
        assert config_values(round_tripped) == config_values(config)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(CheckpointError, match="does not exist"):
            load_checkpoint(str(tmp_path / "nope.json"))

    def test_corrupted_payload_fails_digest(self, tmp_path):
        path = _write_checkpoint(tmp_path)
        record = json.loads(open(path).read())
        record["payload"]["state"]["kernel"]["now"] += 1
        open(path, "w").write(json.dumps(record))
        with pytest.raises(CheckpointError, match="digest"):
            load_checkpoint(path)
        # The failed load mutated nothing: restore refuses identically.
        with pytest.raises(CheckpointError, match="digest"):
            restore_checkpoint(path)

    def test_truncated_file_raises(self, tmp_path):
        path = _write_checkpoint(tmp_path)
        data = open(path).read()
        open(path, "w").write(data[:len(data) // 2])
        with pytest.raises(CheckpointError, match="unreadable|truncated"):
            restore_checkpoint(path)

    def test_version_skew_raises(self, tmp_path):
        path = _write_checkpoint(tmp_path)
        record = json.loads(open(path).read())
        record["payload"]["version"] = 999
        open(path, "w").write(json.dumps(record))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_version_one_file_rejected(self, tmp_path):
        # Version 1 digested traces from pickle bytes, which depend on
        # the parallel backend; its images are no valid replay oracles.
        path = _write_checkpoint(tmp_path)
        record = json.loads(open(path).read())
        record["payload"]["version"] = 1
        open(path, "w").write(json.dumps(record))
        with pytest.raises(CheckpointError,
                           match="format version 1; this build reads "
                                 "version %d" % CHECKPOINT_VERSION):
            load_checkpoint(path)

    def test_failed_restore_leaves_valid_files_usable(self, tmp_path):
        path = _write_checkpoint(tmp_path)
        bad = str(tmp_path / "bad.json")
        open(bad, "w").write("{not json")
        with pytest.raises(CheckpointError):
            restore_checkpoint(bad)
        runner = restore_checkpoint(path)
        assert runner.completed_slices == 3
        runner.close()

    def test_keep_prunes_old_checkpoints(self, tmp_path):
        config = _config("gdb-kernel")
        runner = CheckpointRunner(config, checkpoint_every=EVERY,
                                  out_dir=str(tmp_path), keep=2)
        runner.run(_total(config))
        runner.close()
        names = sorted(p.name for p in tmp_path.glob("checkpoint_*.json"))
        assert names == ["checkpoint_%06d.json" % (SLICES - 1),
                         "checkpoint_%06d.json" % SLICES]

    def test_latest_checkpoint(self, tmp_path):
        assert latest_checkpoint(str(tmp_path / "missing")) is None
        assert latest_checkpoint(str(tmp_path)) is None
        _write_checkpoint(tmp_path)
        latest = latest_checkpoint(str(tmp_path))
        assert latest.endswith("checkpoint_%06d.json" % 3)


class TestStateImages:
    def test_capture_twice_is_identical(self):
        config = _config("driver-kernel")
        runner = CheckpointRunner(config, checkpoint_every=EVERY)
        runner.run(_total(config, slices=2))
        first = capture_state(runner.system)
        second = capture_state(runner.system)
        compare_states(first, second)
        runner.close()

    @pytest.mark.parametrize("scheme", ["gdb-kernel", "driver-kernel"])
    def test_slice_image_is_backend_independent(self, scheme):
        # The ISS-bound four-CPU CRC-32 workload on the superblock tier
        # at a 32-timestep quantum, after one 16-quantum slice: parallel
        # planning must not count pipe polls, and the trace digest must
        # not depend on how a worker's replayed events share objects.
        images = []
        for parallel in BACKENDS:
            config = RouterConfig(
                scheme=scheme, num_cpus=4, producer_count=4,
                algorithm="crc32", checksum_rounds=24,
                cpu_hz=1_000_000_000, inter_packet_delay=100 * US,
                sync_quantum=32, dmi=False, tier="superblocks",
                parallel=parallel, workers=2)
            runner = CheckpointRunner(config, checkpoint_every=16)
            runner.run(runner.slice_fs)
            images.append(capture_state(runner.system))
            runner.close()
        serial, thread, process = images
        compare_states(thread, serial, "thread backend")
        compare_states(process, serial, "process backend")

    def test_compare_names_divergent_sections(self):
        live = {"kernel": {"now": 1}, "metrics": {"a": 2}}
        stored = {"kernel": {"now": 1}, "metrics": {"a": 3}}
        with pytest.raises(CheckpointError, match="metrics"):
            compare_states(live, stored)

    def test_compare_is_tuple_list_agnostic(self):
        compare_states({"kernel": {"timed": [(1, 2)]}},
                       {"kernel": {"timed": [[1, 2]]}})


class TestRunnerValidation:
    def test_checkpoint_every_must_be_positive(self):
        with pytest.raises(CheckpointError):
            CheckpointRunner(_config("gdb-kernel"), checkpoint_every=0)

    def test_save_requires_out_dir_or_path(self, tmp_path):
        config = _config("gdb-kernel")
        runner = CheckpointRunner(config, checkpoint_every=EVERY)
        runner.run(_total(config, slices=1))
        with pytest.raises(CheckpointError, match="out_dir"):
            runner.save()
        explicit = str(tmp_path / "explicit.json")
        assert runner.save(path=explicit) == explicit
        assert load_checkpoint(explicit)["position"]["slice"] == 1
        runner.close()

    def test_stats_before_run_raises(self):
        runner = CheckpointRunner(_config("gdb-kernel"))
        with pytest.raises(CheckpointError):
            runner.stats()
        with pytest.raises(CheckpointError):
            runner.save()


class TestCrashParsing:
    def test_attributes_win(self):
        error = RecoverableCrashError("context 'cpu0' crashed: "
                                      "worker-crash (boom)",
                                      context="cpu0", code="worker-crash")
        assert parse_crash(error) == ("cpu0", "worker-crash")

    def test_rewrapped_message_parses(self):
        # The kernel re-wraps guest errors with one-argument
        # reconstruction, losing the attributes; the message format
        # is the fallback carrier.
        error = CheckpointError("context 'rtos1' crashed: "
                                "watchdog-timeout (stall) "
                                "[in process 'x' at 3 ns]")
        assert parse_crash(error) == ("rtos1", "watchdog-timeout")

    def test_recovery_policy_defaults(self):
        policy = RecoveryPolicy()
        assert policy.max_attempts == 2
        assert "worker-crash" in policy.codes
        assert "watchdog-timeout" in policy.codes
        assert "transport-error" not in policy.codes
