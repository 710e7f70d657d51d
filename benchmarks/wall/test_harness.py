"""Tests of the wall-time benchmark's own machinery.

    python -m pytest benchmarks/wall -q
"""

import json
import subprocess
import sys
import threading
import time

import pytest

import cell
import compare
import run
from ledger import Ledger, installed, targets


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class Target:
    def work(self, clock, spent, fail=False):
        clock.now += spent
        if fail:
            raise RuntimeError("injected")


# -- self-time accounting --------------------------------------------------

def test_nested_spans_are_subtracted_from_their_parent():
    clock = FakeClock()
    ledger = Ledger(clock)
    with ledger.root():
        clock.now += 1
        with ledger.span("iss", "Cpu.run"):
            clock.now += 2
            with ledger.span("gdb", "GdbClient.transact"):
                clock.now += 4
        clock.now += 8
    totals = ledger.take()
    assert totals["layers"] == {"sysc": {"self_s": 9.0, "calls": 0},
                                "iss": {"self_s": 2.0, "calls": 1},
                                "gdb": {"self_s": 4.0, "calls": 1}}
    assert totals["entries"]["Cpu.run"] == {"total_s": 6.0, "calls": 1}
    assert sum(layer["self_s"] for layer in totals["layers"].values()) == 15
    assert ledger.take() == {"layers": {}, "entries": {}}


def test_a_raising_span_is_closed_and_charged():
    clock = FakeClock()
    ledger = Ledger(clock)
    with installed(ledger, [(Target, ("work",), "iss")]):
        with ledger.root():
            Target().work(clock, 2)
            with pytest.raises(RuntimeError):
                Target().work(clock, 3, fail=True)
            clock.now += 1
        Target().work(clock, 5)     # outside every root: not charged
    assert not ledger.active()
    layers = ledger.take()["layers"]
    assert layers["iss"] == {"self_s": 5.0, "calls": 2}
    assert layers["sysc"]["self_s"] == 1.0


def test_spans_on_other_threads_are_not_timed():
    clock = FakeClock()
    ledger = Ledger(clock)
    with installed(ledger, [(Target, ("work",), "iss")]):
        with ledger.root():
            worker = threading.Thread(target=Target().work, args=(clock, 3))
            worker.start()
            worker.join(timeout=10)
            assert not worker.is_alive()
    assert "iss" not in ledger.take()["layers"]


def test_shims_uninstall_cleanly_even_when_the_block_raises():
    from repro.cosim.gdb_kernel import GdbKernelHook

    before = {(cls, name): vars(cls).get(name)
              for cls, names, __ in targets() for name in names}
    with pytest.raises(KeyError):
        with installed(Ledger()):
            assert vars(GdbKernelHook)["on_time_advance"] is not \
                before[(GdbKernelHook, "on_time_advance")]
            # An inherited no-op hook is left alone.
            assert "on_cycle_end" not in vars(GdbKernelHook)
            raise KeyError("leave the block")
    after = {(cls, name): vars(cls).get(name)
             for cls, names, __ in targets() for name in names}
    assert after == before


# -- outcome checks ----------------------------------------------------------

def test_fingerprint_is_stable_on_a_short_table1_cell():
    schemes = run.WORKLOADS["table1"].cells
    first = [cell.run_cell("table1", scheme, 42, 100) for scheme in schemes]
    second = [cell.run_cell("table1", scheme, 42, 100) for scheme in schemes]
    assert [record["fingerprint"] for record in first] == \
        [record["fingerprint"] for record in second]
    assert all(record["problems"] == [] for record in first)
    assert first[0]["counters"]["forwarded"] > 0
    child = subprocess.run(
        [sys.executable, str(run.HERE / "cell.py"), "--workload", "table1",
         "--seed", "42", "--span-us", "100", "--t0", repr(time.monotonic())],
        capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(child.stdout.splitlines()[-1])
    assert [record["fingerprint"] for record in result["cells"]] == \
        [record["fingerprint"] for record in first]


def _child(fingerprints, problems=None):
    """A child result whose cells carry *fingerprints* and *problems*."""
    problems = problems or {}
    cells = [{"scheme": scheme, "fingerprint": digest,
              "problems": problems.get(scheme, [])}
             for scheme, digest in fingerprints.items()]
    return {"cells": cells}, None


def test_check_counts_every_kind_of_failed_cell():
    good = {"gdb-kernel": "a" * 64, "driver-kernel": "b" * 64}
    references = {}
    runs = [
        _child(good),
        _child(good, {"gdb-kernel": ["contexts_quarantined=1"]}),
        _child(dict(good, **{"driver-kernel": "c" * 64})),
        (None, "child exit 1: boom"),
    ]
    attempted, failures = run.check("mpsoc-crc", runs, references, None)
    assert attempted == 8
    assert len(failures) == 4
    assert failures[0] == "gdb-kernel: contexts_quarantined=1"
    assert failures[1].startswith("driver-kernel: fingerprint cccccccccccc")
    # mpsoc-resilient must reproduce mpsoc-crc's outcome.
    __, failures = run.check(
        "mpsoc-resilient", [_child(dict(good, **{"gdb-kernel": "d" * 64}))],
        references, None)
    assert [failure.split(":")[0] for failure in failures] == ["gdb-kernel"]
    # At the pinned seed, the pin decides.
    __, failures = run.check("mpsoc-crc", [_child(good)], {},
                             {"mpsoc-crc": dict(good, **{"gdb-kernel": "e"})})
    assert [failure.split(":")[0] for failure in failures] == ["gdb-kernel"]


# -- compare.py -------------------------------------------------------------

WALL = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}
BASE = [10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.08, 9.92, 10.0]


@pytest.mark.parametrize("change, expected", [
    ([value * 0.8 for value in BASE], "improved"),
    (list(reversed(BASE)), "no-change"),
    ([value * 1.2 for value in BASE], "worse"),
    ([value * (1.5 if index % 2 else 0.7)
      for index, value in enumerate(BASE)], "unresolved"),
])
def test_compare_verdicts(change, expected):
    assert compare.verdict(BASE, change, WALL)[0] == expected


def test_compare_higher_is_better_metrics():
    rate = dict(WALL, better="higher")
    assert compare.verdict(BASE, [v * 1.2 for v in BASE], rate)[0] == \
        "improved"
    assert compare.verdict(BASE, [v * 0.8 for v in BASE], rate)[0] == "worse"


def _result(samples, error_rate=0.0):
    return {"workloads": {"table1": {"samples": {"wall_s": samples},
                                     "error_rate": error_rate}}}


def test_compare_exit_codes(tmp_path):
    paths = {}
    for name, result in {
            "base": _result(BASE),
            "same": _result(list(reversed(BASE))),
            "slow": _result([value * 1.5 for value in BASE]),
            "failing": _result(BASE, error_rate=0.1)}.items():
        paths[name] = tmp_path / (name + ".json")
        paths[name].write_text(json.dumps(result))
    assert compare.main([str(paths["base"]), str(paths["same"])]) == 0
    assert compare.main([str(paths["base"]), str(paths["slow"])]) == 1
    assert compare.main([str(paths["base"]), str(paths["failing"])]) == 1
    assert compare.main([str(paths["base"])]) == 2
