"""The shared context lifecycle (cosim.context) behaves alike in every
scheme: a failed prefetch quarantines with a stable reason code, or —
when a crash policy elects recovery — raises a parseable crash."""

import pytest

from repro.errors import (CosimTransportError, RecoverableCrashError,
                          parse_crash)
from repro.obs.scenarios import COSIM_SCHEMES
from repro.router.system import RouterConfig, RouterSystem
from repro.sysc.simtime import US

from tests.support import wedge_prefetch


def _wedged_system(scheme):
    system = RouterSystem(RouterConfig(
        scheme=scheme, inter_packet_delay=20 * US, max_packets=2,
        producer_count=2, parallel="thread", workers=2, sync_quantum=4,
        dmi=True))
    context = system.scheme.contexts[0]
    assert context.dmi is not None
    wedge_prefetch(context, CosimTransportError("link down"))
    return system, context


@pytest.mark.parametrize("scheme", COSIM_SCHEMES)
def test_failed_prefetch_quarantines(scheme):
    system, context = _wedged_system(scheme)
    try:
        system.run(200 * US)
        assert context.quarantined
        assert context.quarantine_reason == "transport-error"
        assert context.dmi.degraded is not None
        assert system.metrics.quarantine_log() == [
            (context.name, "transport-error")]
        assert system.scheme.finished
    finally:
        system.close()


@pytest.mark.parametrize("scheme", COSIM_SCHEMES)
def test_crash_policy_elects_recovery(scheme):
    system, context = _wedged_system(scheme)
    system.scheme.crash_policy = lambda name, code: True
    try:
        with pytest.raises(RecoverableCrashError) as caught:
            system.run(200 * US)
        assert parse_crash(caught.value) == (context.name,
                                             "transport-error")
        assert not context.quarantined
    finally:
        system.close()
