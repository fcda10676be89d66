"""Pinned Chrome traces: the exported trace of two runs, byte for byte.

Each run's trace JSON is pinned by its sha256, so any change to when a
span opens or closes, which operator it is attributed to, or the order
the exporter writes it in fails here.  Each run's ``ExecutionResult``
must also equal the untraced run's: recording a trace must not move a
single simulated event.

The faulted run ships data pages through a server crash, a network
outage and a lossy link, so it pins the traced retry and retransmit
paths as well as the healthy one.
"""

import hashlib

import pytest

from repro import api
from repro.faults import FaultSchedule
from repro.obs import chrome_trace_json


def _faults() -> FaultSchedule:
    return (
        FaultSchedule.server_crash(1, at=1.0, duration=0.5)
        .merge(FaultSchedule.network_outage(at=2.0, duration=0.3))
        .with_drop_probability(0.05)
    )


RUNS = {
    "hybrid-cached-half": (
        dict(policy="hybrid", cached_fraction=0.5, seed=3),
        "1eb3b9695b3325b0ad53cc83992ebd52e03ed599309b6db4cd2381a03c8a2698",
    ),
    "data-shipping-faulted": (
        dict(policy="data", seed=7, faults=_faults()),
        "2004462b44d2b5e8679b18d7688a7b0ec1ac3f82e8510d7754426f588c7ea6e1",
    ),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_exported_trace_is_pinned_and_untraced_result_equal(name):
    kwargs, digest = RUNS[name]
    traced = api.run_query(trace=True, **kwargs)
    untraced = api.run_query(**kwargs)
    assert traced.result == untraced.result
    trace_json = chrome_trace_json(traced.trace)
    assert hashlib.sha256(trace_json.encode()).hexdigest() == digest
