"""Golden of everything the instruments of an audited storm produce.

``run_replica_storm(seed=11, duration=6.0, watchdogs=True,
audit_every=0.5)`` arms the profiler (through the ``[obs]`` name space),
the telemetry collector with its watchdogs, the coherence probe and the
in-run direct audit sweeps.  The golden pins what each of them hands back:
every telemetry series' samples and sampling gaps, the alert records, every
in-run audit document, the probe's cumulative summary, the registry's
counters (in registry order) and the storm report itself.  The series are
pinned by the sha256 of their canonical JSON (they are most of the bytes),
beside a readable subset: each series' length and last sample.  It was captured
before the instruments' hot paths were made cheap, so a faster instrument
that counts, samples or classifies anything differently fails here.

Regenerate by writing ``json.dumps(capture(), sort_keys=True, indent=1)``
to ``golden_audited_storm.json``.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

from repro.faults import chaos
from repro.kernel.domain import Domain

GOLDEN = Path(__file__).with_name("golden_audited_storm.json")


def capture() -> dict:
    domains = []

    class CapturingDomain(Domain):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            domains.append(self)

    original = chaos.Domain
    chaos.Domain = CapturingDomain
    try:
        docs: list = []
        report = chaos.run_replica_storm(seed=11, duration=6.0,
                                         watchdogs=True, audit_every=0.5,
                                         on_audit=docs.append)
    finally:
        chaos.Domain = original
    (domain,) = domains
    telemetry = domain.telemetry
    series = {f"{host}/{metric}": {"samples": [list(s) for s in ts.samples()],
                                   "capacity": ts.capacity}
              for (host, metric), ts in telemetry.series.items()}
    gaps = {host: telemetry.gaps_for(host)
            for host in sorted({h.name for h in domain.hosts.values()})}
    return {
        "series_order": list(series),
        "series_sha256": hashlib.sha256(
            json.dumps(series, sort_keys=True).encode()).hexdigest(),
        "series_tail": {name: [len(entry["samples"]), entry["samples"][-1]]
                        for name, entry in series.items()},
        "gaps": gaps,
        "ticks": telemetry.ticks,
        "alerts": telemetry.alerts.to_records(),
        "audits": docs,
        "probe": domain.coherence.summary(),
        "counters": domain.metrics.snapshot()["counters"],
        "report": dataclasses.asdict(report),
    }


def test_audited_storm_instrument_outputs_match_golden():
    document = json.loads(json.dumps(capture(), sort_keys=True))
    golden = json.loads(GOLDEN.read_text())
    assert document.keys() == golden.keys()
    for key in golden:
        assert document[key] == golden[key], key
