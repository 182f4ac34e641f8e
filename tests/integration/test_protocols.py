"""Every application on every coherence backend, under lossy links.

The protocol zoo's whole-suite contract: all eight paper applications
compute verified answers on ``lrc``, ``hlrc`` and ``sc`` — with the
sanitizer checking each backend's invariants at every transition and
the network dropping 5% of datagrams (the reliable transport must
recover them for any protocol, not just the one it grew up with).

The 8 x 3 matrix fans out through ``run_specs`` (one test per
protocol), so the suite pays ~one application's wall clock per
protocol instead of eight.
"""

import pytest

from repro.api.runtime import RunConfig
from repro.apps.registry import APP_ORDER
from repro.dsm.backend import BACKEND_NAMES
from repro.network.faults import FaultPlan
from repro.experiments.runner import RunSpec, run_specs

NODES = 4
DROP_PROB = 0.05


@pytest.mark.parametrize("protocol", list(BACKEND_NAMES))
def test_all_apps_verify_under_loss(protocol):
    config = RunConfig(
        num_nodes=NODES,
        seed=7,
        protocol=protocol,
        sanitizer=True,
        fault_plan=FaultPlan(drop_prob=DROP_PROB),
    )
    specs = [
        RunSpec(
            app_name=app_name,
            preset="small",
            label="O",
            config=config,
            verify=True,
        )
        for app_name in APP_ORDER
    ]
    reports = run_specs(specs, jobs=4)
    assert len(reports) == len(APP_ORDER)
    for app_name, report in zip(APP_ORDER, reports):
        assert report.protocol == protocol, app_name
        # The loss actually happened and the transport repaired it.
        assert report.message_drops > 0, app_name
        assert report.events.retransmissions > 0, app_name
