"""The pluggable coherence backends: selection, the shared fault
envelope, protocol-specific wire behaviour, the inert-LRC-state
contract of the SC backend, and answer equivalence — every program
must compute the same result on every protocol."""

import pytest

from repro.api.runtime import DsmRuntime, RunConfig
from repro.apps import make_app
from repro.dsm.backend import BACKEND_NAMES
from repro.dsm.hlrc import HlrcBackend
from repro.dsm.protocol import DsmNode, LrcBackend
from repro.dsm.sc import ScBackend
from repro.errors import ConfigError
from repro.sim import spawn

from tests.integration.test_smoke import LockedCounter, ProducerConsumer

PROTOCOLS = list(BACKEND_NAMES)
BACKEND_CLASSES = {"lrc": LrcBackend, "hlrc": HlrcBackend, "sc": ScBackend}


def run(program, protocol, **config_kwargs):
    config = RunConfig(num_nodes=4, protocol=protocol, **config_kwargs)
    runtime = DsmRuntime(config)
    report = runtime.execute(program)
    return runtime, report


def sent(report, kind):
    return (report.traffic_by_kind or {}).get(kind, {}).get("sent", 0)


# -- selection ---------------------------------------------------------------


def test_unknown_protocol_is_a_config_error():
    with pytest.raises(ConfigError, match="unknown protocol"):
        RunConfig(num_nodes=4, protocol="mesi")


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_config_selects_the_named_backend(protocol):
    runtime, report = run(ProducerConsumer(), protocol)
    for dsm in runtime.dsm_nodes:
        assert type(dsm) is BACKEND_CLASSES[protocol]
        assert dsm.name == protocol
    assert report.protocol == protocol


def test_only_lrc_speaks_the_diff_prefetch_protocol():
    assert LrcBackend.supports_diff_prefetch is True
    assert HlrcBackend.supports_diff_prefetch is False
    assert ScBackend.supports_diff_prefetch is False
    assert DsmNode.supports_diff_prefetch is False


# -- the shared fault envelope -----------------------------------------------


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_concurrent_faults_on_one_page_share_one_fault(protocol):
    """Request combining: two threads faulting on the same page get the
    same fault event, and the node handles exactly one fault."""
    runtime = DsmRuntime(RunConfig(num_nodes=2, protocol=protocol))
    sim = runtime.cluster.sim
    writer, reader = runtime.dsm_nodes
    page = 0
    # A store under SC needs exclusive ownership, which the reader's
    # shared replica lacks; under the LRC family the reader must first
    # learn of the writer's interval, as a lock hand-off would carry.
    for_write = protocol == "sc"
    if not for_write:

        def publish():
            yield from writer.op_write_touch(page)
            writer.node.pages.page(page)[0] = 7
            yield from writer.close_interval_charged()
            yield from reader.apply_notices_charged(
                writer.wn_log.unseen_by(reader.vc.snapshot())
            )

        spawn(sim, publish())
        sim.run()
    faults_before = reader.faults
    first = reader.ensure_valid(page, for_write)
    second = reader.ensure_valid(page, for_write)
    assert first is not None
    assert second is first
    assert reader.fault_in_flight(page)
    sim.run()
    assert first.triggered
    assert not reader.fault_in_flight(page)
    assert reader.faults == faults_before + 1
    assert reader.ensure_valid(page, for_write) is None
    if for_write:
        assert reader.page_writable(page)
    else:
        assert reader.node.pages.page(page)[0] == 7


# -- answer equivalence ------------------------------------------------------


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_producer_consumer_verifies(protocol):
    _, report = run(ProducerConsumer(), protocol)  # execute() verifies
    assert report.events.remote_misses > 0


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_locked_counter_verifies(protocol):
    program = LockedCounter(increments=4)
    program.expected_total = 4 * 4  # nodes x increments, 1 thread/node
    _, report = run(program, protocol)  # execute() verifies
    assert report.wall_time_us > 0


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_runs_are_deterministic(protocol):
    _, first = run(ProducerConsumer(), protocol)
    _, second = run(ProducerConsumer(), protocol)
    assert first.to_json() == second.to_json()


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_sanitizer_is_pure_observation(protocol):
    """Sanitizer-on and -off runs are byte-identical per backend."""
    _, plain = run(ProducerConsumer(), protocol)
    _, checked = run(ProducerConsumer(), protocol, sanitizer=True)
    assert plain.to_json() == checked.to_json()


# -- mechanism signatures on the wire ----------------------------------------


@pytest.fixture(scope="module")
def sor_reports():
    reports = {}
    for protocol in PROTOCOLS:
        config = RunConfig(num_nodes=4, protocol=protocol, sanitizer=True)
        reports[protocol] = DsmRuntime(config).execute(make_app("SOR", "small"))
    return reports


def test_lrc_moves_diffs(sor_reports):
    report = sor_reports["lrc"]
    assert sent(report, "diff_request") > 0
    assert sent(report, "home_update") == 0
    assert sent(report, "sc_inval") == 0


def test_hlrc_trades_diff_requests_for_home_traffic(sor_reports):
    report = sor_reports["hlrc"]
    assert sent(report, "home_update") > 0
    assert sent(report, "page_request") > 0
    assert sent(report, "page_reply") == sent(report, "page_request")
    assert sent(report, "diff_request") == 0
    assert sent(report, "sc_inval") == 0


def test_sc_replaces_diffs_with_invalidations(sor_reports):
    report = sor_reports["sc"]
    assert sent(report, "sc_inval") > 0
    assert sent(report, "sc_inval") == sent(report, "sc_inval_ack")
    assert sent(report, "sc_data") > 0
    assert sent(report, "diff_request") == 0
    assert sent(report, "home_update") == 0
    assert sent(report, "write_notice") == 0


def test_all_protocols_compute_the_same_answer(sor_reports):
    # make_app verification ran inside execute(); walls must differ
    # (the protocols really took different paths) yet all verified.
    walls = {p: r.wall_time_us for p, r in sor_reports.items()}
    assert len(set(walls.values())) == 3, walls


# -- the inert-LRC-state contract of SC --------------------------------------


def test_sc_lrc_machinery_stays_inert():
    """SC piggybacks *inert* LRC state on sync messages: the vector
    clock never advances and no write notices are ever logged, so the
    shared lock/barrier code needs no per-protocol branches."""
    runtime, report = run(make_app("SOR", "small"), "sc", sanitizer=True)
    for dsm in runtime.dsm_nodes:
        assert dsm.vc.snapshot() == (0,) * 4
        assert dsm.diff_store.total_flushes == 0
        assert dsm.diff_store.pages() == []
