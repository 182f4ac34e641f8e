"""Exact kernel work counters for one small cell.

Host time is noisy; the number of callbacks the kernel runs and the
number of ``Timeout`` events it creates are not.  Pinning both for one
cell makes a hot-path regression (a per-link process, a per-hop
``Timeout``, an extra event per message) fail loudly instead of hiding
in timing noise.  If a change *means* to alter these counts, update the
pins together with the reason.
"""

from repro import DsmRuntime, RunConfig
from repro.experiments.runner import make_configured_app
from repro.sim import Simulator


def test_sor_o_small_kernel_work_counters(monkeypatch):
    timeouts = 0
    create = Simulator.timeout

    def counting_timeout(self, *args, **kwargs):
        nonlocal timeouts
        timeouts += 1
        return create(self, *args, **kwargs)

    monkeypatch.setattr(Simulator, "timeout", counting_timeout)
    runtime = DsmRuntime(RunConfig(num_nodes=4, seed=1))
    report = runtime.execute(make_configured_app("SOR", "small", "O"))
    network = runtime.cluster.network
    transmissions = sum(
        link.messages_sent for link in network.uplinks + network.switch.downlinks
    )

    # The simulated results these counts belong to.
    assert report.wall_time_us == 55941.353859844196
    assert report.total_messages == 204
    assert transmissions == 408  # two hops per message
    # Kernel work: no process or Timeout per link transmission.
    assert runtime.cluster.sim.events_handled == 2535
    assert timeouts == 1171
