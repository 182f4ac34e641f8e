"""Exact kernel work counters for one small cell.

Host time is noisy; the number of callbacks the kernel runs, the
number of ``Timeout`` events it creates and the number of CPU charges
it waits out are not.  Pinning them for one cell makes a hot-path
regression (a per-link process, a per-hop ``Timeout``, an extra event
per message) fail loudly instead of hiding in timing noise.  If a
change *means* to alter these counts, update the pins together with
the reason.

History of the pins: link transmissions stopped creating a process and
a ``Timeout`` each (1579 -> 1171 timeouts, 2543 -> 2535 callbacks).
Then CPU charges became bare delay yields, resumed from one heap entry
instead of a ``Timeout`` (1171 -> 4 timeouts: all 1171 were
``Node.occupy`` charges, and only each node's first charge still waits
on a ``Timeout``, see ``Node.occupy``); a delay costs exactly the one
callback its ``Timeout`` did, so ``events_handled`` stayed 2535.  The
count of positive-duration ``occupy`` charges (1171) is pinned so CPU
charges stay gated now that they no longer show up as timeouts.
"""

from repro import DsmRuntime, RunConfig
from repro.experiments.runner import make_configured_app
from repro.machine.node import Node
from repro.sim import Simulator


def test_sor_o_small_kernel_work_counters(monkeypatch):
    timeouts = 0
    charges = 0
    create = Simulator.timeout
    occupy = Node.occupy

    def counting_timeout(self, *args, **kwargs):
        nonlocal timeouts
        timeouts += 1
        return create(self, *args, **kwargs)

    def counting_occupy(self, duration, *args, **kwargs):
        nonlocal charges
        if duration > 0:
            charges += 1
        return occupy(self, duration, *args, **kwargs)

    monkeypatch.setattr(Simulator, "timeout", counting_timeout)
    monkeypatch.setattr(Node, "occupy", counting_occupy)
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
    # Kernel work: no process or Timeout per link transmission, and
    # each CPU charge waits as one delay entry, not a Timeout.
    assert runtime.cluster.sim.events_handled == 2535
    assert charges == 1171
    assert timeouts == 4  # one per node: its first charge (see Node.occupy)
