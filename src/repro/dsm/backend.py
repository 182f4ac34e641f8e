"""The coherence-protocol registry.

Each node's DSM object *is* its protocol: :class:`~repro.dsm.protocol.DsmNode`
owns what every protocol shares — the lock and barrier subsystems, the
prefetch engine and FT manager hooks, message dispatch, the fault
counters, the shared part of checkpoint snapshot/restore, and the
page-fault envelope (:meth:`~repro.dsm.protocol.DsmNode.ensure_valid`).
One subclass per protocol supplies the rest — the loop that makes a
faulting page valid, the release/acquire consistency actions, notice
propagation, and its part of the checkpoint — selected by
``RunConfig.protocol``:

- ``lrc`` — TreadMarks-style lazy release consistency (the default;
  :class:`~repro.dsm.protocol.LrcBackend`), multiple writers with
  twins/diffs and distributed diff servers;
- ``hlrc`` — home-based LRC (:class:`~repro.dsm.hlrc.HlrcBackend`):
  each page has a deterministic home node, releases flush diffs home
  eagerly, and faults pull the whole page from the home;
- ``sc`` — single-writer sequentially-consistent invalidate
  (:class:`~repro.dsm.sc.ScBackend`): a per-page directory serializes
  ownership transfers, write faults invalidate every copy, and there
  are no twins, diffs, or vector clocks.

Every protocol — even SC, which needs none of them — exposes ``vc``,
``wn_log``, ``diff_store`` and ``intervals`` attributes, because the
shared lock/barrier subsystems piggyback vector-clock snapshots and
write-notice sets on their messages.  SC satisfies them with *inert*
instances (a never-advancing clock, an empty log), which keeps the
synchronization code paths — and their message sizes — identical
across protocols without per-protocol branches in locks/barriers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover
    from repro.dsm.protocol import DsmNode
    from repro.machine.node import Node

__all__ = ["BACKEND_NAMES", "make_backend"]

#: Valid ``RunConfig.protocol`` values, in presentation order.
BACKEND_NAMES = ("lrc", "hlrc", "sc")


def make_backend(protocol: str, node: "Node", num_nodes: int) -> "DsmNode":
    """Build one node's DSM object for the protocol ``RunConfig.protocol`` names."""
    # Imported here, not at module scope, so a run loads only the
    # protocol it uses.
    if protocol == "lrc":
        from repro.dsm.protocol import LrcBackend as cls
    elif protocol == "hlrc":
        from repro.dsm.hlrc import HlrcBackend as cls
    elif protocol == "sc":
        from repro.dsm.sc import ScBackend as cls
    else:
        raise ConfigError(f"unknown protocol {protocol!r} (choose from {BACKEND_NAMES})")
    return cls(node, num_nodes)
