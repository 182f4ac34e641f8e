"""History-based prefetching at synchronization points (related work).

The paper contrasts its software-controlled non-binding prefetching
against the scheme of Bianchini et al. [3]: the DSM runtime itself
issues prefetches automatically when a synchronization operation
completes, for the pages the processor faulted on after the *previous*
synchronization — no program modification required, but no program
knowledge either.

This module implements that alternative as an extension:
:class:`HistoryPrefetcher` records, per synchronization object, the
pages faulted on after each acquire/barrier, and on the next completion
of the same synchronization replays them through the ordinary
non-binding prefetch engine.  The ablation test
(``tests/experiments/test_ablations.py``) compares it against the
paper's explicit insertion, reproducing the paper's argument that
explicit insertion prefetches "more intelligently and more
aggressively".
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING, Generator

from repro.api.ops import Prefetch

if TYPE_CHECKING:  # pragma: no cover
    from repro.prefetch.engine import PrefetchEngine

__all__ = ["HistoryPrefetcher"]


class HistoryPrefetcher:
    """Runtime-driven prefetching from per-sync fault histories."""

    #: how many past inter-sync windows to replay.  Depth 2 covers the
    #: common alternating-phase pattern (e.g. red/black sweeps sharing
    #: one barrier object), which a depth-1 history would always miss
    #: by one phase.
    DEPTH = 2

    def __init__(self, engine: "PrefetchEngine", page_size: int) -> None:
        self.engine = engine
        self.page_size = page_size
        #: most recent inter-sync fault windows, newest last.
        self._windows: list[list[int]] = []
        #: faults recorded since the last synchronization completion.
        self._current_faults: list[int] = []
        self.replays = 0

    def on_fault(self, page_id: int) -> None:
        """Record a fault (hooked from the scheduler's fault path)."""
        if page_id not in self._current_faults:
            self._current_faults.append(page_id)

    def on_sync_complete(self, key: object) -> Generator:
        """A lock acquire / barrier finished: replay the recent fault
        history through the prefetch engine and open a new window."""
        if self._current_faults:
            self._windows.append(self._current_faults)
            self._windows = self._windows[-self.DEPTH :]
        self._current_faults = []
        replay: list[int] = []
        for window in self._windows:
            for page_id in window:
                if page_id not in replay:
                    replay.append(page_id)
        if not replay:
            return
        self.replays += 1
        regions = [(page_id * self.page_size, 1) for page_id in replay]
        yield from self.engine.op_prefetch(Prefetch.of(regions))
