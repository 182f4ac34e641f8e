"""Per-node, per-page coherence state.

A page on a node is *valid* when, for every other node, the diffs
applied locally cover every write notice received.  Writes additionally
track a *twin* (clean copy) from which diffs are computed, and a dirty
flag cleared when a diff is flushed (the page is then "write-protected";
the next write opens a sub-interval and a fresh twin).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = ["PageCoherence"]


@dataclass(slots=True)
class PageCoherence:
    """Coherence metadata for one page on one node."""

    page_id: int
    num_nodes: int
    #: Highest interval index per writer whose modifications are applied
    #: to the local copy.
    applied_upto: list[int] = field(default_factory=list)
    #: Highest interval index per writer for which a write notice exists.
    needed_upto: list[int] = field(default_factory=list)
    dirty: bool = False
    twin: Optional[np.ndarray] = None
    #: Set when an interval close announced this (still dirty) page:
    #: the next local write must open a fresh write notice, exactly as
    #: TreadMarks' per-interval write protection forces a fault.
    write_protected: bool = False
    #: Per-byte lamport watermark of applied remote diffs (lazy).  A
    #: diff byte is applied only if its interval's timestamp is at least
    #: the watermark — enforcing happened-before-1 ordering regardless
    #: of how fetch batches interleave.
    byte_lamports: Optional[np.ndarray] = None
    #: Writers with ``needed_upto > applied_upto``, kept by the two
    #: ``note_*`` methods (the only writers of those lists) so that
    #: :attr:`valid`, read on every access check, is O(1).
    stale: int = field(default=0, init=False)

    def lamport_watermarks(self, page_size: int) -> np.ndarray:
        if self.byte_lamports is None:
            self.byte_lamports = np.zeros(page_size, dtype=np.int64)
        return self.byte_lamports

    def __post_init__(self) -> None:
        if not self.applied_upto:
            self.applied_upto = [0] * self.num_nodes
        if not self.needed_upto:
            self.needed_upto = [0] * self.num_nodes
        self._recount()

    def _recount(self) -> None:
        self.stale = sum(n > a for a, n in zip(self.applied_upto, self.needed_upto))

    @property
    def valid(self) -> bool:
        return self.stale == 0

    def stale_writers(self) -> list[int]:
        """Writers whose modifications are still missing locally."""
        return [
            proc
            for proc, (applied, needed) in enumerate(zip(self.applied_upto, self.needed_upto))
            if needed > applied
        ]

    def note_write_notice(self, proc: int, interval_idx: int) -> bool:
        """Record an invalidation; returns True if the page became stale."""
        needed = self.needed_upto[proc]
        if interval_idx <= needed:
            return False
        self.needed_upto[proc] = interval_idx
        applied = self.applied_upto[proc]
        if needed > applied or interval_idx <= applied:
            return False  # writer already stale, or still covered
        self.stale += 1
        return self.stale == 1

    def note_diffs_applied(self, proc: int, covers_through: int) -> None:
        applied = self.applied_upto[proc]
        if covers_through <= applied:
            return
        self.applied_upto[proc] = covers_through
        needed = self.needed_upto[proc]
        if needed > applied and covers_through >= needed:
            self.stale -= 1

    # -- checkpoint / recovery -------------------------------------------

    def snapshot_state(self) -> dict:
        """Deep-copied coherence metadata."""
        return {
            "applied_upto": list(self.applied_upto),
            "needed_upto": list(self.needed_upto),
            "dirty": self.dirty,
            "twin": None if self.twin is None else self.twin.copy(),
            "write_protected": self.write_protected,
            "byte_lamports": None if self.byte_lamports is None else self.byte_lamports.copy(),
        }

    @classmethod
    def from_snapshot(cls, page_id: int, num_nodes: int, snap: dict) -> "PageCoherence":
        state = cls(page_id, num_nodes)
        state.applied_upto = list(snap["applied_upto"])
        state.needed_upto = list(snap["needed_upto"])
        state._recount()
        state.dirty = snap["dirty"]
        state.twin = None if snap["twin"] is None else snap["twin"].copy()
        state.write_protected = snap["write_protected"]
        state.byte_lamports = (
            None if snap["byte_lamports"] is None else snap["byte_lamports"].copy()
        )
        return state
