"""Fan independent work out across CPU cores.

The simulator is single-threaded by construction (one deterministic
event loop per run), so the way to use a multicore machine is to run
*different* (app, configuration) cells in separate processes.  This
module is the one place that knows how; it knows nothing about what a
cell is (:func:`repro.experiments.runner.run_specs` builds simulation
runs on top of it, the chaos harness fans out whole search samples).

Results are reassembled **by item index**, so the output order is
deterministic regardless of completion order, and a ``--jobs N`` sweep
is identical to the serial one for every N.

Workers are spawn-safe: the ``spawn`` start method is used explicitly
(fork would duplicate the parent's interpreter state, and is unavailable
on some platforms anyway), so each worker imports the library fresh and
shares nothing with the parent but the pickled item.
"""

from __future__ import annotations

import argparse
import os

__all__ = ["default_jobs", "fan_out", "jobs_arg"]


def default_jobs() -> int:
    """A sensible --jobs default: all cores, floor 1."""
    return max(1, os.cpu_count() or 1)


def jobs_arg(text: str) -> int:
    """The argparse ``type`` of every CLI's ``--jobs``: a worker count,
    with 0 meaning one worker per core.  Negative counts are rejected."""
    jobs = int(text)
    if jobs < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0 (0 = one per core), got {jobs}")
    return jobs or default_jobs()


def _fan_out_entry(packed):
    """Pool entry point for :func:`fan_out`: returns (index, result)."""
    index, worker, item = packed
    return index, worker(item)


def fan_out(items, worker, jobs: int = 1, on_done=None) -> list:
    """Apply ``worker`` to every item; return results in item order.

    ``worker`` must be a module-level function and both items and
    results must pickle — with ``jobs > 1`` they cross a spawn-context
    process boundary.  ``on_done(index, result)`` fires in *completion*
    order; the returned list is always in item order, so a ``--jobs N``
    sweep is identical to the serial one for every N.
    """
    items = list(items)
    results: list = [None] * len(items)
    if jobs <= 1 or len(items) <= 1:
        for index, item in enumerate(items):
            result = worker(item)
            results[index] = result
            if on_done is not None:
                on_done(index, result)
        return results
    # Imported only when a pool is needed: the serial path (and every
    # importer of the library) stays free of multiprocessing's cost.
    import multiprocessing

    packed = [(index, worker, item) for index, item in enumerate(items)]
    context = multiprocessing.get_context("spawn")
    with context.Pool(processes=min(jobs, len(items))) as pool:
        for index, result in pool.imap_unordered(_fan_out_entry, packed):
            results[index] = result
            if on_done is not None:
                on_done(index, result)
    return results
