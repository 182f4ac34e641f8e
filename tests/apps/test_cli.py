"""The ``python -m repro.apps`` command line."""

import re

from repro.api.runtime import DsmRuntime, RunConfig
from repro.apps.__main__ import main as apps_main
from repro.experiments.runner import make_configured_app


def test_crash_baseline_is_the_clean_configured_run(capsys):
    # The crash instant is a fraction of the fault-free wall time, so
    # the baseline must run the same app settings as the crashed run:
    # under P the app issues prefetches.
    argv = ["FFT", "--config", "P", "--preset", "small", "--nodes", "4"]
    assert apps_main(argv + ["--crash", "0.5", "--no-verify"]) == 0
    printed = re.search(r"baseline wall time (\S+) ms", capsys.readouterr().out)
    clean = DsmRuntime(RunConfig(num_nodes=4, prefetch=True)).execute(
        make_configured_app("FFT", "small", "P")
    )
    assert printed.group(1) == f"{clean.wall_time_us / 1000:.2f}"
