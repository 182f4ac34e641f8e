"""The parallel fan-out: spawn-safe workers, deterministic ordering."""

import argparse

import pytest

from repro.api.runtime import RunConfig
from repro.bench.__main__ import main as bench_main
from repro.chaos.__main__ import main as chaos_main
from repro.experiments.__main__ import main as experiments_main
from repro.experiments.runner import ExperimentRunner, RunSpec, execute_spec, run_specs
from repro.parallel import default_jobs, jobs_arg


def make_specs(labels=("O", "P")):
    return [
        RunSpec(
            app_name="SOR",
            preset="small",
            label=label,
            config=RunConfig(
                num_nodes=2, threads_per_node=1, prefetch=(label == "P"), seed=42
            ),
        )
        for label in labels
    ]


def test_default_jobs_is_at_least_one():
    assert default_jobs() >= 1


def test_jobs_flag_rule_is_shared_by_every_cli(tmp_path, capsys):
    assert jobs_arg("3") == 3
    assert jobs_arg("0") == default_jobs()
    with pytest.raises(argparse.ArgumentTypeError):
        jobs_arg("-3")
    for main, argv in (
        (bench_main, []),
        (experiments_main, ["fig1"]),
        (chaos_main, []),
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--jobs", "-3"])
        assert exc.value.code == 2
        assert "--jobs: must be >= 0" in capsys.readouterr().err
    # 0 = one worker per core on the chaos CLI too (a one-sample search
    # never opens a pool, so this stays cheap).
    argv = ["--seed", "2026", "--budget", "1", "--apps", "SOR", "--jobs", "0"]
    assert chaos_main(argv + ["--out", str(tmp_path)]) == 0


def test_serial_path_reports_in_spec_order():
    specs = make_specs()
    done = []
    reports = run_specs(specs, jobs=1, on_done=lambda index, _r: done.append(index))
    assert done == [0, 1]
    assert [r.config_label for r in reports] == ["O", "P"]
    assert all(r.app_name == "SOR" for r in reports)


def test_parallel_output_is_independent_of_job_count():
    # The acceptance guard: a fanned-out sweep must be byte-identical
    # to the serial one, with results in spec order regardless of
    # completion order.
    specs = make_specs()
    serial = run_specs(specs, jobs=1)
    fanned = run_specs(specs, jobs=2)
    assert [r.to_json() for r in fanned] == [r.to_json() for r in serial]


def test_execute_spec_round_trips_through_json():
    (spec,) = make_specs(labels=("O",))
    report = execute_spec(spec)
    from repro.metrics.report import RunReport

    assert RunReport.from_json(report.to_json()).to_json() == report.to_json()


def test_experiment_runner_grid_prefetch_matches_serial():
    kwargs = dict(num_nodes=2, preset="small", seed=42, verify=True)
    serial = ExperimentRunner(jobs=1, **kwargs)
    fanned = ExperimentRunner(jobs=2, **kwargs)
    grid_a = list(serial.run_many(["O"], apps=["SOR"]))
    grid_b = list(fanned.run_many(["O"], apps=["SOR"]))
    assert [(a, l) for a, l, _ in grid_a] == [(a, l) for a, l, _ in grid_b]
    assert [r.to_json() for *_, r in grid_a] == [r.to_json() for *_, r in grid_b]
