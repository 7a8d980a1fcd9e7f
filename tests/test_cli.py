import concurrent.futures
import csv
import json
import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from optbench.cli import main
from optbench.config import run_id
from optbench.hpo import load_hpo_file, parse_space
from optbench.rundir import lockstep_groups

from conftest import (
    CLI,
    Interrupted,
    fail_write,
    loads_numpy,
    resolve,
    run_dir_files,
    src_env,
    stop_after_epoch,
    with_epochs,
)

TINY_EXPERIMENT = """
task:
  name: quadratic
  max_epochs: 3
optimizer:
  name: adamw_baseline
  learning_rate: [1.0e-1, 1.0e-2]
engine:
  seed: [1, 2]
"""

DUO = TINY_EXPERIMENT.replace("name: adamw_baseline", "name: [adamw_baseline, sgd_baseline]")

# an optimizer that comes back in a later branch: groups [0, 1, 4, 5] and [2, 3]
INTERLEAVED = """
task: {name: quadratic, max_epochs: 3}
optimizer:
  - {name: adamw_baseline, learning_rate: 1.0e-1}
  - {name: sgd_baseline}
  - {name: adamw_baseline, learning_rate: 1.0e-2}
engine: {seed: [1, 2]}
"""

GRID_8 = """
task:
  name: mlp_synth
  max_epochs: 10
  model:
    num_hidden: [16, 32]
optimizer:
  - name: adamw_baseline
    beta2: 0.98
  - name: sgd_baseline
    momentum: 0.5
engine:
  seed: [42, 47]
"""

GRID_120 = """
task:
  name: blobs_logreg
optimizer:
  - name: adamcpr_fast
    learning_rate: [1.e-1, 1.e-2, 1.e-3, 1.e-4]
    kappa_init_param: [1, 2, 4, 8, 16]
  - name: adamw_baseline
    learning_rate: [1.e-1, 1.e-2, 1.e-3, 1.e-4]
    weight_decay: [10, 1, 1.e-1, 1.e-2, 1.e-3]
engine:
  seed: [1, 2, 3]
"""


@pytest.fixture
def project(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SLURM_ARRAY_TASK_ID", raising=False)
    return tmp_path


def write(path: Path, text: str) -> str:
    path.write_text(text)
    return str(path)


class TestDryRun:
    def test_table_of_eight(self, project, capsys):
        exp = write(project / "grid8.yaml", GRID_8)
        assert main(["run", exp, "--dry-run"]) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l.strip()]
        assert len(lines) == 9  # header + 8 rows
        assert lines[0].startswith("index")
        assert "run_id" in lines[0]

    def test_group_column_numbers_the_lockstep_groups(self, project, capsys):
        exp = write(project / "mixed.yaml", INTERLEAVED)
        assert main(["run", exp, "--dry-run"]) == 0
        header, *rows = [line.split() for line in capsys.readouterr().out.splitlines()]
        assert header[:3] == ["index", "group", "run_id"]
        configs = resolve(INTERLEAVED)
        groups = lockstep_groups(configs)
        assert groups == [[0, 1, 4, 5], [2, 3]]
        assert {int(row[0]): int(row[1]) for row in rows} == {
            i: g for g, members in enumerate(groups) for i in members
        }
        assert [row[2] for row in rows] == [run_id(cfg) for cfg in configs]

    def test_writes_nothing(self, project, capsys):
        exp = write(project / "grid8.yaml", GRID_8)
        before = sorted(p for p in project.rglob("*") if p.is_file())
        main(["run", exp, "--dry-run"])
        after = sorted(p for p in project.rglob("*") if p.is_file())
        assert before == after


class TestRun:
    def test_full_run_and_idempotence(self, project, capsys):
        exp = write(project / "tiny.yaml", TINY_EXPERIMENT)
        assert main(["run", exp]) == 0
        run_dirs = list((project / "output" / "tiny" / "runs").iterdir())
        assert len(run_dirs) == 4
        assert (project / "output" / "tiny" / "aggregated.csv").exists()
        stamps = {d: (d / "result.json").stat().st_mtime_ns for d in run_dirs}
        capsys.readouterr()
        assert main(["run", exp]) == 0  # cached, no retraining
        for d, stamp in stamps.items():
            assert (d / "result.json").stat().st_mtime_ns == stamp

    def test_an_exponent_without_a_dot_is_a_float(self, project, capsys):
        exp = write(project / "lr.yaml", "task: {name: quadratic, max_epochs: 2}\n"
                    "optimizer: {name: adamw_baseline, learning_rate: 1e-3}\n")
        assert main(["run", exp]) == 0
        (run_dir,) = (project / "output" / "lr" / "runs").iterdir()
        config = yaml.safe_load((run_dir / "config.resolved.yaml").read_text())
        assert config["optimizer"]["learning_rate"] == 0.001

    def test_group_index_trains_one_group(self, project, capsys):
        exp = write(project / "duo.yaml", DUO)
        assert main(["run", exp, "--group-index", "1"]) == 0
        configs = resolve(DUO)
        trained = {d.name for d in (project / "output" / "duo" / "runs").iterdir()}
        assert trained == {run_id(configs[i]) for i in lockstep_groups(configs)[1]}
        assert trained == {run_id(c) for c in configs if c["optimizer"]["name"] == "sgd_baseline"}
        assert not (project / "output" / "duo" / "aggregated.csv").exists()

    def test_group_index_out_of_range(self, project, capsys):
        exp = write(project / "duo.yaml", DUO)
        assert main(["run", exp, "--group-index", "2"]) == 2
        assert main(["run", exp, "--group-index=-1"]) == 2
        assert "group index 2 outside 0..1" in capsys.readouterr().err
        assert not (project / "output").exists()

    def test_slurm_env_var_indexes_groups(self, project, capsys, monkeypatch):
        exp = write(project / "duo.yaml", DUO)
        monkeypatch.setenv("SLURM_ARRAY_TASK_ID", "0")
        assert main(["run", exp]) == 0
        configs = resolve(DUO)
        runs = project / "output" / "duo" / "runs"
        groups = lockstep_groups(configs)
        assert {d.name for d in runs.iterdir()} == {run_id(configs[i]) for i in groups[0]}
        assert main(["run", exp, "--group-index", "1"]) == 0  # the flag wins over the variable
        assert {d.name for d in runs.iterdir()} == {run_id(c) for c in configs}

    @pytest.mark.parametrize("value", ["abc", ""])
    def test_bad_slurm_env_var_exit_2(self, project, capsys, monkeypatch, value):
        exp = write(project / "duo.yaml", DUO)
        monkeypatch.setenv("SLURM_ARRAY_TASK_ID", value)
        with pytest.raises(SystemExit) as exc:
            main(["run", exp])
        assert exc.value.code == 2
        assert f"invalid int value: {value!r}" in capsys.readouterr().err
        assert not (project / "output").exists()

    @pytest.mark.parametrize("value", ["0", "-3", "two"])
    def test_bad_workers_exit_2(self, project, capsys, value):
        exp = write(project / "duo.yaml", DUO)
        with pytest.raises(SystemExit) as exc:
            main(["run", exp, "--workers", value])
        assert exc.value.code == 2
        assert f"argument --workers: invalid positive_int value: {value!r}" in capsys.readouterr().err
        assert not (project / "output").exists()

    def test_config_error_exit_2(self, project, capsys):
        exp = write(project / "bad.yaml", "task: {name: not_a_task}\noptimizer: {name: adamw_baseline}")
        assert main(["run", exp]) == 2

    @pytest.mark.parametrize("command", [["run"], ["run", "--dry-run"], ["resume"],
                                         ["plot"], ["slurm-script"]])
    def test_duplicate_grid_points_exit_2(self, project, capsys, command):
        exp = write(project / "dup.yaml", TINY_EXPERIMENT.replace("[1, 2]", "[1, 1]"))
        assert main([command[0], exp, *command[1:]]) == 2
        err = capsys.readouterr().err
        assert "grid points 0 and 1" in err
        assert not (project / "output").exists()

    def test_aborting_run_exit_1(self, project, capsys):
        exp = write(
            project / "diverge.yaml",
            "task: {name: rosenbrock, max_epochs: 4}\n"
            "optimizer: {name: sgd_baseline, learning_rate: 100.0}",
        )
        assert main(["run", exp]) == 1


DIVERGING_GRID = """
task: {name: rosenbrock, max_epochs: 8}
optimizer: {name: sgd_baseline, learning_rate: [0.05, 0.01, 1.0e-4]}
"""


def _file_stamps(root: Path) -> dict:
    """Bytes, inode and ``mtime_ns`` of every file under ``root``: a rewrite
    by rename changes the inode even where the clock is too coarse to tell."""
    return {
        p: (p.read_bytes(), p.stat().st_ino, p.stat().st_mtime_ns)
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestAbortedRuns:
    """A diverged run is a stored result: no rerun retrains or rewrites it."""

    def test_rerun_and_resume_of_a_diverging_grid_touch_nothing(self, project, capsys, monkeypatch):
        from optbench import engine

        exp = write(project / "diverge.yaml", DIVERGING_GRID)
        assert main(["run", exp]) == 1
        first = capsys.readouterr().out
        assert [line.split()[1] for line in first.splitlines()] == ["aborted", "aborted", "completed"]
        stamps = _file_stamps(project / "output")
        calls = []
        real = engine._run
        monkeypatch.setattr(engine, "_run", lambda starts: calls.append(starts) or real(starts))
        assert main(["run", exp]) == 1
        assert capsys.readouterr().out == first
        assert calls == [] and _file_stamps(project / "output") == stamps
        assert main(["resume", exp]) == 0
        assert capsys.readouterr().out == "resumed 0 run(s)\n"
        assert calls == [] and _file_stamps(project / "output") == stamps

    def test_list_ends_an_aborted_row_with_its_error(self, project, capsys):
        exp = write(project / "diverge.yaml", DIVERGING_GRID)
        main(["run", exp])
        capsys.readouterr()
        assert main(["list", str(project / "output")]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "run_id            status      epoch  best_val",
            "6b38a2d90b888636  completed   8      4.32264",
            "d4012f6df1963b13  aborted     3      2609.4  epoch 4: non-finite training loss at step 7",
            "f88349774bddda38  aborted     2      9.30598e+11  epoch 3: non-finite training loss at step 5",
        ]


class TestSlurmScript:
    @pytest.mark.parametrize(
        "yaml_text,expected",
        [(GRID_8, "0-3"), (TINY_EXPERIMENT, "0-0"), (GRID_120, "0-1")],
    )
    def test_array_range(self, project, capsys, yaml_text, expected):
        exp = write(project / "exp.yaml", yaml_text)
        assert main(["slurm-script", exp, "--partition", "cpu", "--time", "01:00:00"]) == 0
        out = capsys.readouterr().out
        assert f"#SBATCH --array={expected}" in out
        assert "#SBATCH --partition=cpu" in out
        assert 'optbench run' in out and "--group-index" in out and "$SLURM_ARRAY_TASK_ID" in out

    def test_single_run_degenerate(self, project, capsys):
        exp = write(project / "one.yaml", "task: {name: quadratic}\noptimizer: {name: adamw_baseline}")
        assert main(["slurm-script", exp]) == 0
        assert "#SBATCH --array=0-0" in capsys.readouterr().out

    def test_path_is_shell_quoted(self, project, capsys):
        (project / "we ird$x`y`").mkdir()
        exp = "we ird$x`y`/a.yaml"
        write(project / exp, TINY_EXPERIMENT)
        assert main(["slurm-script", exp]) == 0
        command = capsys.readouterr().out.splitlines()[-1]
        assert shlex.split(command) == ["optbench", "run", exp, "--group-index", "$SLURM_ARRAY_TASK_ID"]
        if shutil.which("bash") is None:
            pytest.skip("no bash to expand the emitted command")
        echo = 'optbench() { printf "%s\\0" "$@"; }; ' + command  # the words bash passes on
        proc = subprocess.run(["bash", "-c", echo], env={"SLURM_ARRAY_TASK_ID": "3"},
                              capture_output=True, text=True, check=True)
        assert proc.stdout.split("\0")[:-1] == ["run", exp, "--group-index", "3"]


class TestWithoutNumpy:
    """Commands that only read results or configs start without numpy."""

    def test_cached_rerun_loads_no_numpy_and_modifies_no_file(self, project, capsys):
        exp = write(project / "duo.yaml", DUO)
        assert main(["run", exp]) == 0
        out = project / "output" / "duo"
        files = sorted(p for p in out.rglob("*") if p.is_file())
        assert len(list(out.glob("runs/*/result.json"))) == 8
        before = {p: (p.read_bytes(), p.stat().st_ino, p.stat().st_mtime_ns) for p in files}
        assert not loads_numpy(CLI, "run", exp, cwd=project)
        assert sorted(p for p in out.rglob("*") if p.is_file()) == files
        for p, (data, inode, mtime) in before.items():  # the tables and plots too
            assert (p.read_bytes(), p.stat().st_ino, p.stat().st_mtime_ns) == (data, inode, mtime), p

    @pytest.mark.parametrize("command", [["run", "--dry-run"], ["slurm-script"]])
    def test_planning_commands_load_no_numpy(self, project, command):
        exp = write(project / "duo.yaml", DUO)
        assert not loads_numpy(CLI, command[0], exp, *command[1:], cwd=project)
        assert not (project / "output").exists()


class TestSlurmArray:
    def test_each_group_in_its_own_process_equals_one_run(self, project, capsys):
        """Each array task is a fresh process that trains one group; together
        they write the run dirs that one ``optbench run`` writes, and
        ``optbench plot`` then writes its table."""
        exp = write(project / "mixed.yaml", INTERLEAVED)
        env = src_env()
        for index in range(len(lockstep_groups(resolve(INTERLEAVED)))):
            proc = subprocess.run(
                [sys.executable, "-m", "optbench.cli", "run", exp, "--group-index", str(index)],
                cwd=project, env=env, capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
        runs = project / "output" / "mixed" / "runs"
        array = {d.name: run_dir_files(d) for d in runs.iterdir()}
        assert len(array) == 6
        table = project / "output" / "mixed" / "aggregated.csv"
        assert not table.exists()
        assert main(["plot", exp]) == 0
        array_table = table.read_bytes()
        (project / "output").rename(project / "array_output")
        assert main(["run", exp]) == 0
        assert {d.name: run_dir_files(d) for d in runs.iterdir()} == array
        assert table.read_bytes() == array_table


class TestPlotAndList:
    def test_plot_after_run(self, project, capsys):
        exp = write(
            project / "sweep.yaml",
            """
task:
  name: quadratic
  max_epochs: 3
optimizer:
  name: adamw_baseline
  learning_rate: [1.0e-1, 1.0e-2]
  weight_decay: [1.0e-2, 1.0e-3]
engine:
  seed: [1, 2]
evaluation:
  output_types: [svg, csv]
  plot:
    x_axis:
      - optimizer.weight_decay
""",
        )
        assert main(["run", exp]) == 0
        plots = list((project / "output" / "sweep" / "plots").glob("*.svg"))
        assert len(plots) == 1  # one optimizer x one axis x best
        capsys.readouterr()
        # plot-only change: rerun regenerates plots without retraining
        stamp = {
            d.name: (d / "result.json").stat().st_mtime_ns
            for d in (project / "output" / "sweep" / "runs").iterdir()
        }
        assert main(["plot", exp]) == 0
        for d in (project / "output" / "sweep" / "runs").iterdir():
            assert stamp[d.name] == (d / "result.json").stat().st_mtime_ns

    def test_plot_from_directory(self, project, capsys):
        exp = write(project / "tiny.yaml", TINY_EXPERIMENT)
        main(["run", exp])
        capsys.readouterr()
        assert main(["plot", str(project / "output" / "tiny")]) == 0
        assert (project / "output" / "tiny" / "aggregated.csv").exists()

    @pytest.mark.parametrize("block, message", [
        ({"plot": "x"}, "`evaluation.plot` must be a mapping, got 'x'"),
        ("x", "`evaluation` must be a mapping, got 'x'"),
        ({"plots": {}}, "unknown key `evaluation.plots`"),
    ])
    def test_plot_from_directory_checks_the_evaluation_block(self, project, capsys, block, message):
        exp = write(project / "tiny.yaml", TINY_EXPERIMENT)
        assert main(["run", exp]) == 0
        exp_dir = project / "output" / "tiny"
        (exp_dir / "aggregated.csv").unlink()
        for path in exp_dir.glob("runs/*/config.resolved.yaml"):
            cfg = yaml.safe_load(path.read_text())
            path.write_text(yaml.safe_dump({**cfg, "evaluation": block}))
        stamps = _file_stamps(project)
        capsys.readouterr()
        assert main(["plot", str(exp_dir)]) == 2
        assert message in capsys.readouterr().err
        assert _file_stamps(project) == stamps

    def test_plot_empty_dir_exit_1(self, project, capsys):
        empty = project / "output" / "nothing"
        empty.mkdir(parents=True)
        assert main(["plot", str(empty)]) == 1

    def test_unknown_output_type_config_error(self, project, capsys):
        exp = write(
            project / "pdfplease.yaml",
            "task: {name: quadratic, max_epochs: 2}\n"
            "optimizer: {name: adamw_baseline}\n"
            "evaluation: {output_types: [pdf, png]}",
        )
        assert main(["run", exp]) == 2

    def test_list_fresh_dir(self, project, capsys):
        out = project / "output"
        out.mkdir()
        assert main(["list", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1  # header only

    def test_list_after_run(self, project, capsys):
        exp = write(project / "tiny.yaml", TINY_EXPERIMENT)
        main(["run", exp])
        capsys.readouterr()
        assert main(["list", str(project / "output")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 5
        assert all("completed" in l for l in lines[1:])
        # a truncated result.json and a corrupt last.ckpt are rows, then exit 1
        runs = sorted((project / "output" / "tiny" / "runs").iterdir())
        result = runs[0] / "result.json"
        result.write_text(result.read_text()[:40])
        (runs[1] / "result.json").unlink()
        last = runs[1] / "checkpoints" / "last.ckpt"
        last.write_bytes(last.read_bytes()[:-20])
        assert main(["list", str(project / "output")]) == 1
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert len(lines) == 5
        assert [l.split()[:2] for l in lines[1:3]] == [
            [runs[0].name, "corrupt"],
            [runs[1].name, "corrupt"],
        ]
        assert all("completed" in l for l in lines[3:])
        assert "JSONDecodeError" in captured.err and "CorruptCheckpointError" in captured.err

    def test_list_shows_a_search_trials_and_retrains(self, project, capsys):
        hpo_file = write(project / "search.yaml", """
experiment: {task: {name: quadratic, max_epochs: 3}, optimizer: {name: adamw_baseline}}
space: {optimizer.learning_rate: {log_uniform: [1.0e-3, 1.0e-1]}}
n_trials: 3
init_fraction: 1.0
eta: 3
retrain_seeds: [1, 2]
""")
        assert main(["hpo", hpo_file]) == 0
        capsys.readouterr()
        assert main(["list", str(project / "output")]) == 0
        header, *rows = capsys.readouterr().out.splitlines()
        search = project / "output" / "search_hpo"
        dirs = sorted([*(search / "retrain").iterdir(), *(search / "trials").iterdir()])
        assert len(dirs) == 5
        assert [row.split()[0] for row in rows] == [d.name for d in dirs]
        assert all(row.split()[1] == "completed" for row in rows)

    def test_list_shows_incomplete(self, project, capsys, monkeypatch):
        from optbench.cli import _expand_file, _experiment_dir, _run_workdir
        from optbench.rundir import train_run

        exp = write(project / "tiny.yaml", TINY_EXPERIMENT)
        name, configs = _expand_file(exp)
        exp_dir = _experiment_dir(configs, name)
        with monkeypatch.context() as mp:
            stop_after_epoch(mp, 1)
            with pytest.raises(Interrupted):
                train_run(configs[0], _run_workdir(exp_dir, configs[0]))
        # an extension from 3 to 6 epochs killed at its final result.json write
        train_run(configs[1], _run_workdir(exp_dir, configs[1]))
        with monkeypatch.context() as mp:
            fail_write(mp, "result.json", 1)
            with pytest.raises(Interrupted):
                train_run(with_epochs(configs[1], 6), _run_workdir(exp_dir, configs[1]))
        capsys.readouterr()
        assert main(["list", str(project / "output")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        rows = {line.split()[0]: line.split()[1:3] for line in lines[1:]}
        assert rows == {
            _run_workdir(exp_dir, configs[0]).name: ["incomplete", "1"],
            _run_workdir(exp_dir, configs[1]).name: ["extending", "6"],
        }

    @pytest.mark.parametrize("by_directory", [False, True])
    def test_plot_skips_a_corrupt_run_then_exits_1(self, project, capsys, by_directory):
        exp = write(project / "tiny.yaml", TINY_EXPERIMENT)
        assert main(["run", exp]) == 0
        exp_dir = project / "output" / "tiny"
        (exp_dir / "aggregated.csv").unlink()
        bad = sorted((exp_dir / "runs").iterdir())[0] / "result.json"
        bad.write_text(bad.read_text()[:30])
        capsys.readouterr()
        assert main(["plot", str(exp_dir) if by_directory else exp]) == 1
        captured = capsys.readouterr()
        assert str(bad.relative_to(project)) in captured.err
        assert (exp_dir / "aggregated.csv").exists()


class TestWorkers:
    def test_parallel_workers_match_serial(self, project, capsys):
        exp = write(project / "duo.yaml", DUO)
        assert len(lockstep_groups(resolve(DUO))) == 2  # so a real process pool trains them
        assert main(["run", exp, "--workers", "2"]) == 0
        runs = project / "output" / "duo" / "runs"
        parallel = {d.name: run_dir_files(d) for d in runs.iterdir()}
        assert len(parallel) == 8
        # serial re-run in a fresh tree writes the same run dirs
        (project / "output").rename(project / "parallel_output")
        assert main(["run", exp]) == 0
        assert {d.name: run_dir_files(d) for d in runs.iterdir()} == parallel

    def test_a_bad_group_stops_the_run_before_any_worker_writes(self, project, capsys):
        exp = write(
            project / "bad.yaml",
            "task: {name: quadratic, max_epochs: 2}\n"
            "optimizer:\n"
            "  - {name: adamw_baseline, learning_rate: 0.1}\n"
            "  - {name: sgd_baseline, learning_rate: -0.1}\n",
        )
        assert main(["run", exp, "--workers", "2"]) == 2
        assert "`optimizer.learning_rate` must be positive" in capsys.readouterr().err
        assert not (project / "output").exists()

    def test_workers_split_groups_not_runs(self, project, capsys, monkeypatch):
        class InlinePool:  # the jobs each worker would get, run in this process
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, groups):  # each group's runs, read and built by the parent
                calls.append([[run.rid for run in group] for group in groups])
                return map(fn, groups)

        calls = []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        exp = write(project / "mixed.yaml", INTERLEAVED)
        assert main(["run", exp, "--workers", "2"]) == 0
        assert [len(group) for group in calls[0]] == [4, 2]
        capsys.readouterr()
        for index, group in enumerate(calls[0]):  # each group is what one array task trains
            assert main(["run", exp, "--group-index", str(index)]) == 0
            assert [line.split()[0] for line in capsys.readouterr().out.splitlines()] == group
        assert len(calls) == 1


class TestTwoOptimizerPlots:
    def test_one_heatmap_per_optimizer_and_axis(self, project, capsys):
        exp = write(
            project / "duel.yaml",
            """
task:
  name: quadratic
  max_epochs: 2
optimizer:
  - name: adamcpr_fast
    learning_rate: [1.0e-1, 1.0e-2]
    kappa_init_param: [1, 4]
  - name: adamw_baseline
    learning_rate: [1.0e-1, 1.0e-2]
    weight_decay: [1.0e-1, 1.0e-3]
engine:
  seed: [1, 2]
evaluation:
  plot:
    x_axis:
      - optimizer.kappa_init_param
      - optimizer.weight_decay
""",
        )
        assert main(["run", exp]) == 0
        plots = sorted(p.name for p in (project / "output" / "duel" / "plots").glob("*.svg"))
        assert plots == [
            "adamcpr_fast.optimizer.kappa_init_param.best.svg",
            "adamw_baseline.optimizer.weight_decay.best.svg",
        ]
        csv_lines = (project / "output" / "duel" / "aggregated.csv").read_text().splitlines()
        assert len(csv_lines) == 9  # header + 8 cells (n=2 seeds each)


class TestResumeCommand:
    def test_resumes_incomplete_runs(self, project, capsys, monkeypatch):
        from optbench.cli import _expand_file, _experiment_dir, _run_workdir
        from optbench.rundir import train_run

        exp = write(project / "tiny.yaml", TINY_EXPERIMENT)
        name, configs = _expand_file(exp)
        exp_dir = _experiment_dir(configs, name)
        # interrupt three of the four runs mid-way
        for cfg in configs[:3]:
            with monkeypatch.context() as mp:
                stop_after_epoch(mp, 1)
                with pytest.raises(Interrupted):
                    train_run(cfg, _run_workdir(exp_dir, cfg))
        assert main(["resume", exp]) == 0
        out = capsys.readouterr().out
        assert "resumed 3 run(s)" in out
        for cfg in configs[:3]:
            result = json.loads((_run_workdir(exp_dir, cfg) / "result.json").read_text())
            assert result["status"] == "completed"

    def test_resume_finishes_a_group_killed_mid_epoch(self, project, capsys, monkeypatch):
        from optbench.cli import _expand_file, _experiment_dir, _run_workdir
        from optbench.rundir import read_run, train_run

        exp = write(project / "tiny.yaml", TINY_EXPERIMENT)  # one group of 4 runs
        name, configs = _expand_file(exp)
        exp_dir = _experiment_dir(configs, name)
        with monkeypatch.context() as mp:
            fail_write(mp, "next.ckpt", 3)  # epoch 1 of the group's third run
            with pytest.raises(Interrupted):
                main(["run", exp])
        states = [read_run(_run_workdir(exp_dir, cfg)) for cfg in configs]
        # the last two were killed in their first epoch, before any checkpoint
        assert [(st.status, st.ckpt and st.ckpt.epoch) for st in states] == [
            ("incomplete", 1), ("incomplete", 1), ("incomplete", None), ("incomplete", None)
        ]
        assert main(["resume", exp]) == 0
        assert "resumed 4 run(s)" in capsys.readouterr().out
        for i, cfg in enumerate(configs):
            alone = project / "alone" / str(i)
            train_run(cfg, alone)
            assert run_dir_files(_run_workdir(exp_dir, cfg)) == run_dir_files(alone)

    def test_resume_finishes_a_torn_first_checkpoint_write(self, project, capsys, monkeypatch):
        from optbench.cli import _expand_file, _experiment_dir, _run_workdir
        from optbench.engine import load_checkpoint
        from optbench.errors import CorruptCheckpointError
        from optbench.rundir import read_run, train_run

        exp = write(project / "tiny.yaml", TINY_EXPERIMENT)  # one group of 4 runs
        name, configs = _expand_file(exp)
        exp_dir = _experiment_dir(configs, name)
        with monkeypatch.context() as mp:
            fail_write(mp, "next.ckpt", 1, torn=True)  # epoch 1 of the group's first run
            with pytest.raises(Interrupted):
                main(["run", exp])
        slots = _run_workdir(exp_dir, configs[0]) / "checkpoints"
        assert [p.name for p in slots.iterdir()] == ["next.ckpt"]
        with pytest.raises(CorruptCheckpointError):
            load_checkpoint(slots / "next.ckpt")
        # a torn next.ckpt without last.ckpt is a torn first epoch: start again from epoch 0
        states = [read_run(_run_workdir(exp_dir, cfg)) for cfg in configs]
        assert [(st.status, st.ckpt, st.error) for st in states] == [("incomplete", None, None)] * 4
        assert main(["resume", exp]) == 0
        assert "resumed 4 run(s)" in capsys.readouterr().out
        for i, cfg in enumerate(configs):
            alone = project / "alone" / str(i)
            train_run(cfg, alone)
            assert run_dir_files(_run_workdir(exp_dir, cfg)) == run_dir_files(alone)

    def test_a_metrics_line_without_an_epoch_exits_1_naming_the_line(self, project, capsys, monkeypatch):
        from optbench.cli import _expand_file, _experiment_dir, _run_workdir
        from optbench.rundir import train_run

        exp = write(project / "tiny.yaml", TINY_EXPERIMENT)
        name, configs = _expand_file(exp)
        workdir = _run_workdir(_experiment_dir(configs, name), configs[0])
        with monkeypatch.context() as mp:
            stop_after_epoch(mp, 1)
            with pytest.raises(Interrupted):
                train_run(configs[0], workdir)
        metrics = workdir / "metrics.jsonl"
        metrics.write_text('{"val": 1}\n' + metrics.read_text())
        assert main(["resume", exp]) == 1
        assert f"error: {metrics} line 1 is not an epoch's metrics" in capsys.readouterr().err

    def test_resumes_the_others_past_a_corrupt_run(self, project, capsys, monkeypatch):
        from optbench.cli import _expand_file, _experiment_dir, _run_workdir
        from optbench.rundir import train_run

        exp = write(project / "tiny.yaml", TINY_EXPERIMENT)
        name, configs = _expand_file(exp)
        exp_dir = _experiment_dir(configs, name)
        bad = _run_workdir(exp_dir, configs[0]) / "result.json"
        train_run(configs[0], bad.parent)
        bad.write_text(bad.read_text()[:30])
        for cfg in configs[1:]:
            with monkeypatch.context() as mp:
                stop_after_epoch(mp, 1)
                with pytest.raises(Interrupted):
                    train_run(cfg, _run_workdir(exp_dir, cfg))
        assert main(["resume", exp]) == 1
        captured = capsys.readouterr()
        assert "resumed 3 run(s)" in captured.out
        assert str(bad) in captured.err
        for cfg in configs[1:]:
            result = json.loads((_run_workdir(exp_dir, cfg) / "result.json").read_text())
            assert result["status"] == "completed"

    def test_resume_run_and_plot_pass_a_killed_extension(self, project, capsys, monkeypatch):
        from optbench.cli import _expand_file, _experiment_dir, _run_workdir
        from optbench.rundir import read_run, train_run

        exp = write(project / "tiny.yaml", TINY_EXPERIMENT)
        name, configs = _expand_file(exp)
        exp_dir = _experiment_dir(configs, name)
        extending = _run_workdir(exp_dir, configs[0])
        stored = train_run(configs[0], extending)
        with monkeypatch.context() as mp:
            fail_write(mp, "result.json", 1)
            with pytest.raises(Interrupted):
                train_run(with_epochs(configs[0], 6), extending)
        assert read_run(extending).status == "extending"
        for cfg in configs[1:]:
            with monkeypatch.context() as mp:
                stop_after_epoch(mp, 1)
                with pytest.raises(Interrupted):
                    train_run(cfg, _run_workdir(exp_dir, cfg))
        capsys.readouterr()
        # the experiment's 3-epoch run is done; its extension is not resume's to finish
        assert main(["resume", exp]) == 0
        assert "resumed 3 run(s)" in capsys.readouterr().out
        assert main(["run", exp]) == 0
        assert f"{stored.run_id}  completed  epochs=3" in capsys.readouterr().out
        assert _cell_sizes(exp_dir / "aggregated.csv") == ["2", "2"]
        # plot leaves the extending dir out: its config.resolved.yaml holds the new budget
        assert main(["plot", exp]) == 0
        assert _cell_sizes(exp_dir / "aggregated.csv") == ["1", "2"]
        assert read_run(extending).status == "extending"
        assert train_run(with_epochs(configs[0], 6), extending).budgets == [3, 6]


def _cell_sizes(table: Path) -> list[str]:
    with table.open() as f:
        return sorted(row["n"] for row in csv.DictReader(f))


class TestHpoCommand:
    def test_hpo_file_end_to_end(self, project, capsys):
        hpo_file = write(
            project / "search.yaml",
            """
experiment:
  task:
    name: quadratic
    max_epochs: 3
  optimizer:
    name: adamw_baseline
    learning_rate: 3.0e-3
  engine:
    seed: 1
space:
  optimizer.learning_rate: {log_uniform: [1.0e-5, 1.0e-1]}
  optimizer.weight_decay: {log_uniform: [1.0e-5, 1.0]}
n_trials: 10
init_fraction: 0.1
R: 3
eta: 3
seed: 7
""",
        )
        assert main(["hpo", hpo_file]) == 0
        out = capsys.readouterr().out
        assert "best trial" in out
        log_path = project / "output" / "search_hpo" / "trials.jsonl"
        assert log_path.exists()
        entries = [json.loads(l) for l in log_path.read_text().splitlines()]
        assert len({e["trial_id"] for e in entries}) <= 10

    def test_hpo_grid_base_rejected(self, project):
        hpo_file = write(
            project / "bad.yaml",
            """
experiment:
  task:
    name: quadratic
    max_epochs: [3, 9]
  optimizer:
    name: adamw_baseline
space:
  optimizer.learning_rate: {log_uniform: [1.0e-5, 1.0e-1]}
n_trials: 4
""",
        )
        assert main(["hpo", hpo_file]) == 2

    def test_repeated_retrain_seed_exit_2_before_training(self, project, capsys):
        hpo_file = write(
            project / "dup.yaml",
            """
experiment:
  task: {name: quadratic, max_epochs: 3}
  optimizer: {name: adamw_baseline}
space:
  optimizer.learning_rate: {log_uniform: [1.0e-5, 1.0e-1]}
n_trials: 4
retrain_seeds: [4, 4]
""",
        )
        assert main(["hpo", hpo_file]) == 2
        assert "repeat" in capsys.readouterr().err
        assert not (project / "output").exists()

    @pytest.mark.parametrize("bad, key", [
        ("n_trial: 2", "n_trial"),  # a misspelt key, not the default n_trials
        ('R: "3"', "R"),
        ("eta: 1\ninit_fraction: 0.5", "eta"),  # checked before the initial cohort trains
        ("retrain_seeds: 5", "retrain_seeds"),
        ("retrain_seeds: [1.5, 2]", "retrain_seeds"),  # not retrained as seed 1
    ])
    def test_invalid_search_exit_2_before_anything_is_written(self, project, capsys, bad, key):
        hpo_file = write(
            project / "bad.yaml",
            """
experiment:
  task: {name: quadratic, max_epochs: 3}
  optimizer: {name: adamw_baseline}
space:
  optimizer.learning_rate: {log_uniform: [1.0e-5, 1.0e-1]}
n_trials: 4
"""
            + bad
            + "\n",
        )
        assert main(["hpo", hpo_file]) == 2
        assert key in capsys.readouterr().err
        assert not (project / "output").exists()


SMALL_RUN = {"task": {"name": "quadratic", "max_epochs": 2}, "optimizer": {"name": "adamw_baseline"}}


def _hpo_over(path: str) -> dict:
    return {"experiment": SMALL_RUN, "space": {path: {"uniform": [0.1, 0.9]}}, "n_trials": 4}


UNKNOWN_PATHS = [
    ("run", {"task": {"name": "quadratic", "dmi": 3}}, "task.dmi"),
    ("run", {"task": {"name": "mlp_synth", "model": {"num_hiden": 8}}}, "task.model.num_hiden"),
    ("run", {"optimizer": {"name": "adamcpr", "weight_decay": 0.5}}, "optimizer.weight_decay"),
    ("run", {"engine": {"sed": 7}}, "engine.sed"),
    ("run", {"evaluation": {"plots": {"x_axis": ["optimizer.weight_decay"]}}}, "evaluation.plots"),
    ("run", {"evaluation": {"output_types": ["png"]}}, "png"),
    ("run", {"evaluation": {"plot": {"value": "mean"}}}, "mean"),
    ("run", {"evaluation": {"output_types": 3}}, "evaluation.output_types"),
    ("run", {"optimizer": {"name": "adamw_baseline", "weight_decay": [0.1, 0.01]},
             "evaluation": {"plot": {"x_axis": ["optimizer.weight_decy"]}}}, "optimizer.weight_decy"),
    ("run", {"optimizer": {"name": "adamw_baseline", "learning_rate": [0.1, 0.01]},  # the y axis
             "evaluation": {"plot": {"x_axis": ["optimizer.learning_rate"]}}}, "optimizer.learning_rate"),
    ("run", {"evaluation": {"plot": {"y_axis": ["optimizer.learning_rate"]}}}, "evaluation.plot.y_axis"),
    ("run", {"evaluation": {"plot": {"x_axis": [["optimizer.learning_rate"]]}}}, "evaluation.plot.x_axis"),
    ("run", {"evaluation": {"plot": ["x"]}}, "evaluation.plot"),
    ("run", {"evaluation": {"plot": "x"}}, "`evaluation.plot` must be a mapping"),
    ("hpo", {**_hpo_over("optimizer.learning_rate"), "space": ["optimizer.learning_rate"]}, "space"),
    ("hpo", _hpo_over("optimizer.momentum"), "optimizer.momentum"),
    ("hpo", _hpo_over("optimizer.learning_rat"), "optimizer.learning_rat"),
]


@pytest.mark.parametrize("command, tree, path", UNKNOWN_PATHS,
                         ids=[f"{command}-{path}" for command, _, path in UNKNOWN_PATHS])
def test_unknown_path_exit_2_before_anything_is_written(project, capsys, command, tree, path):
    if command == "run":
        tree = {**SMALL_RUN, **tree}
    exp = write(project / "bad.yaml", yaml.safe_dump(tree))
    assert main([command, exp]) == 2
    assert path in capsys.readouterr().err
    assert not (project / "output").exists()


UNTRAINED_PATHS = {  # space -> the path named in the error
    # every trial trains the same run: the rung budget overwrites max_epochs,
    # and output_dir lies outside run identity
    "max_epochs-and-output_dir": (
        {"task.max_epochs": {"categorical": [1, 2, 3]},
         "engine.output_dir": {"categorical": ["output", "elsewhere"]}},
        "engine.output_dir",
    ),
    "max_epochs": ({"task.max_epochs": {"categorical": [1, 2, 3]}}, "task.max_epochs"),
    "evaluation": ({"evaluation.plot.y_axis": {"categorical": ["optimizer.learning_rate"]}},
                   "evaluation.plot.y_axis"),
}


@pytest.mark.parametrize("space, path", UNTRAINED_PATHS.values(), ids=UNTRAINED_PATHS)
def test_hpo_over_a_path_the_run_never_reads_exit_2_before_anything_is_written(
    project, capsys, space, path
):
    exp = write(project / "bad.yaml", yaml.safe_dump({"experiment": SMALL_RUN, "space": space,
                                                      "n_trials": 4}))
    assert main(["hpo", exp]) == 2
    assert f"`{path}` never reaches the trained run" in capsys.readouterr().err
    assert not (project / "output").exists() and not (project / "elsewhere").exists()


NAME_PATHS = {  # a name picks the task or optimizer, and so the keys its config may hold
    "optimizer.name": ["adamw_baseline", "sgd_baseline"],
    "task.name": ["quadratic", "rosenbrock"],
}


@pytest.mark.parametrize("path, names", NAME_PATHS.items(), ids=NAME_PATHS)
def test_hpo_over_a_name_exit_2_before_anything_is_written(project, capsys, path, names):
    exp = write(project / "bad.yaml", yaml.safe_dump(
        {"experiment": SMALL_RUN, "space": {path: {"categorical": names}}, "n_trials": 4}))
    assert main(["hpo", exp]) == 2
    assert f"space path `{path}` cannot be searched" in capsys.readouterr().err
    assert not (project / "output").exists()


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.yaml")), ids=lambda p: p.name)
def test_shipped_configs_are_valid(project, path):
    if path.name.startswith("hpo_"):
        raw = load_hpo_file(path)
        assert parse_space(raw["space"])
    else:
        assert main(["run", str(path), "--dry-run"]) == 0
    assert not (project / "output").exists()
