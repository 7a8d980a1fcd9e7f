import json
from pathlib import Path

import pytest

from optbench.cli import main

from conftest import Interrupted, stop_after_epoch

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

    def test_run_index_selects_one(self, project):
        exp = write(project / "tiny.yaml", TINY_EXPERIMENT)
        assert main(["run", exp, "--run-index", "0"]) == 0
        run_dirs = list((project / "output" / "tiny" / "runs").iterdir())
        assert len(run_dirs) == 1

    def test_run_index_out_of_range(self, project, capsys):
        exp = write(project / "tiny.yaml", TINY_EXPERIMENT)
        assert main(["run", exp, "--run-index", "4"]) == 2

    def test_slurm_env_var_indexing(self, project, monkeypatch):
        exp = write(project / "tiny.yaml", TINY_EXPERIMENT)
        monkeypatch.setenv("SLURM_ARRAY_TASK_ID", "1")
        assert main(["run", exp]) == 0
        assert len(list((project / "output" / "tiny" / "runs").iterdir())) == 1

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
        import numpy as np

        with np.errstate(all="ignore"):
            assert main(["run", exp]) == 1


class TestSlurmScript:
    @pytest.mark.parametrize(
        "yaml_text,expected",
        [(GRID_8, "0-7"), (TINY_EXPERIMENT, "0-3"), (GRID_120, "0-119")],
    )
    def test_array_range(self, project, capsys, yaml_text, expected):
        exp = write(project / "exp.yaml", yaml_text)
        assert main(["slurm-script", exp, "--partition", "cpu", "--time", "01:00:00"]) == 0
        out = capsys.readouterr().out
        assert f"#SBATCH --array={expected}" in out
        assert "#SBATCH --partition=cpu" in out
        assert 'optbench run' in out and "--run-index" in out and "$SLURM_ARRAY_TASK_ID" in out

    def test_single_run_degenerate(self, project, capsys):
        exp = write(project / "one.yaml", "task: {name: quadratic}\noptimizer: {name: adamw_baseline}")
        assert main(["slurm-script", exp]) == 0
        assert "#SBATCH --array=0-0" in capsys.readouterr().out


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

    def test_list_shows_incomplete(self, project, capsys, monkeypatch):
        from optbench.cli import _expand_file, _experiment_dir, _run_workdir
        from optbench.engine import train_run

        exp = write(project / "tiny.yaml", TINY_EXPERIMENT)
        name, configs = _expand_file(exp)
        exp_dir = _experiment_dir(configs, name)
        stop_after_epoch(monkeypatch, 1)
        with pytest.raises(Interrupted):
            train_run(configs[0], _run_workdir(exp_dir, configs[0]))
        capsys.readouterr()
        assert main(["list", str(project / "output")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert "incomplete" in lines[1]


class TestWorkers:
    def test_parallel_workers_match_serial(self, project, capsys):
        exp = write(project / "tiny.yaml", TINY_EXPERIMENT)
        assert main(["run", exp, "--workers", "2"]) == 0
        runs = project / "output" / "tiny" / "runs"
        parallel = {
            d.name: json.loads((d / "result.json").read_text())["test_last"]
            for d in runs.iterdir()
        }
        assert len(parallel) == 4
        # serial re-run in a fresh tree gives the same results per run_id
        (project / "output").rename(project / "parallel_output")
        assert main(["run", exp]) == 0
        serial = {
            d.name: json.loads((d / "result.json").read_text())["test_last"]
            for d in runs.iterdir()
        }
        assert serial == parallel


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
        from optbench.engine import train_run

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
