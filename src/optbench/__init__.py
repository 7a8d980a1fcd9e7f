"""Desk-scale optimizer benchmark harness.

``train_runs`` (``train_run`` for one run) is the one way into a run dir:
the same call starts, resumes or finishes a run, and a config with a larger
``task.max_epochs`` extends the run of its smaller budget.

Typical library usage::

    from pathlib import Path
    from optbench import parse_experiment, merge_defaults, expand_grid, run_id, train_runs

    spec = parse_experiment(Path("experiment.yaml").read_text())
    configs = expand_grid(merge_defaults(spec))
    results = train_runs([(cfg, f"output/runs/{run_id(cfg)}") for cfg in configs])
"""

from .config import (
    expand_grid,
    merge_defaults,
    parse_experiment,
    register_optimizer_defaults,
    register_task_defaults,
    run_id,
)
from .engine import (
    RunResult,
    derive_seeds,
    load_checkpoint,
    save_checkpoint,
    train_run,
    train_runs,
)
from .evaluation import AggregateCell, HeatmapSpec, aggregate, export_table, render_heatmap
from .hpo import hyperband_schedule, run_hpo, retrain_best
from .optim import OptimizerConfig, configure_optimizer, register_optimizer
from .sched import ScheduleSpec, lr_at
from .tasks import build_task, evaluate, forward_backward, parameter_groups, register_task

__version__ = "0.1.0"

__all__ = [
    "AggregateCell",
    "HeatmapSpec",
    "OptimizerConfig",
    "RunResult",
    "ScheduleSpec",
    "aggregate",
    "build_task",
    "configure_optimizer",
    "derive_seeds",
    "evaluate",
    "expand_grid",
    "export_table",
    "forward_backward",
    "hyperband_schedule",
    "load_checkpoint",
    "lr_at",
    "merge_defaults",
    "parameter_groups",
    "parse_experiment",
    "register_optimizer",
    "register_optimizer_defaults",
    "register_task",
    "register_task_defaults",
    "render_heatmap",
    "retrain_best",
    "run_hpo",
    "run_id",
    "save_checkpoint",
    "train_run",
    "train_runs",
]
