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

import importlib

__version__ = "0.1.0"

_HOMES = {  # module -> the public names it defines; each loads on first use
    "config": ("expand_grid", "merge_defaults", "parse_experiment", "run_id"),
    "engine": ("derive_seeds", "load_checkpoint"),
    "evaluation": ("AggregateCell", "HeatmapSpec", "aggregate", "export_table", "render_heatmap"),
    "hpo": ("hyperband_schedule", "retrain_best", "run_hpo"),
    "optim": ("OptimizerConfig", "configure_optimizer", "register_optimizer"),
    "rundir": ("RunResult", "train_run", "train_runs"),
    "sched": ("ScheduleSpec", "lr_at"),
    "tasks": ("build_task", "evaluate", "forward_backward", "register_task"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """PEP 562: import a public name's module when the name is first used,
    so ``import optbench`` and ``optbench.cli`` load numpy only when needed."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later lookups find it without this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
