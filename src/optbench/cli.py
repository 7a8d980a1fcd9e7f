"""Command-line entry point.

Exit codes: 0 success, 1 runtime failure (a run aborted or nothing to do),
2 configuration error. Run directories live under
``<engine.output_dir>/<experiment name>/runs/<run_id>``, where the
experiment name is the YAML file's stem.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import sys
from pathlib import Path

from . import config as cfgmod
from .errors import BenchmarkError, ConfigError
from .evaluation import check_evaluation, run_evaluation
from .rundir import RunState, _train_runs, lockstep_groups, read_run, train_runs


def _expand_file(experiment_file: str) -> tuple[str, list[dict]]:
    """Expand an experiment file; two grid points with one run id are an error,
    since they would share (and train twice) one run directory."""
    text = Path(experiment_file).read_text(encoding="utf-8")
    spec = cfgmod.parse_experiment(text)
    merged = cfgmod.merge_defaults(spec)
    configs = cfgmod.expand_grid(merged)
    first_index: dict[str, int] = {}
    for i, cfg in enumerate(configs):
        rid = cfgmod.run_id(cfg)
        j = first_index.setdefault(rid, i)
        if j != i:
            raise ConfigError(f"grid points {j} and {i} are the same run {rid}")
    return Path(experiment_file).stem, configs


def _experiment_dir(configs: list[dict], name: str) -> Path:
    return Path(configs[0]["engine"]["output_dir"]) / name


def _run_workdir(exp_dir: Path, cfg: dict) -> Path:
    return exp_dir / "runs" / cfgmod.run_id(cfg)


def _varying_paths(configs: list[dict]) -> list[str]:
    flat = [cfgmod.flatten(cfgmod.identity_view(c)) for c in configs]
    paths = sorted({p for f in flat for p in f})
    return [p for p in paths if len({repr(f.get(p)) for f in flat}) > 1]


def _print_run_table(configs: list[dict], groups: list[list[int]]) -> None:
    varying = _varying_paths(configs)
    group_of = {i: g for g, members in enumerate(groups) for i in members}
    header = ["index", "group", "run_id"] + varying
    rows = [
        [str(i), str(group_of[i]), cfgmod.run_id(c)] + [str(cfgmod.get_path(c, p)) for p in varying]
        for i, c in enumerate(configs)
    ]
    widths = [max(len(h), *(len(r[j]) for r in rows)) if rows else len(h) for j, h in enumerate(header)]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for r in rows:
        print("  ".join(v.ljust(w) for v, w in zip(r, widths)))


def cmd_run(args) -> int:
    name, configs = _expand_file(args.experiment_file)
    checked = check_evaluation(configs[0]["evaluation"], configs)  # before anything trains
    groups = lockstep_groups(configs)  # the unit of work of --workers and of --group-index

    if args.dry_run:
        _print_run_table(configs, groups)
        return 0

    if args.group_index is not None:  # SLURM_ARRAY_TASK_ID by default
        if not 0 <= args.group_index < len(groups):
            raise ConfigError(f"group index {args.group_index} outside 0..{len(groups) - 1}")
        groups = [groups[args.group_index]]

    exp_dir = _experiment_dir(configs, name)
    jobs = [(configs[i], _run_workdir(exp_dir, configs[i])) for group in groups for i in group]
    # one call, so every run dir is read and checked and every group built before any trains
    if args.workers > 1 and len(groups) > 1:
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=args.workers) as pool:
            results = _train_runs(jobs, pool.map)  # each worker trains whole groups
    else:
        results = train_runs(jobs)

    pairs = [(configs[i], result) for i, result in zip(sum(groups, []), results)]
    for _, result in pairs:
        print(f"{result.run_id}  {result.status}  epochs={len(result.history)}")

    failed = any(r.status != "completed" for r in results)
    if args.group_index is None and not failed:
        for p in run_evaluation(pairs, checked, exp_dir):
            print(f"wrote {p}")
    return 1 if failed else 0


def _read_runs(run_dirs: list[Path]) -> tuple[list[tuple[Path, RunState]], bool]:
    """``read_run`` of each dir, and whether any was corrupt (exit code 1).
    Each corrupt dir's error, which names the bad file, goes to stderr."""
    states = [(rd, read_run(rd)) for rd in run_dirs]
    corrupt = [state for _, state in states if state.status == "corrupt"]
    for state in corrupt:
        print(f"{type(state.error).__name__}: {state.error}", file=sys.stderr)
    return states, bool(corrupt)


def cmd_resume(args) -> int:
    name, configs = _expand_file(args.experiment_file)
    exp_dir = _experiment_dir(configs, name)
    states, corrupt = _read_runs([_run_workdir(exp_dir, cfg) for cfg in configs])
    jobs = [  # a completed, aborted or extending dir holds a result of its own
        (cfg, workdir) for cfg, (workdir, state) in zip(configs, states) if state.status == "incomplete"
    ]
    results = train_runs(jobs)
    for result in results:
        print(f"{result.run_id}  {result.status}  epochs={len(result.history)}")
    print(f"resumed {len(results)} run(s)")
    return 1 if corrupt or any(r.status != "completed" for r in results) else 0


def cmd_plot(args) -> int:
    target = Path(args.target)
    if target.is_dir():
        exp_dir = target
        run_dirs = sorted(exp_dir.glob("runs/*"))
        evaluation_cfg = None
    else:
        name, configs = _expand_file(str(target))
        exp_dir = _experiment_dir(configs, name)
        run_dirs = [_run_workdir(exp_dir, cfg) for cfg in configs]
        evaluation_cfg = configs[0]["evaluation"]

    states, corrupt = _read_runs(run_dirs)
    pairs = []
    for rd, state in states:
        if state.status != "completed":  # extending: config.resolved.yaml holds the new budget
            continue
        cfg = cfgmod.load_config((rd / "config.resolved.yaml").read_text(encoding="utf-8"))
        if evaluation_cfg is None:  # a file the run wrote, checked as merge_defaults checks it
            evaluation_cfg = cfg.get("evaluation", {})
            tree = cfgmod.load_defaults()["evaluation"]
            cfgmod.check_keys({"evaluation": evaluation_cfg}, {"evaluation": tree}, axes=False)
        pairs.append((cfg, state.result))
    if not pairs:
        print("no completed runs found", file=sys.stderr)
        return 1
    paths = run_evaluation(pairs, check_evaluation(evaluation_cfg, [cfg for cfg, _ in pairs]), exp_dir)
    for p in paths:
        print(f"wrote {p}")
    return 1 if corrupt else 0


def cmd_list(args) -> int:
    """Tabulate every run dir, a search's trial and retrain dirs included; an
    unreadable one is a ``corrupt`` row (reason on stderr) and makes the exit
    code 1 once the table is printed."""
    root = Path(args.output_dir)
    states, corrupt = _read_runs(sorted(
        d for pattern in ("*/runs/*/", "*/trials/*/", "*/retrain/*/") for d in root.glob(pattern)
    ))
    print(f"{'run_id':<18}{'status':<12}{'epoch':<7}best_val")
    for run_dir, state in states:
        ckpt = state.ckpt  # none before a run's first epoch ends
        epoch = "-" if ckpt is None else ckpt.epoch
        best = "-" if ckpt is None or ckpt.best_val is None else f"{ckpt.best_val['value']:.6g}"
        error = f"  {state.result.error}" if state.status == "aborted" else ""
        print(f"{run_dir.name:<18}{state.status:<12}{epoch:<7}{best}{error}")
    return 1 if corrupt else 0


def cmd_hpo(args) -> int:
    from . import hpo as hpomod  # numpy: only a search loads it

    raw = hpomod.load_hpo_file(args.hpo_file)
    spec = cfgmod.parse_experiment(raw["experiment_text"])
    configs = cfgmod.expand_grid(cfgmod.merge_defaults(spec))
    if len(configs) != 1:
        raise ConfigError("hpo base experiment must resolve to a single run")
    base = configs[0]
    space = hpomod.parse_space(raw["space"])
    workdir = Path(base["engine"]["output_dir"]) / (Path(args.hpo_file).stem + "_hpo")
    outcome = hpomod.run_hpo(
        base, space, raw["n_trials"], raw["init_fraction"], raw["R"], raw["eta"], raw["seed"], workdir
    )
    print(f"trials: {len(outcome.trials)}  log: {workdir / 'trials.jsonl'}")
    print(f"best trial {outcome.best.trial_id}: objective={outcome.best.objective:.6g}")
    for path, value in sorted(outcome.best.overlay.items()):
        print(f"  {path} = {value}")
    if raw.get("retrain_seeds"):
        cells = hpomod.retrain_best(outcome.best.config, raw["retrain_seeds"], workdir)
        for cell in cells:
            print(
                f"retrained n={cell.n}: best={cell.mean_best:.6g}±{cell.std_best:.3g} "
                f"last={cell.mean_last:.6g}±{cell.std_last:.3g}"
            )
    return 0


def cmd_slurm_script(args) -> int:
    name, configs = _expand_file(args.experiment_file)
    lines = [
        "#!/bin/bash",
        f"#SBATCH --job-name={name}",
        f"#SBATCH --array=0-{len(lockstep_groups(configs)) - 1}",
    ]
    if args.partition:
        lines.append(f"#SBATCH --partition={args.partition}")
    if args.time:
        lines.append(f"#SBATCH --time={args.time}")
    command = f'optbench run {shlex.quote(args.experiment_file)} --group-index "$SLURM_ARRAY_TASK_ID"'
    print("\n".join([*lines, "", command]))
    return 0


def positive_int(text: str) -> int:
    """An argparse type: ``0``, ``-3`` and ``x`` each exit 2 as an ``invalid positive_int value``."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"invalid positive_int value: {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="optbench", description="Optimizer benchmark harness."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="expand an experiment file and train its runs")
    p_run.add_argument("experiment_file")
    p_run.add_argument("--workers", type=positive_int, default=1)
    # a string default is converted like the flag: a bad SLURM_ARRAY_TASK_ID exits 2
    p_run.add_argument("--group-index", type=int, default=os.environ.get("SLURM_ARRAY_TASK_ID"))
    p_run.add_argument("--dry-run", action="store_true")
    p_run.set_defaults(func=cmd_run)

    p_resume = sub.add_parser("resume", help="resume incomplete runs of an experiment")
    p_resume.add_argument("experiment_file")
    p_resume.set_defaults(func=cmd_resume)

    p_plot = sub.add_parser("plot", help="regenerate tables and heatmaps from results")
    p_plot.add_argument("target", help="experiment file or experiment output directory")
    p_plot.set_defaults(func=cmd_plot)

    p_list = sub.add_parser("list", help="tabulate run status under an output directory")
    p_list.add_argument("output_dir")
    p_list.set_defaults(func=cmd_list)

    p_hpo = sub.add_parser("hpo", help="multi-fidelity search driven by an hpo file")
    p_hpo.add_argument("hpo_file")
    p_hpo.set_defaults(func=cmd_hpo)

    p_slurm = sub.add_parser("slurm-script", help="emit a batch array script")
    p_slurm.add_argument("experiment_file")
    p_slurm.add_argument("--partition", default=None)
    p_slurm.add_argument("--time", default=None)
    p_slurm.set_defaults(func=cmd_slurm_script)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (BenchmarkError, OSError, json.JSONDecodeError, MemoryError) as exc:  # a size too large to allocate
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
