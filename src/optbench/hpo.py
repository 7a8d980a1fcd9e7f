"""Multi-fidelity hyperparameter search with training epochs as the budget.

Random sampling over declared ranges plus a Hyperband intensifier: each
bracket starts a batch of fresh configurations at a small epoch budget and
repeatedly promotes the best fraction to a larger budget. Promotions never
retrain from scratch; they extend the trial's existing run directory
through the engine's resume contract.

A fraction of the trial budget ("initial configurations") is sampled up
front, before any promotion decisions, and evaluated directly at the full
budget; with ``init_fraction=1`` the search degenerates to pure random
search at budget R.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass
from pathlib import Path

from .config import run_id, set_path
from .engine import RunResult, extend_budget, train_run
from .errors import BadParameterError, BenchmarkError, ConfigError, SchemaError
from .evaluation import AggregateCell, aggregate
from .rng import Xoshiro256StarStar, derive_stream


# --- search space -------------------------------------------------------------

@dataclass(frozen=True)
class Uniform:
    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise SchemaError("uniform range needs lo < hi")

    def draw(self, rng):
        return rng.uniform(self.lo, self.hi)


@dataclass(frozen=True)
class LogUniform:
    lo: float
    hi: float

    def __post_init__(self):
        if not 0 < self.lo < self.hi:
            raise SchemaError("log_uniform range needs 0 < lo < hi")

    def draw(self, rng):
        return math.exp(rng.uniform(math.log(self.lo), math.log(self.hi)))


@dataclass(frozen=True)
class Categorical:
    values: tuple

    def __post_init__(self):
        if not self.values:
            raise SchemaError("categorical needs at least one value")

    def draw(self, rng):
        return self.values[rng.randrange(len(self.values))]


SearchSpace = dict[str, object]  # config path -> distribution


def parse_space(raw: dict) -> SearchSpace:
    """Parse the ``space:`` block of an hpo file.

    Each entry maps a config path to one of::

        {log_uniform: [lo, hi]} | {uniform: [lo, hi]} | {categorical: [...]}
    """
    space: SearchSpace = {}
    for path, desc in raw.items():
        if not isinstance(desc, dict) or len(desc) != 1:
            raise SchemaError(f"bad space entry for {path!r}: {desc!r}")
        kind, args = next(iter(desc.items()))
        if kind == "uniform":
            space[path] = Uniform(float(args[0]), float(args[1]))
        elif kind == "log_uniform":
            space[path] = LogUniform(float(args[0]), float(args[1]))
        elif kind == "categorical":
            space[path] = Categorical(tuple(args))
        else:
            raise SchemaError(f"unknown distribution {kind!r} for {path!r}")
    return space


def sample(space: SearchSpace, rng: Xoshiro256StarStar) -> dict:
    """Draw one overlay (flat path -> value), paths in sorted order."""
    return {path: space[path].draw(rng) for path in sorted(space)}


# --- hyperband ----------------------------------------------------------------

def hyperband_schedule(R: int, eta: int) -> list[list[tuple[int, int]]]:
    """Rung plans for every bracket: bracket s holds s+1 rungs of
    (n_configs, budget_epochs), halving counts by eta and growing budgets
    by eta up to R."""
    if R < 1 or eta < 2:
        raise BadParameterError("need R >= 1 and eta >= 2")
    s_max = int(math.floor(math.log(R) / math.log(eta) + 1e-12))
    total_budget = (s_max + 1) * R
    brackets = []
    for s in range(s_max, -1, -1):
        n = math.ceil((total_budget / R) * eta**s / (s + 1))
        rungs = []
        prev_budget = 0
        for i in range(s + 1):
            budget = max(1, int(math.floor(R * eta ** (i - s) + 1e-9)))
            budget = max(budget, prev_budget + 1)  # keep budgets strictly growing
            rungs.append((n, budget))
            prev_budget = budget
            n = math.ceil(n / eta)
        assert rungs[-1][1] == R
        brackets.append(rungs)
    return brackets


# --- trials -------------------------------------------------------------------

@dataclass
class Trial:
    trial_id: int
    overlay: dict
    config: dict
    budget_epochs: int
    rung: int
    objective: float | None = None
    status: str = "pending"  # pending | completed | failed
    workdir: Path | None = None

    def log_entry(self) -> dict:
        return {
            "trial_id": self.trial_id,
            "rung": self.rung,
            "budget": self.budget_epochs,
            "config_overlay": self.overlay,
            "objective": self.objective,
            "status": self.status,
        }


def _apply_overlay(base_config: dict, overlay: dict, budget: int) -> dict:
    cfg = copy.deepcopy(base_config)
    for path, value in sorted(overlay.items()):
        set_path(cfg, path, value)
    cfg["task"]["max_epochs"] = int(budget)
    return cfg


def _objective_from(result: RunResult) -> float:
    """Last-epoch validation metric, sign-adjusted so lower is better."""
    value = result.history[-1]["val_metric"]
    return -value if result.metric["direction"] == "maximize" else value


def _evaluate_trial(trial: Trial, budget: int, rung: int) -> None:
    """Run or extend a trial to the given budget and record its objective.

    Only an aborted (diverged) run is a failed trial; any error propagates.
    """
    target_cfg = _apply_overlay(trial.config, {}, budget)
    if trial.status == "pending":
        result = train_run(target_cfg, trial.workdir)
    else:
        result = extend_budget(target_cfg, trial.workdir, budget)
    if result.status == "completed":
        trial.objective = _objective_from(result)
        trial.status = "completed"
    else:
        trial.objective = math.inf  # worst possible, keeps budget accounting exact
        trial.status = "failed"
    trial.budget_epochs = budget
    trial.rung = rung
    trial.config = target_cfg


@dataclass
class HpoOutcome:
    best: Trial
    trials: list[Trial]
    log: list[dict]


def run_hpo(
    base_config: dict,
    space: SearchSpace,
    n_trials: int,
    init_fraction: float,
    R: int | None,
    eta: int,
    seed: int,
    workdir: str | Path,
) -> HpoOutcome:
    """Search the space with n_trials sampled configurations.

    round(init_fraction * n_trials) configs are sampled before any
    promotion decision and trained straight at budget R; the rest flow
    through Hyperband brackets, cycling until the trial budget is spent.
    Returns the best trial by final-budget objective plus the full log.
    """
    if n_trials < 1:
        raise BadParameterError("n_trials must be >= 1")
    if not 0 < init_fraction <= 1:
        raise BadParameterError("init_fraction must be in (0, 1]")
    if R is None:
        R = int(base_config["task"]["max_epochs"])
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    log_path = workdir / "trials.jsonl"
    log_path.write_text("", encoding="utf-8")

    rng = Xoshiro256StarStar(derive_stream(seed, "hpo"))
    trials: list[Trial] = []
    log: list[dict] = []

    def _record(trial: Trial) -> None:
        entry = trial.log_entry()
        log.append(entry)
        with open(log_path, "a", encoding="utf-8") as f:
            f.write(json.dumps(entry, sort_keys=True) + "\n")

    def _new_trial(overlay: dict) -> Trial:
        tid = len(trials)
        trial = Trial(
            trial_id=tid,
            overlay=overlay,
            config=_apply_overlay(base_config, overlay, R),
            budget_epochs=0,
            rung=0,
            workdir=workdir / "trials" / f"trial_{tid:04d}",
        )
        trials.append(trial)
        return trial

    n_init = min(max(round(init_fraction * n_trials), 0), n_trials)
    initial = [_new_trial(sample(space, rng)) for _ in range(n_init)]
    for trial in initial:
        _evaluate_trial(trial, R, rung=0)
        _record(trial)

    remaining = n_trials - n_init
    while remaining > 0:
        for rungs in hyperband_schedule(R, eta):
            n0 = min(rungs[0][0], remaining)
            if n0 == 0:
                break
            remaining -= n0
            cohort = [_new_trial(sample(space, rng)) for _ in range(n0)]
            for trial in cohort:
                _evaluate_trial(trial, rungs[0][1], rung=0)
                _record(trial)
            for rung_idx in range(1, len(rungs)):
                alive = [t for t in cohort if t.status == "completed"]
                if not alive:
                    break
                keep = math.ceil(len(cohort) / eta)
                alive.sort(key=lambda t: (t.objective, t.trial_id))
                cohort = alive[:keep]
                for trial in cohort:
                    _evaluate_trial(trial, rungs[rung_idx][1], rung=rung_idx)
                    _record(trial)
            if remaining == 0:
                break

    finished = [t for t in trials if t.status == "completed"]
    if not finished:
        raise BenchmarkError("every trial failed")
    top_budget = max(t.budget_epochs for t in finished)
    finalists = [t for t in finished if t.budget_epochs == top_budget]
    best = min(finalists, key=lambda t: (t.objective, t.trial_id))
    return HpoOutcome(best=best, trials=trials, log=log)


def retrain_best(
    best_config: dict, seeds: list[int], workdir: str | Path
) -> list[AggregateCell]:
    """Train the winning configuration once per seed and aggregate."""
    workdir = Path(workdir)
    results = []
    for s in seeds:
        cfg = copy.deepcopy(best_config)
        cfg["engine"]["seed"] = int(s)
        rid = run_id(cfg)
        result = train_run(cfg, workdir / "retrain" / rid)
        results.append((cfg, result))
    return aggregate(results)


def load_hpo_file(path: str | Path) -> dict:
    """Read an hpo sidecar file.

    Keys: ``experiment`` (inline config or relative path to an experiment
    file), ``space``, ``n_trials``, ``init_fraction``, ``R`` (optional,
    defaults to the task's max_epochs), ``eta``, ``seed`` and optional
    ``retrain_seeds``.
    """
    import yaml

    path = Path(path)
    raw = yaml.safe_load(path.read_text(encoding="utf-8"))
    if not isinstance(raw, dict) or "space" not in raw or "experiment" not in raw:
        raise SchemaError("hpo file needs `experiment` and `space` blocks")
    if isinstance(raw["experiment"], str):
        exp_path = (path.parent / raw["experiment"]).resolve()
        raw["experiment_text"] = exp_path.read_text(encoding="utf-8")
    elif isinstance(raw["experiment"], dict):
        raw["experiment_text"] = yaml.safe_dump(raw["experiment"])
    else:
        raise ConfigError("`experiment` must be a mapping or a path string")
    return raw
