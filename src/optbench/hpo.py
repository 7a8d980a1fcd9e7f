"""Multi-fidelity hyperparameter search with training epochs as the budget.

Random sampling over declared ranges plus a Hyperband intensifier: each
bracket starts a batch of fresh configurations at a small epoch budget and
repeatedly promotes the best fraction to a larger budget. Promotions never
retrain from scratch: the promoted trial's config with the larger
``max_epochs`` extends its existing run directory. Each rung's cohort is
one ``train_runs`` call, so its trials, which share the task config, the
optimizer and the start epoch, train in lockstep as one group.

The whole search is a plan of cohorts fixed before anything trains: a
fraction of the trials ("initial configurations") is evaluated directly
at the full budget, and the rest fill the brackets in turn. With
``init_fraction=1`` the search degenerates to pure random search at
budget R.
"""

from __future__ import annotations

import copy
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from .config import check_keys, identity_view, run_id, set_path
from .rundir import train_runs
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
            space[path] = Uniform(*_bounds(path, kind, args))
        elif kind == "log_uniform":
            space[path] = LogUniform(*_bounds(path, kind, args))
        elif kind == "categorical":
            if not isinstance(args, list) or not args:
                raise SchemaError(f"`categorical` for {path!r} needs a non-empty list, got {args!r}")
            space[path] = Categorical(tuple(args))
        else:
            raise SchemaError(f"unknown distribution {kind!r} for {path!r}")
    return space


def _bounds(path: str, kind: str, args) -> tuple[float, float]:
    """``[lo, hi]`` of a range entry as floats."""
    try:
        if isinstance(args, list) and len(args) == 2:
            return float(args[0]), float(args[1])
    except (TypeError, ValueError):
        pass
    raise SchemaError(f"`{kind}` for {path!r} needs a list of two numbers, got {args!r}")


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


# --- the search plan ----------------------------------------------------------

class Cohort(NamedTuple):
    """Trials that start together and race each other through the budgets."""

    ids: range  # contiguous trial ids, in sampling order
    budgets: tuple[int, ...]  # epoch budget of each rung, strictly rising to R


def search_plan(n_trials: int, init_fraction: float, R: int, eta: int) -> list[Cohort]:
    """Every cohort of a search, fixed before anything trains.

    The first ``round(init_fraction * n_trials)`` trials form one cohort
    trained straight at budget R. The rest fill Hyperband brackets in
    turn, cycling through them; the last bracket is cut to the trials
    that remain.
    """
    if n_trials < 1:
        raise BadParameterError("n_trials must be >= 1")
    if not 0 < init_fraction <= 1:
        raise BadParameterError("init_fraction must be in (0, 1]")
    brackets = hyperband_schedule(R, eta)
    start = round(init_fraction * n_trials)
    plan = [Cohort(range(start), (R,))] if start else []
    for rungs in itertools.cycle(brackets):
        if start == n_trials:
            return plan
        stop = min(start + rungs[0][0], n_trials)
        plan.append(Cohort(range(start, stop), tuple(budget for _, budget in rungs)))
        start = stop


# --- trials -------------------------------------------------------------------

@dataclass
class Trial:
    trial_id: int
    overlay: dict
    config: dict
    workdir: Path
    budget_epochs: int = 0
    rung: int = 0
    objective: float | None = None
    status: str = "pending"  # pending | completed | failed

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


def _record(trial: Trial, config: dict, result, rung: int) -> None:
    """Record the engine's result of a trial at ``config``'s budget: only an
    aborted (diverged) run is a failed trial."""
    if result.status == "completed":
        value = result.history[-1]["val_metric"]  # last epoch, signed so lower is better
        trial.objective = -value if result.metric["direction"] == "maximize" else value
        trial.status = "completed"
    else:
        trial.objective = math.inf  # worst possible, keeps budget accounting exact
        trial.status = "failed"
    trial.budget_epochs = config["task"]["max_epochs"]
    trial.rung = rung
    trial.config = config


@dataclass
class HpoOutcome:
    best: Trial
    trials: list[Trial]


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

    Every space path must name a key of ``base_config`` that the trained
    run reads: one inside run identity other than ``task.max_epochs``, which
    each rung sets to its budget, and other than a ``name``, which picks the
    task or optimizer and so the keys its config may hold (a ``SchemaError``
    before anything is written otherwise).

    The cohorts of ``search_plan`` run one after another. Each rung after
    the first keeps the ``ceil(n/eta)`` best completed trials of the n the
    rung before it evaluated. A rung trains its cohort as one lockstep
    group and then appends one line per trial to ``trials.jsonl``, in
    cohort order, so a rung's lines are written together. Returns the
    completed trial with the largest budget and the lowest objective, plus
    every trial.
    """
    trained = identity_view(base_config)  # what a trial's run sees of its config
    del trained["task"]["max_epochs"]  # each rung sets it to its budget
    for path in sorted(space):  # an unused path would train every trial alike
        if path.rsplit(".", 1)[-1] == "name":  # the other name's keys would not fit the config
            raise SchemaError(f"space path `{path}` cannot be searched: run one search per name")
        node = None
        for part in reversed(path.split(".")):
            node = {part: node}
        check_keys(node, base_config)
        try:
            check_keys(node, trained)
        except SchemaError:
            raise SchemaError(f"space path `{path}` never reaches the trained run") from None
    if R is None:
        R = int(base_config["task"]["max_epochs"])
    plan = search_plan(n_trials, init_fraction, R, eta)
    workdir = Path(workdir)
    rng = Xoshiro256StarStar(derive_stream(seed, "hpo"))
    trials = []
    for tid in range(n_trials):
        overlay = sample(space, rng)
        config = _apply_overlay(base_config, overlay, R)
        trials.append(Trial(tid, overlay, config, workdir / "trials" / f"trial_{tid:04d}"))
    workdir.mkdir(parents=True, exist_ok=True)
    with open(workdir / "trials.jsonl", "w", encoding="utf-8") as log:
        for ids, budgets in plan:
            cohort = [trials[tid] for tid in ids]
            for rung, budget in enumerate(budgets):
                if rung:
                    alive = [t for t in cohort if t.status == "completed"]
                    alive.sort(key=lambda t: (t.objective, t.trial_id))
                    cohort = alive[: math.ceil(len(cohort) / eta)]
                configs = [_apply_overlay(t.config, {}, budget) for t in cohort]
                results = train_runs([(cfg, t.workdir) for cfg, t in zip(configs, cohort)])
                for trial, cfg, result in zip(cohort, configs, results):
                    _record(trial, cfg, result, rung)
                    log.write(json.dumps(trial.log_entry(), sort_keys=True) + "\n")
                log.flush()  # a killed search keeps every finished rung

    finished = [t for t in trials if t.status == "completed"]
    if not finished:
        raise BenchmarkError("every trial failed")
    best = min(finished, key=lambda t: (-t.budget_epochs, t.objective, t.trial_id))
    return HpoOutcome(best=best, trials=trials)


def _distinct_seeds(seeds: list) -> list[int]:
    """The seeds as ints; a repeated one would aggregate one run twice."""
    ints = [int(s) for s in seeds]
    if len(set(ints)) != len(ints):
        raise BadParameterError(f"retrain_seeds must not repeat a seed: {seeds}")
    return ints


def retrain_best(
    best_config: dict, seeds: list[int], workdir: str | Path
) -> list[AggregateCell]:
    """Train the winning configuration once per seed, as one lockstep
    group, and aggregate."""
    workdir = Path(workdir)
    configs = []
    for s in _distinct_seeds(seeds):
        cfg = copy.deepcopy(best_config)
        cfg["engine"]["seed"] = s
        configs.append(cfg)
    results = train_runs([(cfg, workdir / "retrain" / run_id(cfg)) for cfg in configs])
    return aggregate(list(zip(configs, results)))


_HPO_NUMBERS = {  # key: (default, accepted types, what a value must be)
    "n_trials": (10, int, "an integer"),
    "init_fraction": (0.1, (int, float), "a number"),
    "R": (None, (int, type(None)), "an integer"),  # None: the task's max_epochs
    "eta": (3, int, "an integer"),
    "seed": (0, int, "an integer"),
}


def load_hpo_file(path: str | Path) -> dict:
    """Read and check an hpo sidecar file, filling in default values.

    Keys: ``experiment`` (inline config or relative path to an experiment
    file), ``space``, ``n_trials``, ``init_fraction``, ``R`` (optional,
    defaults to the task's max_epochs), ``eta``, ``seed`` and optional
    ``retrain_seeds``. Any other key, or a value of the wrong type, is a
    ``SchemaError``.
    """
    import yaml

    path = Path(path)
    raw = yaml.safe_load(path.read_text(encoding="utf-8"))
    if not isinstance(raw, dict) or "space" not in raw or "experiment" not in raw:
        raise SchemaError("hpo file needs `experiment` and `space` blocks")
    unknown = sorted(set(raw) - {"experiment", "space", "retrain_seeds", *_HPO_NUMBERS})
    if unknown:
        raise SchemaError(f"unknown hpo file keys {unknown}")
    for key, (default, kinds, what) in _HPO_NUMBERS.items():
        value = raw.setdefault(key, default)
        if isinstance(value, bool) or not isinstance(value, kinds):
            raise SchemaError(f"`{key}` must be {what}, got {value!r}")
    if isinstance(raw["experiment"], str):
        exp_path = (path.parent / raw["experiment"]).resolve()
        raw["experiment_text"] = exp_path.read_text(encoding="utf-8")
    elif isinstance(raw["experiment"], dict):
        raw["experiment_text"] = yaml.safe_dump(raw["experiment"])
    else:
        raise ConfigError("`experiment` must be a mapping or a path string")
    _distinct_seeds(raw.get("retrain_seeds") or [])  # before the search trains
    return raw
