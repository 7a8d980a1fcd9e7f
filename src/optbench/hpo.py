"""Multi-fidelity hyperparameter search with training epochs as the budget.

Random sampling over declared ranges plus a Hyperband intensifier: each
bracket starts a batch of fresh configurations at a small epoch budget and
repeatedly promotes the best fraction to a larger budget. Promotions never
retrain from scratch: the promoted trial's config with the larger
``max_epochs`` extends its existing run directory. Brackets are
independent, so the search trains in waves: wave k is rung k of every
cohort, one ``train_runs`` call, in which the trials that share the task
config (budget included), the optimizer and the start epoch train in
lockstep as one group, whatever their cohort.

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

from .config import _LOADER, _kind_error, check_keys, dump_config, get_path, identity_view, run_id, set_path
from . import rundir
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
    if not isinstance(raw, dict):
        raise SchemaError(f"`space` must map config paths to distributions, got {raw!r}")
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
    """``[lo, hi]`` of a range entry as floats; each must be a finite number, never a bool."""
    if isinstance(args, list) and len(args) == 2 and not any(_kind_error(a, 0.0) for a in args):
        return float(args[0]), float(args[1])
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
    task or optimizer and so the keys its config may hold. Each categorical
    value must be of the type of the base value at its path, and a uniform or
    log-uniform path's base value a float. Otherwise a ``SchemaError`` is
    raised before anything is written, as is any range error of a trial.

    The cohorts of ``search_plan`` advance together: wave k trains rung k
    of every cohort that has one, in one ``train_runs`` call. Each rung
    after the first keeps the ``ceil(n/eta)`` best completed trials of the
    n its cohort's rung before it evaluated, so no cohort reads another's
    results. After each wave one atomic rewrite sets ``trials.jsonl`` to
    the longest complete prefix of the plan-order log (cohort by cohort,
    rung by rung, one line per trial): a killed search keeps every line
    of it, and lines of a later cohort wait for the cohorts before it. A
    log that already starts with those lines is left alone, so a rerun
    that fails part way keeps the earlier one. Returns the completed trial
    with the largest budget and the lowest objective, plus every trial.
    """
    trained = identity_view(base_config)  # what a trial's run sees of its config
    del trained["task"]["max_epochs"]  # each rung sets it to its budget
    for path in sorted(space):  # an unused path would train every trial alike
        if path.rsplit(".", 1)[-1] == "name":  # the other name's keys would not fit the config
            raise SchemaError(f"space path `{path}` cannot be searched: run one search per name")
        base_value, node = get_path(base_config, path), {}
        set_path(node, path, base_value)
        check_keys(node, base_config)
        try:
            check_keys(node, trained)
        except SchemaError:
            raise SchemaError(f"space path `{path}` never reaches the trained run") from None
        if isinstance(space[path], Categorical):  # each value, as an entry of a grid axis
            set_path(node, path, list(space[path].values))
            check_keys(node, base_config)
        elif not isinstance(base_value, float):
            raise SchemaError(f"space path `{path}` holds {base_value!r}: uniform and log_uniform draw floats")
    if R is None:
        R = int(base_config["task"]["max_epochs"])
    plan = search_plan(n_trials, init_fraction, R, eta)
    workdir = Path(workdir)  # the first wave's run dirs make it
    rng = Xoshiro256StarStar(derive_stream(seed, "hpo"))
    trials = []
    for tid in range(n_trials):
        overlay = sample(space, rng)
        config = _apply_overlay(base_config, overlay, R)
        trials.append(Trial(tid, overlay, config, workdir / "trials" / f"trial_{tid:04d}"))
    log_path, log = workdir / "trials.jsonl", ""
    logged = log_path.read_text(encoding="utf-8") if log_path.exists() else ""  # an earlier search's
    rungs = [[trials[tid] for tid in ids] for ids, _ in plan]  # each cohort's newest rung
    lines: list[list[str]] = [[] for _ in plan]  # each cohort's log lines so far
    for wave in range(max(len(budgets) for _, budgets in plan)):
        jobs = []  # (cohort, trial, config) of rung ``wave`` of every cohort that has one
        for c, (_, budgets) in enumerate(plan):
            if wave < len(budgets):
                if wave:
                    alive = [t for t in rungs[c] if t.status == "completed"]
                    alive.sort(key=lambda t: (t.objective, t.trial_id))
                    rungs[c] = alive[: math.ceil(len(rungs[c]) / eta)]
                jobs += [(c, t, _apply_overlay(t.config, {}, budgets[wave])) for t in rungs[c]]
        results = rundir.train_runs([(cfg, t.workdir) for _, t, cfg in jobs])
        for (c, trial, cfg), result in zip(jobs, results):
            _record(trial, cfg, result, wave)
            lines[c].append(json.dumps(trial.log_entry(), sort_keys=True) + "\n")
        log = ""  # the longest plan-order prefix that is complete
        for (_, budgets), cohort_lines in zip(plan, lines):
            log += "".join(cohort_lines)
            if wave + 1 < len(budgets):
                break
        if not logged.startswith(log):  # else a rerun: leave the earlier log alone
            rundir._write_atomic(log_path, log.encode("utf-8"))
            logged = log
    if logged != log:  # a longer log of another search
        rundir._write_atomic(log_path, log.encode("utf-8"))

    finished = [t for t in trials if t.status == "completed"]
    if not finished:
        raise BenchmarkError("every trial failed")
    best = min(finished, key=lambda t: (-t.budget_epochs, t.objective, t.trial_id))
    return HpoOutcome(best=best, trials=trials)


def _distinct_seeds(seeds: list) -> list[int]:
    """The seeds, a list of integers; a repeated one would aggregate one run twice."""
    if not isinstance(seeds, list) or not all(type(s) is int and 0 <= s < 1 << 63 for s in seeds):  # no 1.5
        raise SchemaError(f"`retrain_seeds` must be a list of integers in [0, 2**63), got {seeds!r}")
    if len(set(seeds)) != len(seeds):
        raise BadParameterError(f"retrain_seeds must not repeat a seed: {seeds}")
    return seeds


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
    results = rundir.train_runs([(cfg, workdir / "retrain" / run_id(cfg)) for cfg in configs])
    return aggregate(list(zip(configs, results)))


_HPO_NUMBERS = {  # key: (default, accepted types, what a value must be)
    "n_trials": (10, int, "a 64-bit integer"),
    "init_fraction": (0.1, (int, float), "a finite number"),
    "R": (None, (int, type(None)), "a 64-bit integer"),  # None: the task's max_epochs
    "eta": (3, int, "a 64-bit integer"),
    "seed": (0, int, "a 64-bit integer"),
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
    raw = yaml.load(path.read_text(encoding="utf-8"), Loader=_LOADER)
    if not isinstance(raw, dict) or "space" not in raw or "experiment" not in raw:
        raise SchemaError("hpo file needs `experiment` and `space` blocks")
    unknown = sorted(set(raw) - {"experiment", "space", "retrain_seeds", *_HPO_NUMBERS})
    if unknown:
        raise SchemaError(f"unknown hpo file keys {unknown}")
    for key, (default, kinds, what) in _HPO_NUMBERS.items():
        value = raw.setdefault(key, default)
        if not isinstance(value, kinds) or value is not None and _kind_error(value, 0.0):  # no bool, no NaN
            raise SchemaError(f"`{key}` must be {what}, got {value!r}")
    if isinstance(raw["experiment"], str):
        try:
            raw["experiment_text"] = (path.parent / raw["experiment"]).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"`experiment` names no readable file: {exc}") from None
    elif isinstance(raw["experiment"], dict):
        raw["experiment_text"] = dump_config(raw["experiment"])
    else:
        raise ConfigError("`experiment` must be a mapping or a path string")
    if raw.get("retrain_seeds") is not None:
        _distinct_seeds(raw["retrain_seeds"])  # before the search trains
    return raw
