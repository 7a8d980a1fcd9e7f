import itertools
import json
import math
from pathlib import Path

import pytest

from optbench import engine
from optbench.config import run_id
from optbench.errors import BadParameterError, RunIdMismatchError, SchemaError
from optbench.hpo import (
    Categorical,
    LogUniform,
    Uniform,
    hyperband_schedule,
    parse_space,
    retrain_best,
    run_hpo,
    sample,
    search_plan,
)
from optbench.rng import Xoshiro256StarStar
from optbench.rundir import RunResult, train_run
from conftest import Interrupted, fail_write, resolve, run_dir_files, with_epochs

# trials.jsonl of these searches is pinned in tests/golden_hpo_<task>.jsonl
GOLDEN_SEARCHES = {  # task: (top of the learning-rate range, hpo seed, best (trial, budget))
    "rosenbrock": (30.0, 6, (12, 9)),
    "blobs_logreg": (1000.0, 38, (0, 9)),
}

APP_SPACE = parse_space(
    {
        "optimizer.learning_rate": {"log_uniform": [1e-5, 1e-1]},
        "optimizer.weight_decay": {"log_uniform": [1e-5, 1.0]},
        "optimizer.one_minus_beta1": {"log_uniform": [1e-2, 2e-1]},
        "optimizer.beta2": {"uniform": [0.9, 0.999]},
    }
)


def quad_base(epochs=3, seed=1):
    return resolve(
        f"task: {{name: quadratic, max_epochs: {epochs}}}\n"
        "optimizer: {name: adamw_baseline}\n"
        f"engine: {{seed: {seed}}}"
    )[0]


def oracle_hyperband(R, eta):
    """Independent reimplementation of the bracket arithmetic."""
    s_max = int(math.floor(math.log(R) / math.log(eta) + 1e-12))
    B = (s_max + 1) * R
    brackets = []
    for s in range(s_max, -1, -1):
        n = math.ceil((B / R) * eta**s / (s + 1))
        rungs = []
        prev = 0
        for i in range(s + 1):
            r = max(1, int(math.floor(R * eta ** (i - s) + 1e-9)))
            r = max(r, prev + 1)
            rungs.append((n, r))
            prev = r
            n = math.ceil(n / eta)
        brackets.append(rungs)
    return brackets


def oracle_epochs_per_bracket(rungs):
    """Epochs consumed by one bracket when promotions reuse checkpoints."""
    total = rungs[0][0] * rungs[0][1]
    for (n, r), (_, r_prev) in zip(rungs[1:], rungs):
        total += n * (r - r_prev)
    return total


class TestSampling:
    def test_log_uniform_median(self):
        rng = Xoshiro256StarStar(99)
        dist = LogUniform(1e-5, 1e-1)
        draws = sorted(dist.draw(rng) for _ in range(100_000))
        median = draws[50_000]
        analytic = math.sqrt(1e-5 * 1e-1)  # 1e-3
        assert 0.8 * analytic <= median <= 1.25 * analytic

    def test_singleton_categorical(self):
        rng = Xoshiro256StarStar(1)
        dist = Categorical(("warm_start",))
        assert all(dist.draw(rng) == "warm_start" for _ in range(100))

    def test_fixed_state_identical_sequence(self):
        a = [sample(APP_SPACE, Xoshiro256StarStar(5)) for _ in range(1)][0]
        b = [sample(APP_SPACE, Xoshiro256StarStar(5)) for _ in range(1)][0]
        assert a == b
        rng1, rng2 = Xoshiro256StarStar(7), Xoshiro256StarStar(7)
        seq1 = [sample(APP_SPACE, rng1) for _ in range(20)]
        seq2 = [sample(APP_SPACE, rng2) for _ in range(20)]
        assert seq1 == seq2

    def test_containment(self):
        rng = Xoshiro256StarStar(13)
        bounds = {
            "optimizer.learning_rate": (1e-5, 1e-1),
            "optimizer.weight_decay": (1e-5, 1.0),
            "optimizer.one_minus_beta1": (1e-2, 2e-1),
            "optimizer.beta2": (0.9, 0.999),
        }
        for _ in range(500):
            overlay = sample(APP_SPACE, rng)
            for path, (lo, hi) in bounds.items():
                assert lo <= overlay[path] <= hi

    def test_uniform_bounds_and_validation(self):
        with pytest.raises(SchemaError):
            Uniform(1.0, 1.0)
        with pytest.raises(SchemaError):
            LogUniform(0.0, 1.0)
        with pytest.raises(SchemaError):
            Categorical(())
        with pytest.raises(SchemaError):
            parse_space({"a": {"triangular": [0, 1]}})
        for bad in (
            {"uniform": 3},
            {"uniform": [0.1]},
            {"log_uniform": [1e-5, 1e-1, 1.0]},
            {"log_uniform": ["low", 1.0]},
            {"uniform": [False, 0.999]},  # a boolean is no bound
            {"log_uniform": [1e-5, True]},
            {"uniform": {"lo": 0, "hi": 1}},
            {"categorical": "adam"},
            {"categorical": []},
            {"categorical": None},
        ):
            with pytest.raises(SchemaError, match="optimizer.learning_rate"):
                parse_space({"optimizer.learning_rate": bad})


class TestHyperbandSchedule:
    def test_canonical_bracket(self):
        brackets = hyperband_schedule(27, 3)
        assert len(brackets) == 4
        assert brackets[0] == [(27, 1), (9, 3), (3, 9), (1, 27)]

    def test_degenerate(self):
        assert hyperband_schedule(1, 3) == [[(1, 1)]]

    def test_matches_oracle(self):
        for R in (3, 9, 27):
            for eta in (2, 3):
                assert hyperband_schedule(R, eta) == oracle_hyperband(R, eta)

    def test_validation(self):
        with pytest.raises(BadParameterError):
            hyperband_schedule(0, 3)
        with pytest.raises(BadParameterError):
            hyperband_schedule(9, 1)


class TestSearchPlan:
    def test_cohorts_cover_the_trials_in_bracket_order(self):
        for n_trials, init_fraction, (R, eta) in itertools.product(
            range(1, 50), (1e-9, 0.1, 0.5, 1.0), ((1, 2), (3, 3), (8, 2), (9, 3), (10, 4), (27, 3))
        ):
            plan = search_plan(n_trials, init_fraction, R, eta)
            assert [tid for cohort in plan for tid in cohort.ids] == list(range(n_trials))
            for cohort in plan:
                assert cohort.ids and cohort.ids.step == 1
                assert all(a < b for a, b in zip(cohort.budgets, cohort.budgets[1:]))
                assert cohort.budgets[-1] == R
            n_init = round(init_fraction * n_trials)
            if n_init:
                assert plan[0] == (range(n_init), (R,))
            brackets = plan[1:] if n_init else plan
            schedule = itertools.cycle(hyperband_schedule(R, eta))
            for i, (cohort, rungs) in enumerate(zip(brackets, schedule)):
                assert cohort.budgets == tuple(budget for _, budget in rungs)
                if i < len(brackets) - 1:  # only the last bracket is cut
                    assert len(cohort.ids) == rungs[0][0]
                else:
                    assert 1 <= len(cohort.ids) <= rungs[0][0]

    def test_plan_of_the_golden_searches(self):
        assert search_plan(20, 0.1, 9, 3) == [
            (range(0, 2), (9,)),
            (range(2, 11), (1, 3, 9)),
            (range(11, 16), (3, 9)),
            (range(16, 19), (9,)),
            (range(19, 20), (1, 3, 9)),
        ]


class TestRunHpo:
    def test_budget_accounting_end_to_end(self, tmp_path):
        # one full bracket pass of R=3, eta=3 consumes exactly the
        # closed-form epoch total when promotions reuse checkpoints
        brackets = hyperband_schedule(3, 3)
        n_full_pass = sum(rungs[0][0] for rungs in brackets)
        outcome = run_hpo(
            base_config=quad_base(epochs=3),
            space=APP_SPACE,
            n_trials=n_full_pass,
            init_fraction=1e-9,  # rounds to zero initial configs
            R=3,
            eta=3,
            seed=7,
            workdir=tmp_path,
        )
        expected = sum(oracle_epochs_per_bracket(rungs) for rungs in brackets)
        consumed = 0
        for trial_dir in sorted((tmp_path / "trials").iterdir()):
            result = json.loads((trial_dir / "result.json").read_text())
            consumed += len(result["history"])
        assert consumed == expected
        assert len(outcome.trials) == n_full_pass

    def test_trial_cap_respected(self, tmp_path):
        outcome = run_hpo(
            base_config=quad_base(epochs=3),
            space=APP_SPACE,
            n_trials=10,
            init_fraction=0.1,
            R=3,
            eta=3,
            seed=3,
            workdir=tmp_path,
        )
        assert len(outcome.trials) <= 10

    def test_best_dominates_untuned_base_at_equal_budget(self, tmp_path):
        # base config with an untuned learning rate; the search should find
        # something at least as good at the same budget
        base = resolve(
            "task: {name: quadratic, max_epochs: 3}\n"
            "optimizer: {name: adamw_baseline, learning_rate: 3.0e-3}\n"
            "engine: {seed: 1}"
        )[0]
        outcome = run_hpo(
            base_config=base,
            space=APP_SPACE,
            n_trials=10,
            init_fraction=0.1,
            R=3,
            eta=3,
            seed=7,
            workdir=tmp_path / "hpo",
        )
        reference = train_run(base, tmp_path / "default")
        base_objective = reference.history[-1]["val_metric"]  # loss: lower is better
        assert outcome.best.objective <= base_objective

    def test_init_fraction_one_is_pure_random_search(self, tmp_path):
        outcome = run_hpo(
            base_config=quad_base(epochs=3),
            space=APP_SPACE,
            n_trials=4,
            init_fraction=1.0,
            R=3,
            eta=3,
            seed=11,
            workdir=tmp_path,
        )
        log = [json.loads(line) for line in (tmp_path / "trials.jsonl").read_text().splitlines()]
        assert len(log) == 4  # one evaluation per trial, no promotions
        assert {e["budget"] for e in log} == {3}
        assert {e["rung"] for e in log} == {0}
        assert len(outcome.trials) == 4

    def test_promoted_history_prefix_matches_lower_rung(self, tmp_path):
        outcome = run_hpo(
            base_config=quad_base(epochs=9),
            space=APP_SPACE,
            n_trials=5,
            init_fraction=1e-9,
            R=9,
            eta=3,
            seed=5,
            workdir=tmp_path / "hpo",
        )
        promoted = [t for t in outcome.trials if t.rung > 0 and t.status == "completed"]
        assert promoted
        trial = promoted[0]
        # rerun the same config from scratch at the first-rung budget
        first_budget = hyperband_schedule(9, 3)[0][0][1]
        cfg = json.loads(json.dumps(trial.config))
        cfg["task"]["max_epochs"] = first_budget
        fresh = train_run(cfg, tmp_path / "fresh")
        result = json.loads((trial.workdir / "result.json").read_text())
        prefix = result["history"][:first_budget]
        fresh_hist = [h for h in fresh.history]
        for a, b in zip(prefix, fresh_hist):
            assert a["train_loss"] == b["train_loss"]
            assert a["val_metric"] == b["val_metric"]

    def test_deterministic_trial_log(self, tmp_path):
        kwargs = dict(
            space=APP_SPACE, n_trials=6, init_fraction=0.5, R=3, eta=3, seed=21
        )
        run_hpo(base_config=quad_base(epochs=3), workdir=tmp_path / "a", **kwargs)
        run_hpo(base_config=quad_base(epochs=3), workdir=tmp_path / "b", **kwargs)
        assert (tmp_path / "a" / "trials.jsonl").read_text() == (
            tmp_path / "b" / "trials.jsonl"
        ).read_text()

    @pytest.mark.parametrize("task", sorted(GOLDEN_SEARCHES))
    def test_trial_log_matches_golden(self, tmp_path, task):
        # the cohorts of TestSearchPlan.test_plan_of_the_golden_searches.
        # rosenbrock: large learning rates diverge, so trials fail at rung 0
        # and after a promotion, and the cut bracket is left with no completed
        # trial to promote. blobs_logreg: accuracy is maximized and ties; a
        # trial stopped at budget 3 beats every trial that reached R, yet the
        # best trial is one that reached R.
        lr_max, seed, best = GOLDEN_SEARCHES[task]
        base = resolve(
            f"task: {{name: {task}, max_epochs: 9}}\n"
            "optimizer: {name: sgd_baseline}\nengine: {seed: 1}"
        )[0]
        space = parse_space({
            "optimizer.learning_rate": {"log_uniform": [1.0e-4, lr_max]},
            "optimizer.momentum": {"uniform": [0.0, 0.9]},
        })
        outcome = run_hpo(base, space, 20, 0.1, 9, 3, seed, tmp_path)
        golden = Path(__file__).parent / f"golden_hpo_{task}.jsonl"
        assert (tmp_path / "trials.jsonl").read_bytes() == golden.read_bytes()
        assert (outcome.best.trial_id, outcome.best.budget_epochs) == best

    def test_only_aborted_runs_are_failed_trials(self, tmp_path):
        base = resolve(
            "task: {name: rosenbrock, max_epochs: 3}\n"
            "optimizer: {name: sgd_baseline}\nengine: {seed: 1}"
        )[0]
        space = parse_space({"optimizer.learning_rate": {"categorical": [100.0, 0.001]}})
        args = (base, space, 5, 1e-9, 3, 3, 1, tmp_path)
        outcome = run_hpo(*args)
        assert {t.status for t in outcome.trials} == {"completed", "failed"}
        assert max(t.rung for t in outcome.trials) == 1
        for t in outcome.trials:
            aborted = RunResult.load(t.workdir / "result.json").status == "aborted"
            assert (t.status == "failed") == aborted == (t.objective == math.inf)
        # the promoted trial's dir holds a larger budget than rung 0 asks
        # for, so rerunning into the used dir is an error, not a failed trial
        with pytest.raises(RunIdMismatchError):
            run_hpo(*args)

    def test_killed_search_keeps_finished_rungs_and_failed_rerun_keeps_the_log(
        self, tmp_path, monkeypatch
    ):
        # 1 trial at R, a bracket of 9@1 -> 3@3 -> 1@9, and one cut to 2@3 -> 1@9
        space = parse_space({"optimizer.learning_rate": {"log_uniform": [1e-3, 1e-1]}})
        args = (quad_base(epochs=9), space, 12, 0.1, 9, 3, 4)
        run_hpo(*args, tmp_path / "full")
        log = tmp_path / "full" / "trials.jsonl"
        lines = log.read_text().splitlines(keepends=True)
        assert len(lines) == 1 + 9 + 3 + 1 + 2 + 1
        # a kill inside wave 1's first run, or tearing wave 1's log write: wave 0
        # trained 1 + 9 + 2 trials and logged the first cohort and the bracket's rung 0
        for kill in (("result.json", 1 + 9 + 2 + 1, False), ("trials.jsonl", 2, True)):
            with monkeypatch.context() as mp:
                fail_write(mp, *kill)
                with pytest.raises(Interrupted):
                    run_hpo(*args, tmp_path / kill[0])
            assert (tmp_path / kill[0] / "trials.jsonl").read_text() == "".join(lines[:10])
        # rung 0 of the bracket asks for less than its promoted trials hold
        stamp = (log.read_bytes(), log.stat().st_ino, log.stat().st_mtime_ns)
        with pytest.raises(RunIdMismatchError):
            run_hpo(*args, tmp_path / "full")
        assert (log.read_bytes(), log.stat().st_ino, log.stat().st_mtime_ns) == stamp

    @pytest.mark.parametrize("torn", [False, True])
    def test_a_kill_at_each_wave_log_write_leaves_a_plan_order_prefix(self, tmp_path, monkeypatch, torn):
        # waves 0, 1 and 2 log the first 10, 13 and all 17 lines of the plan-order log
        space = parse_space({"optimizer.learning_rate": {"log_uniform": [1e-3, 1e-1]}})
        args = (quad_base(epochs=9), space, 12, 0.1, 9, 3, 4)
        run_hpo(*args, tmp_path / "full")
        lines = (tmp_path / "full" / "trials.jsonl").read_text().splitlines(keepends=True)
        for wave, kept in enumerate((0, 10, 13)):
            with monkeypatch.context() as mp:
                fail_write(mp, "trials.jsonl", wave + 1, torn)
                with pytest.raises(Interrupted):
                    run_hpo(*args, tmp_path / f"wave{wave}")
            log = tmp_path / f"wave{wave}" / "trials.jsonl"
            assert (log.read_text() if log.exists() else "") == "".join(lines[:kept]), wave

    def test_validation(self, tmp_path):
        # n_trials, init_fraction, R and eta are all checked before trial 0 trains
        for n_trials, init_fraction, R, eta in (
            (0, 0.1, 3, 3), (5, 0.0, 3, 3), (5, 1.5, 3, 3), (5, 0.5, 0, 3), (4, 0.5, 3, 1)
        ):
            with pytest.raises(BadParameterError):
                run_hpo(quad_base(), APP_SPACE, n_trials, init_fraction, R, eta, 0, tmp_path / "hpo")
        assert not (tmp_path / "hpo").exists()


def count_groups(monkeypatch) -> list[int]:
    """The number of runs of each ``engine._run`` call made while patched."""
    sizes = []
    real = engine._run

    def counting(starts):
        sizes.append(len(starts))
        return real(starts)

    monkeypatch.setattr(engine, "_run", counting)
    return sizes


def mlp_base(epochs=9):
    return resolve(
        f"task: {{name: mlp_synth, max_epochs: {epochs}}}\n"
        "optimizer: {name: adamw_baseline}\nengine: {seed: 1}"
    )[0]


class TestLockstepRungs:
    def test_each_rung_trains_as_one_group_and_writes_the_dirs_of_trials_alone(
        self, tmp_path, monkeypatch
    ):
        # 1 trial at R, a bracket of 9@1 -> 3@3 -> 1@9, and one cut to 2@3 -> 1@9: wave 0
        # trains 1@9, 9@1 and 2@3, wave 1 3@3 and 1@9, wave 2 1@9, one group each
        space = parse_space({"optimizer.learning_rate": {"log_uniform": [1e-3, 1e-1]}})
        sizes = count_groups(monkeypatch)
        outcome = run_hpo(mlp_base(), space, 12, 0.1, 9, 3, 4, tmp_path / "hpo")
        monkeypatch.undo()
        cohort_of = {
            tid: c for c, cohort in enumerate(search_plan(12, 0.1, 9, 3)) for tid in cohort.ids
        }
        log = [json.loads(x) for x in (tmp_path / "hpo" / "trials.jsonl").read_text().splitlines()]
        rungs = [(e["rung"], cohort_of[e["trial_id"]]) for e in log]
        assert sizes == [len(list(group)) for _, group in itertools.groupby(sorted(rungs))]
        assert sizes == [1, 9, 2, 3, 1, 1]
        for trial in outcome.trials:
            alone = tmp_path / "alone" / trial.workdir.name
            for entry in log:
                if entry["trial_id"] == trial.trial_id:
                    train_run(with_epochs(trial.config, entry["budget"]), alone)
            assert run_dir_files(alone) == run_dir_files(trial.workdir), trial.trial_id

    def test_retrain_trains_its_seeds_as_one_group(self, tmp_path, monkeypatch):
        sizes = count_groups(monkeypatch)
        cells = retrain_best(mlp_base(epochs=3), [1, 2, 3], tmp_path / "best")
        monkeypatch.undo()
        assert sizes == [3] and cells[0].n == 3
        for seed in (1, 2, 3):
            cfg = mlp_base(epochs=3)
            cfg["engine"]["seed"] = seed
            train_run(cfg, tmp_path / "alone" / run_id(cfg))
        for alone in (tmp_path / "alone").iterdir():
            assert run_dir_files(alone) == run_dir_files(tmp_path / "best" / "retrain" / alone.name)


class TestRetrainBest:
    def test_three_seeds_one_cell(self, tmp_path):
        cells = retrain_best(quad_base(epochs=3), [1, 2, 3], tmp_path)
        assert len(cells) == 1
        assert cells[0].n == 3

    def test_single_seed_zero_std(self, tmp_path):
        cells = retrain_best(quad_base(epochs=3), [5], tmp_path)
        assert cells[0].n == 1
        assert cells[0].std_best == 0.0

    def test_duplicate_seed_rejected(self, tmp_path):
        # one run aggregated twice would report n=2 with std 0
        with pytest.raises(BadParameterError, match="repeat"):
            retrain_best(quad_base(epochs=3), [4, 5, 4], tmp_path)
        assert not (tmp_path / "retrain").exists()  # rejected before any training
