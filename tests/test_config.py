import copy
import itertools
import random

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from optbench import config as config_module
from optbench.config import (
    dump_config,
    expand_grid,
    flatten,
    load_defaults,
    merge_defaults,
    parse_experiment,
    register_task_defaults,
    run_id,
)
from optbench.errors import (
    EmptyListError,
    ExperimentSyntaxError,
    SchemaError,
    UnknownNameError,
)

SMALL_EXPERIMENT = """
task:
  name: mnist
  max_epochs: 10
  model:
    num_hidden: 42
optimizer:
  name: adamw_baseline
  learning_rate: 1.0e-2
"""

# 2 model sizes x 2 optimizers x 2 seeds = 8 runs
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

# 3 seeds x (4x5 + 4x5) optimizer branches = 120 runs
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
evaluation:
  output_types: [pdf, png]
  plot:
    x_axis:
      - optimizer.kappa_init_param
      - optimizer.weight_decay
"""


class TestParse:
    def test_scalars_preserved(self):
        spec = parse_experiment(SMALL_EXPERIMENT)
        assert spec["task"]["name"] == "mnist"
        assert spec["task"]["max_epochs"] == 10
        assert isinstance(spec["task"]["max_epochs"], int)
        assert spec["task"]["model"]["num_hidden"] == 42
        assert spec["optimizer"]["learning_rate"] == 1.0e-2
        assert isinstance(spec["optimizer"]["learning_rate"], float)

    def test_empty_mapping(self):
        spec = parse_experiment("{}")
        assert spec == {"task": {}, "optimizer": {}, "engine": {}, "evaluation": {}}

    def test_list_leaf_preserved(self):
        spec = parse_experiment("task: {name: [a, b]}")
        assert spec["task"]["name"] == ["a", "b"]

    def test_malformed_yaml(self):
        with pytest.raises(ExperimentSyntaxError):
            parse_experiment("task: [unclosed")

    def test_unknown_top_level_key(self):
        with pytest.raises(SchemaError):
            parse_experiment("tasks: {name: quadratic}")

    def test_non_mapping_root(self):
        with pytest.raises(SchemaError):
            parse_experiment("- a\n- b")

    def test_bad_optimizer_node(self):
        with pytest.raises(SchemaError):
            parse_experiment("optimizer: 3")


class TestMergeDefaults:
    def test_experiment_value_wins(self):
        defaults = {
            "tasks": {"quadratic": {"name": "quadratic", "dim": 10}},
            "optimizers": {
                "adamw_baseline": {
                    "name": "adamw_baseline",
                    "learning_rate": 0.1,
                    "one_minus_beta1": 0.1,
                }
            },
            "engine": {"seed": 42},
            "evaluation": {},
        }
        spec = parse_experiment(
            "task: {name: quadratic}\noptimizer: {name: adamw_baseline, learning_rate: 0.5}"
        )
        merged = merge_defaults(spec, defaults)
        assert merged["optimizer"]["learning_rate"] == 0.5
        assert merged["optimizer"]["one_minus_beta1"] == 0.1

    def test_empty_spec_equals_single_default(self):
        defaults = {
            "tasks": {"mnist": {"name": "mnist", "max_epochs": 10, "batch_size": 64}},
            "optimizers": {"adamw_baseline": {"name": "adamw_baseline", "learning_rate": 0.1}},
            "engine": {"seed": 42},
            "evaluation": {},
        }
        merged = merge_defaults(parse_experiment("{}"), defaults)
        assert merged["task"] == defaults["tasks"]["mnist"]
        assert merged["optimizer"] == defaults["optimizers"]["adamw_baseline"]

    def test_per_branch_merge(self):
        merged = merge_defaults(parse_experiment(GRID_8))
        opts = merged["optimizer"]
        assert isinstance(opts, list) and len(opts) == 2
        adamw, sgd = opts
        assert adamw["name"] == "adamw_baseline"
        assert adamw["beta2"] == 0.98  # experiment override
        assert adamw["weight_decay"] == 0.01  # from defaults
        assert sgd["name"] == "sgd_baseline"
        assert sgd["momentum"] == 0.5
        assert sgd["learning_rate"] == 0.1

    def test_unknown_name(self):
        with pytest.raises(UnknownNameError):
            merge_defaults(parse_experiment("task: {name: nope}"))

    def test_list_valued_task_name(self):
        merged = merge_defaults(
            parse_experiment(
                "task: {name: [quadratic, rosenbrock], max_epochs: 3}\n"
                "optimizer: {name: adamw_baseline}"
            )
        )
        assert isinstance(merged["task"], list)
        assert [t["name"] for t in merged["task"]] == ["quadratic", "rosenbrock"]
        assert all(t["max_epochs"] == 3 for t in merged["task"])

    def test_alias_keeps_variant_name(self):
        merged = merge_defaults(parse_experiment("task: {name: quadratic}\noptimizer: {name: adamcpr_fast}"))
        assert merged["optimizer"]["name"] == "adamcpr_fast"
        assert merged["optimizer"]["kappa_init_param"] == 4

    def test_idempotent_on_resolved(self):
        for cfg in expand_grid(merge_defaults(parse_experiment(GRID_8))):
            remerged = merge_defaults(cfg)
            assert remerged["task"] == cfg["task"]
            assert remerged["optimizer"] == cfg["optimizer"]
            assert remerged["engine"] == cfg["engine"]


class TestExpandGrid:
    def test_eight_runs(self):
        configs = expand_grid(merge_defaults(parse_experiment(GRID_8)))
        assert len(configs) == 8

    def test_hundred_twenty_runs(self):
        configs = expand_grid(merge_defaults(parse_experiment(GRID_120)))
        assert len(configs) == 120

    def test_ordering_leftmost_slowest(self):
        configs = expand_grid(merge_defaults(parse_experiment(GRID_8)))
        hidden = [c["task"]["model"]["num_hidden"] for c in configs]
        names = [c["optimizer"]["name"] for c in configs]
        seeds = [c["engine"]["seed"] for c in configs]
        assert hidden == [16] * 4 + [32] * 4
        assert names == ["adamw_baseline", "adamw_baseline", "sgd_baseline", "sgd_baseline"] * 2
        assert seeds == [42, 47] * 4

    def test_no_lists_single_config(self):
        merged = merge_defaults(
            parse_experiment("task: {name: quadratic}\noptimizer: {name: adamw_baseline}")
        )
        configs = expand_grid(merged)
        assert len(configs) == 1
        assert configs[0]["task"] == merged["task"]
        assert configs[0]["optimizer"] == merged["optimizer"]

    def test_no_lists_remain(self):
        for cfg in expand_grid(merge_defaults(parse_experiment(GRID_120))):
            for path, value in flatten(cfg["task"]).items():
                assert not isinstance(value, list), path
            for path, value in flatten(cfg["optimizer"]).items():
                assert not isinstance(value, list), path
            for path, value in flatten(cfg["engine"]).items():
                assert not isinstance(value, list), path

    def test_empty_axis_rejected(self):
        with pytest.raises(EmptyListError):
            expand_grid(
                merge_defaults(
                    parse_experiment(
                        "task: {name: quadratic, max_epochs: []}\n"
                        "optimizer: {name: adamw_baseline}"
                    )
                )
            )

    def test_pure_function(self):
        merged = merge_defaults(parse_experiment(GRID_8))
        assert expand_grid(merged) == expand_grid(merged)

    def test_count_matches_bruteforce_oracle(self):
        rnd = random.Random(20240817)
        leaf_paths = [
            "task.max_epochs",
            "task.batch_size",
            "engine.seed",
            "optimizer.learning_rate",
        ]
        for _ in range(50):
            n_axes = rnd.randint(0, 4)
            axes = {}
            spec_tree = {"task": {"name": "quadratic"}, "optimizer": {"name": "adamw_baseline"}}
            for path in rnd.sample(leaf_paths, n_axes):
                length = rnd.randint(1, 5)
                values = [rnd.randint(1, 9) if "seed" in path or "epochs" in path or "batch" in path
                          else rnd.random() for _ in range(length)]
                axes[path] = values
                top, leaf = path.split(".")
                spec_tree.setdefault(top, {})[leaf] = values
            # brute force: nested loops over each axis
            expected = 1
            for values in axes.values():
                expected *= len(values)
            expected = max(expected, 1)
            spec = parse_experiment(yaml.safe_dump(spec_tree))
            configs = expand_grid(merge_defaults(spec))
            assert len(configs) == expected
            # also compare the actual value tuples to itertools.product
            if axes:
                paths = sorted(axes)
                got = {
                    tuple(flatten(c)[p] for p in paths) for c in configs
                }
                want = set(itertools.product(*(axes[p] for p in paths)))
                assert got == want


    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(
        lengths=st.lists(st.integers(min_value=1, max_value=5), min_size=0, max_size=4)
    )
    def test_expansion_count_property(self, lengths):
        paths = ["task.max_epochs", "task.batch_size", "engine.seed",
                 "optimizer.learning_rate"][: len(lengths)]
        tree = {"task": {"name": "quadratic"}, "optimizer": {"name": "adamw_baseline"}}
        expected = 1
        for path, n in zip(paths, lengths):
            top, leaf = path.split(".")
            tree.setdefault(top, {})[leaf] = list(range(1, n + 1))
            expected *= n
        configs = expand_grid(merge_defaults(parse_experiment(yaml.safe_dump(tree))))
        assert len(configs) == expected


class TestRunId:
    def test_shape_and_determinism(self):
        cfg = expand_grid(merge_defaults(parse_experiment(GRID_8)))[0]
        rid = run_id(cfg)
        assert len(rid) == 16
        assert rid == rid.lower()
        assert int(rid, 16) >= 0
        assert run_id(cfg) == rid

    def test_seed_is_identity_relevant(self):
        configs = expand_grid(merge_defaults(parse_experiment(GRID_8)))
        a, b = configs[0], configs[1]  # differ only in engine.seed
        assert a["engine"]["seed"] != b["engine"]["seed"]
        assert run_id(a) != run_id(b)

    def test_evaluation_and_output_dir_excluded(self):
        cfg = expand_grid(merge_defaults(parse_experiment(GRID_8)))[0]
        variant = yaml.safe_load(dump_config(cfg))
        variant["evaluation"] = {"output_types": ["csv"]}
        variant["engine"]["output_dir"] = "elsewhere"
        assert run_id(variant) == run_id(cfg)

    def test_float_normalization(self):
        base = "task: {name: quadratic}\noptimizer: {name: adamw_baseline, learning_rate: %s}"
        a = expand_grid(merge_defaults(parse_experiment(base % "1.0e-2")))[0]
        b = expand_grid(merge_defaults(parse_experiment(base % "0.01")))[0]
        assert run_id(a) == run_id(b)

    def test_distinct_leaves_distinct_ids(self):
        configs = expand_grid(merge_defaults(parse_experiment(GRID_120)))
        ids = {run_id(c) for c in configs}
        assert len(ids) == 120


class TestRoundTrip:
    def test_yaml_round_trip(self):
        for cfg in expand_grid(merge_defaults(parse_experiment(GRID_8))):
            again = yaml.safe_load(dump_config(cfg))
            assert again == cfg

    def test_packaged_defaults_complete(self):
        defaults = load_defaults()
        assert set(defaults["tasks"]) == {"quadratic", "rosenbrock", "blobs_logreg", "mlp_synth"}
        assert set(defaults["optimizers"]) == {
            "sgd_baseline",
            "adamw_baseline",
            "adamcpr",
            "adafactor",
        }

    def test_late_registered_defaults_visible(self, monkeypatch):
        monkeypatch.setattr(config_module, "_EXTRA_DEFAULTS", {"tasks": {}, "optimizers": {}})
        assert "late_task" not in load_defaults()["tasks"]
        register_task_defaults("late_task", {"max_epochs": 3})
        assert load_defaults()["tasks"]["late_task"] == {"name": "late_task", "max_epochs": 3}

    def test_returned_defaults_are_fresh_copies(self):
        first = load_defaults()
        expected = copy.deepcopy(first)
        first["tasks"]["mlp_synth"]["model"]["num_hidden"] = -1
        first["engine"].clear()
        del first["optimizers"]["adamcpr"]
        assert load_defaults() == expected
