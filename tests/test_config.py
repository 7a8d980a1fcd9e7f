import copy
import itertools
import random
import re
from pathlib import Path

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
        spec = parse_experiment(
            "task: {name: quadratic}\noptimizer: {name: adamw_baseline, learning_rate: 0.5}"
        )
        merged = merge_defaults(spec)
        assert merged["optimizer"]["learning_rate"] == 0.5
        assert merged["optimizer"]["one_minus_beta1"] == 0.1
        assert merged["task"]["dim"] == load_defaults()["tasks"]["quadratic"]["dim"]

    def test_entry_without_name_rejected(self):
        with pytest.raises(SchemaError, match="every task entry needs a scalar `name`"):
            merge_defaults(parse_experiment("{}"))

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

    @pytest.mark.parametrize("text, path", [
        # each branch of a list-valued name or subtree is checked on its own
        ("task: {name: [quadratic, rosenbrock], a: 2.0}", "task.a"),
        ("task: {name: mlp_synth, model: [{num_hidden: 8}, {num_hiden: 16}]}", "task.model.num_hiden"),
        ("task: {name: quadratic, dim: {n: 3}}", "task.dim.n"),  # a leaf given a subtree
        ("task: {name: quadratic}\n"
         "optimizer: [{name: adamcpr_fast, kappa_init_param: 2}, {name: sgd_baseline, beta2: 0.9}]",
         "optimizer.beta2"),
    ])
    def test_key_outside_the_named_default_tree(self, text, path):
        with pytest.raises(SchemaError, match=re.escape(f"`{path}`")):
            merge_defaults(parse_experiment(text))

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

    def test_axis_order_is_the_default_files_key_order(self):
        # adamw_baseline's default file lists learning_rate before weight_decay
        configs = expand_grid(merge_defaults(parse_experiment(
            "task: {name: quadratic}\n"
            "optimizer: {name: adamw_baseline, weight_decay: [0.1, 0.2], learning_rate: [0.01, 0.02]}"
        )))
        pairs = [(c["optimizer"]["learning_rate"], c["optimizer"]["weight_decay"]) for c in configs]
        assert pairs == [(0.01, 0.1), (0.01, 0.2), (0.02, 0.1), (0.02, 0.2)]

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

    def test_late_registered_defaults_visible(self, plugins):
        from optbench.tasks import TaskInstance

        assert "late_task" not in load_defaults()["tasks"]
        plugins.task("late_task", TaskInstance, {"max_epochs": 3})
        assert load_defaults()["tasks"]["late_task"] == {"name": "late_task", "max_epochs": 3}

    def test_returned_defaults_are_fresh_copies(self):
        first = load_defaults()
        expected = copy.deepcopy(first)
        first["tasks"]["mlp_synth"]["model"]["num_hidden"] = -1
        first["engine"].clear()
        del first["optimizers"]["adamcpr"]
        assert load_defaults() == expected


GRID_MLP = """
task: {name: mlp_synth, max_epochs: 20}
optimizer:
  - {name: sgd_baseline, learning_rate: [0.1, 0.03]}
  - {name: adamw_baseline, learning_rate: [0.01, 0.003]}
  - {name: adamcpr, learning_rate: [0.01, 0.003]}
  - {name: adafactor, learning_rate: [0.01, 0.003]}
engine: {seed: [0, 1, 2]}
evaluation:
  output_types: [svg, csv]
  plot: {x_axis: [optimizer.weight_decay, optimizer.kappa_init_param]}
"""


def _search_configs() -> list[dict]:
    """Every config a 12-trial Hyperband search over mlp_synth may train:
    each trial at each budget of its cohort."""
    from optbench.hpo import _apply_overlay, parse_space, sample, search_plan
    from optbench.rng import Xoshiro256StarStar, derive_stream

    base = expand_grid(merge_defaults(parse_experiment(
        "task: {name: mlp_synth, max_epochs: 9}\noptimizer: {name: adamw_baseline}"
    )))[0]
    space = parse_space({
        "optimizer.learning_rate": {"log_uniform": [1.0e-5, 1.0e-1]},
        "optimizer.weight_decay": {"log_uniform": [1.0e-5, 1.0]},
        "optimizer.beta2": {"uniform": [0.9, 0.999]},
    })
    rng = Xoshiro256StarStar(derive_stream(0, "hpo"))
    configs = []
    for ids, budgets in search_plan(12, 0.1, 9, 3):
        for _ in ids:
            overlay = sample(space, rng)
            configs.extend(_apply_overlay(base, overlay, budget) for budget in budgets)
    return configs


EDGE_TREE = {
    "engine": {
        "output_dir": "/a rather long/output directory/with spaces in it/" + "deep dir/" * 12,
        "seed": 2**70,
    },
    "text": "naïve café ✓ 日本語",
    "floats": [float("inf"), float("-inf"), float("nan"), -0.0, 5e-324, 1e300, 0.1],
    "strings": ["1e-5", "null", "a: b", " leading", "multi\nline", "yes", "~", "", "0x1f", "010"],
    "nested": {"list": [[1, 2], {"a": None}], "flag": False, "big": -(2**70)},
}


# the pure-Python loader and emitter with config's resolvers: its YAML 1.2 floats included
PY_LOADER = type("PyLoader", (yaml.SafeLoader,), {
    "yaml_implicit_resolvers": config_module._LOADER.yaml_implicit_resolvers})
PY_DUMPER = type("PyDumper", (yaml.SafeDumper,), {
    "yaml_implicit_resolvers": config_module._DUMPER.yaml_implicit_resolvers})


@pytest.mark.parametrize("configs", [
    lambda: expand_grid(merge_defaults(parse_experiment(GRID_MLP))),
    _search_configs,
    lambda: [EDGE_TREE],
], ids=["grid_mlp", "mlp_synth_search", "edge_tree"])
def test_dump_config_bytes_are_safe_dump_bytes(configs):
    # with libyaml present, dump_config takes its emitter: the comparison is between two emitters
    assert issubclass(config_module._DUMPER, yaml.CSafeDumper if yaml.__with_libyaml__ else yaml.SafeDumper)
    for tree in configs():
        assert dump_config(tree) == yaml.dump(tree, Dumper=PY_DUMPER, sort_keys=True, default_flow_style=False)
        if tree is not EDGE_TREE:  # which alone holds a float-looking string, "1e-5"
            assert dump_config(tree) == yaml.safe_dump(tree, sort_keys=True, default_flow_style=False)


REPO = Path(__file__).resolve().parent.parent
YAML_FILES = sorted([*REPO.glob("configs/*.yaml"), *REPO.glob("src/optbench/defaults/**/*.yaml")])


@pytest.mark.parametrize("path", YAML_FILES, ids=[p.relative_to(REPO).as_posix() for p in YAML_FILES])
def test_libyaml_loader_builds_the_trees_of_the_python_one(path):
    # with libyaml present, every load takes its parser: the comparison is between two parsers
    assert issubclass(config_module._LOADER, yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader)
    text = path.read_text(encoding="utf-8")
    assert yaml.load(text, Loader=config_module._LOADER) == yaml.load(text, Loader=PY_LOADER)


def test_libyaml_loader_reads_dumped_edge_values():
    text = dump_config(EDGE_TREE)
    trees = [yaml.load(text, Loader=loader) for loader in (config_module._LOADER, PY_LOADER, yaml.SafeLoader)]
    assert dump_config(trees[0]) == dump_config(trees[1]) == dump_config(trees[2]) == text


class TestYaml12Floats:
    @pytest.mark.parametrize("text, value", [("1e-3", 1e-3), ("1E5", 1e5), ("1.0e5", 1e5), (".5e3", 500.0)])
    def test_exponent_forms_load_as_floats(self, text, value):
        spec = parse_experiment(f"optimizer: {{name: adamw_baseline, learning_rate: {text}}}")
        loaded = spec["optimizer"]["learning_rate"]
        assert type(loaded) is float and loaded == value

    @pytest.mark.parametrize("text", ["-2.5e+3", "1.0e-5"])
    def test_yaml_1_1_floats_load_as_before(self, text):
        assert config_module.load_config(f"x: {text}") == yaml.safe_load(f"x: {text}")

    def test_a_float_looking_string_round_trips(self):
        assert dump_config({"x": "1e3"}) == "x: '1e3'\n"
        assert config_module.load_config(dump_config({"x": "1e3"})) == {"x": "1e3"}

    def test_pyyaml_loaders_are_left_as_they_are(self):
        assert yaml.load("x: 1e-3", Loader=config_module._LOADER.__base__) == {"x": "1e-3"}

    @pytest.mark.parametrize("path", sorted(REPO.glob("configs/*.yaml")), ids=lambda p: p.name)
    def test_run_ids_of_shipped_configs_match_the_yaml_1_1_loader(self, path, monkeypatch):
        from optbench import hpo as hpo_module

        def ids():
            text = hpo_module.load_hpo_file(path)["experiment_text"] if "hpo" in path.name else path.read_text()
            return [run_id(cfg) for cfg in expand_grid(merge_defaults(parse_experiment(text)))]

        now = ids()
        monkeypatch.setattr(config_module, "_LOADER", yaml.SafeLoader)
        monkeypatch.setattr(hpo_module, "_LOADER", yaml.SafeLoader)
        assert ids() == now
