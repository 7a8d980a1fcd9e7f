"""The default files as a typed schema: every malformed value exits 2 before
anything is written, and no other outcome ends in a traceback."""

import copy
import json
import os
import re
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import optbench
from optbench.cli import main
from optbench.config import check_keys
from optbench.errors import SchemaError


@pytest.fixture
def project(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SLURM_ARRAY_TASK_ID", raising=False)
    return tmp_path


def files_under(root: Path, *but: Path) -> list[Path]:
    return sorted(p for p in root.rglob("*") if p.is_file() and p not in but)


def run_exits_2_naming(project, capsys, tree: dict, path: str, command: str = "run") -> None:
    exp = project / "bad.yaml"
    exp.write_text(yaml.safe_dump(tree))
    assert main([command, str(exp)]) == 2
    assert f"`{path}`" in capsys.readouterr().err
    assert files_under(project, exp) == []


TWO_GROUPS = {
    "task": {"name": "quadratic", "max_epochs": 2},
    "optimizer": [{"name": "adamw_baseline", "learning_rate": [0.1, 0.01]},
                  {"name": "sgd_baseline", "learning_rate": -0.1}],
}


class TestRangeErrorsBeforeAnyWrite:
    def test_a_later_group_stops_the_first_before_it_trains(self, project, capsys):
        run_exits_2_naming(project, capsys, TWO_GROUPS, "optimizer.learning_rate")

    def test_one_bad_run_of_a_group_writes_no_config(self, project, capsys):
        tree = {"task": {"name": "quadratic", "max_epochs": 2},
                "optimizer": {"name": "adamw_baseline", "learning_rate": [0.1, -0.1]}}
        run_exits_2_naming(project, capsys, tree, "optimizer.learning_rate")

    @pytest.mark.parametrize("key, value", [("lr_warmup", 0.0), ("lr_min_factor", 1.0)])
    def test_a_schedule_error_names_its_key(self, project, capsys, key, value):
        tree = {"task": {"name": "quadratic", "max_epochs": 2},
                "optimizer": {"name": "adamw_baseline", key: value}}
        run_exits_2_naming(project, capsys, tree, f"optimizer.{key}")


@pytest.mark.parametrize("block, key, value", [
    ("task", "max_epochs", 2.5),  # trained 2 epochs
    ("task", "max_epochs", True),  # trained 1 epoch
    ("engine", "seed", 1.5),  # trained seed 1 under another run id
    ("optimizer", "kappa_init_param", 2.5),  # an int default takes whole numbers only
    ("optimizer", "learning_rate", 10**30),  # beyond 64 bits: an object array in the stack
    ("optimizer", "learning_rate", float("nan")),
    ("engine", "output_dir", True),
])
def test_a_value_of_another_kind_exits_2(project, capsys, block, key, value):
    tree = {"task": {"name": "quadratic", "max_epochs": 2}, "optimizer": {"name": "adamcpr"}}
    tree.setdefault(block, {})[key] = value
    run_exits_2_naming(project, capsys, tree, f"{block}.{key}")


def test_a_whole_float_under_an_int_key_is_that_int(project, capsys):
    exp = project / "exp.yaml"
    exp.write_text("task: {name: quadratic, max_epochs: 2.0}\n"
                   "optimizer: {name: adamcpr, kappa_init_param: [1.0, 3]}\n")
    assert main(["run", str(exp)]) == 0
    results = [json.loads(p.read_text()) for p in project.glob("output/exp/runs/*/result.json")]
    assert [len(r["history"]) for r in results] == [2, 2]


HPO_BASE = {"experiment": {"task": {"name": "quadratic", "max_epochs": 3},
                           "optimizer": {"name": "adamw_baseline"}}, "n_trials": 3}


@pytest.mark.parametrize("path, distribution", [
    ("optimizer.learning_rate", {"categorical": ["x", 0.1]}),  # died in _build_schedule
    ("task.batch_size", {"uniform": [2, 8]}),  # trained batch size 7 under a config of 7.93
    ("task.batch_size", {"categorical": [4, 4.5]}),
])
def test_a_space_value_of_another_kind_exits_2(project, capsys, path, distribution):
    tree = {**HPO_BASE, "space": {path: distribution}}
    run_exits_2_naming(project, capsys, tree, path, command="hpo")


def test_a_memory_error_is_a_runtime_failure(project, capsys, monkeypatch):
    from optbench import engine

    def too_large(task_config):
        raise MemoryError()

    monkeypatch.setattr(engine, "build_task", too_large)
    exp = project / "exp.yaml"
    exp.write_text(yaml.safe_dump({"task": {"name": "quadratic"}, "optimizer": {"name": "adamw_baseline"}}))
    assert main(["run", str(exp)]) == 1
    assert capsys.readouterr().err == "error: MemoryError\n"


class TestCheckKeys:
    TREE = {"n": 4, "x": 0.5, "s": "a", "m": {"k": 1}, "entries": ["a"]}

    @pytest.mark.parametrize("node", [
        {"n": 3.0}, {"n": [1, 2.0]}, {"n": -(2**63)}, {"x": 1}, {"x": [0.1, 2]}, {"x": 1e300},
        {"s": ["a", "b"]}, {"m": {"k": 2}}, {"m": [{"k": 1}, {}]},
    ])
    def test_accepts(self, node):
        check_keys(node, self.TREE)

    @pytest.mark.parametrize("node, message", [
        ({"n": 2.5}, "`n` must be a whole number in the signed 64-bit range, got 2.5"),
        ({"n": True}, "`n` must be a whole number in the signed 64-bit range, got True"),
        ({"n": 2**63}, "`n` must be a number in the signed 64-bit range, got 9223372036854775808"),
        ({"n": 1e30}, "`n` must be a whole number in the signed 64-bit range, got 1e+30"),
        ({"x": 10**30}, "`x` must be a number in the signed 64-bit range"),
        ({"x": float("inf")}, "`x` must be a finite number, got inf"),
        ({"x": "1e-3"}, "`x` must be a finite number, got '1e-3'"),
        ({"x": [0.1, None]}, "`x` must be a finite number, got None"),
        ({"x": [[1]]}, "`x` must be a finite number, got [1]"),
        ({"s": 1}, "`s` must be a string, got 1"),
        ({"m": 3}, "`m` must be a mapping, got 3"),
        ({"m": [{"k": 1}, 3]}, "`m` must be a mapping, got 3"),
        ({"m": {"k": "x"}}, "`m.k` must be a whole number in the signed 64-bit range, got 'x'"),
        ({"x": {"y": 1}}, "unknown key `x.y`"),  # a subtree where a leaf is
        ({"entries": [["a"]]}, "`entries` must be a scalar, got ['a']"),  # a grid axis of lists
    ])
    def test_rejects(self, node, message):
        with pytest.raises(SchemaError, match=re.escape(message)):
            check_keys(node, self.TREE)

    def test_without_axes_a_list_default_takes_a_string_null_or_strings(self):
        for value in ("b", None, [], ["b", "c"]):
            check_keys({"entries": value}, self.TREE, axes=False)
        for value in (3, [1], [["a"]], {}):
            with pytest.raises(SchemaError, match="`entries` must be a string or a list of strings"):
                check_keys({"entries": value}, self.TREE, axes=False)
        with pytest.raises(SchemaError, match=re.escape("`s` must be a string, got ['a']")):
            check_keys({"s": ["a"]}, self.TREE, axes=False)


def test_packaged_defaults_hold_only_the_kinds_the_check_knows():
    def kinds(tree, prefix):
        for key, value in tree.items():
            if isinstance(value, dict):
                yield from kinds(value, f"{prefix}.{key}")
            else:
                yield f"{prefix}.{key}", type(value)

    root = Path(optbench.__file__).parent / "defaults"
    files = [root / "engine" / "default.yaml", *sorted(root.glob("tasks/*/default.yaml")),
             *sorted(root.glob("optimizers/*/default.yaml"))]
    assert len(files) == 9
    for path in files:
        for key, kind in kinds(yaml.safe_load(path.read_text()), str(path.relative_to(root))):
            assert kind in (str, int, float), key


# --- the gate: one or two values of a valid file swapped for values of a fixed pool

POOL = [None, True, 0, -1, 1.5, float("nan"), "x", [], [1], {}, {"a": 1}, [[1]], "1e-3", 10**30, [None]]

TWO_GROUP_RUN = {  # an optimizer branch list: two lockstep groups
    "task": {"name": "quadratic", "max_epochs": 2, "dim": 3},
    "optimizer": [{"name": "adamw_baseline", "learning_rate": [0.1, 0.01]},
                  {"name": "sgd_baseline", "learning_rate": 0.05, "momentum": 0.5}],
    "engine": {"seed": 1, "output_dir": "out"},
    "evaluation": {"output_types": ["csv"]},
}
SEARCH = {
    "experiment": {"task": {"name": "quadratic", "max_epochs": 3, "dim": 3},
                   "optimizer": {"name": "adamw_baseline"}, "engine": {"seed": 1, "output_dir": "out"}},
    "space": {"optimizer.learning_rate": {"log_uniform": [1.0e-3, 1.0e-1]},
              "optimizer.weight_decay": {"categorical": [0.0, 0.01]}},
    "n_trials": 3, "eta": 3, "seed": 0, "retrain_seeds": [1, 2],
}


def _sites(node, path=()):
    """The path of every value in ``node``, nested ones included."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _sites(value, path + (key,))


@settings(max_examples=150, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), command=st.sampled_from(["run", "hpo"]))
def test_every_mutant_exits_cleanly(data, command):
    tree = copy.deepcopy(TWO_GROUP_RUN if command == "run" else SEARCH)
    for _ in range(data.draw(st.integers(1, 2), label="swaps")):
        *parents, key = data.draw(st.sampled_from(list(_sites(tree))), label="site")
        node = tree
        for part in parents:
            node = node[part]
        node[key] = copy.deepcopy(data.draw(st.sampled_from(POOL), label="value"))
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # a mutated output_dir is relative to it
        try:
            Path("exp.yaml").write_text(yaml.safe_dump(tree))
            code = main([command, "exp.yaml"])
        finally:
            os.chdir(cwd)
        written = files_under(Path(tmp), Path(tmp) / "exp.yaml")
        aborted = [p for p in written if p.name == "result.json"
                   and json.loads(p.read_text())["status"] == "aborted"]
    assert code in (0, 1, 2)
    assert code != 1 or aborted, "exit 1 without an aborted run"
    assert code != 2 or written == [], f"exit 2 after writing {written}"
