"""One plugin contract: a name that ``merge_defaults`` accepts is one that
``build_task`` (or ``OptimizerConfig.from_dict`` plus ``configure_optimizer``)
accepts, for the built-ins and for plugins registered with their default tree."""

import pytest

from optbench import build_task, merge_defaults, parse_experiment
from optbench.engine import _build_schedule
from optbench.errors import SchemaError, UnknownNameError
from optbench.optim import OptimizerConfig, configure_optimizer
from optbench.tasks import QuadraticTask
from conftest import SIGNSGD_DEFAULTS, resolve, signsgd_configure, signsgd_step

BUILT_IN_TASKS = ["blobs_logreg", "mlp_synth", "quadratic", "rosenbrock"]
BUILT_IN_OPTIMIZERS = ["adafactor", "adamcpr", "adamw_baseline", "sgd_baseline"]
BOWL_DEFAULTS = {
    "dim": 3,
    "max_epochs": 2,
    "batch_size": 2,
    "train_size": 4,
    "val_size": 2,
    "test_size": 2,
    "data_seed": 1,
}


@pytest.fixture
def registered(plugins):
    """A plugin task ``bowl`` and a plugin optimizer ``signsgd``."""
    plugins.task("bowl", QuadraticTask, BOWL_DEFAULTS)
    plugins.optimizer("signsgd", signsgd_configure, signsgd_step, SIGNSGD_DEFAULTS)


def unknown_name_message(call) -> str:
    with pytest.raises(UnknownNameError) as info:
        call()
    return str(info.value)


@pytest.mark.parametrize("name", [*BUILT_IN_TASKS, "bowl"])
def test_a_registered_task_merges_and_builds(registered, name):
    [cfg] = resolve(f"task: {{name: {name}}}\noptimizer: {{name: sgd_baseline}}")
    assert build_task(cfg["task"]).n_params == build_task({"name": name}).n_params > 0


@pytest.mark.parametrize("name", [*BUILT_IN_OPTIMIZERS, "adamcpr_fast", "signsgd"])
def test_a_registered_optimizer_merges_and_configures(registered, name):
    [cfg] = resolve(f"task: {{name: bowl}}\noptimizer: {{name: {name}}}")
    task = build_task(cfg["task"])
    schedule = _build_schedule(task, cfg["optimizer"], task.max_epochs)
    state = configure_optimizer(task.groups, OptimizerConfig.from_dict(cfg["optimizer"], schedule))
    assert state.groups == task.groups


def test_an_unregistered_name_is_one_error_everywhere(registered):
    tasks = sorted([*BUILT_IN_TASKS, "bowl"])
    assert [
        unknown_name_message(lambda: merge_defaults(parse_experiment("task: {name: nope}"))),
        unknown_name_message(lambda: build_task({"name": "nope"})),
    ] == [f"unknown task 'nope'; registered: {tasks}"] * 2
    groups = build_task({"name": "bowl"}).groups
    optimizers = sorted([*BUILT_IN_OPTIMIZERS, "signsgd"])
    assert [
        unknown_name_message(lambda: resolve("task: {name: bowl}\noptimizer: {name: nope}")),
        unknown_name_message(lambda: OptimizerConfig.from_dict({"name": "nope", "learning_rate": 0.1})),
        unknown_name_message(lambda: configure_optimizer(groups, OptimizerConfig("nope", 0.1))),
    ] == [f"unknown optimizer 'nope'; registered: {optimizers}"] * 3


def test_a_plugin_tree_is_its_schema(registered):
    for call in (
        lambda: merge_defaults(parse_experiment("task: {name: bowl, dimm: 7}")),
        lambda: build_task({"name": "bowl", "dimm": 7}),
    ):
        with pytest.raises(SchemaError, match="unknown key `task.dimm`"):
            call()
    with pytest.raises(SchemaError, match="`task.dim` must be a whole number"):
        build_task({"name": "bowl", "dim": "x"})
    with pytest.raises(SchemaError, match="unknown key `optimizer.momentum`"):
        OptimizerConfig.from_dict({"name": "signsgd", "learning_rate": 0.1, "momentum": 0.5})


def test_a_registered_tree_is_a_copy(plugins):
    defaults = dict(BOWL_DEFAULTS)
    plugins.task("bowl", QuadraticTask, defaults)
    defaults["dim"] = 5
    assert build_task({"name": "bowl"}).dim == 3
