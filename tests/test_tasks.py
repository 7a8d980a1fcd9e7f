import numpy as np
import pytest

from optbench import tasks as tasks_module
from optbench.errors import BadParameterError, ShapeMismatchError, UnknownNameError
from optbench.rng import Xoshiro256StarStar
from optbench.rundir import train_run
from optbench.tasks import (
    TASKS,
    MetricSpec,
    MlpSynthTask,
    accuracy,
    build_task,
    evaluate,
    forward_backward,
)
from conftest import resolve, with_epochs

ALL_TASKS = ["quadratic", "rosenbrock", "blobs_logreg", "mlp_synth"]


def fd_gradient(task, params, batch, h=1e-6):
    """Central-difference gradient; the independent oracle for backprop."""
    grad = np.zeros_like(params)
    for i in range(len(params)):
        plus = params.copy()
        plus[i] += h
        minus = params.copy()
        minus[i] -= h
        lp, _ = forward_backward(task, plus, batch)
        lm, _ = forward_backward(task, minus, batch)
        grad[i] = (lp - lm) / (2 * h)
    return grad


def rel_err(a, b):
    # the 1e-4 floor turns the check absolute for near-zero coordinates,
    # where central differences bottom out at ~1e-10 of roundoff noise
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-4)
    return np.abs(a - b) / scale


class TestBuild:
    def test_quadratic_shape(self):
        task = build_task({"name": "quadratic", "dim": 10})
        assert task.n_params == 10
        groups = task.groups
        assert len(groups) == 1 and groups[0].weight_decay_eligible
        assert task.metric == MetricSpec("loss", "minimize")
        eig = np.linalg.eigvalsh(task.a_matrix)
        assert eig.min() > 0  # SPD

    def test_mlp_hidden_knob_and_groups(self):
        task = build_task({"name": "mlp_synth", "model": {"num_hidden": 42}})
        groups = task.groups
        assert [g.name for g in groups] == ["w1", "b1", "w2", "b2"]
        assert [g.weight_decay_eligible for g in groups] == [True, False, True, False]
        assert groups[0].shape == (42, 2)
        assert task.n_params == 42 * 2 + 42 + 2 * 42 + 2

    def test_blobs_groups(self):
        task = build_task({"name": "blobs_logreg"})
        groups = task.groups
        assert len(groups) == 2
        assert groups[0].weight_decay_eligible and not groups[1].weight_decay_eligible

    def test_groups_cover_params_contiguously(self):
        for name in ALL_TASKS:
            task = build_task({"name": name})
            pos = 0
            for g in task.groups:
                assert g.start == pos and g.end > g.start
                assert g.size == int(np.prod(g.shape))
                pos = g.end
            assert pos == task.n_params == len(task.params)

    def test_build_deterministic(self):
        for name in ALL_TASKS:
            tasks_module._SPLITS_MEMO.clear()
            a = build_task({"name": name, "data_seed": 7})  # cold: generates the splits
            b = build_task({"name": name, "data_seed": 7})  # warm: reuses them
            tasks_module._SPLITS_MEMO.clear()
            c = build_task({"name": name, "data_seed": 7})  # cold again
            assert b.splits["train"].inputs is a.splits["train"].inputs
            assert c.splits["train"].inputs is not a.splits["train"].inputs
            for other in (b, c):
                assert a.params.tobytes() == other.params.tobytes()
                for split in ("train", "val", "test"):
                    for field in ("inputs", "targets", "indices"):
                        assert (
                            getattr(a.splits[split], field).tobytes()
                            == getattr(other.splits[split], field).tobytes()
                        )

    def test_data_seed_changes_data(self):
        a = build_task({"name": "blobs_logreg", "data_seed": 1})
        b = build_task({"name": "blobs_logreg", "data_seed": 2})
        assert a.splits["train"].inputs.tobytes() != b.splits["train"].inputs.tobytes()

    def test_splits_disjoint(self):
        for name in ALL_TASKS:
            task = build_task({"name": name})
            seen = set()
            for split in task.splits.values():
                ids = set(split.indices.tolist())
                assert not (ids & seen)
                seen |= ids

    def test_unknown_name(self):
        with pytest.raises(UnknownNameError):
            build_task({"name": "mnist"})

    def test_bad_sizes(self):
        with pytest.raises(BadParameterError):
            build_task({"name": "quadratic", "dim": 0})
        with pytest.raises(BadParameterError):
            build_task({"name": "quadratic", "max_epochs": 0})
        with pytest.raises(BadParameterError):
            build_task({"name": "quadratic", "batch_size": 0})
        with pytest.raises(BadParameterError):
            build_task({"name": "blobs_logreg", "train_size": 511})  # odd split

    def test_unknown_task_key_rejected(self):
        from optbench.errors import SchemaError

        with pytest.raises(SchemaError):
            build_task({"name": "quadratic", "dmi": 10})


MLP_GRID = """
task:
  name: mlp_synth
  max_epochs: 2
optimizer:
  name: sgd_baseline
engine:
  seed: [0, 1, 2]
"""


class TestSplitMemo:
    def test_memoized_splits_are_read_only(self):
        tasks_module._SPLITS_MEMO.clear()
        for task in (build_task({"name": "mlp_synth"}), build_task({"name": "mlp_synth"})):
            for split in task.splits.values():
                for array in (split.inputs, split.targets, split.indices):
                    with pytest.raises(ValueError):
                        array[0] = 1

    def test_training_keys_share_splits_data_keys_do_not(self):
        a = build_task({"name": "blobs_logreg", "max_epochs": 3, "batch_size": 8})
        b = build_task({"name": "blobs_logreg", "max_epochs": 9, "batch_size": 16})
        assert b.splits["train"].inputs is a.splits["train"].inputs
        c = build_task({"name": "blobs_logreg", "separation": 2.0})
        d = build_task({"name": "blobs_logreg", "data_seed": 43})
        for other in (c, d):
            assert other.splits["train"].inputs.tobytes() != a.splits["train"].inputs.tobytes()

    def test_other_class_under_same_name_gets_own_splits(self, monkeypatch):
        class ShiftedSpirals(MlpSynthTask):
            def _generate_splits(self, rng):
                splits = super()._generate_splits(rng)
                return {
                    name: tasks_module.DataSplit(s.inputs + 1.0, s.targets, s.indices)
                    for name, s in splits.items()
                }

        plain = build_task({"name": "mlp_synth"})
        monkeypatch.setitem(TASKS, "mlp_synth", ShiftedSpirals)
        shifted = build_task({"name": "mlp_synth"})
        assert isinstance(shifted, ShiftedSpirals)
        np.testing.assert_array_equal(
            shifted.splits["train"].inputs, plain.splits["train"].inputs + 1.0
        )

    def test_unkeyable_config_still_builds(self, monkeypatch):
        # a plugin task without default file accepts any value; one with no
        # JSON form skips the memo instead of failing the build
        monkeypatch.setitem(TASKS, "tagged_quadratic", tasks_module.QuadraticTask)
        cfg = {"name": "tagged_quadratic", "dim": 3, "tag": object()}
        cfg.update(max_epochs=1, batch_size=1, train_size=2, val_size=2, test_size=2)
        a = build_task(cfg)
        b = build_task(cfg)
        assert a.splits["train"].inputs is not b.splits["train"].inputs
        assert a.splits["train"].inputs.tobytes() == b.splits["train"].inputs.tobytes()

    def test_grid_and_extension_generate_data_once(self, monkeypatch, tmp_path):
        calls = []
        generate = MlpSynthTask._generate_splits

        def counting(self, rng):
            calls.append(self.data_seed)
            return generate(self, rng)

        monkeypatch.setattr(MlpSynthTask, "_generate_splits", counting)
        tasks_module._SPLITS_MEMO.clear()
        configs = resolve(MLP_GRID)
        assert len(configs) == 3
        for i, cfg in enumerate(configs):
            train_run(cfg, tmp_path / f"run{i}")
        result = train_run(with_epochs(configs[0], 3), tmp_path / "run0")
        assert result.status == "completed" and len(result.history) == 3
        assert calls == [42]


class TestForwardBackward:
    def test_quadratic_at_origin(self):
        task = build_task({"name": "quadratic", "dim": 10})
        loss, grad = forward_backward(task, np.zeros(10), task.splits["train"])
        assert loss == 0.0
        assert np.all(grad == 0.0)

    def test_rosenbrock_at_minimum(self):
        task = build_task({"name": "rosenbrock"})
        loss, grad = forward_backward(task, np.array([1.0, 1.0]), task.splits["train"])
        assert loss == 0.0
        assert np.all(grad == 0.0)

    def test_shape_mismatch(self):
        task = build_task({"name": "quadratic", "dim": 10})
        with pytest.raises(ShapeMismatchError):
            forward_backward(task, np.zeros(9), task.splits["train"])

    @pytest.mark.parametrize("name", ALL_TASKS)
    def test_gradient_matches_central_differences(self, name):
        task = build_task({"name": name})
        rng = Xoshiro256StarStar(2024)
        batch = task.splits["train"].take(np.arange(min(16, task.splits["train"].n)))
        for _ in range(20):
            params = rng.normal_array(task.n_params)
            _, grad = forward_backward(task, params, batch)
            fd = fd_gradient(task, params, batch)
            err = rel_err(grad, fd)
            assert err.max() < 1e-4, f"{name}: max rel err {err.max():.2e}"


class TestEvaluate:
    def test_blobs_zero_params_balanced_accuracy(self):
        task = build_task({"name": "blobs_logreg"})
        for split in ("train", "val", "test"):
            # all-zero logits tie on every example; ties predict class 0
            assert evaluate(task, np.zeros(task.n_params), split) == 0.5

    def test_quadratic_evaluate_equals_loss(self):
        task = build_task({"name": "quadratic"})
        params = task.params
        loss, _ = forward_backward(task, params, task.splits["val"])
        assert evaluate(task, params, "val") == loss

    def test_metric_bounds(self):
        for name in ("blobs_logreg", "mlp_synth"):
            task = build_task({"name": name})
            rng = Xoshiro256StarStar(5)
            for _ in range(5):
                v = evaluate(task, rng.normal_array(task.n_params), "val")
                assert 0.0 <= v <= 1.0

    def test_eval_deterministic(self):
        task = build_task({"name": "mlp_synth"})
        v1 = evaluate(task, task.params, "test")
        v2 = evaluate(task, task.params, "test")
        assert v1 == v2


class TestMetricHelpers:
    def test_accuracy(self):
        assert accuracy(np.array([0, 1, 1]), np.array([0, 1, 0])) == pytest.approx(2 / 3)

    def test_metric_spec_directions(self):
        assert MetricSpec("accuracy", "maximize").is_improvement(0.9, 0.8)
        assert not MetricSpec("accuracy", "maximize").is_improvement(0.8, 0.8)
        assert MetricSpec("loss", "minimize").is_improvement(0.1, 0.2)
        with pytest.raises(BadParameterError):
            MetricSpec("accuracy", "minimize")
        with pytest.raises(BadParameterError):
            MetricSpec("f1", "maximize")
