import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optbench import tasks as tasks_module
from optbench.cli import main
from optbench.errors import BadParameterError, ShapeMismatchError, UnknownNameError
from optbench.rng import Xoshiro256StarStar
from optbench.rundir import train_run
from optbench.tasks import (
    TASKS,
    MetricSpec,
    MlpSynthTask,
    QuadraticTask,
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
                    for field in ("inputs", "targets"):
                        assert (
                            getattr(a.splits[split], field).tobytes()
                            == getattr(other.splits[split], field).tobytes()
                        )

    @pytest.mark.parametrize("data_seed", [7, 42])
    def test_splits_and_init_equal_scalar_normals_bit_for_bit(self, monkeypatch, data_seed):
        # long draws go through the numpy lanes; the scalar ``normal`` defines them
        def scalar(self, n):
            return np.array([self.normal() for _ in range(n)], dtype=np.float64)

        big = {"mlp_synth": {"model": {"num_hidden": 300}}, "quadratic": {"dim": 20}}
        for name in ALL_TASKS:
            cfg = {"name": name, "data_seed": data_seed, **big.get(name, {})}
            tasks_module._SPLITS_MEMO.clear()
            lanes = build_task(cfg)
            with monkeypatch.context() as mp:
                mp.setattr(Xoshiro256StarStar, "normal_array", scalar)
                tasks_module._SPLITS_MEMO.clear()
                ref = build_task(cfg)
            tasks_module._SPLITS_MEMO.clear()
            assert lanes.params.tobytes() == ref.params.tobytes(), name
            for split in ("train", "val", "test"):
                for field in ("inputs", "targets"):
                    a, b = getattr(lanes.splits[split], field), getattr(ref.splits[split], field)
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (name, split, field)

    def test_data_seed_changes_data(self):
        a = build_task({"name": "blobs_logreg", "data_seed": 1})
        b = build_task({"name": "blobs_logreg", "data_seed": 2})
        assert a.splits["train"].inputs.tobytes() != b.splits["train"].inputs.tobytes()

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
                for array in (split.inputs, split.targets):
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
                    name: tasks_module.DataSplit(s.inputs + 1.0, s.targets)
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

    def test_task_output_shapes_are_checked_alone_and_stacked(self, tmp_path, monkeypatch, capsys):
        class OneGradient(QuadraticTask):
            """Returns the first row's [P] gradient for the whole stack."""

            def loss_grads(self, params, batch):
                losses, grads = super().loss_grads(params, batch)
                return losses, grads[0]

        class OneLoss(QuadraticTask):
            """Returns the first row's loss for the whole stack."""

            def loss_grads(self, params, batch):
                losses, grads = super().loss_grads(params, batch)
                return losses[0], grads

        for cls in (OneGradient, OneLoss):
            monkeypatch.setitem(TASKS, "quadratic", cls)
            task = build_task({"name": "quadratic", "dim": 3})
            train = task.splits["train"]
            with pytest.raises(ShapeMismatchError):
                forward_backward(task, task.params, train)
            stack = np.array([task.params, task.params + 1.0])
            with pytest.raises(ShapeMismatchError):
                forward_backward(task, stack, train.take(np.zeros((2, 4), dtype=np.int64)))
        # a group of two seeds trains as one S = 2 stack: the run stops with exit 1
        monkeypatch.setitem(TASKS, "quadratic", OneGradient)
        monkeypatch.chdir(tmp_path)
        exp = tmp_path / "one_gradient.yaml"
        exp.write_text(
            "task: {name: quadratic, max_epochs: 1}\noptimizer: {name: sgd_baseline}\nengine: {seed: [0, 1]}\n"
        )
        capsys.readouterr()
        assert main(["run", str(exp)]) == 1
        assert "gradients of shape (10,) for (2, 10) parameters" in capsys.readouterr().err

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

    @pytest.mark.parametrize("name", ALL_TASKS)
    def test_a_stack_equals_lone_calls_bit_for_bit(self, monkeypatch, name):
        task = build_task({"name": name})
        rng = Xoshiro256StarStar(11)
        stack = np.array([rng.normal_array(task.n_params) for _ in range(9)])
        sizes = []
        real = task.metric_values

        def spy(params, split):
            sizes.append(len(params))
            return real(params, split)

        monkeypatch.setattr(task, "metric_values", spy)
        for split in ("val", "test"):
            lone = [evaluate(task, p, split).hex() for p in stack]
            gone = [0, 2, 3, 5, 6, 7, 8]  # rows 1 and 4 left the stack
            for rows in (list(range(9)), [4], gone):
                sizes.clear()
                values = evaluate(task, stack[rows], split)
                assert [v.hex() for v in values] == [lone[i] for i in rows], (split, rows)
                # at most max(1, S * batch_size // n) rows at a time
                chunk = max(1, len(rows) * task.batch_size // task.splits[split].n)
                assert sizes == [min(chunk, len(rows) - i) for i in range(0, len(rows), chunk)]
        if name in ("blobs_logreg", "mlp_synth"):  # accuracies of random params differ
            assert len(set(lone)) > 1

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


def _softmax_ce_by_reduction(logits, y):
    """``_softmax_ce`` with numpy's axis-1 max and sum and [row, class] indexing,
    the forms that its class fold and flat target index replace."""
    s, n, c = logits.shape
    logits, y = logits.reshape(s * n, c), y.ravel()
    z = logits - logits.max(axis=1, keepdims=True)
    expz = np.exp(z)
    total = expz.sum(axis=1, keepdims=True)
    rows = np.arange(s * n)
    logp = z[rows, y] - np.log(total[:, 0])
    losses = logp.reshape(s, n).sum(axis=1) / -n
    dlogits = expz / total
    dlogits[rows, y] -= 1.0
    dlogits /= n
    return losses, dlogits.reshape(s, n, c)


# few distinct values, so rows hold ties, and magnitudes up to 1e300
_LOGIT = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e-300, 1e300, -1e300]),
    st.floats(-1e300, 1e300),
)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(data=st.data(), c=st.integers(2, 7), s=st.sampled_from([1, 3, 6, 12]), n=st.integers(1, 5))
def test_softmax_ce_class_fold_matches_the_axis_reduction(data, c, s, n):
    logits = np.array(data.draw(st.lists(_LOGIT, min_size=s * n * c, max_size=s * n * c))).reshape(s, n, c)
    src, dst = data.draw(st.integers(0, c - 1)), data.draw(st.integers(0, c - 1))
    if data.draw(st.booleans()):
        logits[..., dst] = logits[..., src]  # two equal columns
    y = np.array(data.draw(st.lists(st.integers(0, c - 1), min_size=s * n, max_size=s * n))).reshape(s, n)
    got = tasks_module._softmax_ce(logits, y)
    want = _softmax_ce_by_reduction(logits, y)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def _quadratic_row(a_matrix, p):
    """Loss and gradient of one run's 1-D params, as the quadratic computed
    them per run before its hooks took stacks."""
    return 0.5 * float(p @ a_matrix @ p), a_matrix @ p


def _rosenbrock_row(a, b, p):
    """Loss and gradient of one run's 1-D params, as the rosenbrock computed
    them per run (scalar ``** 2``, that is C pow) before its hooks took stacks."""
    x, y = p
    loss = (a - x) ** 2 + b * (y - x * x) ** 2
    gx = -2.0 * (a - x) - 4.0 * b * x * (y - x * x)
    gy = 2.0 * b * (y - x * x)
    return float(loss), np.array([gx, gy])


# per-row magnitudes: from subnormal squares to losses and gradients that
# overflow to inf, and to inf - inf = nan in the rosenbrock gradient
_ROW_SCALE = st.sampled_from([0.0, 1e-300, 1e-160, 1.0, 1e3, 1e77, 1e153, 1e154, 1e155, 1e200])
_SPECIAL = st.sampled_from([np.inf, -np.inf, np.nan, -0.0, 1.7e308])


@settings(max_examples=150, derandomize=True, deadline=None)
@given(
    data=st.data(),
    name=st.sampled_from(["quadratic", "rosenbrock"]),
    s=st.sampled_from([1, 3, 12, 25]),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_analytic_tasks_equal_the_per_row_formulas(data, name, s, seed):
    if name == "quadratic":
        dim = data.draw(st.integers(1, 64))
        task = build_task({"name": name, "dim": dim})
        row = functools.partial(_quadratic_row, task.a_matrix)
    else:
        dim = 2
        a, b = data.draw(st.sampled_from([(1.0, 100.0), (0.5, 3.0), (-2.0, 1e-3)]))
        task = build_task({"name": name, "a": a, "b": b})
        row = functools.partial(_rosenbrock_row, a, b)
    scales = np.array(data.draw(st.lists(_ROW_SCALE, min_size=s, max_size=s)))
    params = Xoshiro256StarStar(seed).normal_array(s * dim).reshape(s, dim) * scales[:, None]
    for _ in range(data.draw(st.integers(0, 3))):  # an inf, nan or huge entry here and there
        params[data.draw(st.integers(0, s - 1)), data.draw(st.integers(0, dim - 1))] = data.draw(_SPECIAL)
    batch = task.splits["train"].take(np.zeros((s, 1), dtype=np.int64))
    with np.errstate(all="ignore"):
        losses, grads = task.loss_grads(params, batch)
        values = task.metric_values(params, task.splits["val"])
        want = [row(p) for p in params]
    assert losses.tobytes() == np.array([loss for loss, _ in want]).tobytes()
    assert grads.tobytes() == np.array([grad for _, grad in want]).tobytes()
    assert np.array(values).tobytes() == losses.tobytes()


def test_rosenbrock_losses_square_with_c_pow():
    # with glibc's pow, about one loss in 2,000 tells C pow from a multiply:
    # too rare for the stacks above, so 10,000 rows, which hold several
    task = build_task({"name": "rosenbrock"})
    params = Xoshiro256StarStar(1).normal_array(20_000).reshape(-1, 2) * 1e3
    losses, _ = task.loss_grads(params, task.splits["train"].take(np.zeros((len(params), 1), dtype=np.int64)))
    want = np.array([_rosenbrock_row(1.0, 100.0, p)[0] for p in params])
    assert losses.tobytes() == want.tobytes()
