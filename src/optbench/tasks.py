"""Desk-scale differentiable tasks.

Each task bundles a model (as a flat parameter vector with named groups),
fixed train/val/test splits generated from the task's own data seed, and
a metric with an improvement direction. Gradients are analytic; there is
no autodiff framework underneath, which keeps runs bit-reproducible.
A split is a ``DataSplit(inputs, targets)``. A task's ``loss_grads`` and
``metric_values`` take the [S, P] parameters of S runs in lockstep; each
row's values must equal, bit for bit, those of that row alone at S = 1.

Registered tasks:

- ``quadratic``     convex quadratic bowl, metric = raw loss
- ``rosenbrock``    the classic banana valley, metric = raw loss
- ``blobs_logreg``  two Gaussian blobs, softmax regression, metric = accuracy
- ``mlp_synth``     two interleaved spirals, 2-layer tanh MLP, metric = accuracy
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import check_keys, deep_merge, default_tree
from .errors import (
    BadParameterError,
    ShapeMismatchError,
    UnknownNameError,
)
from .rng import Xoshiro256StarStar, derive_stream


@dataclass(frozen=True)
class MetricSpec:
    kind: str  # accuracy | loss
    direction: str  # maximize | minimize

    def __post_init__(self):
        expected = {"accuracy": "maximize", "loss": "minimize"}
        if self.kind not in expected:
            raise BadParameterError(f"unknown metric kind {self.kind!r}")
        if self.direction != expected[self.kind]:
            raise BadParameterError(
                f"metric {self.kind} must have direction {expected[self.kind]}"
            )

    def is_improvement(self, new: float, best: float) -> bool:
        return new > best if self.direction == "maximize" else new < best


@dataclass(frozen=True)
class ParamGroup:
    name: str
    start: int
    end: int
    shape: tuple[int, ...]
    weight_decay_eligible: bool

    @property
    def size(self) -> int:
        return self.end - self.start


@dataclass(frozen=True)
class DataSplit:
    inputs: np.ndarray  # [n, d]
    targets: np.ndarray  # [n]

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    def take(self, idx) -> "DataSplit":
        """Rows ``idx``: copies for an index array, views for a slice. An
        [S, n] index array takes S runs' rows; ``take(i)`` of those is run i's."""
        if isinstance(idx, np.ndarray) and idx.dtype.kind in "iu":  # take gathers faster than indexing
            return DataSplit(self.inputs.take(idx, axis=0), self.targets.take(idx, axis=0))
        return DataSplit(self.inputs[idx], self.targets[idx])


def accuracy(predicted_classes: np.ndarray, targets: np.ndarray):
    """The share of correct predictions; of each row, for [S, n] predictions."""
    correct = np.mean(predicted_classes == targets, axis=-1)  # counts are exact: any row sums alike
    return correct.tolist()


def _softmax_ce(logits: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean cross-entropy of each of S runs and d(loss)/d(logits), for
    logits [S, B, C] and integer class targets [S, B]."""
    s, n, c = logits.shape
    logits, y = logits.reshape(s * n, c), y.ravel()  # every run's examples as rows
    # Row max and row sum folded over the class columns, left to right: the
    # order of numpy's axis-1 reduction, bit for bit, only below 8 classes
    # (from 8 on it sums in pairwise blocks), at a fraction of its cost on a
    # short axis. Both classification tasks have 2 classes.
    top = logits[:, :1].copy()
    for k in range(1, c):
        np.maximum(top, logits[:, k : k + 1], out=top)
    z = logits - top
    expz = np.exp(z)
    total = expz[:, :1].copy()
    for k in range(1, c):
        total += expz[:, k : k + 1]
    target = np.arange(0, s * n * c, c) + y  # each example's target entry, as a flat index
    logp = z.take(target) - np.log(total[:, 0])  # each example's target log-probability
    losses = logp.reshape(s, n).sum(axis=1) / -n  # -(sum / n): IEEE division is sign-symmetric
    dlogits = expz / total
    dlogits.reshape(-1)[target] -= 1.0
    dlogits /= n
    return losses, dlogits.reshape(s, n, c)


# task config keys that shape training only, never the generated data
_TRAINING_KEYS = ("max_epochs", "batch_size")

# the most recently generated splits, keyed by _data_key: grids put the task
# axis slowest and budget extensions change only max_epochs, so consecutive
# builds in one process usually share one data set
_SPLITS_MEMO: dict[tuple, dict[str, DataSplit]] = {}


def _data_key(task_cls: type, cfg: dict, data_seed: int) -> tuple | None:
    """Memo key for a task's splits, or None if its config has no JSON form."""
    data_cfg = {k: v for k, v in cfg.items() if k not in _TRAINING_KEYS}
    try:
        return (task_cls, json.dumps(data_cfg, sort_keys=True), data_seed)
    except (TypeError, ValueError):
        return None


class TaskInstance:
    """A fully built task: model + splits + metric + training budget.

    ``_generate_splits`` may depend only on ``data_seed`` and on task config
    keys other than ``max_epochs`` and ``batch_size``: tasks of one class
    built from the same data config share read-only split arrays.
    """

    name: str = ""
    metric: MetricSpec

    def __init__(self, cfg: dict, data_seed: int):
        self.cfg = cfg
        self.data_seed = int(data_seed)
        self.max_epochs = int(cfg["max_epochs"])
        self.batch_size = int(cfg["batch_size"])
        if self.max_epochs < 1:
            raise BadParameterError("max_epochs must be >= 1")
        if self.batch_size < 1:
            raise BadParameterError("batch_size must be >= 1")
        sizes = {k: int(cfg[k]) for k in ("train_size", "val_size", "test_size")}
        if any(v < 1 for v in sizes.values()):
            raise BadParameterError("split sizes must be positive")
        self._sizes = sizes
        key = _data_key(type(self), cfg, self.data_seed)
        splits = _SPLITS_MEMO.get(key)
        if splits is None:
            data_rng = Xoshiro256StarStar(derive_stream(self.data_seed, "data"))
            splits = self._generate_splits(data_rng)
            for split in splits.values():
                for array in (split.inputs, split.targets):
                    array.flags.writeable = False
            _SPLITS_MEMO.clear()
            if key is not None:
                _SPLITS_MEMO[key] = splits
        self.splits = dict(splits)
        self.groups = self._build_groups()

    @cached_property
    def params(self) -> np.ndarray:
        """Default initialization from the data seed's ``init`` stream."""
        return self.init_params(Xoshiro256StarStar(derive_stream(self.data_seed, "init")))

    # per-task hooks ------------------------------------------------------
    def _generate_splits(self, rng) -> dict[str, DataSplit]:
        raise NotImplementedError

    def _build_groups(self) -> list[ParamGroup]:
        raise NotImplementedError

    def init_params(self, rng: Xoshiro256StarStar) -> np.ndarray:
        raise NotImplementedError

    def loss_grads(self, params: np.ndarray, batch: DataSplit) -> tuple[np.ndarray, np.ndarray]:
        """Losses [S] and gradients [S, P] of row i of [S, P] ``params`` on
        ``batch.take(i)``, for each run i."""
        raise NotImplementedError

    def metric_values(self, params: np.ndarray, split: DataSplit) -> list[float]:
        """The metric of each row of [S, P] ``params`` over ``split``."""
        raise NotImplementedError

    # common plumbing ------------------------------------------------------
    @property
    def n_params(self) -> int:
        return self.groups[-1].end

    def check_params(self, params: np.ndarray) -> np.ndarray:
        params = np.asarray(params, dtype=np.float64)
        if params.shape != (self.n_params,):
            raise ShapeMismatchError(
                f"expected {self.n_params} parameters, got shape {params.shape}"
            )
        return params

    def _dummy_splits(self) -> dict[str, DataSplit]:
        """Splits for analytic tasks whose loss ignores the data."""
        splits = {}
        for split_name in ("train", "val", "test"):
            n = self._sizes[f"{split_name}_size"]
            splits[split_name] = DataSplit(
                inputs=np.zeros((n, 1)),
                targets=np.zeros(n),
            )
        return splits

    def _balanced_splits(self, rng, dim: int, sampler) -> dict[str, DataSplit]:
        """Two-class splits with exactly balanced labels per split.

        A split's [n, dim] standard normal noise is drawn in one call, class
        0's rows first; ``sampler(cls, noise)`` turns class ``cls``'s rows of
        it into input rows.
        """
        splits = {}
        for split_name in ("train", "val", "test"):
            n = self._sizes[f"{split_name}_size"]
            if n % 2:
                raise BadParameterError(
                    f"{split_name}_size must be even for balanced classes"
                )
            noise = rng.normal_array(n * dim).reshape(n, dim)
            splits[split_name] = DataSplit(
                inputs=np.concatenate([sampler(0, noise[: n // 2]), sampler(1, noise[n // 2 :])]),
                targets=np.repeat(np.arange(2, dtype=np.int64), n // 2),
            )
        return splits


class QuadraticTask(TaskInstance):
    """Convex bowl 0.5 * theta' A theta with a fixed SPD matrix A."""

    name = "quadratic"
    metric = MetricSpec("loss", "minimize")

    def __init__(self, cfg, data_seed):
        self.dim = int(cfg["dim"])
        if self.dim < 1:
            raise BadParameterError("dim must be >= 1")
        super().__init__(cfg, data_seed)
        rng = Xoshiro256StarStar(derive_stream(self.data_seed, "matrix"))
        b = rng.normal_array(self.dim * self.dim).reshape(self.dim, self.dim)
        # Wishart-style SPD with a spectral floor, condition number is mild
        self.a_matrix = b @ b.T / self.dim + 0.5 * np.eye(self.dim)

    def _generate_splits(self, rng):
        return self._dummy_splits()

    def _build_groups(self):
        return [ParamGroup("theta", 0, self.dim, (self.dim,), True)]

    def init_params(self, rng):
        return 0.5 * rng.normal_array(self.dim)

    def loss_grads(self, params, batch):
        # one matrix-vector product and one dot per row, the bits of a lone
        # p @ A @ p and A @ p; a single gemm over the stack rounds otherwise
        losses = 0.5 * (params[:, None, :] @ self.a_matrix @ params[..., None])[:, 0, 0]
        return losses, (self.a_matrix @ params[..., None])[..., 0]

    def metric_values(self, params, split):
        return self.loss_grads(params, split)[0].tolist()


class RosenbrockTask(TaskInstance):
    """The 2-D Rosenbrock valley; global minimum at (1, 1) with loss 0."""

    name = "rosenbrock"
    metric = MetricSpec("loss", "minimize")

    def __init__(self, cfg, data_seed):
        self.a = float(cfg["a"])
        self.b = float(cfg["b"])
        super().__init__(cfg, data_seed)

    def _generate_splits(self, rng):
        return self._dummy_splits()

    def _build_groups(self):
        return [ParamGroup("theta", 0, 2, (2,), True)]

    def init_params(self, rng):
        return np.array([-1.2, 1.0]) + 0.1 * rng.normal_array(2)

    def loss_grads(self, params, batch):
        x, y = params[:, 0], params[:, 1]
        a, b = self.a, self.b
        # float_power calls C pow on each element, as ``** 2`` of a lone float64
        # does; ``** 2`` of an array multiplies, which rounds otherwise about
        # once in a thousand squares
        losses = np.float_power(a - x, 2) + b * np.float_power(y - x * x, 2)
        gx = -2.0 * (a - x) - 4.0 * b * x * (y - x * x)
        gy = 2.0 * b * (y - x * x)
        return losses, np.stack([gx, gy], axis=1)

    def metric_values(self, params, split):
        return self.loss_grads(params, split)[0].tolist()


class BlobsLogregTask(TaskInstance):
    """Softmax regression on two Gaussian blobs."""

    name = "blobs_logreg"
    metric = MetricSpec("accuracy", "maximize")

    def __init__(self, cfg, data_seed):
        self.dim = int(cfg["dim"])
        if self.dim < 1:
            raise BadParameterError("dim must be >= 1")
        self.separation = float(cfg["separation"])
        super().__init__(cfg, data_seed)

    def _generate_splits(self, rng):
        direction = np.ones(self.dim) / math.sqrt(self.dim)
        centers = [-0.5 * self.separation * direction, 0.5 * self.separation * direction]
        return self._balanced_splits(rng, self.dim, lambda cls, noise: centers[cls] + noise)

    def _build_groups(self):
        d = self.dim
        return [
            ParamGroup("weight", 0, 2 * d, (2, d), True),
            ParamGroup("bias", 2 * d, 2 * d + 2, (2,), False),
        ]

    def init_params(self, rng):
        return 0.01 * rng.normal_array(2 * self.dim + 2)

    def _logits(self, params, inputs):
        d = self.dim
        logits = inputs @ params[:, : 2 * d].reshape(-1, 2, d).transpose(0, 2, 1)
        logits += params[:, None, 2 * d :]
        return logits

    def loss_grads(self, params, batch):
        y = batch.targets.astype(np.int64, copy=False)
        losses, dlogits = _softmax_ce(self._logits(params, batch.inputs), y)
        dw = dlogits.transpose(0, 2, 1) @ batch.inputs
        return losses, np.concatenate([dw.reshape(len(params), -1), dlogits.sum(axis=1)], axis=1)

    def metric_values(self, params, split):
        return accuracy(np.argmax(self._logits(params, split.inputs), axis=2), split.targets)


class MlpSynthTask(TaskInstance):
    """Two interleaved spirals classified by a 2-layer tanh MLP."""

    name = "mlp_synth"
    metric = MetricSpec("accuracy", "maximize")

    def __init__(self, cfg, data_seed):
        self.num_hidden = int(cfg["model"]["num_hidden"])
        if self.num_hidden < 1:
            raise BadParameterError("model.num_hidden must be >= 1")
        self.noise = float(cfg["noise"])
        self.turns = float(cfg["turns"])
        super().__init__(cfg, data_seed)

    def _generate_splits(self, rng):
        def sampler(cls, noise):
            points = []
            for i in range(len(noise)):
                u = i / max(len(noise) - 1, 1)
                radius = 0.4 + 2.6 * u
                angle = self.turns * 2.0 * math.pi * u + cls * math.pi
                points.append([radius * math.cos(angle), radius * math.sin(angle)])
            return np.array(points) + self.noise * noise

        return self._balanced_splits(rng, 2, sampler)

    def _build_groups(self):
        h = self.num_hidden
        sizes = [("w1", (h, 2), True), ("b1", (h,), False), ("w2", (2, h), True), ("b2", (2,), False)]
        groups, start = [], 0
        for name, shape, eligible in sizes:
            size = int(np.prod(shape))
            groups.append(ParamGroup(name, start, start + size, shape, eligible))
            start += size
        return groups

    def init_params(self, rng):
        h = self.num_hidden
        w1 = rng.normal_array(h * 2) / math.sqrt(2.0)
        b1 = np.zeros(h)
        w2 = rng.normal_array(2 * h) / math.sqrt(h)
        b2 = np.zeros(2)
        return np.concatenate([w1, b1, w2, b2])

    def _unpack(self, params):
        """w1 [S, h, 2], b1 [S, 1, h], w2 [S, 2, h] and b2 [S, 1, 2] of [S, P] params."""
        h, s = self.num_hidden, len(params)
        w1 = params[:, : 2 * h].reshape(s, h, 2)
        b1 = params[:, None, 2 * h : 3 * h]
        w2 = params[:, 3 * h : 5 * h].reshape(s, 2, h)
        b2 = params[:, None, 5 * h :]
        return w1, b1, w2, b2

    def _forward(self, weights, inputs):
        w1, b1, w2, b2 = weights
        hidden = inputs @ w1.transpose(0, 2, 1)
        hidden += b1
        np.tanh(hidden, out=hidden)
        logits = hidden @ w2.transpose(0, 2, 1)
        logits += b2
        return hidden, logits

    def loss_grads(self, params, batch):
        weights = self._unpack(params)
        hidden, logits = self._forward(weights, batch.inputs)
        losses, dlogits = _softmax_ce(logits, batch.targets.astype(np.int64, copy=False))
        dw2 = dlogits.transpose(0, 2, 1) @ hidden
        db2 = dlogits.sum(axis=1)
        dz1 = dlogits @ weights[2]  # dhidden = dlogits @ w2
        hidden *= hidden  # hidden is not needed past here: 1 - hidden^2 in its place
        dz1 *= np.subtract(1.0, hidden, out=hidden)
        dw1 = dz1.transpose(0, 2, 1) @ batch.inputs
        db1 = dz1.sum(axis=1)
        s = len(params)
        return losses, np.concatenate([dw1.reshape(s, -1), db1, dw2.reshape(s, -1), db2], axis=1)

    def metric_values(self, params, split):
        _, logits = self._forward(self._unpack(params), split.inputs)
        return accuracy(np.argmax(logits, axis=2), split.targets)


TASKS: dict[str, type[TaskInstance]] = {
    "quadratic": QuadraticTask,
    "rosenbrock": RosenbrockTask,
    "blobs_logreg": BlobsLogregTask,
    "mlp_synth": MlpSynthTask,
}


def register_task(name: str, cls: type[TaskInstance]) -> None:
    """Add a task implementation to the registry (plugin hook)."""
    TASKS[name] = cls


def build_task(task_config: dict) -> TaskInstance:
    """Build a task instance; missing keys are filled from its default file,
    and a key the file lacks is a ``SchemaError``. A task registered without
    defaults takes its config as given.

    The same config (its ``data_seed`` included) always yields a
    bit-identical instance: splits, default initialization, and any derived
    constants.
    """
    name = task_config.get("name")
    if name not in TASKS:
        raise UnknownNameError(f"unknown task {name!r}; registered: {sorted(TASKS)}")
    tree = default_tree("tasks", name)
    if tree is not None:
        check_keys(task_config, tree, "task")
        cfg = deep_merge(tree, task_config)
    else:
        cfg = dict(task_config)
    return TASKS[name](cfg, int(cfg.get("data_seed", 42)))


def forward_backward(task: TaskInstance, params: np.ndarray, batch: DataSplit):
    """Mean per-example loss over the batch and its exact gradient, of one
    run's flat params, or [S] losses and [S, P] gradients of an [S, P] stack
    whose batch arrays lead with S. Only a single run's params and batch are
    checked; the task's losses and gradients are checked either way."""
    stacked = isinstance(params, np.ndarray) and params.ndim == 2
    if not stacked:
        params = task.check_params(params)[None]
        if batch.n == 0:
            raise ShapeMismatchError("empty batch")
        batch = batch.take(np.newaxis)
    losses, grads = task.loss_grads(params, batch)
    if np.shape(losses) != params.shape[:1] or np.shape(grads) != params.shape:
        raise ShapeMismatchError(
            f"losses of shape {np.shape(losses)} and gradients of shape"
            f" {np.shape(grads)} for {params.shape} parameters"
        )
    return (losses, grads) if stacked else (float(losses[0]), grads[0])


def evaluate(task: TaskInstance, params: np.ndarray, split: str):
    """Metric value over a whole named split, deterministic at eval time, of
    one run's flat params; or the list of S values of an [S, P] stack, each
    bit-identical to its row's lone value. A stack is evaluated
    ``max(1, S * batch_size // n)`` rows at a time, so that its activations
    over the n examples stay within a training step's. Only a single run's
    shapes are checked."""
    stacked = isinstance(params, np.ndarray) and params.ndim == 2
    if not stacked:
        params = task.check_params(params)[None]
    if split not in task.splits:
        raise ShapeMismatchError(f"unknown split {split!r}")
    data = task.splits[split]
    rows = max(1, len(params) * task.batch_size // data.n)
    values = [v for i in range(0, len(params), rows) for v in task.metric_values(params[i : i + rows], data)]
    return values if stacked else values[0]

