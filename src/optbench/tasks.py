"""Desk-scale differentiable tasks.

Each task bundles a model (as a flat parameter vector with named groups),
fixed train/val/test splits generated from the task's own data seed, and
a metric with an improvement direction. Gradients are analytic; there is
no autodiff framework underneath, which keeps runs bit-reproducible.

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

from .config import deep_merge, load_defaults
from .errors import (
    BadParameterError,
    SchemaError,
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
    indices: np.ndarray  # [n] global example ids, disjoint across splits

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    def take(self, idx: np.ndarray) -> "DataSplit":
        return DataSplit(self.inputs[idx], self.targets[idx], self.indices[idx])


def accuracy(predicted_classes: np.ndarray, targets: np.ndarray) -> float:
    return float(np.mean(predicted_classes == targets))


def _softmax_ce(logits: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy and d(loss)/d(logits) for integer class targets."""
    z = logits - logits.max(axis=1, keepdims=True)
    expz = np.exp(z)
    p = expz / expz.sum(axis=1, keepdims=True)
    n = logits.shape[0]
    logp = z - np.log(expz.sum(axis=1, keepdims=True))
    loss = -float(np.mean(logp[np.arange(n), y]))
    dlogits = p.copy()
    dlogits[np.arange(n), y] -= 1.0
    dlogits /= n
    return loss, dlogits


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
                for array in (split.inputs, split.targets, split.indices):
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

    def loss_grad(self, params: np.ndarray, batch: DataSplit) -> tuple[float, np.ndarray]:
        raise NotImplementedError

    def metric_value(self, params: np.ndarray, split: DataSplit) -> float:
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

    def _dummy_splits(self, rng, d: int = 1) -> dict[str, DataSplit]:
        """Splits for analytic tasks whose loss ignores the data."""
        splits = {}
        offset = 0
        for split_name in ("train", "val", "test"):
            n = self._sizes[f"{split_name}_size"]
            splits[split_name] = DataSplit(
                inputs=np.zeros((n, d)),
                targets=np.zeros(n),
                indices=np.arange(offset, offset + n, dtype=np.int64),
            )
            offset += n
        return splits

    def _balanced_splits(self, rng, sampler) -> dict[str, DataSplit]:
        """Two-class splits with exactly balanced labels per split.

        ``sampler(rng, cls)`` draws one input row for class ``cls``.
        """
        splits = {}
        offset = 0
        for split_name in ("train", "val", "test"):
            n = self._sizes[f"{split_name}_size"]
            if n % 2:
                raise BadParameterError(
                    f"{split_name}_size must be even for balanced classes"
                )
            rows, labels = [], []
            for cls in (0, 1):
                for i in range(n // 2):
                    rows.append(sampler(rng, cls, i, n // 2))
                    labels.append(cls)
            splits[split_name] = DataSplit(
                inputs=np.array(rows, dtype=np.float64),
                targets=np.array(labels, dtype=np.int64),
                indices=np.arange(offset, offset + n, dtype=np.int64),
            )
            offset += n
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
        return self._dummy_splits(rng)

    def _build_groups(self):
        return [ParamGroup("theta", 0, self.dim, (self.dim,), True)]

    def init_params(self, rng):
        return 0.5 * rng.normal_array(self.dim)

    def loss_grad(self, params, batch):
        loss = 0.5 * float(params @ self.a_matrix @ params)
        return loss, self.a_matrix @ params

    def metric_value(self, params, split):
        return self.loss_grad(params, split)[0]


class RosenbrockTask(TaskInstance):
    """The 2-D Rosenbrock valley; global minimum at (1, 1) with loss 0."""

    name = "rosenbrock"
    metric = MetricSpec("loss", "minimize")

    def __init__(self, cfg, data_seed):
        self.a = float(cfg["a"])
        self.b = float(cfg["b"])
        super().__init__(cfg, data_seed)

    def _generate_splits(self, rng):
        return self._dummy_splits(rng)

    def _build_groups(self):
        return [ParamGroup("theta", 0, 2, (2,), True)]

    def init_params(self, rng):
        return np.array([-1.2, 1.0]) + 0.1 * rng.normal_array(2)

    def loss_grad(self, params, batch):
        x, y = params
        a, b = self.a, self.b
        loss = (a - x) ** 2 + b * (y - x * x) ** 2
        gx = -2.0 * (a - x) - 4.0 * b * x * (y - x * x)
        gy = 2.0 * b * (y - x * x)
        return float(loss), np.array([gx, gy])

    def metric_value(self, params, split):
        return self.loss_grad(params, split)[0]


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

        def sampler(r, cls, i, m):
            return centers[cls] + r.normal_array(self.dim)

        return self._balanced_splits(rng, sampler)

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
        w = params[: 2 * d].reshape(2, d)
        b = params[2 * d :]
        return inputs @ w.T + b

    def loss_grad(self, params, batch):
        y = batch.targets.astype(np.int64)
        loss, dlogits = _softmax_ce(self._logits(params, batch.inputs), y)
        dw = dlogits.T @ batch.inputs
        db = dlogits.sum(axis=0)
        return loss, np.concatenate([dw.ravel(), db])

    def metric_value(self, params, split):
        pred = np.argmax(self._logits(params, split.inputs), axis=1)
        return accuracy(pred, split.targets.astype(np.int64))


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
        def sampler(r, cls, i, m):
            u = i / max(m - 1, 1)
            radius = 0.4 + 2.6 * u
            angle = self.turns * 2.0 * math.pi * u + cls * math.pi
            point = radius * np.array([math.cos(angle), math.sin(angle)])
            return point + self.noise * r.normal_array(2)

        return self._balanced_splits(rng, sampler)

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
        h = self.num_hidden
        w1 = params[: 2 * h].reshape(h, 2)
        b1 = params[2 * h : 3 * h]
        w2 = params[3 * h : 5 * h].reshape(2, h)
        b2 = params[5 * h :]
        return w1, b1, w2, b2

    def _forward(self, params, inputs):
        w1, b1, w2, b2 = self._unpack(params)
        hidden = np.tanh(inputs @ w1.T + b1)
        return hidden, hidden @ w2.T + b2

    def loss_grad(self, params, batch):
        w1, b1, w2, b2 = self._unpack(params)
        y = batch.targets.astype(np.int64)
        hidden, logits = self._forward(params, batch.inputs)
        loss, dlogits = _softmax_ce(logits, y)
        dw2 = dlogits.T @ hidden
        db2 = dlogits.sum(axis=0)
        dhidden = dlogits @ w2
        dz1 = dhidden * (1.0 - hidden * hidden)
        dw1 = dz1.T @ batch.inputs
        db1 = dz1.sum(axis=0)
        return loss, np.concatenate([dw1.ravel(), db1, dw2.ravel(), db2])

    def metric_value(self, params, split):
        _, logits = self._forward(params, split.inputs)
        pred = np.argmax(logits, axis=1)
        return accuracy(pred, split.targets.astype(np.int64))


TASKS: dict[str, type[TaskInstance]] = {
    "quadratic": QuadraticTask,
    "rosenbrock": RosenbrockTask,
    "blobs_logreg": BlobsLogregTask,
    "mlp_synth": MlpSynthTask,
}


def register_task(name: str, cls: type[TaskInstance]) -> None:
    """Add a task implementation to the registry (plugin hook)."""
    TASKS[name] = cls


def _check_known_paths(cfg: dict, defaults: dict, prefix: str = "task") -> None:
    for key, value in cfg.items():
        if key not in defaults:
            raise SchemaError(f"unknown key `{prefix}.{key}`")
        if isinstance(value, dict) and isinstance(defaults[key], dict):
            _check_known_paths(value, defaults[key], f"{prefix}.{key}")


def build_task(task_config: dict, data_seed: int | None = None) -> TaskInstance:
    """Build a task instance; missing keys are filled from its default file.

    The same (config, data_seed) pair always yields a bit-identical
    instance: splits, default initialization, and any derived constants.
    """
    name = task_config.get("name")
    if name not in TASKS:
        raise UnknownNameError(f"unknown task {name!r}; registered: {sorted(TASKS)}")
    task_defaults = load_defaults()["tasks"].get(name)
    if task_defaults is not None:
        _check_known_paths(task_config, task_defaults)
        cfg = deep_merge(task_defaults, task_config)
    else:
        cfg = dict(task_config)
    if data_seed is None:
        data_seed = int(cfg.get("data_seed", 42))
    return TASKS[name](cfg, data_seed)


def forward_backward(
    task: TaskInstance, params: np.ndarray, batch: DataSplit
) -> tuple[float, np.ndarray]:
    """Mean per-example loss over the batch and its exact gradient."""
    params = task.check_params(params)
    if batch.n == 0:
        raise ShapeMismatchError("empty batch")
    return task.loss_grad(params, batch)


def evaluate(task: TaskInstance, params: np.ndarray, split: str) -> float:
    """Metric value over a whole named split, deterministic at eval time."""
    params = task.check_params(params)
    if split not in task.splits:
        raise ShapeMismatchError(f"unknown split {split!r}")
    return task.metric_value(params, task.splits[split])


def parameter_groups(task: TaskInstance) -> list[ParamGroup]:
    return list(task.groups)
