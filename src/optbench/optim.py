"""Baseline optimizers behind a single plugin surface.

Every optimizer is a pair of functions: ``configure`` builds zeroed state
for a list of parameter groups, and ``step`` advances parameters in place
given gradients and the scheduled learning rates. A built-in step takes an
``OptimizerStack`` of S >= 1 runs with [S, P] parameters and gradients and
a list of S learning rates; a lone run is S = 1. A ``register_optimizer``
plugin's step takes one run's row: its flat vectors, its ``OptimizerState``
and its learning rate. Adding an optimizer means adding one entry to
``OPTIMIZERS`` plus a default file; nothing else in the harness changes.
Variant names resolve through ``config.OPTIMIZER_ALIASES``.

Each run's hyperparameters enter a stack as a column of the Python floats
it would use alone, so it gets the same bits in any stack.

``OptimizerState.buffers`` maps a name to one float array. A moment of
sgd, adamw or adamcpr is one flat vector over all parameters and is updated
by one whole-vector expression. Only what the algorithm does per group
loops over groups: weight decay (eligible groups only), the AdamCPR
constraint and Adafactor's factored moments, whose buffers are named
``<group>.row``, ``<group>.col`` and ``<group>.v``.

Weight regularization differs by design between the baselines:

- ``sgd_baseline``    coupled L2 (decay added to the gradient)
- ``adamw_baseline``  decoupled decay applied directly to the parameters
- ``adamcpr``         no decay; a per-group constraint on mean(theta^2)
  activated after a warm-start phase
- ``adafactor``       decoupled decay, factored second moments
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from types import SimpleNamespace

import numpy as np

from .config import OPTIMIZER_ALIASES, check_keys, default_tree
from .errors import BadHyperparameterError, ShapeMismatchError, UnknownNameError
from .sched import ScheduleSpec
from .tasks import ParamGroup


@dataclass(frozen=True)
class OptimizerConfig:
    """Validated hyperparameters.

    beta1 is stored as its complement so it can be searched on a log scale.
    """

    name: str
    learning_rate: float
    schedule: ScheduleSpec | None = None
    weight_decay: float = 0.0
    one_minus_beta1: float = 0.1
    beta2: float = 0.999
    momentum: float = 0.9
    epsilon: float = 1e-8
    kappa_init_param: float = 0.0
    kappa_init_method: str = "warm_start"

    def __post_init__(self):
        rules = (  # (field, holds, what it must be): an error names the config key
            ("learning_rate", self.learning_rate > 0, "positive"),
            ("weight_decay", self.weight_decay >= 0, ">= 0"),
            ("one_minus_beta1", 0 < self.one_minus_beta1 < 1, "in (0, 1)"),
            ("beta2", 0 < self.beta2 < 1, "in (0, 1)"),
            ("momentum", 0 <= self.momentum <= 1, "in [0, 1]"),
            ("epsilon", self.epsilon > 0, "positive"),
            ("kappa_init_param", self.kappa_init_param >= 0, ">= 0"),
            ("kappa_init_method", self.kappa_init_method == "warm_start", "warm_start"),
        )
        for key, holds, what in rules:
            if not holds:
                raise BadHyperparameterError(f"`optimizer.{key}` must be {what}, got {getattr(self, key)!r}")

    @property
    def beta1(self) -> float:
        return 1.0 - self.one_minus_beta1

    @classmethod
    def from_dict(cls, cfg: dict, schedule: ScheduleSpec | None = None) -> "OptimizerConfig":
        """Check ``cfg`` against its optimizer's default tree, if it has one,
        and take the fields it states; unstated fields keep their defaults."""
        tree = default_tree("optimizers", cfg["name"])
        if tree is not None:
            check_keys(cfg, tree, "optimizer")
        kwargs = {f.name: cfg[f.name] for f in fields(cls) if f.name in cfg}
        return cls(**kwargs | {"schedule": schedule})


@dataclass
class CprState:
    """Constraint state for one eligible group."""

    fix_step: int
    lam: float = 0.0
    kappa: float | None = None


@dataclass
class OptimizerState:
    name: str
    groups: list[ParamGroup]
    config: OptimizerConfig
    step_count: int = 0
    buffers: dict[str, np.ndarray] = field(default_factory=dict)
    cpr: dict[str, CprState] = field(default_factory=dict)


class OptimizerStack:
    """S runs' states stepped together on [S, P] arrays. A built-in optimizer's
    buffers become row views of the stack's [S, ...] ones, so each run's state
    still encodes its own rows. ``config`` holds each hyperparameter as a ``_column``."""

    def __init__(self, states: list[OptimizerState]):
        self.states, self.groups = states, states[0].groups
        self.configs = [state.config for state in states]
        self.config = SimpleNamespace(name=self.configs[0].name, **{
            key: _column([getattr(c, key) for c in self.configs])
            for key in ("momentum", "beta1", "beta2", "epsilon", "weight_decay")
        })
        decaying = [i for i, c in enumerate(self.configs) if c.weight_decay != 0.0]
        # the rows ``_add_decay`` touches: all, some or none of the runs
        self.decay_rows = slice(None) if len(decaying) == len(states) else decaying or None
        self.decay_slices = [slice(g.start, g.end) for g in self.groups if g.weight_decay_eligible]
        self.buffers = {}
        if _impl(self.config.name).stacked:  # a plugin's step keeps its own buffers
            self.buffers = {k: np.array([s.buffers[k] for s in states]) for k in states[0].buffers}
            for i, state in enumerate(states):
                state.buffers = {k: b[i] for k, b in self.buffers.items()}

    def advance(self) -> int:
        """Count a step in every run; returns the step number, which all share."""
        for state in self.states:
            state.step_count += 1
        return state.step_count


def _column(values: list[float]):
    """Per-run floats as an [S, 1] column; one run's stays a float (same bits)."""
    return values[0] if len(values) == 1 else np.array(values)[:, None]


def _add_decay(out: np.ndarray, params: np.ndarray, coef, stack: "OptimizerStack") -> None:
    """``out += coef * params`` on the decay-eligible groups of the runs whose
    weight decay is not zero. A 0/1 mask would not do: ``0 * theta`` flips
    the sign of a zero and turns an infinite parameter into nan."""
    rows = stack.decay_rows
    if rows is None:
        return
    if not isinstance(rows, slice):  # some runs decay, so S > 1 and coef is a column
        coef = coef[rows]
    for sl in stack.decay_slices:
        out[rows, sl] += coef * params[rows, sl]


def _configure_sgd(groups, config):
    n = groups[-1].end
    return OptimizerState("sgd_baseline", list(groups), config, buffers={"velocity": np.zeros(n)})


def sgd_step(params: np.ndarray, grads: np.ndarray, stack: OptimizerStack, lr_t) -> None:
    """Heavy-ball momentum with coupled L2 decay on eligible groups.

    g <- g + wd * theta;  v <- mu * v + g;  theta <- theta - lr * v
    """
    cfg = stack.config
    stack.advance()
    grad = grads
    if stack.decay_rows is not None:
        grad = grads.copy()
        _add_decay(grad, params, cfg.weight_decay, stack)
    v = stack.buffers["velocity"]
    v *= cfg.momentum
    v += grad
    params -= _column(lr_t) * v


def _configure_adam_buffers(name, groups, config):
    n = groups[-1].end
    return OptimizerState(name, list(groups), config, buffers={"m": np.zeros(n), "v": np.zeros(n)})


def _adam_core(params, grads, stack, lr_t, decay: bool):
    """Shared AdamW machinery; decay (if any) decoupled on eligible groups."""
    cfg = stack.config
    t = stack.advance()
    b1, b2 = cfg.beta1, cfg.beta2
    bc1 = _column([1.0 - c.beta1**t for c in stack.configs])
    bc2 = _column([1.0 - c.beta2**t for c in stack.configs])
    m, v = stack.buffers["m"], stack.buffers["v"]
    m *= b1
    m += (1.0 - b1) * grads
    v *= b2
    g2 = (1.0 - b2) * grads
    g2 *= grads
    v += g2
    denom = np.sqrt(v / bc2)  # sqrt(v_hat)
    denom += cfg.epsilon
    lr = _column(lr_t)
    update = lr * (m / bc1)  # lr * m_hat
    update /= denom
    if decay:
        _add_decay(update, params, lr * cfg.weight_decay, stack)
    params -= update


def adamw_step(params: np.ndarray, grads: np.ndarray, stack: OptimizerStack, lr_t) -> None:
    """Adam with bias correction and decoupled weight decay:

    m <- b1*m + (1-b1)*g;  v <- b2*v + (1-b2)*g^2
    theta <- theta - lr * m_hat / (sqrt(v_hat) + eps) - lr * wd * theta
    """
    _adam_core(params, grads, stack, lr_t, decay=True)


def _configure_adamcpr(groups, config):
    state = _configure_adam_buffers("adamcpr", groups, config)
    if config.schedule is None:
        raise BadHyperparameterError("adamcpr needs a schedule to derive its fix step")
    fix_step = round(config.kappa_init_param * config.schedule.warmup_steps)
    for g in groups:
        if g.weight_decay_eligible:
            state.cpr[g.name] = CprState(fix_step=fix_step)
    return state


def adamcpr_step(params: np.ndarray, grads: np.ndarray, stack: OptimizerStack, lr_t) -> None:
    """AdamW without decay plus a constrained penalty on mean(theta^2).

    Until the fix step the update is bit-identical to adamw with wd=0.
    At the fix step each eligible group's bound kappa is frozen from the
    current statistic; afterwards a multiplier ratchets up whenever the
    statistic exceeds the bound and pushes the group back via the
    statistic's gradient 2*theta/n. Kappa and the multiplier are per-run floats.
    """
    states = stack.states
    if states[0].step_count == 0:
        # a zero-length warm start pins kappa to the initial parameters
        for i, state in enumerate(states):
            for g in stack.groups:
                cs = state.cpr.get(g.name)
                if cs is not None and cs.fix_step == 0 and cs.kappa is None:
                    theta = params[i, g.start : g.end]
                    cs.kappa = float((theta * theta).sum() / g.size)
    _adam_core(params, grads, stack, lr_t, decay=False)
    t = states[0].step_count
    for g in stack.groups:
        if g.name not in states[0].cpr:
            continue
        sl = slice(g.start, g.end)
        theta = params[:, sl]
        stats = ((theta * theta).sum(axis=1) / g.size).tolist()
        rows, coefs = [], []
        for i, state in enumerate(states):
            cs = state.cpr[g.name]
            if t == cs.fix_step:
                cs.kappa = stats[i]
            elif t > cs.fix_step and cs.kappa is not None:
                cs.lam = max(0.0, cs.lam + (stats[i] - cs.kappa))
                rows.append(i)
                coefs.append(lr_t[i] * cs.lam)
        if rows:
            rows = slice(None) if len(rows) == len(states) else rows
            params[rows, sl] -= _column(coefs) * (2.0 * theta[rows] / g.size)


def _configure_adafactor(groups, config):
    state = OptimizerState("adafactor", list(groups), config)
    for g in groups:
        if len(g.shape) == 2:
            rows, cols = g.shape
            state.buffers[f"{g.name}.row"] = np.zeros(rows)
            state.buffers[f"{g.name}.col"] = np.zeros(cols)
        else:
            state.buffers[f"{g.name}.v"] = np.zeros(g.size)
    return state


def adafactor_step(params: np.ndarray, grads: np.ndarray, stack: OptimizerStack, lr_t) -> None:
    """Factored second moments for matrix groups, full for the rest.

    b2_t = 1 - t^-0.8; matrix groups track row/column means of g^2 and
    reconstruct v_hat = outer(row, col) / mean(row); the update is clipped
    to unit RMS and the scheduled learning rate is applied externally.
    """
    cfg = stack.config
    t = stack.advance()
    beta2t = 1.0 - t ** (-0.8)
    v_hat = np.zeros(params.shape)  # a run whose row mean is not positive keeps v_hat = 0
    for g in stack.groups:
        sl = slice(g.start, g.end)
        grad = grads[:, sl]
        if len(g.shape) == 2:
            rows, cols = g.shape
            sq = (grad * grad).reshape(-1, rows, cols)
            row, col = stack.buffers[f"{g.name}.row"], stack.buffers[f"{g.name}.col"]
            row *= beta2t
            row += (1.0 - beta2t) * (sq.sum(axis=2) / cols)
            col *= beta2t
            col += (1.0 - beta2t) * (sq.sum(axis=1) / rows)
            means = row.sum(axis=1, keepdims=True) / rows
            outer = (row[:, :, None] * col[:, None, :]).reshape(len(row), g.size)
            np.divide(outer, means, out=v_hat[:, sl], where=means > 0.0)
        else:
            v = stack.buffers[f"{g.name}.v"]
            v *= beta2t
            v += (1.0 - beta2t) * grad * grad
            v_hat[:, sl] = v
    u = grads / np.sqrt(v_hat + cfg.epsilon)
    sq = u * u
    # each group's mean u^2, one group at a time: np.add.reduceat over the
    # group bounds sums in another order and changes the bits
    rms2 = np.empty((len(params), len(stack.groups)))
    for j, g in enumerate(stack.groups):
        rms2[:, j] = sq[:, g.start : g.end].sum(axis=1) / g.size
    clip = np.fmax(1.0, np.sqrt(rms2))  # clip to unit RMS: threshold d = 1; fmax maps nan to 1
    lr = _column(lr_t)
    update = lr * (u / clip.repeat([g.size for g in stack.groups], axis=1))
    _add_decay(update, params, lr * cfg.weight_decay, stack)
    params -= update


@dataclass(frozen=True)
class OptimizerImpl:
    configure: callable
    step: callable
    stacked: bool = True  # step takes an OptimizerStack; a plugin's takes one run


OPTIMIZERS: dict[str, OptimizerImpl] = {
    "sgd_baseline": OptimizerImpl(_configure_sgd, sgd_step),
    "adamw_baseline": OptimizerImpl(
        lambda groups, config: _configure_adam_buffers("adamw_baseline", groups, config),
        adamw_step,
    ),
    "adamcpr": OptimizerImpl(_configure_adamcpr, adamcpr_step),
    "adafactor": OptimizerImpl(_configure_adafactor, adafactor_step),
}


def register_optimizer(name: str, configure, step) -> None:
    """Plugin hook: one configure function plus one step function of one run."""
    OPTIMIZERS[name] = OptimizerImpl(configure, step, stacked=False)


def _impl(name: str) -> OptimizerImpl:
    impl = OPTIMIZERS.get(OPTIMIZER_ALIASES.get(name, name))
    if impl is None:
        raise UnknownNameError(f"unknown optimizer {name!r}; registered: {sorted(OPTIMIZERS)}")
    return impl


def configure_optimizer(groups: list[ParamGroup], config: OptimizerConfig) -> OptimizerState:
    """Zero-initialized state with buffer shapes matching the groups."""
    impl = _impl(config.name)
    if not groups:
        raise ShapeMismatchError("need at least one parameter group")
    return impl.configure(groups, config)


def optimizer_step(params: np.ndarray, grads: np.ndarray, stack: OptimizerStack, lr_t: list) -> None:
    """One step of an ``OptimizerStack`` on [S, P] arrays with a list of S
    learning rates: a built-in step takes the stack, a plugin's each row."""
    impl = _impl(stack.config.name)
    if impl.stacked:
        impl.step(params, grads, stack, lr_t)
    else:
        for i, run in enumerate(stack.states):
            impl.step(params[i], grads[i], run, lr_t[i])
