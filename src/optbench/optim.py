"""Baseline optimizers behind a single plugin surface.

Every optimizer is a pair of functions: ``configure`` builds zeroed state
for a list of parameter groups, and ``step`` advances flat parameters in
place given flat gradients and the scheduled learning rate. Adding an
optimizer means adding one entry to ``OPTIMIZERS`` plus a default file;
nothing else in the harness changes. Variant names resolve through
``config.OPTIMIZER_ALIASES``.

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

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .config import OPTIMIZER_ALIASES, check_keys, default_tree
from .errors import (
    BadHyperparameterError,
    NonFiniteError,
    ShapeMismatchError,
    UnknownNameError,
)
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
        if self.learning_rate <= 0:
            raise BadHyperparameterError("learning_rate must be positive")
        if self.weight_decay < 0:
            raise BadHyperparameterError("weight_decay must be >= 0")
        if not 0 < self.one_minus_beta1 < 1:
            raise BadHyperparameterError("one_minus_beta1 must be in (0, 1)")
        if not 0 < self.beta2 < 1:
            raise BadHyperparameterError("beta2 must be in (0, 1)")
        if not 0 <= self.momentum <= 1:
            raise BadHyperparameterError("momentum must be in [0, 1]")
        if self.epsilon <= 0:
            raise BadHyperparameterError("epsilon must be positive")
        if self.kappa_init_param < 0:
            raise BadHyperparameterError("kappa_init_param must be >= 0")
        if self.kappa_init_method != "warm_start":
            raise BadHyperparameterError(
                f"unsupported kappa_init_method {self.kappa_init_method!r}"
            )

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


def _check(params: np.ndarray, grads: np.ndarray, state: OptimizerState) -> None:
    n = state.groups[-1].end
    if params.shape != (n,) or grads.shape != (n,):
        raise ShapeMismatchError(
            f"expected flat vectors of length {n}, got {params.shape} and {grads.shape}"
        )
    if not np.isfinite(grads).all():
        raise NonFiniteError("non-finite gradient")


def _add_decay(out: np.ndarray, params: np.ndarray, coef: float, groups) -> None:
    """``out += coef * params`` on the decay-eligible groups only. A 0/1 mask
    over all groups would not do: ``0 * theta`` flips the sign of a zero and
    turns an infinite parameter into nan."""
    for g in groups:
        if g.weight_decay_eligible:
            out[g.start : g.end] += coef * params[g.start : g.end]


def _configure_sgd(groups, config):
    n = groups[-1].end
    return OptimizerState("sgd_baseline", list(groups), config, buffers={"velocity": np.zeros(n)})


def sgd_step(params: np.ndarray, grads: np.ndarray, state: OptimizerState, lr_t: float) -> None:
    """Heavy-ball momentum with coupled L2 decay on eligible groups.

    g <- g + wd * theta;  v <- mu * v + g;  theta <- theta - lr * v
    """
    _check(params, grads, state)
    cfg = state.config
    state.step_count += 1
    grad = grads
    if cfg.weight_decay != 0.0:
        grad = grads.copy()
        _add_decay(grad, params, cfg.weight_decay, state.groups)
    v = state.buffers["velocity"]
    v *= cfg.momentum
    v += grad
    params -= lr_t * v


def _configure_adam_buffers(name, groups, config):
    n = groups[-1].end
    return OptimizerState(name, list(groups), config, buffers={"m": np.zeros(n), "v": np.zeros(n)})


def _adam_core(params, grads, state, lr_t, weight_decay):
    """Shared AdamW machinery; decay (if any) decoupled on eligible groups."""
    cfg = state.config
    state.step_count += 1
    t = state.step_count
    b1, b2 = cfg.beta1, cfg.beta2
    bc1 = 1.0 - b1**t
    bc2 = 1.0 - b2**t
    m, v = state.buffers["m"], state.buffers["v"]
    m *= b1
    m += (1.0 - b1) * grads
    v *= b2
    v += (1.0 - b2) * grads * grads
    m_hat = m / bc1
    v_hat = v / bc2
    update = lr_t * m_hat / (np.sqrt(v_hat) + cfg.epsilon)
    if weight_decay != 0.0:
        _add_decay(update, params, lr_t * weight_decay, state.groups)
    params -= update


def adamw_step(params: np.ndarray, grads: np.ndarray, state: OptimizerState, lr_t: float) -> None:
    """Adam with bias correction and decoupled weight decay:

    m <- b1*m + (1-b1)*g;  v <- b2*v + (1-b2)*g^2
    theta <- theta - lr * m_hat / (sqrt(v_hat) + eps) - lr * wd * theta
    """
    _check(params, grads, state)
    _adam_core(params, grads, state, lr_t, state.config.weight_decay)


def _configure_adamcpr(groups, config):
    state = _configure_adam_buffers("adamcpr", groups, config)
    if config.schedule is None:
        raise BadHyperparameterError("adamcpr needs a schedule to derive its fix step")
    fix_step = round(config.kappa_init_param * config.schedule.warmup_steps)
    for g in groups:
        if g.weight_decay_eligible:
            state.cpr[g.name] = CprState(fix_step=fix_step)
    return state


def adamcpr_step(params: np.ndarray, grads: np.ndarray, state: OptimizerState, lr_t: float) -> None:
    """AdamW without decay plus a constrained penalty on mean(theta^2).

    Until the fix step the update is bit-identical to adamw with wd=0.
    At the fix step each eligible group's bound kappa is frozen from the
    current statistic; afterwards a multiplier ratchets up whenever the
    statistic exceeds the bound and pushes the group back via the
    statistic's gradient 2*theta/n.
    """
    _check(params, grads, state)
    if state.step_count == 0:
        # a zero-length warm start pins kappa to the initial parameters
        for g in state.groups:
            cs = state.cpr.get(g.name)
            if cs is not None and cs.fix_step == 0 and cs.kappa is None:
                theta = params[g.start : g.end]
                cs.kappa = float((theta * theta).sum() / g.size)
    _adam_core(params, grads, state, lr_t, 0.0)
    t = state.step_count
    for g in state.groups:
        cs = state.cpr.get(g.name)
        if cs is None or t < cs.fix_step:
            continue
        sl = slice(g.start, g.end)
        theta = params[sl]
        stat = float((theta * theta).sum() / g.size)
        if t == cs.fix_step:
            cs.kappa = stat
        elif cs.kappa is not None:
            cs.lam = max(0.0, cs.lam + (stat - cs.kappa))
            params[sl] -= lr_t * cs.lam * (2.0 * theta / g.size)


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


def adafactor_step(params: np.ndarray, grads: np.ndarray, state: OptimizerState, lr_t: float) -> None:
    """Factored second moments for matrix groups, full for the rest.

    b2_t = 1 - t^-0.8; matrix groups track row/column means of g^2 and
    reconstruct v_hat = outer(row, col) / mean(row); the update is clipped
    to unit RMS and the scheduled learning rate is applied externally.
    """
    _check(params, grads, state)
    cfg = state.config
    state.step_count += 1
    t = state.step_count
    beta2t = 1.0 - t ** (-0.8)
    for g in state.groups:
        sl = slice(g.start, g.end)
        grad = grads[sl]
        if len(g.shape) == 2:
            rows, cols = g.shape
            sq = (grad * grad).reshape(g.shape)
            row, col = state.buffers[f"{g.name}.row"], state.buffers[f"{g.name}.col"]
            row *= beta2t
            row += (1.0 - beta2t) * (sq.sum(axis=1) / cols)
            col *= beta2t
            col += (1.0 - beta2t) * (sq.sum(axis=0) / rows)
            row_mean = row.sum() / rows
            if row_mean > 0.0:
                v_hat = np.outer(row, col).ravel() / row_mean
            else:
                v_hat = np.zeros(g.size)
        else:
            v = state.buffers[f"{g.name}.v"]
            v *= beta2t
            v += (1.0 - beta2t) * grad * grad
            v_hat = v
        u = grad / np.sqrt(v_hat + cfg.epsilon)
        rms = math.sqrt(float((u * u).sum() / g.size))
        u = u / max(1.0, rms)  # clip threshold d = 1
        update = lr_t * u
        if g.weight_decay_eligible and cfg.weight_decay != 0.0:
            update = update + lr_t * cfg.weight_decay * params[sl]
        params[sl] -= update


@dataclass(frozen=True)
class OptimizerImpl:
    configure: callable
    step: callable


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
    """Plugin hook: one configure function plus one step function."""
    OPTIMIZERS[name] = OptimizerImpl(configure, step)


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


def optimizer_step(params, grads, state: OptimizerState, lr_t: float) -> None:
    _impl(state.config.name).step(params, grads, state, lr_t)
