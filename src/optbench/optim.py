"""Baseline optimizers behind a single plugin surface.

Every optimizer is a pair of functions: ``configure`` builds zeroed state
for a list of parameter groups, and ``step`` advances flat parameters in
place given flat gradients and the scheduled learning rate. Adding an
optimizer means adding one entry to ``OPTIMIZERS`` plus a default file;
nothing else in the harness changes. Variant names resolve through
``config.OPTIMIZER_ALIASES``.

Weight regularization differs by design between the baselines:

- ``sgd_baseline``    coupled L2 (decay added to the gradient)
- ``adamw_baseline``  decoupled decay applied directly to the parameters
- ``adamcpr``         no decay; a per-group constraint on mean(theta^2)
  activated after a warm-start phase
- ``adafactor``       decoupled decay, factored second moments
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import OPTIMIZER_ALIASES
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
    """Validated hyperparameters; only fields meaningful for `name` are read.

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
        known = {
            "learning_rate",
            "weight_decay",
            "one_minus_beta1",
            "beta2",
            "momentum",
            "epsilon",
            "kappa_init_param",
            "kappa_init_method",
        }
        unknown = set(cfg) - known - {"name", "lr_warmup", "lr_min_factor"}
        if unknown:
            raise BadHyperparameterError(
                f"unknown optimizer keys {sorted(unknown)} for {cfg.get('name')!r}"
            )
        kwargs = {k: cfg[k] for k in known if k in cfg}
        return cls(name=cfg["name"], schedule=schedule, **kwargs)


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
    buffers: dict[str, dict[str, np.ndarray]] = field(default_factory=dict)
    cpr: dict[str, CprState] = field(default_factory=dict)


def _check(params: np.ndarray, grads: np.ndarray, state: OptimizerState) -> None:
    n = state.groups[-1].end
    if params.shape != (n,) or grads.shape != (n,):
        raise ShapeMismatchError(
            f"expected flat vectors of length {n}, got {params.shape} and {grads.shape}"
        )
    if not np.all(np.isfinite(grads)):
        raise NonFiniteError("non-finite gradient")


def _zeros_like_group(group: ParamGroup) -> np.ndarray:
    return np.zeros(group.size)


def _configure_sgd(groups, config):
    state = OptimizerState("sgd_baseline", list(groups), config)
    for g in groups:
        state.buffers[g.name] = {"velocity": _zeros_like_group(g)}
    return state


def sgd_step(params: np.ndarray, grads: np.ndarray, state: OptimizerState, lr_t: float) -> None:
    """Heavy-ball momentum with coupled L2 decay on eligible groups.

    g <- g + wd * theta;  v <- mu * v + g;  theta <- theta - lr * v
    """
    _check(params, grads, state)
    cfg = state.config
    state.step_count += 1
    for g in state.groups:
        sl = slice(g.start, g.end)
        grad = grads[sl]
        if g.weight_decay_eligible and cfg.weight_decay != 0.0:
            grad = grad + cfg.weight_decay * params[sl]
        v = state.buffers[g.name]["velocity"]
        v *= cfg.momentum
        v += grad
        params[sl] -= lr_t * v


def _configure_adam_buffers(name, groups, config):
    state = OptimizerState(name, list(groups), config)
    for g in groups:
        state.buffers[g.name] = {"m": _zeros_like_group(g), "v": _zeros_like_group(g)}
    return state


def _adam_core(params, grads, state, lr_t, weight_decay):
    """Shared AdamW machinery; decay (if any) decoupled on eligible groups."""
    cfg = state.config
    state.step_count += 1
    t = state.step_count
    b1, b2 = cfg.beta1, cfg.beta2
    bc1 = 1.0 - b1**t
    bc2 = 1.0 - b2**t
    for g in state.groups:
        sl = slice(g.start, g.end)
        grad = grads[sl]
        buf = state.buffers[g.name]
        m, v = buf["m"], buf["v"]
        m *= b1
        m += (1.0 - b1) * grad
        v *= b2
        v += (1.0 - b2) * grad * grad
        m_hat = m / bc1
        v_hat = v / bc2
        update = lr_t * m_hat / (np.sqrt(v_hat) + cfg.epsilon)
        if g.weight_decay_eligible and weight_decay != 0.0:
            update = update + lr_t * weight_decay * params[sl]
        params[sl] -= update


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
                cs.kappa = float(np.mean(theta * theta))
    _adam_core(params, grads, state, lr_t, 0.0)
    t = state.step_count
    for g in state.groups:
        cs = state.cpr.get(g.name)
        if cs is None or t < cs.fix_step:
            continue
        sl = slice(g.start, g.end)
        theta = params[sl]
        stat = float(np.mean(theta * theta))
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
            state.buffers[g.name] = {"row": np.zeros(rows), "col": np.zeros(cols)}
        else:
            state.buffers[g.name] = {"v": _zeros_like_group(g)}
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
        buf = state.buffers[g.name]
        if len(g.shape) == 2:
            sq = (grad * grad).reshape(g.shape)
            row, col = buf["row"], buf["col"]
            row *= beta2t
            row += (1.0 - beta2t) * sq.mean(axis=1)
            col *= beta2t
            col += (1.0 - beta2t) * sq.mean(axis=0)
            row_mean = row.mean()
            if row_mean > 0.0:
                v_hat = np.outer(row, col).ravel() / row_mean
            else:
                v_hat = np.zeros(g.size)
        else:
            v = buf["v"]
            v *= beta2t
            v += (1.0 - beta2t) * grad * grad
            v_hat = v
        u = grad / np.sqrt(v_hat + cfg.epsilon)
        rms = math.sqrt(float(np.mean(u * u)))
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
