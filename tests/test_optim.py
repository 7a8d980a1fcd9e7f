"""Optimizer steps checked against straight-line scalar reference code.

The reference implementations below are written independently of the
package (plain Python loops over coordinates) and serve as the oracle for
randomized trajectory comparisons.
"""

import dataclasses
import hashlib
import math
import random
from pathlib import Path

import numpy as np
import pytest
import yaml

import optbench
from optbench.errors import (
    BadHyperparameterError,
    NonFiniteError,
    SchemaError,
    ShapeMismatchError,
    UnknownNameError,
)
from optbench.optim import (
    OptimizerConfig,
    adamcpr_step,
    adamw_step,
    adafactor_step,
    configure_optimizer,
    optimizer_step,
    sgd_step,
)
from optbench.sched import ScheduleSpec
from optbench.tasks import ParamGroup
from conftest import group_buffers


def make_groups(shapes_eligible):
    groups, start = [], 0
    for i, (shape, eligible) in enumerate(shapes_eligible):
        size = int(np.prod(shape))
        groups.append(ParamGroup(f"g{i}", start, start + size, shape, eligible))
        start += size
    return groups


def make_schedule(warmup_steps=10, total_steps=1000):
    # pick the warmup fraction so the rounded warmup hits the target exactly
    return ScheduleSpec(
        base_lr=0.1, total_steps=total_steps, warmup_fraction=warmup_steps / total_steps
    )


# --- reference implementations (the oracle) --------------------------------

def ref_sgd(theta, grad_seq, lr_seq, groups, momentum, wd):
    theta = [float(x) for x in theta]
    vel = [0.0] * len(theta)
    for grads, lr in zip(grad_seq, lr_seq):
        for g in groups:
            for i in range(g.start, g.end):
                gi = float(grads[i])
                if g.weight_decay_eligible:
                    gi += wd * theta[i]
                vel[i] = momentum * vel[i] + gi
                theta[i] -= lr * vel[i]
    return theta


def ref_adamw(theta, grad_seq, lr_seq, groups, beta1, beta2, eps, wd):
    theta = [float(x) for x in theta]
    m = [0.0] * len(theta)
    v = [0.0] * len(theta)
    t = 0
    for grads, lr in zip(grad_seq, lr_seq):
        t += 1
        bc1 = 1.0 - beta1**t
        bc2 = 1.0 - beta2**t
        for g in groups:
            for i in range(g.start, g.end):
                gi = float(grads[i])
                m[i] = beta1 * m[i] + (1.0 - beta1) * gi
                v[i] = beta2 * v[i] + (1.0 - beta2) * gi * gi
                update = lr * (m[i] / bc1) / (math.sqrt(v[i] / bc2) + eps)
                if g.weight_decay_eligible and wd != 0.0:
                    update += lr * wd * theta[i]
                theta[i] -= update
    return theta


def ref_adamcpr(theta, grad_seq, lr_seq, groups, beta1, beta2, eps, fix_step):
    theta = [float(x) for x in theta]
    m = [0.0] * len(theta)
    v = [0.0] * len(theta)
    lam = {g.name: 0.0 for g in groups if g.weight_decay_eligible}
    kappa = {g.name: None for g in groups if g.weight_decay_eligible}
    t = 0
    for grads, lr in zip(grad_seq, lr_seq):
        if t == 0 and fix_step == 0:
            for g in groups:
                if g.weight_decay_eligible:
                    vals = theta[g.start : g.end]
                    kappa[g.name] = sum(x * x for x in vals) / len(vals)
        t += 1
        bc1 = 1.0 - beta1**t
        bc2 = 1.0 - beta2**t
        for g in groups:
            for i in range(g.start, g.end):
                gi = float(grads[i])
                m[i] = beta1 * m[i] + (1.0 - beta1) * gi
                v[i] = beta2 * v[i] + (1.0 - beta2) * gi * gi
                theta[i] -= lr * (m[i] / bc1) / (math.sqrt(v[i] / bc2) + eps)
        for g in groups:
            if not g.weight_decay_eligible or t < fix_step:
                continue
            vals = theta[g.start : g.end]
            stat = sum(x * x for x in vals) / len(vals)
            if t == fix_step:
                kappa[g.name] = stat
            elif kappa[g.name] is not None:
                lam[g.name] = max(0.0, lam[g.name] + (stat - kappa[g.name]))
                n = g.end - g.start
                for i in range(g.start, g.end):
                    theta[i] -= lr * lam[g.name] * (2.0 * theta[i] / n)
    return theta


def ref_adafactor(theta, grad_seq, lr_seq, groups, eps, wd):
    theta = [float(x) for x in theta]
    acc = {}
    for g in groups:
        if len(g.shape) == 2:
            acc[g.name] = ([0.0] * g.shape[0], [0.0] * g.shape[1])
        else:
            acc[g.name] = [0.0] * (g.end - g.start)
    t = 0
    for grads, lr in zip(grad_seq, lr_seq):
        t += 1
        b2t = 1.0 - t ** (-0.8)
        for g in groups:
            gvals = [float(x) for x in grads[g.start : g.end]]
            if len(g.shape) == 2:
                rows, cols = g.shape
                sq = [[gvals[r * cols + c] ** 2 for c in range(cols)] for r in range(rows)]
                racc, cacc = acc[g.name]
                for r in range(rows):
                    racc[r] = b2t * racc[r] + (1.0 - b2t) * (sum(sq[r]) / cols)
                for c in range(cols):
                    cacc[c] = b2t * cacc[c] + (1.0 - b2t) * (
                        sum(sq[r][c] for r in range(rows)) / rows
                    )
                rmean = sum(racc) / rows
                vhat = [
                    (racc[r] * cacc[c] / rmean if rmean > 0.0 else 0.0)
                    for r in range(rows)
                    for c in range(cols)
                ]
            else:
                vacc = acc[g.name]
                for i, gi in enumerate(gvals):
                    vacc[i] = b2t * vacc[i] + (1.0 - b2t) * gi * gi
                vhat = list(vacc)
            u = [gi / math.sqrt(vh + eps) for gi, vh in zip(gvals, vhat)]
            rms = math.sqrt(sum(x * x for x in u) / len(u))
            u = [x / max(1.0, rms) for x in u]
            for j, i in enumerate(range(g.start, g.end)):
                update = lr * u[j]
                if g.weight_decay_eligible and wd != 0.0:
                    update += lr * wd * theta[i]
                theta[i] -= update
    return theta


def assert_close(got, want, rel=1e-12):
    got = np.asarray(got)
    want = np.asarray(want)
    scale = np.maximum(np.maximum(np.abs(got), np.abs(want)), 1e-6)
    assert np.all(np.abs(got - want) <= rel * scale), (got, want)


def random_case(rnd, need_matrix=False):
    shapes = []
    for _ in range(rnd.randint(1, 3)):
        if rnd.random() < 0.5 or need_matrix:
            shapes.append(((rnd.randint(1, 3), rnd.randint(1, 3)), rnd.random() < 0.7))
            need_matrix = False
        else:
            shapes.append(((rnd.randint(1, 4),), rnd.random() < 0.7))
    groups = make_groups(shapes)
    n = groups[-1].end
    steps = rnd.randint(1, 5)
    theta0 = np.array([rnd.gauss(0, 1) for _ in range(n)])
    grad_seq = [np.array([rnd.gauss(0, 1) for _ in range(n)]) for _ in range(steps)]
    lr_seq = [math.exp(rnd.uniform(math.log(1e-5), math.log(1e-1))) for _ in range(steps)]
    return groups, theta0, grad_seq, lr_seq


def digest_case(h, params, state) -> None:
    """Feed a case's final params and per-group buffer slices to ``h``."""
    h.update(params.tobytes())
    for label, buf in group_buffers(state):
        h.update(label.encode())
        h.update(buf.tobytes())


class TestOracleEquivalence:
    """The oracle checks a tolerance; the pinned SHA-256 of every case's final
    params and buffers checks the bits, which the whole-vector updates must
    reproduce from the per-group code they replaced."""

    N_CASES = 100
    PINNED = {
        "sgd": "b48466c901822316072f5d87dac535d7af966868a1c78794056b71182138cab2",
        "adamw": "cb7f3981006a103b679c95c73f43c4b5297ff1b3b41a7326b8ce2dc3035ab514",
        "adamcpr": "23ade32562ba4d8a1b9e2aca70c62e9acdda62548b82b2dd4de6460f539b208b",
        "adafactor": "c2747bef7d0688304265327d8cea3707afa2910859cdf5a2b1d97c95a4be4423",
    }

    def test_sgd(self):
        rnd = random.Random(101)
        h = hashlib.sha256()
        for _ in range(self.N_CASES):
            groups, theta0, grad_seq, lr_seq = random_case(rnd)
            momentum = rnd.uniform(0.0, 1.0)
            wd = math.exp(rnd.uniform(math.log(1e-5), 0.0))
            cfg = OptimizerConfig(
                "sgd_baseline", 0.1, momentum=momentum, weight_decay=wd
            )
            state = configure_optimizer(groups, cfg)
            params = theta0.copy()
            for grads, lr in zip(grad_seq, lr_seq):
                sgd_step(params, grads, state, lr)
            ref = ref_sgd(theta0, grad_seq, lr_seq, groups, momentum, wd)
            assert_close(params, ref)
            assert np.all(np.isfinite(params))
            digest_case(h, params, state)
        assert h.hexdigest() == self.PINNED["sgd"]

    def test_adamw(self):
        rnd = random.Random(202)
        h = hashlib.sha256()
        for _ in range(self.N_CASES):
            groups, theta0, grad_seq, lr_seq = random_case(rnd)
            omb1 = math.exp(rnd.uniform(math.log(1e-2), math.log(2e-1)))
            beta2 = rnd.uniform(0.9, 0.999)
            wd = math.exp(rnd.uniform(math.log(1e-5), 0.0))
            cfg = OptimizerConfig(
                "adamw_baseline", 0.1, one_minus_beta1=omb1, beta2=beta2,
                weight_decay=wd, epsilon=1e-8,
            )
            state = configure_optimizer(groups, cfg)
            params = theta0.copy()
            for grads, lr in zip(grad_seq, lr_seq):
                adamw_step(params, grads, state, lr)
            ref = ref_adamw(theta0, grad_seq, lr_seq, groups, 1 - omb1, beta2, 1e-8, wd)
            assert_close(params, ref)
            assert np.all(np.isfinite(params))
            digest_case(h, params, state)
        assert h.hexdigest() == self.PINNED["adamw"]

    def test_adamcpr(self):
        rnd = random.Random(303)
        h = hashlib.sha256()
        for _ in range(self.N_CASES):
            groups, theta0, grad_seq, lr_seq = random_case(rnd)
            omb1 = math.exp(rnd.uniform(math.log(1e-2), math.log(2e-1)))
            beta2 = rnd.uniform(0.9, 0.999)
            fix_step = rnd.randint(0, len(grad_seq))
            cfg = OptimizerConfig(
                "adamcpr", 0.1, one_minus_beta1=omb1, beta2=beta2, epsilon=1e-8,
                kappa_init_param=fix_step, schedule=make_schedule(warmup_steps=1),
            )
            state = configure_optimizer(groups, cfg)
            assert all(cs.fix_step == fix_step for cs in state.cpr.values())
            params = theta0.copy()
            for grads, lr in zip(grad_seq, lr_seq):
                adamcpr_step(params, grads, state, lr)
            ref = ref_adamcpr(theta0, grad_seq, lr_seq, groups, 1 - omb1, beta2, 1e-8, fix_step)
            assert_close(params, ref)
            assert np.all(np.isfinite(params))
            assert all(cs.lam >= 0.0 for cs in state.cpr.values())
            digest_case(h, params, state)
        assert h.hexdigest() == self.PINNED["adamcpr"]

    def test_adafactor(self):
        rnd = random.Random(404)
        h = hashlib.sha256()
        for _ in range(self.N_CASES):
            groups, theta0, grad_seq, lr_seq = random_case(rnd, need_matrix=True)
            wd = math.exp(rnd.uniform(math.log(1e-5), 0.0)) if rnd.random() < 0.5 else 0.0
            cfg = OptimizerConfig("adafactor", 0.1, weight_decay=wd, epsilon=1e-30)
            state = configure_optimizer(groups, cfg)
            params = theta0.copy()
            for grads, lr in zip(grad_seq, lr_seq):
                adafactor_step(params, grads, state, lr)
            ref = ref_adafactor(theta0, grad_seq, lr_seq, groups, 1e-30, wd)
            assert_close(params, ref)
            assert np.all(np.isfinite(params))
            digest_case(h, params, state)
        assert h.hexdigest() == self.PINNED["adafactor"]


class TestScalarExamples:
    def test_sgd_single_step(self):
        groups = make_groups([((1,), False)])
        cfg = OptimizerConfig("sgd_baseline", 0.1, momentum=0.9, weight_decay=0.0)
        state = configure_optimizer(groups, cfg)
        params = np.array([1.0])
        sgd_step(params, np.array([0.5]), state, 0.1)
        assert state.buffers["velocity"][0] == 0.5
        assert params[0] == pytest.approx(0.95, abs=1e-15)

    def test_sgd_zero_grad_fixed_point(self):
        groups = make_groups([((3,), True)])
        cfg = OptimizerConfig("sgd_baseline", 0.1, momentum=0.9, weight_decay=0.0)
        state = configure_optimizer(groups, cfg)
        params = np.array([1.0, -2.0, 3.0])
        sgd_step(params, np.zeros(3), state, 0.1)
        assert np.all(params == np.array([1.0, -2.0, 3.0]))

    def test_sgd_no_momentum_is_plain(self):
        groups = make_groups([((2,), False)])
        cfg = OptimizerConfig("sgd_baseline", 0.1, momentum=0.0, weight_decay=0.0)
        state = configure_optimizer(groups, cfg)
        params = np.array([1.0, 2.0])
        g = np.array([0.3, -0.7])
        sgd_step(params, g, state, 0.05)
        assert_close(params, np.array([1.0, 2.0]) - 0.05 * g, rel=1e-15)

    def test_adamw_first_step_magnitude(self):
        groups = make_groups([((1,), True)])
        cfg = OptimizerConfig("adamw_baseline", 1e-3, one_minus_beta1=0.1, beta2=0.999,
                              weight_decay=0.0, epsilon=1e-8)
        state = configure_optimizer(groups, cfg)
        params = np.array([1.0])
        adamw_step(params, np.array([1.0]), state, 1e-3)
        delta = 1.0 - params[0]
        assert abs(delta - 1e-3) < 1e-8 * 1e-3

    def test_adamw_zero_grad_fresh_state(self):
        groups = make_groups([((2,), True)])
        cfg = OptimizerConfig("adamw_baseline", 0.1, weight_decay=0.0)
        state = configure_optimizer(groups, cfg)
        params = np.array([1.0, -1.0])
        adamw_step(params, np.zeros(2), state, 0.1)
        assert np.all(params == np.array([1.0, -1.0]))

    def test_adamw_pure_decay(self):
        groups = make_groups([((1,), True), ((1,), False)])
        cfg = OptimizerConfig("adamw_baseline", 0.1, weight_decay=0.5)
        state = configure_optimizer(groups, cfg)
        params = np.array([2.0, 2.0])
        adamw_step(params, np.zeros(2), state, 0.1)
        assert params[0] == pytest.approx((1 - 0.1 * 0.5) * 2.0, rel=1e-15)
        assert params[1] == 2.0  # ineligible group untouched

    @pytest.mark.parametrize("name", ["sgd_baseline", "adamw_baseline", "adamcpr"])
    def test_decay_keeps_ineligible_zero_sign_and_inf(self, name):
        # decay touches eligible groups only: multiplying the ineligible
        # group by a 0 weight would give 0.0 for -0.0 and nan for inf
        groups = make_groups([((2,), True), ((2,), False)])
        cfg = OptimizerConfig(name, 0.1, weight_decay=0.5, kappa_init_param=1,
                              schedule=make_schedule(warmup_steps=1))
        state = configure_optimizer(groups, cfg)
        params = np.array([1.0, 2.0, -0.0, np.inf])
        optimizer_step(params, np.zeros(4), state, 0.1)
        assert params[2:].tobytes() == np.array([-0.0, np.inf]).tobytes()
        assert np.all(np.isfinite(params[:2]))

    def test_adamcpr_matches_adamw_before_fix_step(self):
        groups = make_groups([((2, 2), True), ((3,), False)])
        sched = make_schedule(warmup_steps=10)
        cpr_cfg = OptimizerConfig("adamcpr", 0.1, kappa_init_param=4, schedule=sched)
        w_cfg = OptimizerConfig("adamw_baseline", 0.1, weight_decay=0.0)
        cpr_state = configure_optimizer(groups, cpr_cfg)
        w_state = configure_optimizer(groups, w_cfg)
        assert cpr_state.cpr["g0"].fix_step == 40
        rnd = random.Random(9)
        p1 = np.array([rnd.gauss(0, 1) for _ in range(7)])
        p2 = p1.copy()
        for step in range(39):  # strictly before the fix step
            g = np.array([rnd.gauss(0, 1) for _ in range(7)])
            adamcpr_step(p1, g, cpr_state, 0.01)
            adamw_step(p2, g, w_state, 0.01)
            assert p1.tobytes() == p2.tobytes()
        assert cpr_state.cpr["g0"].kappa is None

    def test_adamcpr_kappa_fixed_from_statistic(self):
        groups = make_groups([((2,), True)])
        cfg = OptimizerConfig("adamcpr", 0.1, kappa_init_param=1,
                              schedule=make_schedule(warmup_steps=1))
        state = configure_optimizer(groups, cfg)
        assert state.cpr["g0"].fix_step == 1
        params = np.array([3.0, 4.0])
        adamcpr_step(params, np.zeros(2), state, 0.1)  # zero grad: adam leaves params
        assert state.cpr["g0"].kappa == 12.5
        assert state.cpr["g0"].lam == 0.0
        assert np.all(params == np.array([3.0, 4.0]))

    def test_adamcpr_zero_init_param(self):
        groups = make_groups([((2,), True)])
        cfg = OptimizerConfig("adamcpr", 0.1, kappa_init_param=0,
                              schedule=make_schedule(warmup_steps=10))
        state = configure_optimizer(groups, cfg)
        assert state.cpr["g0"].fix_step == 0
        params = np.array([2.0, 0.0])
        adamcpr_step(params, np.array([0.1, -0.2]), state, 0.01)
        # kappa taken from the parameters before the first update
        assert state.cpr["g0"].kappa == 2.0

    def test_adamcpr_lambda_never_negative(self):
        groups = make_groups([((2,), True)])
        cfg = OptimizerConfig("adamcpr", 0.1, kappa_init_param=1,
                              schedule=make_schedule(warmup_steps=1))
        state = configure_optimizer(groups, cfg)
        params = np.array([1.0, 1.0])
        rnd = random.Random(4)
        kappas = []
        for _ in range(20):
            g = np.array([rnd.gauss(0, 1), rnd.gauss(0, 1)])
            adamcpr_step(params, g, state, 0.05)
            assert state.cpr["g0"].lam >= 0.0
            if state.cpr["g0"].kappa is not None:
                kappas.append(state.cpr["g0"].kappa)
        assert len(set(kappas)) == 1  # kappa written exactly once

    def test_adafactor_scalar_first_step(self):
        groups = make_groups([((1,), False)])
        cfg = OptimizerConfig("adafactor", 0.01, weight_decay=0.0, epsilon=1e-30)
        state = configure_optimizer(groups, cfg)
        params = np.array([1.0])
        adafactor_step(params, np.array([0.5]), state, 0.01)
        assert params[0] == pytest.approx(0.99, abs=1e-15)

    def test_adafactor_zero_grad_fixed_point(self):
        groups = make_groups([((2, 2), True), ((3,), False)])
        cfg = OptimizerConfig("adafactor", 0.1, weight_decay=0.0, epsilon=1e-30)
        state = configure_optimizer(groups, cfg)
        params = np.ones(7)
        adafactor_step(params, np.zeros(7), state, 0.1)
        assert np.all(params == np.ones(7))

    def test_adafactor_rank1_reconstruction_exact(self):
        # rank-1 gradient: the factored estimate equals g^2 elementwise, so
        # the first-step update matches the unfactored rule exactly
        groups = make_groups([((2, 2), False)])
        cfg = OptimizerConfig("adafactor", 0.01, weight_decay=0.0, epsilon=1e-30)
        state = configure_optimizer(groups, cfg)
        a = np.array([0.5, 2.0])
        b = np.array([1.5, 0.25])
        g = np.outer(a, b).ravel()
        params = np.zeros(4)
        adafactor_step(params, g, state, 0.01)
        # unfactored comparison: v = g^2 at t=1, u = g/|g| = sign(g), clipped at rms 1
        u = g / np.sqrt(g * g + 1e-30)
        rms = np.sqrt(np.mean(u * u))
        expected = -0.01 * u / max(1.0, rms)
        assert_close(params, expected, rel=1e-12)


class TestConfigure:
    def test_zero_init_buffers(self):
        groups = make_groups([((2, 3), True), ((4,), False), ((1,), True), ((2,), False)])
        cfg = OptimizerConfig("adamw_baseline", 0.1)
        state = configure_optimizer(groups, cfg)
        assert state.step_count == 0
        assert sorted(state.buffers) == ["m", "v"]
        for buf in state.buffers.values():
            assert buf.shape == (groups[-1].end,)
            assert np.all(buf == 0.0)

    def test_cpr_fix_step_from_warmup(self):
        groups = make_groups([((2,), True)])
        cfg = OptimizerConfig("adamcpr", 0.1, kappa_init_param=4,
                              schedule=make_schedule(warmup_steps=10))
        state = configure_optimizer(groups, cfg)
        assert state.cpr["g0"].fix_step == 40

    def test_unknown_name(self):
        groups = make_groups([((1,), True)])
        with pytest.raises(UnknownNameError):
            configure_optimizer(groups, OptimizerConfig("adamx", 0.1))

    def test_alias_dispatch(self):
        groups = make_groups([((2,), True)])
        cfg = OptimizerConfig("adamcpr_fast", 0.1, kappa_init_param=2,
                              schedule=make_schedule(warmup_steps=5))
        state = configure_optimizer(groups, cfg)
        assert state.cpr["g0"].fix_step == 10
        params = np.ones(2)
        optimizer_step(params, np.full(2, 0.5), state, 0.01)
        assert params[0] != 1.0

    def test_unknown_keys_rejected(self):
        with pytest.raises(SchemaError, match="optimizer.beta_2"):
            OptimizerConfig.from_dict(
                {"name": "adamw_baseline", "learning_rate": 0.1, "beta_2": 0.99}
            )
        with pytest.raises(SchemaError, match="optimizer.weight_decay"):  # not in its file
            OptimizerConfig.from_dict({"name": "adamcpr_fast", "learning_rate": 0.1, "weight_decay": 0.5})

    def test_from_dict_fills_nothing(self):
        cfg = OptimizerConfig.from_dict({"name": "sgd_baseline", "learning_rate": 0.1})
        assert cfg == OptimizerConfig("sgd_baseline", 0.1)

    def test_default_files_match_config_fields(self):
        # a file key the dataclass lacks would be accepted and never read;
        # a field no file holds could never be set from an experiment
        files = sorted((Path(optbench.__file__).parent / "defaults" / "optimizers").glob("*/default.yaml"))
        keys = set().union(*(yaml.safe_load(f.read_text()) for f in files))
        config_fields = {f.name for f in dataclasses.fields(OptimizerConfig)}
        assert len(files) == 4
        assert keys - config_fields <= {"name", "lr_warmup", "lr_min_factor"}
        assert config_fields - {"name", "schedule"} <= keys

    def test_bad_hyperparameters(self):
        with pytest.raises(BadHyperparameterError):
            OptimizerConfig("adamw_baseline", -0.1)
        with pytest.raises(BadHyperparameterError):
            OptimizerConfig("adamw_baseline", 0.1, one_minus_beta1=1.5)
        with pytest.raises(BadHyperparameterError):
            OptimizerConfig("adamw_baseline", 0.1, beta2=1.0)
        with pytest.raises(BadHyperparameterError):
            OptimizerConfig("sgd_baseline", 0.1, momentum=1.5)
        with pytest.raises(BadHyperparameterError):
            OptimizerConfig("adamcpr", 0.1, kappa_init_method="uniform")
        with pytest.raises(BadHyperparameterError):
            OptimizerConfig("adamw_baseline", 0.1, weight_decay=-1e-3)


class TestGuards:
    def test_shape_mismatch(self):
        groups = make_groups([((3,), True)])
        state = configure_optimizer(groups, OptimizerConfig("sgd_baseline", 0.1))
        with pytest.raises(ShapeMismatchError):
            sgd_step(np.zeros(2), np.zeros(2), state, 0.1)

    def test_non_finite_grads(self):
        groups = make_groups([((2,), True)])
        for name, step in (
            ("sgd_baseline", sgd_step),
            ("adamw_baseline", adamw_step),
            ("adafactor", adafactor_step),
        ):
            state = configure_optimizer(groups, OptimizerConfig(name, 0.1))
            with pytest.raises(NonFiniteError):
                step(np.zeros(2), np.array([np.nan, 0.0]), state, 0.1)

    def test_step_count_increments(self):
        groups = make_groups([((2,), True)])
        state = configure_optimizer(groups, OptimizerConfig("adamw_baseline", 0.1))
        params = np.ones(2)
        for t in range(1, 6):
            adamw_step(params, np.full(2, 0.1), state, 0.01)
            assert state.step_count == t

    def test_deterministic_trajectories(self):
        groups = make_groups([((2, 2), True)])
        rnd = random.Random(77)
        grads = [np.array([rnd.gauss(0, 1) for _ in range(4)]) for _ in range(5)]
        outs = []
        for _ in range(2):
            state = configure_optimizer(groups, OptimizerConfig("adamw_baseline", 0.1))
            params = np.ones(4)
            for g in grads:
                adamw_step(params, g, state, 0.02)
            outs.append(params.tobytes())
        assert outs[0] == outs[1]


STACK_CONFIGS = {  # per optimizer: runs of one stack whose hyperparameters differ
    "sgd_baseline": [dict(momentum=0.9, weight_decay=0.0), dict(momentum=0.5, weight_decay=0.1),
                     dict(momentum=0.0, weight_decay=0.01)],
    "adamw_baseline": [dict(weight_decay=0.0), dict(weight_decay=0.1, beta2=0.99),
                       dict(weight_decay=0.5, one_minus_beta1=0.2)],
    "adamcpr": [dict(kappa_init_param=0.0), dict(kappa_init_param=1.0), dict(kappa_init_param=3.0)],
    "adafactor": [dict(weight_decay=0.0), dict(weight_decay=0.1), dict(weight_decay=0.0, epsilon=1e-3)],
}


@pytest.mark.parametrize("name", sorted(STACK_CONFIGS))
def test_a_stack_steps_each_row_as_its_run_alone(name):
    """Every row of an OptimizerStack gets the bits its run gets when it steps
    alone, with other hyperparameters in the other rows, a row whose matrix
    gradient is zero (Adafactor's row mean 0), and a -0.0 and an inf in a
    group that does not decay."""
    from optbench.optim import OptimizerStack

    groups = make_groups([((3, 2), True), ((2,), False), ((4,), True)])
    rng = np.random.default_rng(5)
    configs = [OptimizerConfig(name, 0.05 * (i + 1), schedule=make_schedule(warmup_steps=2), **kw)
               for i, kw in enumerate(STACK_CONFIGS[name])]
    start = rng.normal(size=(3, 12))
    start[0, 6:8] = [-0.0, np.inf]
    if name != "adamcpr":  # row 0 does not decay: its eligible -0.0 and inf must stay
        start[0, :2] = [-0.0, np.inf]
    grads = rng.normal(size=(6, 3, 12))
    grads[:, 1, :6] = 0.0
    alone = []
    for i, cfg in enumerate(configs):
        state, params = configure_optimizer(groups, cfg), start[i].copy()
        for t, g in enumerate(grads):
            optimizer_step(params, g[i].copy(), state, 0.01 * (i + 1) / (t + 1))
        alone.append((params, state))
    states = [configure_optimizer(groups, cfg) for cfg in configs]
    stack, params = OptimizerStack(states), start.copy()
    for t, g in enumerate(grads):
        optimizer_step(params, g.copy(), stack, [0.01 * (i + 1) / (t + 1) for i in range(3)])
    for i, (want_params, want) in enumerate(alone):
        assert params[i].tobytes() == want_params.tobytes()
        assert states[i].step_count == want.step_count == len(grads)
        assert {k: b.tobytes() for k, b in states[i].buffers.items()} == {
            k: b.tobytes() for k, b in want.buffers.items()}
        assert states[i].cpr == want.cpr
