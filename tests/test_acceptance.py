"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import copy
import functools
import json
import math
import random
import time
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from optbench.config import expand_grid, merge_defaults, parse_experiment
from optbench.engine import load_checkpoint, read_run, train_run
from optbench.evaluation import AggregateCell, HeatmapSpec, render_heatmap
from optbench.hpo import hyperband_schedule, parse_space, run_hpo
from optbench.optim import OptimizerConfig, configure_optimizer
from optbench.rng import Xoshiro256StarStar
from optbench.sched import ScheduleSpec, lr_at
from optbench.tasks import build_task, forward_backward

from conftest import Interrupted, resolve, step_alone, stop_after_epoch
from test_optim import (
    assert_close,
    make_groups,
    make_schedule,
    random_case,
    ref_adamcpr,
    ref_adamw,
    ref_adafactor,
    ref_sgd,
)
from test_tasks import fd_gradient, rel_err

_SUITE_START = time.monotonic()


def criterion(name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {name}: FAIL")
                raise
            print(f"\nACCEPTANCE {name}: PASS")
            return result

        return wrapper

    return deco


GRID_8 = """
task:
  name: mlp_synth
  max_epochs: 10
  model:
    num_hidden: [16, 32]
optimizer:
  - name: adamw_baseline
    beta2: 0.98
  - name: sgd_baseline
    momentum: 0.5
engine:
  seed: [42, 47]
"""

GRID_120 = """
task:
  name: blobs_logreg
optimizer:
  - name: adamcpr_fast
    learning_rate: [1.e-1, 1.e-2, 1.e-3, 1.e-4]
    kappa_init_param: [1, 2, 4, 8, 16]
  - name: adamw_baseline
    learning_rate: [1.e-1, 1.e-2, 1.e-3, 1.e-4]
    weight_decay: [10, 1, 1.e-1, 1.e-2, 1.e-3]
engine:
  seed: [1, 2, 3]
evaluation:
  output_types: [pdf, png]
  plot:
    x_axis:
      - optimizer.kappa_init_param
      - optimizer.weight_decay
"""


@criterion("grid arithmetic (8 and 120 runs, exact)")
def test_grid_arithmetic_exact():
    configs_8 = expand_grid(merge_defaults(parse_experiment(GRID_8)))
    assert len(configs_8) == 8
    configs_120 = expand_grid(merge_defaults(parse_experiment(GRID_120)))
    assert len(configs_120) == 120


@criterion("schedule endpoints (warmup top and 1% floor, 1 ulp)")
def test_schedule_endpoints_exact():
    spec = ScheduleSpec(base_lr=0.1, total_steps=1000, warmup_fraction=0.01, min_lr_fraction=0.01)
    assert spec.warmup_steps == 10
    assert lr_at(spec, 9) == 0.1  # last warmup step: base lr exactly
    assert lr_at(spec, 999) == pytest.approx(0.001, abs=0.0)  # floor exactly
    # and for an arbitrary base lr, within 1 ulp
    spec2 = ScheduleSpec(base_lr=0.37, total_steps=500, warmup_fraction=0.01, min_lr_fraction=0.01)
    floor = lr_at(spec2, 499)
    assert abs(floor - 0.01 * 0.37) <= math.ulp(0.01 * 0.37)


@criterion("kappa semantics (fix step 40; warm-start phase bit-exact)")
def test_kappa_semantics_exact():
    groups = make_groups([((3, 2), True), ((4,), False)])
    sched = make_schedule(warmup_steps=10)
    cpr_cfg = OptimizerConfig("adamcpr", 0.1, kappa_init_param=4, schedule=sched)
    state = configure_optimizer(groups, cpr_cfg)
    assert state.cpr["g0"].fix_step == 40

    w_state = configure_optimizer(groups, OptimizerConfig("adamw_baseline", 0.1, weight_decay=0.0))
    rnd = random.Random(1234)
    p_cpr = np.array([rnd.gauss(0, 1) for _ in range(10)])
    p_w = p_cpr.copy()
    for step in range(39):
        g = np.array([rnd.gauss(0, 1) for _ in range(10)])
        step_alone(p_cpr, g, state, 0.02)
        step_alone(p_w, g, w_state, 0.02)
        assert p_cpr.tobytes() == p_w.tobytes()
    assert state.cpr["g0"].kappa is None  # not yet fixed
    g = np.array([rnd.gauss(0, 1) for _ in range(10)])
    step_alone(p_cpr, g, state, 0.02)  # step 40 fixes kappa
    assert state.cpr["g0"].kappa is not None


@criterion("optimizer oracle equivalence (100 cases each, rel 1e-12)")
def test_optimizer_oracles():
    checks = {
        "sgd_baseline": 0,
        "adamw_baseline": 0,
        "adamcpr": 0,
        "adafactor": 0,
    }
    rnd = random.Random(5150)
    for _ in range(100):
        groups, theta0, grad_seq, lr_seq = random_case(rnd, need_matrix=True)

        momentum = rnd.uniform(0.0, 1.0)
        wd = math.exp(rnd.uniform(math.log(1e-5), 0.0))
        state = configure_optimizer(
            groups, OptimizerConfig("sgd_baseline", 0.1, momentum=momentum, weight_decay=wd)
        )
        params = theta0.copy()
        for g, lr in zip(grad_seq, lr_seq):
            step_alone(params, g, state, lr)
        assert_close(params, ref_sgd(theta0, grad_seq, lr_seq, groups, momentum, wd))
        checks["sgd_baseline"] += 1

        omb1 = math.exp(rnd.uniform(math.log(1e-2), math.log(2e-1)))
        beta2 = rnd.uniform(0.9, 0.999)
        state = configure_optimizer(
            groups,
            OptimizerConfig("adamw_baseline", 0.1, one_minus_beta1=omb1, beta2=beta2, weight_decay=wd),
        )
        params = theta0.copy()
        for g, lr in zip(grad_seq, lr_seq):
            step_alone(params, g, state, lr)
        assert_close(params, ref_adamw(theta0, grad_seq, lr_seq, groups, 1 - omb1, beta2, 1e-8, wd))
        checks["adamw_baseline"] += 1

        fix_step = rnd.randint(0, len(grad_seq))
        state = configure_optimizer(
            groups,
            OptimizerConfig(
                "adamcpr", 0.1, one_minus_beta1=omb1, beta2=beta2,
                kappa_init_param=fix_step, schedule=make_schedule(warmup_steps=1),
            ),
        )
        params = theta0.copy()
        for g, lr in zip(grad_seq, lr_seq):
            step_alone(params, g, state, lr)
        assert_close(
            params, ref_adamcpr(theta0, grad_seq, lr_seq, groups, 1 - omb1, beta2, 1e-8, fix_step)
        )
        checks["adamcpr"] += 1

        state = configure_optimizer(
            groups, OptimizerConfig("adafactor", 0.1, weight_decay=wd, epsilon=1e-30)
        )
        params = theta0.copy()
        for g, lr in zip(grad_seq, lr_seq):
            step_alone(params, g, state, lr)
        assert_close(params, ref_adafactor(theta0, grad_seq, lr_seq, groups, 1e-30, wd))
        checks["adafactor"] += 1
    assert all(v == 100 for v in checks.values())


@criterion("gradient checks (4 tasks x 20 points, rel < 1e-4)")
def test_gradient_checks():
    rng = Xoshiro256StarStar(31337)
    for name in ("quadratic", "rosenbrock", "blobs_logreg", "mlp_synth"):
        task = build_task({"name": name})
        batch = task.splits["train"].take(np.arange(min(16, task.splits["train"].n)))
        for _ in range(20):
            params = rng.normal_array(task.n_params)
            _, grad = forward_backward(task, params, batch)
            fd = fd_gradient(task, params, batch, h=1e-6)
            assert rel_err(grad, fd).max() < 1e-4


RESUME_OPTIMIZERS = ("sgd_baseline", "adamw_baseline", "adamcpr", "adafactor")


@criterion("resume determinism (all interrupt epochs, bit-exact)")
def test_resume_determinism(tmp_path, monkeypatch):
    for task_name in ("quadratic", "mlp_synth"):
        for opt_name in RESUME_OPTIMIZERS:
            cfg = resolve(
                f"task: {{name: {task_name}, max_epochs: 10}}\n"
                f"optimizer: {{name: {opt_name}}}\n"
                "engine: {seed: 3}"
            )[0]
            base_dir = tmp_path / f"{task_name}_{opt_name}_full"
            train_run(cfg, base_dir)
            full_ckpt = load_checkpoint(base_dir / "checkpoints" / "last.ckpt")
            for interrupt in range(1, 10):
                wd = tmp_path / f"{task_name}_{opt_name}_stop{interrupt}"
                with monkeypatch.context() as mp:
                    stop_after_epoch(mp, interrupt)
                    with pytest.raises(Interrupted):
                        train_run(cfg, wd)
                assert read_run(wd).ckpt.epoch == interrupt
                train_run(cfg, wd)
                ckpt = load_checkpoint(wd / "checkpoints" / "last.ckpt")
                assert ckpt.params.tobytes() == full_ckpt.params.tobytes(), (
                    task_name, opt_name, interrupt,
                )
                assert ckpt.optimizer_state == full_ckpt.optimizer_state


@criterion("hyperband accounting (27@1 -> 9@3 -> 3@9 -> 1@27, 4 brackets)")
def test_hyperband_accounting(tmp_path):
    brackets = hyperband_schedule(27, 3)
    assert len(brackets) == 4
    assert brackets[0] == [(27, 1), (9, 3), (3, 9), (1, 27)]
    assert brackets[1] == [(12, 3), (4, 9), (2, 27)]
    assert brackets[2] == [(6, 9), (2, 27)]
    assert brackets[3] == [(4, 27)]

    # end to end on the quadratic task with a small bracket pass
    space = parse_space({"optimizer.learning_rate": {"log_uniform": [1e-5, 1e-1]}})
    base = resolve(
        "task: {name: quadratic, max_epochs: 3}\n"
        "optimizer: {name: adamw_baseline}\n"
        "engine: {seed: 1}"
    )[0]
    small = hyperband_schedule(3, 3)
    n_pass = sum(r[0][0] for r in small)
    run_hpo(base, space, n_pass, 1e-9, 3, 3, 17, tmp_path)
    expected = 0
    for rungs in small:
        expected += rungs[0][0] * rungs[0][1]
        for (n, r), (_, r_prev) in zip(rungs[1:], rungs):
            expected += n * (r - r_prev)
    consumed = 0
    for trial_dir in (tmp_path / "trials").iterdir():
        result = json.loads((trial_dir / "result.json").read_text())
        consumed += len(result["history"])
    assert consumed == expected


@criterion("best/last protocol (interior validation optimum)")
def test_best_last_protocol(tmp_path):
    from test_engine import VALLEY_CONFIG, ValleyTask
    from optbench.tasks import register_task

    register_task("valley", ValleyTask)
    workdir = tmp_path / "valley"
    result = train_run(copy.deepcopy(VALLEY_CONFIG), workdir)
    vals = [h["val_metric"] for h in result.history]
    best_epoch = min(range(len(vals)), key=lambda i: vals[i]) + 1
    assert 1 < best_epoch < len(vals)  # known interior optimum
    last_ckpt = load_checkpoint(workdir / "checkpoints" / "last.ckpt")
    assert last_ckpt.best_val == {"value": vals[best_epoch - 1], "epoch": best_epoch}
    assert result.best_val["epoch"] == best_epoch
    assert result.test_best == float((last_ckpt.best_params[0] - 1.0) ** 2)
    assert result.test_last == float((last_ckpt.params[0] - 1.0) ** 2)


@criterion("convergence sanity (quadratic < 1e-6; blobs >= 95%)")
def test_convergence_sanity(tmp_path):
    quad = resolve("task: {name: quadratic}\noptimizer: {name: adamw_baseline}")[0]
    steps_per_epoch = 2  # 16 train examples, batch 8
    assert quad["task"]["max_epochs"] * steps_per_epoch == 200
    result = train_run(quad, tmp_path / "quad")
    assert min(h["train_loss"] for h in result.history) < 1e-6

    blobs = resolve("task: {name: blobs_logreg}\noptimizer: {name: adamw_baseline}")[0]
    assert blobs["task"]["max_epochs"] == 30
    result = train_run(blobs, tmp_path / "blobs")
    assert max(h["val_metric"] for h in result.history) >= 0.95


@criterion("heatmap correctness (argmax outline, well-formed, stable)")
def test_heatmap_correctness():
    rnd = random.Random(40)
    lrs = [1e-1, 1e-2, 1e-3, 1e-4]
    wds = [10.0, 1.0, 1e-1, 1e-2, 1e-3]
    cells = []
    values = {}
    for wd in wds:
        for lr in lrs:
            v = rnd.random()
            values[(wd, lr)] = v
            cells.append(
                AggregateCell(
                    {"optimizer.weight_decay": wd, "optimizer.learning_rate": lr},
                    3, v, 0.01, v - 0.005, 0.01,
                )
            )
    spec = HeatmapSpec(x_key="optimizer.weight_decay")
    for direction, pick in (("maximize", max), ("minimize", min)):
        svg = render_heatmap(cells, spec, direction)
        root = ET.fromstring(svg)  # well-formed XML
        rects = [e for e in root.iter() if e.tag.endswith("rect") and e.get("stroke") == "#999999"]
        assert len(rects) == 20
        outline = [e for e in root.iter() if e.get("stroke-width") == "3"]
        assert len(outline) == 1
        best_xy = pick(values, key=lambda k: values[k])
        col = sorted(wds).index(best_xy[0])
        row = list(reversed(sorted(lrs))).index(best_xy[1])
        assert float(outline[0].get("x")) == pytest.approx(110 + col * 90 + 2)
        assert float(outline[0].get("y")) == pytest.approx(40 + row * 50 + 2)
        assert render_heatmap(cells, spec, direction) == svg  # byte-identical


@criterion("whole desk suite under 5 minutes")
def test_total_runtime_budget():
    elapsed = time.monotonic() - _SUITE_START
    print(f"\nacceptance suite elapsed: {elapsed:.1f}s")
    assert elapsed < 300.0
