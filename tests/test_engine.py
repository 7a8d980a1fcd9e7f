import copy
import json

import numpy as np
import pytest

from optbench.engine import (
    Checkpoint,
    derive_seeds,
    extend_budget,
    load_checkpoint,
    resume_run,
    save_checkpoint,
    train_run,
)
from optbench.errors import (
    BadParameterError,
    CheckpointError,
    CorruptCheckpointError,
    RunIdMismatchError,
    VersionMismatchError,
)
from optbench.tasks import MetricSpec, ParamGroup, TaskInstance, register_task
from conftest import Interrupted, fail_write, quad_config, resolve, stop_after_epoch


def strip_wall(obj):
    if isinstance(obj, dict):
        return {k: strip_wall(v) for k, v in obj.items() if "wall_time" not in k}
    if isinstance(obj, list):
        return [strip_wall(v) for v in obj]
    return obj


class TestDeriveSeeds:
    def test_deterministic(self):
        assert derive_seeds(42) == derive_seeds(42)

    def test_streams_present_and_distinct(self):
        seeds = derive_seeds(42)
        assert set(seeds) == {"init", "shuffle"}
        assert seeds["init"] != seeds["shuffle"]

    def test_no_collisions_over_1000_seeds(self):
        per_stream = {"init": set(), "shuffle": set()}
        for s in range(1000):
            for name, value in derive_seeds(s).items():
                per_stream[name].add(value)
        assert len(per_stream["init"]) == 1000
        assert len(per_stream["shuffle"]) == 1000

    def test_negative_seed_rejected(self):
        with pytest.raises(BadParameterError):
            derive_seeds(-1)


class TestCheckpointCodec:
    def make_ckpt(self):
        return Checkpoint(
            epoch=3,
            step_count=12,
            params=np.array([1.0, -2.5, 3.75e-300, 0.1 + 0.2]),
            optimizer_state={
                "step_count": 12,
                "buffers": {"g0": {"m": {"shape": [2], "data": ["3fb999999999999a", "0000000000000000"]}}},
                "cpr": {},
            },
            rng_states={"init": "00000000deadbeef", "shuffle": "0000000000000042"},
            best_val={"value": 0.975, "epoch": 2},
            run_id="ab" * 8,
        )

    def test_roundtrip_equal(self, tmp_path):
        path = tmp_path / "x.ckpt"
        ckpt = self.make_ckpt()
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        assert loaded == ckpt

    def test_save_load_save_identical_bytes(self, tmp_path):
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(self.make_ckpt(), p1)
        save_checkpoint(load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_file_corrupt(self, tmp_path):
        path = tmp_path / "x.ckpt"
        save_checkpoint(self.make_ckpt(), path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 20])
        with pytest.raises(CorruptCheckpointError):
            load_checkpoint(path)

    def test_tampered_body_corrupt(self, tmp_path):
        path = tmp_path / "x.ckpt"
        save_checkpoint(self.make_ckpt(), path)
        path.write_bytes(path.read_bytes().replace(b'"epoch":3', b'"epoch":4'))
        with pytest.raises(CorruptCheckpointError):
            load_checkpoint(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "x.ckpt"
        ckpt = self.make_ckpt()
        ckpt.version = 99
        save_checkpoint(ckpt, path)
        with pytest.raises(VersionMismatchError):
            load_checkpoint(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "absent.ckpt")


class TestTrainRun:
    def test_quadratic_five_epochs_descends(self, workdir):
        result = train_run(quad_config(epochs=5), workdir)
        assert result.status == "completed"
        assert len(result.history) == 5
        losses = [h["train_loss"] for h in result.history]
        assert all(a > b for a, b in zip(losses, losses[1:]))

    def test_zero_epochs_rejected(self, workdir):
        cfg = quad_config(epochs=5)
        cfg["task"]["max_epochs"] = 0
        with pytest.raises(BadParameterError):
            train_run(cfg, workdir)

    def test_fresh_runs_bit_identical(self, tmp_path):
        cfg = quad_config(epochs=4)
        r1 = train_run(cfg, tmp_path / "a")
        r2 = train_run(cfg, tmp_path / "b")
        d1 = strip_wall(json.loads((tmp_path / "a" / "result.json").read_text()))
        d2 = strip_wall(json.loads((tmp_path / "b" / "result.json").read_text()))
        assert d1 == d2
        assert r1.test_last == r2.test_last

    def test_seed_changes_trajectory(self, tmp_path):
        r1 = train_run(quad_config(epochs=4, seed=1), tmp_path / "a")
        r2 = train_run(quad_config(epochs=4, seed=2), tmp_path / "b")
        assert r1.history[-1]["train_loss"] != r2.history[-1]["train_loss"]

    def test_completed_run_returns_cached(self, workdir):
        cfg = quad_config(epochs=3)
        r1 = train_run(cfg, workdir)
        stamp = (workdir / "result.json").stat().st_mtime_ns
        r2 = train_run(cfg, workdir)
        assert (workdir / "result.json").stat().st_mtime_ns == stamp
        assert r2.history == r1.history

    def test_workdir_layout(self, workdir):
        cfg = quad_config(epochs=2)
        result = train_run(cfg, workdir)
        assert (workdir / "config.resolved.yaml").exists()
        assert (workdir / "metrics.jsonl").exists()
        assert (workdir / "result.json").exists()
        assert (workdir / "checkpoints" / "last.ckpt").exists()
        assert (workdir / "checkpoints" / "best.ckpt").exists()
        lines = (workdir / "metrics.jsonl").read_text().splitlines()
        assert len(lines) == 2
        entry = json.loads(lines[0])
        assert set(entry) == {"epoch", "lr_last", "train_loss", "val_metric", "wall_time_s"}
        assert result.seeds_used == derive_seeds(cfg["engine"]["seed"])

    def test_partial_last_batch(self, workdir):
        cfg = quad_config(epochs=3)
        cfg["task"]["batch_size"] = 5  # 16 train rows -> 4 steps, last batch of 1
        result = train_run(cfg, workdir)
        assert result.status == "completed"
        assert result.schedule_info["total_steps"] == 3 * 4

    def test_aborted_run_keeps_loadable_state(self, workdir):
        cfg = resolve(
            "task: {name: rosenbrock, max_epochs: 6}\n"
            "optimizer: {name: sgd_baseline, learning_rate: 100.0, momentum: 0.9}"
        )[0]
        with np.errstate(all="ignore"):
            result = train_run(cfg, workdir)
        assert result.status == "aborted"
        assert result.error
        assert len(result.history) < 6
        ckpt = load_checkpoint(workdir / "checkpoints" / "last.ckpt")
        assert np.all(np.isfinite(ckpt.params))
        stored = json.loads((workdir / "result.json").read_text())
        assert stored["status"] == "aborted"


class TestResume:
    @pytest.mark.parametrize("interrupt", [1, 4, 9])
    def test_resume_bit_identical(self, tmp_path, monkeypatch, interrupt):
        cfg = quad_config(epochs=10)
        train_run(cfg, tmp_path / "full")
        stop_after_epoch(monkeypatch, interrupt)
        with pytest.raises(Interrupted):
            train_run(cfg, tmp_path / "part")
        assert load_checkpoint(tmp_path / "part" / "checkpoints" / "last.ckpt").epoch == interrupt
        assert not (tmp_path / "part" / "result.json").exists()
        resumed = resume_run(cfg, tmp_path / "part")
        assert resumed.status == "completed"
        ck_full = load_checkpoint(tmp_path / "full" / "checkpoints" / "last.ckpt")
        ck_part = load_checkpoint(tmp_path / "part" / "checkpoints" / "last.ckpt")
        assert ck_full.params.tobytes() == ck_part.params.tobytes()
        assert ck_full.optimizer_state == ck_part.optimizer_state
        d1 = strip_wall(json.loads((tmp_path / "full" / "result.json").read_text()))
        d2 = strip_wall(json.loads((tmp_path / "part" / "result.json").read_text()))
        assert d1 == d2

    def test_resume_rejects_changed_config(self, workdir, monkeypatch):
        cfg = quad_config(epochs=6)
        stop_after_epoch(monkeypatch, 2)
        with pytest.raises(Interrupted):
            train_run(cfg, workdir)
        changed = copy.deepcopy(cfg)
        changed["optimizer"]["learning_rate"] = 0.123
        with pytest.raises(RunIdMismatchError):
            resume_run(changed, workdir)

    def test_resume_completed_returns_stored(self, workdir):
        cfg = quad_config(epochs=3)
        train_run(cfg, workdir)
        stamp = (workdir / "checkpoints" / "last.ckpt").stat().st_mtime_ns
        result = resume_run(cfg, workdir)
        assert result.status == "completed"
        assert (workdir / "checkpoints" / "last.ckpt").stat().st_mtime_ns == stamp

    def test_resume_without_checkpoint(self, workdir):
        with pytest.raises(CheckpointError):
            resume_run(quad_config(), workdir)


class TestExtendBudget:
    def test_extension_grows_history(self, workdir):
        cfg = quad_config(epochs=3)
        train_run(cfg, workdir)
        result = extend_budget(cfg, workdir, 9)
        assert result.status == "completed"
        assert len(result.history) == 9
        assert result.budgets == [3, 9]
        # schedule re-totalized over the new horizon
        assert result.schedule_info["total_steps"] == 9 * 2

    def test_extension_prefix_preserved(self, workdir):
        cfg = quad_config(epochs=3)
        first = train_run(cfg, workdir)
        extended = extend_budget(cfg, workdir, 6)
        assert strip_wall(extended.history[:3]) == strip_wall(first.history)

    def test_shrink_rejected(self, workdir):
        cfg = quad_config(epochs=5)
        train_run(cfg, workdir)
        with pytest.raises(BadParameterError):
            extend_budget(cfg, workdir, 4)

    def test_other_changes_rejected(self, workdir):
        cfg = quad_config(epochs=3)
        train_run(cfg, workdir)
        changed = copy.deepcopy(cfg)
        changed["optimizer"]["learning_rate"] = 0.5
        with pytest.raises(RunIdMismatchError):
            extend_budget(changed, workdir, 9)

    def test_each_lifecycle_writes_config_once_and_reads_last_at_most_once(
        self, workdir, monkeypatch
    ):
        from optbench import engine

        calls = []
        for name in ("load_checkpoint", "dump_config"):
            real = getattr(engine, name)

            def counted(*args, _name=name, _real=real):
                calls.append(_name)
                return _real(*args)

            monkeypatch.setattr(engine, name, counted)
        cfg = quad_config(epochs=3)
        train_run(cfg, workdir)  # best params stay in memory: no load
        assert calls == ["dump_config"]
        calls.clear()
        result = extend_budget(cfg, workdir, 6)
        assert result.best_val["epoch"] > 3  # so best.ckpt need not be read back
        assert sorted(calls) == ["dump_config", "load_checkpoint"]

    def test_double_extension_accumulates_budgets(self, workdir):
        cfg = quad_config(epochs=2)
        train_run(cfg, workdir)
        extend_budget(cfg, workdir, 4)
        result = extend_budget(cfg, workdir, 8)
        assert result.budgets == [2, 4, 8]
        assert len(result.history) == 8


class ValleyTask(TaskInstance):
    """Train pulls theta toward 2; val/test measure distance to 1.

    The validation metric therefore has a known interior optimum while
    training keeps improving, which pins the best/last protocol.
    """

    name = "valley"
    metric = MetricSpec("loss", "minimize")

    def _generate_splits(self, rng):
        return self._dummy_splits(rng)

    def _build_groups(self):
        return [ParamGroup("theta", 0, 1, (1,), True)]

    def init_params(self, rng):
        return np.zeros(1)

    def loss_grad(self, params, batch):
        x = params[0]
        return float((x - 2.0) ** 2), np.array([2.0 * (x - 2.0)])

    def metric_value(self, params, split):
        if self.cfg.get("flat_metric"):
            return 0.5
        return float((params[0] - 1.0) ** 2)


VALLEY_CONFIG = {
    "task": {
        "name": "valley",
        "train_size": 4,
        "val_size": 2,
        "test_size": 2,
        "batch_size": 4,
        "max_epochs": 10,
        "data_seed": 42,
    },
    "optimizer": {
        "name": "sgd_baseline",
        "learning_rate": 0.1,
        "momentum": 0.0,
        "weight_decay": 0.0,
        "lr_warmup": 0.01,
        "lr_min_factor": 0.01,
    },
    "engine": {"seed": 1, "output_dir": "out"},
    "evaluation": {},
}


class TestOptimizerPlugin:
    def test_custom_optimizer_end_to_end(self, workdir):
        # the plugin surface: one configure function, one step function,
        # one defaults entry; nothing else changes
        import numpy as np

        from optbench import register_optimizer, register_optimizer_defaults
        from optbench.optim import OptimizerState

        def configure(groups, config):
            return OptimizerState("signsgd", list(groups), config)

        def step(params, grads, state, lr_t):
            state.step_count += 1
            params -= lr_t * np.sign(grads)

        register_optimizer("signsgd", configure, step)
        register_optimizer_defaults(
            "signsgd", {"learning_rate": 0.05, "lr_warmup": 0.01, "lr_min_factor": 0.01}
        )
        try:
            cfg = resolve(
                "task: {name: quadratic, max_epochs: 5}\noptimizer: {name: signsgd}"
            )[0]
            result = train_run(cfg, workdir)
            assert result.status == "completed"
            assert result.history[0]["train_loss"] > result.history[-1]["train_loss"]
        finally:
            from optbench import config as cfgmod
            from optbench import optim as optmod

            optmod.OPTIMIZERS.pop("signsgd", None)
            cfgmod._EXTRA_DEFAULTS["optimizers"].pop("signsgd", None)


class TestBestLastProtocol:
    def test_interior_best_epoch(self, workdir):
        register_task("valley", ValleyTask)
        result = train_run(copy.deepcopy(VALLEY_CONFIG), workdir)
        assert result.status == "completed"
        vals = [h["val_metric"] for h in result.history]
        best_epoch = min(range(len(vals)), key=lambda i: vals[i]) + 1
        assert 1 < best_epoch < 10  # interior optimum by construction
        assert result.best_val == {"value": min(vals), "epoch": best_epoch}
        best_ckpt = load_checkpoint(workdir / "checkpoints" / "best.ckpt")
        last_ckpt = load_checkpoint(workdir / "checkpoints" / "last.ckpt")
        assert best_ckpt.epoch == best_epoch
        assert result.test_best == float((best_ckpt.params[0] - 1.0) ** 2)
        assert result.test_last == float((last_ckpt.params[0] - 1.0) ** 2)
        assert result.test_best < result.test_last

    def test_tie_keeps_earlier_epoch(self, workdir):
        register_task("valley", ValleyTask)
        cfg = copy.deepcopy(VALLEY_CONFIG)
        cfg["task"]["flat_metric"] = True  # every epoch scores exactly 0.5
        result = train_run(cfg, workdir)
        vals = {h["val_metric"] for h in result.history}
        assert vals == {0.5}
        assert result.best_val["epoch"] == 1
        best_ckpt = load_checkpoint(workdir / "checkpoints" / "best.ckpt")
        assert best_ckpt.epoch == 1

    def test_kill_between_best_and_last_keeps_best(self, tmp_path, monkeypatch):
        # epochs 1-3 all improve, so the third best.ckpt write is epoch 3's;
        # a kill there must not leave last.ckpt naming an epoch best.ckpt lacks
        register_task("valley", ValleyTask)
        full = train_run(copy.deepcopy(VALLEY_CONFIG), tmp_path / "full")
        assert full.best_val["epoch"] == 3
        fail_write(monkeypatch, "best.ckpt", 3)
        with pytest.raises(Interrupted):
            train_run(copy.deepcopy(VALLEY_CONFIG), tmp_path / "part")
        resumed = resume_run(copy.deepcopy(VALLEY_CONFIG), tmp_path / "part")
        assert resumed.test_best == full.test_best
        assert load_checkpoint(tmp_path / "part" / "checkpoints" / "best.ckpt").epoch == 3


def _run_files(workdir):
    """Every file of a finished run, wall-clock fields dropped."""
    files = {
        "result": strip_wall(json.loads((workdir / "result.json").read_text())),
        "metrics": [
            strip_wall(json.loads(line))
            for line in (workdir / "metrics.jsonl").read_text().splitlines()
        ],
        "config": (workdir / "config.resolved.yaml").read_text(),
    }
    for name in ("last.ckpt", "best.ckpt"):
        files[name] = (workdir / "checkpoints" / name).read_bytes()
    return files


class TestCrashRecovery:
    def test_kill_at_every_write_resumes_identically(self, tmp_path, monkeypatch):
        register_task("valley", ValleyTask)
        cfg = copy.deepcopy(VALLEY_CONFIG)  # 10 epochs, epochs 1-3 improve
        from optbench import engine

        writes = []
        real_write = engine._write_atomic

        def record(path, data):
            writes.append(path.name)
            real_write(path, data)

        with monkeypatch.context() as mp:
            mp.setattr(engine, "_write_atomic", record)
            train_run(cfg, tmp_path / "full")
        expected = _run_files(tmp_path / "full")
        # config, epoch 0, metrics reset, 10 x last.ckpt, 3 x best.ckpt, result.json
        assert len(writes) == 17 and writes.count("best.ckpt") == 3

        for i, name in enumerate(writes):
            nth = writes[: i + 1].count(name)
            wd = tmp_path / f"kill{i}"
            with monkeypatch.context() as mp:
                fail_write(mp, name, nth)
                with pytest.raises(Interrupted):
                    train_run(cfg, wd)
            # optbench resume needs last.ckpt; before it exists, optbench run restarts
            finish = resume_run if (wd / "checkpoints" / "last.ckpt").exists() else train_run
            assert finish(cfg, wd).status == "completed"
            assert _run_files(wd) == expected, (i, name, nth)

    def test_only_a_torn_final_metrics_line_is_dropped(self, tmp_path, monkeypatch):
        cfg = quad_config(epochs=6)
        train_run(cfg, tmp_path / "full")
        for name in ("torn", "corrupt"):
            with monkeypatch.context() as mp:
                stop_after_epoch(mp, 3)
                with pytest.raises(Interrupted):
                    train_run(cfg, tmp_path / name)
        with open(tmp_path / "torn" / "metrics.jsonl", "a", encoding="utf-8") as f:
            f.write('{"epoch": 5, "lr_l')  # a kill inside the next append
        assert resume_run(cfg, tmp_path / "torn").status == "completed"
        assert _run_files(tmp_path / "torn") == _run_files(tmp_path / "full")
        # an unparseable line before the last is corruption, not a torn append
        metrics = tmp_path / "corrupt" / "metrics.jsonl"
        lines = metrics.read_text().splitlines(keepends=True)
        metrics.write_text(lines[0] + '{"epoch": 2, "lr_l\n' + "".join(lines[2:]))
        with pytest.raises(json.JSONDecodeError):
            resume_run(cfg, tmp_path / "corrupt")
