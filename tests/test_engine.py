import base64
import builtins
import copy
import errno
import hashlib
import io
import json
import os
import re
import shutil
import sys
import threading
import time
from collections import Counter
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from optbench import build_task, rundir, run_id
from optbench.engine import (
    PERM_BLOCK,
    Checkpoint,
    _build_schedule,
    _epoch_orders,
    derive_seeds,
    encode_checkpoint,
    load_checkpoint,
    restore_optimizer_state,
    steps_per_epoch,
)
from optbench.errors import (
    BadParameterError,
    CheckpointError,
    CorruptCheckpointError,
    RunIdMismatchError,
    VersionMismatchError,
)
from optbench.optim import OptimizerConfig, configure_optimizer
from optbench.rng import Xoshiro256StarStar, derive_child
from optbench.rundir import read_run, train_run, train_runs
from optbench.tasks import MetricSpec, MlpSynthTask, ParamGroup, TaskInstance, register_task
from conftest import (
    SLOT_MOVE,
    SLOT_REMOVE,
    Interrupted,
    fail_write,
    group_buffers,
    intercept_writes,
    QUAD_ADAMW,
    quad_config,
    resolve,
    run_dir_files,
    stop_after_epoch,
    strip_wall,
    with_epochs,
)


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
    # -0.0, a subnormal, +-inf and nan must survive bit for bit
    PARAMS = [1.0, -2.5, 3.75e-300, 0.1 + 0.2, -0.0, 5e-324, np.inf, -np.inf, np.nan]
    SCALARS = [-0.0, 5e-324, np.inf, -np.inf, np.nan]  # for the best value, lam and kappa

    def make_ckpt(self, scalar=5e-324, best_params=(-0.0, -np.inf, 2.5e-310)):
        return Checkpoint(
            epoch=3,
            step_count=12,
            params=np.array(self.PARAMS),
            optimizer_state={
                "step_count": 12,
                "buffers": {"m": _f8([0.1, -0.0]), "g0.row": _f8([np.nan, 5e-324])},
                "cpr": {
                    "g0": {"fix_step": 4, "lam": _f8(scalar), "kappa": _f8(-scalar)},
                    "g1": {"fix_step": 9, "lam": _f8(-0.0), "kappa": None},
                },
            },
            best_val={"value": scalar, "epoch": 2},
            best_params=np.array(best_params),
            budgets=[2, 6],
            run_id="ab" * 8,
        )

    def test_roundtrip_equal(self, tmp_path):
        path = tmp_path / "x.ckpt"
        for scalar in self.SCALARS:
            ckpt = self.make_ckpt(scalar)
            path.write_bytes(encode_checkpoint(ckpt))
            loaded = load_checkpoint(path)
            assert encode_checkpoint(loaded) == encode_checkpoint(ckpt)
            assert loaded.params.tobytes() == np.array(self.PARAMS).tobytes()
            assert loaded.best_params.tobytes() == ckpt.best_params.tobytes()
            assert _f8(loaded.best_val["value"]) == _f8(scalar)
            assert loaded.best_val["epoch"] == 2
            assert loaded.optimizer_state == ckpt.optimizer_state
            assert loaded.budgets == [2, 6]

    def test_equality_sees_the_sign_of_zero(self):
        other = self.make_ckpt()
        other.best_params[0] = 0.0
        assert encode_checkpoint(other) != encode_checkpoint(self.make_ckpt())

    def test_best_params_left_out_only_when_bit_identical(self, tmp_path):
        path = tmp_path / "x.ckpt"
        same = self.make_ckpt(best_params=self.PARAMS)
        zero = self.make_ckpt(best_params=[0.0 if p == 0 else p for p in self.PARAMS])  # +0.0 for -0.0
        for ckpt, kept in ((same, False), (zero, True)):
            data = encode_checkpoint(ckpt)
            names = [name for name, _ in json.loads(data.splitlines()[0])["arrays"]]
            assert ("best_params" in names) == kept
            path.write_bytes(encode_checkpoint(ckpt))
            loaded = load_checkpoint(path)
            assert loaded.best_params.tobytes() == ckpt.best_params.tobytes()
            assert loaded.best_params is not loaded.params
            assert encode_checkpoint(loaded) == data

    def test_optimizer_scalars_roundtrip(self):
        from optbench.optim import CprState, OptimizerState

        for scalar in self.SCALARS:
            state = OptimizerState("adamcpr", [], None)
            state.buffers = {"m": np.zeros(2), "g0.row": np.ones(2)}
            state.cpr = {"g0": CprState(fix_step=0), "g1": CprState(fix_step=0, kappa=1.0)}
            restore_optimizer_state(self.make_ckpt(scalar).optimizer_state, state)
            assert state.buffers["m"].tobytes() == np.array([0.1, -0.0]).tobytes()
            g0, g1 = state.cpr["g0"], state.cpr["g1"]
            assert (g0.fix_step, g1.fix_step, g1.kappa) == (4, 9, None)
            assert (_f8(g0.lam), _f8(g0.kappa)) == (_f8(scalar), _f8(-scalar))
            assert np.signbit(g1.lam)

    def test_save_load_save_identical_bytes(self, tmp_path):
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        for scalar in self.SCALARS:
            p1.write_bytes(encode_checkpoint(self.make_ckpt(scalar)))
            p2.write_bytes(encode_checkpoint(load_checkpoint(p1)))
            assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_file_corrupt(self, tmp_path):
        path = tmp_path / "x.ckpt"
        path.write_bytes(encode_checkpoint(self.make_ckpt()))
        data = path.read_bytes()
        for size in (len(data) - 20, len(data) - 72, 50, 0):
            path.write_bytes(data[:size])
            with pytest.raises(CorruptCheckpointError):
                load_checkpoint(path)

    def test_tampered_body_corrupt(self, tmp_path):
        path = tmp_path / "x.ckpt"
        path.write_bytes(encode_checkpoint(self.make_ckpt()))
        data = path.read_bytes()
        flipped = data[:-80] + bytes([data[-80] ^ 1]) + data[-79:]  # a bit of the blob
        for tampered in (data.replace(b'"epoch":3', b'"epoch":4'), flipped):
            path.write_bytes(tampered)
            with pytest.raises(CorruptCheckpointError):
                load_checkpoint(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "x.ckpt"
        payload = json.loads(encode_checkpoint(self.make_ckpt()).splitlines()[0])
        _write_with_trailer(path, {**payload, "version": 99})
        with pytest.raises(VersionMismatchError):
            load_checkpoint(path)

    def test_v1_file_says_how_to_proceed(self, tmp_path):
        for version, write in enumerate((write_v1_checkpoint, write_v2_checkpoint, write_v3_checkpoint), 1):
            path = tmp_path / "last.ckpt"
            write(path)
            with pytest.raises(VersionMismatchError, match="delete the run directory and rerun") as info:
                load_checkpoint(path)
            assert f"has checkpoint version {version}," in str(info.value)

    def test_v3_run_dir_is_a_corrupt_row(self, tmp_path, capsys):
        from optbench.cli import main

        workdir = tmp_path / "out" / "exp" / "runs" / ("ab" * 8)
        (workdir / "checkpoints").mkdir(parents=True)
        write_v3_checkpoint(workdir / "checkpoints" / "last.ckpt")
        assert main(["list", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert captured.out.splitlines()[1].split() == ["ab" * 8, "corrupt", "-", "-"]
        assert "VersionMismatchError" in captured.err and "version 3" in captured.err

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "absent.ckpt")


def _f8(a) -> bytes:
    return np.asarray(a, dtype="<f8").tobytes()


def _b64(a) -> str:
    """Base64 of little-endian float64 bytes, as versions 2 and 3 stored floats."""
    return base64.b64encode(_f8(a)).decode("ascii")


def _write_with_trailer(path: Path, payload: dict) -> None:
    body = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    path.write_text(body + "sha256 " + hashlib.sha256(body.encode()).hexdigest() + "\n")


def write_v1_checkpoint(path: Path) -> None:
    """The hex-float layout of version 1, with a valid trailer."""
    _write_with_trailer(path, {
        "version": 1,
        "epoch": 1,
        "step_count": 2,
        "params": {"shape": [1], "data": ["3ff0000000000000"]},
        "optimizer_state": {"step_count": 2, "buffers": {}, "cpr": {}},
        "rng_states": {"init": "00000000deadbeef", "shuffle": "0000000000000042"},
        "best_val": {"value": "3ff0000000000000", "epoch": 1},
        "run_id": "ab" * 8,
    })


def write_v2_checkpoint(path: Path) -> None:
    """The base64 layout of version 2, with per-group optimizer buffers and
    the RNG seeds, and a valid trailer."""
    _write_with_trailer(path, {
        "version": 2,
        "epoch": 1,
        "step_count": 2,
        "params": _b64(np.ones(1)),
        "optimizer_state": {
            "step_count": 2,
            "buffers": {"g0": {"m": _b64(np.zeros(1))}},
            "cpr": {},
        },
        "rng_states": {"init": "00000000deadbeef", "shuffle": "0000000000000042"},
        "best_val": {"value": _b64(1.0), "epoch": 1},
        "best_params": _b64(np.ones(1)),
        "budgets": [1],
        "run_id": "ab" * 8,
    })


def write_v3_checkpoint(path: Path) -> None:
    """The base64 JSON layout of version 3, as its codec wrote it: flat
    buffers, every float as ``_b64``, ``best_params`` always stored."""
    _write_with_trailer(path, {
        "version": 3,
        "epoch": 1,
        "step_count": 2,
        "params": _b64(np.ones(2)),
        "optimizer_state": {
            "step_count": 2,
            "buffers": {"m": _b64(np.zeros(2)), "v": _b64(np.zeros(2))},
            "cpr": {"g0": {"fix_step": 1, "lam": _b64(0.0), "kappa": None}},
        },
        "best_val": {"value": _b64(1.0), "epoch": 1},
        "best_params": _b64(np.ones(2)),
        "budgets": [1],
        "run_id": "ab" * 8,
    })


GOLDEN = json.loads((Path(__file__).parent / "golden_final_state.json").read_text())
GOLDEN_HISTORY = json.loads((Path(__file__).parent / "golden_history.json").read_text())


def _sha256(a) -> str:
    return hashlib.sha256(np.asarray(a, dtype="<f8").tobytes()).hexdigest()


class TestGoldenFinalState:
    """SHA-256 of the final params, best params, optimizer buffers and AdamCPR
    scalars of every task x optimizer after 2 epochs, buffers cut into
    per-group slices. The hashes were taken from version-1 (hex-float)
    checkpoints of per-group buffers, so the version-3 codec, the flat
    moments and any later speed-up of the step must reproduce them bit for
    bit."""

    @pytest.mark.parametrize("key", sorted(GOLDEN))
    def test_last_ckpt_decodes_to_golden(self, workdir, key):
        task_name, opt_name = key.split("/")
        cfg = resolve(
            f"task: {{name: {task_name}, max_epochs: 2}}\noptimizer: {{name: {opt_name}}}"
        )[0]
        result = train_run(cfg, workdir)
        ckpt = load_checkpoint(workdir / "checkpoints" / "last.ckpt")
        task = build_task(cfg["task"])
        schedule = _build_schedule(task, cfg["optimizer"], 2)
        opt_cfg = OptimizerConfig.from_dict(cfg["optimizer"], schedule)
        state = configure_optimizer(task.groups, opt_cfg)
        restore_optimizer_state(ckpt.optimizer_state, state)
        got = {
            "status": result.status,
            "step_count": state.step_count,
            "params": _sha256(ckpt.params),
            "best_params": _sha256(ckpt.best_params),
            "buffers": {label: _sha256(a) for label, a in group_buffers(state)},
            "cpr": {
                g: [_sha256(cs.lam), None if cs.kappa is None else _sha256(cs.kappa)]
                for g, cs in sorted(state.cpr.items())
            },
        }
        assert got == GOLDEN[key]

    @pytest.mark.parametrize("key", sorted(GOLDEN_HISTORY))
    def test_history_and_test_metrics_match_golden(self, workdir, key):
        """SHA-256 of every epoch's ``lr_last``, ``train_loss`` and ``val_metric``
        and of ``test_best``/``test_last``, as exact hex floats. The hashes come
        from the trainer that stepped one run at a time on flat vectors."""
        task_name, opt_name = key.split("/")
        cfg = resolve(
            f"task: {{name: {task_name}, max_epochs: 2}}\noptimizer: {{name: {opt_name}}}"
        )[0]
        result = train_run(cfg, workdir)
        rows = [
            [e["epoch"], e["lr_last"].hex(), e["train_loss"].hex(), e["val_metric"].hex()]
            for e in result.history
        ]
        rows.append([result.test_best.hex(), result.test_last.hex()])
        assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == GOLDEN_HISTORY[key]


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

    def test_cache_hit_reads_no_checkpoint_and_draws_no_batch_order(self, workdir, monkeypatch):
        from optbench import engine

        cfg = quad_config(epochs=3)
        r1 = train_run(cfg, workdir)

        def forbidden(*args):
            raise AssertionError("a cache hit must not get here")

        monkeypatch.setattr(engine, "load_checkpoint", forbidden)
        monkeypatch.setattr(engine, "permutations", forbidden)
        assert train_run(cfg, workdir) == r1

    def test_workdir_layout(self, tmp_path):
        for epochs in (2, 3):  # the final epoch lands in next.ckpt, then in last.ckpt
            workdir = tmp_path / str(epochs)
            cfg = quad_config(epochs=epochs)
            result = train_run(cfg, workdir)
            assert (workdir / "config.resolved.yaml").exists()
            assert (workdir / "metrics.jsonl").exists()
            assert (workdir / "result.json").exists()
            assert [p.name for p in (workdir / "checkpoints").iterdir()] == ["last.ckpt"]
            assert load_checkpoint(workdir / "checkpoints" / "last.ckpt").epoch == epochs
            lines = (workdir / "metrics.jsonl").read_text().splitlines()
            assert len(lines) == epochs
            entry = json.loads(lines[0])
            assert set(entry) == {"epoch", "lr_last", "train_loss", "val_metric", "wall_time_s"}
            assert result.seeds_used == derive_seeds(cfg["engine"]["seed"])

    def test_fresh_run_renames_and_creates_independent_of_epochs(self, tmp_path, monkeypatch):
        counts = []
        for epochs in (4, 12):
            with monkeypatch.context() as mp:
                ops = _count_file_ops(mp)
                train_run(quad_config(epochs=epochs), tmp_path / str(epochs))
            counts.append(dict(ops))
        # renames: config and result.json; creations: their temporary files,
        # next.ckpt, last.ckpt and metrics.jsonl (epoch 0 is never written)
        assert counts == [{"replace": 2, "create": 5}] * 2

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
        assert read_run(tmp_path / "part").ckpt.epoch == interrupt
        assert not (tmp_path / "part" / "result.json").exists()
        resumed = train_run(cfg, tmp_path / "part")
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
            train_run(changed, workdir)

    def test_resume_completed_returns_stored(self, workdir):
        cfg = quad_config(epochs=3)
        train_run(cfg, workdir)
        stamp = (workdir / "checkpoints" / "last.ckpt").stat().st_mtime_ns
        result = train_run(cfg, workdir)
        assert result.status == "completed"
        assert (workdir / "checkpoints" / "last.ckpt").stat().st_mtime_ns == stamp


class TestReadRun:
    def test_new(self, workdir, monkeypatch):
        assert read_run(workdir).status == "new"
        with monkeypatch.context() as mp:
            fail_write(mp, "next.ckpt", 1)  # config written, no checkpoint yet
            with pytest.raises(Interrupted):
                train_run(quad_config(epochs=3), workdir)
        state = read_run(workdir)  # killed in its first epoch: resume finishes it
        assert (state.status, state.result, state.ckpt) == ("incomplete", None, None)

    def test_incomplete(self, workdir, monkeypatch):
        stop_after_epoch(monkeypatch, 2)
        with pytest.raises(Interrupted):
            train_run(quad_config(epochs=5), workdir)
        state = read_run(workdir)
        assert (state.status, state.result, state.ckpt.epoch) == ("incomplete", None, 2)

    def test_completed(self, workdir):
        result = train_run(quad_config(epochs=3), workdir)
        state = read_run(workdir)
        assert state.status == "completed" and state.error is None
        assert state.result == result
        last = load_checkpoint(workdir / "checkpoints" / "last.ckpt")
        assert encode_checkpoint(state.ckpt) == encode_checkpoint(last)

    def test_aborted(self, workdir):
        cfg = resolve(
            "task: {name: rosenbrock, max_epochs: 6}\n"
            "optimizer: {name: sgd_baseline, learning_rate: 100.0, momentum: 0.9}"
        )[0]
        train_run(cfg, workdir)
        state = read_run(workdir)
        assert state.status == "aborted"
        assert state.ckpt.run_id == state.result.run_id
        # an aborted result of the config's run is a cache hit, as a completed one is
        cached = read_run(workdir, cached_id=run_id(cfg))
        assert (cached.status, cached.result, cached.ckpt) == ("aborted", state.result, None)

    def test_extending(self, workdir, monkeypatch):
        cfg = quad_config(epochs=2)
        train_run(cfg, workdir)
        with monkeypatch.context() as mp:
            fail_write(mp, "result.json", 1)
            with pytest.raises(Interrupted):
                train_run(with_epochs(cfg, 4), workdir)
        state = read_run(workdir)
        assert state.status == "extending"
        assert (state.result.budgets, state.ckpt.budgets, state.ckpt.epoch) == ([2], [2, 4], 4)
        # a cache hit on the stored result skips the checkpoint
        cached = read_run(workdir, cached_id=state.result.run_id)
        assert (cached.status, cached.result, cached.ckpt) == ("completed", state.result, None)
        assert read_run(workdir, cached_id=state.ckpt.run_id).status == "extending"

    def test_torn_newest_slot_gives_the_older_epoch(self, tmp_path, monkeypatch):
        for k, torn in ((2, "next.ckpt"), (3, "last.ckpt")):
            wd = tmp_path / str(k)
            with monkeypatch.context() as mp:
                fail_write(mp, ("last.ckpt", "next.ckpt"), k + 1, torn=True)  # epoch k + 1
                with pytest.raises(Interrupted):
                    train_run(quad_config(epochs=6), wd)
            with pytest.raises(CorruptCheckpointError):
                load_checkpoint(wd / "checkpoints" / torn)
            state = read_run(wd)
            assert (state.status, state.ckpt.epoch, state.error) == ("incomplete", k, None)

    def test_unreadable_last_slot_gives_next(self, tmp_path, monkeypatch):
        cfg = quad_config(epochs=6)
        train_run(cfg, tmp_path / "full")
        wd = tmp_path / "part"
        with monkeypatch.context() as mp:
            stop_after_epoch(mp, 3)  # epoch 3 in next.ckpt, epoch 2 in last.ckpt
            with pytest.raises(Interrupted):
                train_run(cfg, wd)
        last = wd / "checkpoints" / "last.ckpt"
        last.write_bytes(last.read_bytes()[:-20])
        state = read_run(wd)
        assert (state.status, state.ckpt.epoch, state.slot.name) == ("incomplete", 3, "next.ckpt")
        train_run(cfg, wd)  # epoch 4 rewrites the damaged last.ckpt in place
        assert last.read_bytes() == (tmp_path / "full" / "checkpoints" / "last.ckpt").read_bytes()

    def test_both_slots_unreadable_is_corrupt(self, tmp_path, monkeypatch):
        cfg = quad_config(epochs=6)
        with monkeypatch.context() as mp:
            fail_write(mp, ("last.ckpt", "next.ckpt"), 3, torn=True)  # epoch 3 in next.ckpt
            with pytest.raises(Interrupted):
                train_run(cfg, tmp_path / "base")
        damages = {
            CorruptCheckpointError: lambda p: p.write_bytes(p.read_bytes()[:-20]),
            VersionMismatchError: write_v1_checkpoint,
        }
        for error, damage in damages.items():
            wd = tmp_path / error.__name__
            shutil.copytree(tmp_path / "base", wd)
            path = wd / "checkpoints" / "last.ckpt"
            damage(path)
            state = read_run(wd)
            assert (state.status, state.result, state.ckpt) == ("corrupt", None, None)
            assert type(state.error) is error and str(path) in str(state.error)
            with pytest.raises(error, match=re.escape(str(path))):
                train_run(cfg, wd)

    def test_truncated_result_is_corrupt(self, workdir):
        cfg = quad_config(epochs=3)
        train_run(cfg, workdir)
        path = workdir / "result.json"
        text = path.read_text()
        for damaged in (text[:30], "\0" * len(text)):  # zeros: a power cut before any flush
            path.write_text(damaged)
            state = read_run(workdir)
            assert (state.status, state.result, state.ckpt) == ("corrupt", None, None)
            assert str(path) in str(state.error) and "JSONDecodeError" in str(state.error)
            for budget in (3, 5):
                with pytest.raises(CheckpointError, match=re.escape(str(path))):
                    train_run(with_epochs(cfg, budget), workdir)

    def test_corrupt_checkpoint(self, workdir):
        self._check_unreadable_checkpoint(
            workdir, lambda p: p.write_bytes(p.read_bytes()[:-20]), CorruptCheckpointError
        )

    def test_v1_checkpoint(self, workdir):
        self._check_unreadable_checkpoint(workdir, write_v1_checkpoint, VersionMismatchError)

    @staticmethod
    def _check_unreadable_checkpoint(workdir, damage, error):
        cfg = quad_config(epochs=3)
        stored = train_run(cfg, workdir)
        path = workdir / "checkpoints" / "last.ckpt"
        damage(path)
        state = read_run(workdir)
        assert (state.status, state.result, state.ckpt) == ("corrupt", stored, None)
        assert type(state.error) is error and str(path) in str(state.error)
        # the stored result still answers a rerun; the checkpoint cannot be extended
        assert train_run(cfg, workdir) == stored
        with pytest.raises(error, match=re.escape(str(path))):
            train_run(with_epochs(cfg, 5), workdir)


class TestExtendBudget:
    """A budget extension is ``train_run`` of the config with a larger ``max_epochs``."""

    def test_extension_grows_history(self, workdir):
        cfg = quad_config(epochs=3)
        train_run(cfg, workdir)
        result = train_run(with_epochs(cfg, 9), workdir)
        assert result.status == "completed"
        assert len(result.history) == 9
        assert result.budgets == [3, 9]
        # schedule re-totalized over the new horizon
        assert result.schedule_info["total_steps"] == 9 * 2

    def test_extension_prefix_preserved(self, workdir):
        cfg = quad_config(epochs=3)
        first = train_run(cfg, workdir)
        extended = train_run(with_epochs(cfg, 6), workdir)
        assert strip_wall(extended.history[:3]) == strip_wall(first.history)

    def test_shrink_rejected(self, workdir):
        cfg = quad_config(epochs=5)
        stored = train_run(cfg, workdir)
        before = run_dir_files(workdir)
        with pytest.raises(RunIdMismatchError, match=stored.run_id):
            train_run(with_epochs(cfg, 4), workdir)
        assert run_dir_files(workdir) == before

    def test_shrinking_a_killed_run_is_rejected_and_writes_nothing(self, workdir, monkeypatch):
        cfg = quad_config(epochs=6)
        with monkeypatch.context() as mp:
            stop_after_epoch(mp, 2)
            with pytest.raises(Interrupted):
                train_run(cfg, workdir)
        before = run_dir_files(workdir)
        for budget in (1, 2, 4):  # at, below and above the trained epochs
            smaller = with_epochs(cfg, budget)
            with pytest.raises(RunIdMismatchError) as error:
                train_run(smaller, workdir)
            assert run_id(cfg) in str(error.value) and run_id(smaller) in str(error.value)
            assert run_dir_files(workdir) == before
        assert train_run(cfg, workdir).budgets == [6]

    def test_other_changes_rejected(self, workdir):
        cfg = quad_config(epochs=3)
        train_run(cfg, workdir)
        changed = with_epochs(cfg, 9)
        changed["optimizer"]["learning_rate"] = 0.5
        with pytest.raises(RunIdMismatchError):
            train_run(changed, workdir)

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
        train_run(with_epochs(cfg, 6), workdir)
        assert sorted(calls) == ["dump_config", "load_checkpoint"]

    def test_double_extension_accumulates_budgets(self, workdir):
        cfg = quad_config(epochs=2)
        train_run(cfg, workdir)
        train_run(with_epochs(cfg, 4), workdir)
        result = train_run(with_epochs(cfg, 8), workdir)
        assert result.budgets == [2, 4, 8]
        assert len(result.history) == 8
        assert load_checkpoint(workdir / "checkpoints" / "last.ckpt").budgets == [2, 4, 8]

    def test_a_larger_budget_extends_an_aborted_run_from_its_last_checkpoint(
        self, workdir, monkeypatch
    ):
        from optbench import engine

        cfg = resolve(
            "task: {name: rosenbrock, max_epochs: 8}\n"
            "optimizer: {name: sgd_baseline, learning_rate: 0.05}"
        )[0]
        aborted = train_run(cfg, workdir)
        assert (aborted.status, len(aborted.history)) == ("aborted", 2)
        last = (workdir / "checkpoints" / "last.ckpt").read_bytes()
        starts = []
        real = engine._run

        def recording(runs):
            starts.extend(run.ckpt for run in runs)  # each run's start, before it trains
            return real(runs)

        monkeypatch.setattr(engine, "_run", recording)
        assert train_run(cfg, workdir) == aborted and starts == []  # the same budget: stored
        longer = with_epochs(cfg, 16)
        extended = train_run(longer, workdir)
        [ckpt] = starts
        assert (ckpt.epoch, ckpt.budgets) == (2, [8, 16])
        assert encode_checkpoint(replace(ckpt, budgets=[8])) == last
        assert (extended.run_id, extended.budgets) == (run_id(longer), [8, 16])
        assert strip_wall(extended.history[:2]) == strip_wall(aborted.history)
        assert train_run(longer, workdir) == extended and len(starts) == 1

    def test_a_run_aborted_in_its_first_epoch_restarts_at_a_larger_budget(self, tmp_path):
        register_task("cliff", CliffTask)
        cfg = copy.deepcopy(VALLEY_CONFIG)
        cfg["task"].update(name="cliff", batch_size=1, max_epochs=3)  # 4 steps an epoch
        cfg["optimizer"].update(learning_rate=6.0, lr_warmup=0.1)  # step 0 jumps past -10
        aborted = train_run(cfg, tmp_path / "run")
        assert (aborted.status, aborted.history) == ("aborted", [])
        assert not any((tmp_path / "run" / "checkpoints").iterdir())  # no epoch to restart from
        longer = with_epochs(cfg, 30)  # a warmup of 12 steps: step 0 lands on 0 and stays
        restarted = train_run(longer, tmp_path / "run")
        assert (restarted.status, restarted.budgets) == ("completed", [30])
        train_run(longer, tmp_path / "fresh")
        assert run_dir_files(tmp_path / "run") == run_dir_files(tmp_path / "fresh")

    def test_a_result_whose_checkpoints_are_gone_is_not_extended(self, tmp_path):
        diverging = resolve(
            "task: {name: rosenbrock, max_epochs: 4}\n"
            "optimizer: {name: sgd_baseline, learning_rate: 100.0, momentum: 0.9}"
        )[0]
        for cfg in (quad_config(epochs=3), diverging):  # completed; aborted in epoch 3
            wd = tmp_path / run_id(cfg)
            stored = train_run(cfg, wd)
            assert stored.history
            shutil.rmtree(wd / "checkpoints")
            before = {p: p.read_bytes() for p in wd.rglob("*")}
            with pytest.raises(RunIdMismatchError, match=stored.run_id):
                train_run(with_epochs(cfg, 8), wd)
            assert {p: p.read_bytes() for p in wd.rglob("*")} == before
            assert train_run(cfg, wd) == stored  # still a cache hit

    def test_same_budget_again_finishes_without_training(self, workdir):
        cfg = quad_config(epochs=2)
        train_run(cfg, workdir)
        first = train_run(with_epochs(cfg, 4), workdir)
        ckpt_bytes = (workdir / "checkpoints" / "last.ckpt").read_bytes()
        again = train_run(with_epochs(cfg, 4), workdir)
        assert strip_wall(asdict(again)) == strip_wall(asdict(first))
        assert again.budgets == [2, 4]
        assert (workdir / "checkpoints" / "last.ckpt").read_bytes() == ckpt_bytes


class ValleyTask(TaskInstance):
    """Train pulls theta toward 2; val/test measure distance to 1.

    The validation metric therefore has a known interior optimum while
    training keeps improving, which pins the best/last protocol.
    """

    name = "valley"
    metric = MetricSpec("loss", "minimize")

    def _generate_splits(self, rng):
        return self._dummy_splits()

    def _build_groups(self):
        return [ParamGroup("theta", 0, 1, (1,), True)]

    def init_params(self, rng):
        return np.zeros(1)

    def loss_grads(self, params, batch):
        return (params[:, 0] - 2.0) ** 2, 2.0 * (params - 2.0)

    def metric_values(self, params, split):
        if self.cfg.get("flat_metric"):
            return [0.5] * len(params)
        return ((params[:, 0] - 1.0) ** 2).tolist()


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
        last_ckpt = load_checkpoint(workdir / "checkpoints" / "last.ckpt")
        assert last_ckpt.best_val == result.best_val
        assert result.test_best == float((last_ckpt.best_params[0] - 1.0) ** 2)
        assert result.test_last == float((last_ckpt.params[0] - 1.0) ** 2)
        assert result.test_best < result.test_last

    def test_tie_keeps_earlier_epoch(self, tmp_path, monkeypatch):
        register_task("valley", ValleyTask)
        cfg = copy.deepcopy(VALLEY_CONFIG)
        cfg["task"]["flat_metric"] = True  # every epoch scores exactly 0.5
        result = train_run(cfg, tmp_path / "full")
        vals = {h["val_metric"] for h in result.history}
        assert vals == {0.5}
        assert result.best_val["epoch"] == 1
        stop_after_epoch(monkeypatch, 1)
        with pytest.raises(Interrupted):
            train_run(cfg, tmp_path / "epoch1")
        epoch1 = read_run(tmp_path / "epoch1").ckpt
        last = load_checkpoint(tmp_path / "full" / "checkpoints" / "last.ckpt")
        assert last.best_val == {"value": 0.5, "epoch": 1}
        assert last.best_params.tobytes() == epoch1.params.tobytes()
        assert last.best_params.tobytes() != last.params.tobytes()


def _count_file_ops(monkeypatch) -> Counter:
    """Count the renames and file creations made while patched."""
    ops = Counter()
    real_replace, real_os_open, real_open = os.replace, os.open, builtins.open

    def replace(src, dst, **kwargs):
        ops["replace"] += 1
        real_replace(src, dst, **kwargs)

    def os_open(path, flags, *args, **kwargs):
        if flags & os.O_CREAT and not os.path.exists(path):
            ops["create"] += 1
        return real_os_open(path, flags, *args, **kwargs)

    def open_(file, mode="r", *args, **kwargs):
        if not isinstance(file, int) and set(mode) & set("wax") and not os.path.exists(file):
            ops["create"] += 1
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(os, "replace", replace)
    monkeypatch.setattr(os, "open", os_open)
    monkeypatch.setattr(builtins, "open", open_)
    monkeypatch.setattr(io, "open", open_)  # pathlib's
    return ops


def _record_writes(monkeypatch, fn, *args):
    """Call ``fn(*args)`` and return the names of its writes (see ``intercept_writes``)."""
    writes = []
    with monkeypatch.context() as mp:
        intercept_writes(mp, lambda name, tear: writes.append(name))
        fn(*args)
    return writes


def _kill_points(writes):
    """(index, write name, nth write of that name, torn) for a clean kill and
    a torn write at every write."""
    return [
        (i, name, writes[: i + 1].count(name), torn)
        for i, name in enumerate(writes)
        for torn in (False, True)
    ]


def _newest_slot(workdir):
    """The loadable checkpoint slot with the larger epoch, read directly."""
    loaded = []
    for name in ("last.ckpt", "next.ckpt"):
        try:
            loaded.append(load_checkpoint(workdir / "checkpoints" / name))
        except CheckpointError:
            pass
    return max(loaded, key=lambda ckpt: ckpt.epoch)


def _record_fallocate(monkeypatch, effect=None) -> list:
    """Record each ``os.posix_fallocate`` call as (inode, size so far, offset,
    length), then raise ``effect`` if given, else allocate."""
    calls, real = [], os.posix_fallocate

    def fallocate(fd, offset, length):
        st = os.fstat(fd)
        calls.append((st.st_ino, st.st_size, offset, length))
        if effect is not None:
            raise effect
        real(fd, offset, length)

    monkeypatch.setattr(os, "posix_fallocate", fallocate)
    return calls


@pytest.mark.skipif(not hasattr(os, "posix_fallocate"), reason="no posix_fallocate on this platform")
class TestWriteAtomic:
    DATA = b'{"run_id": "new"}\n' * 100

    @pytest.fixture
    def target(self, tmp_path):
        path = tmp_path / "result.json"
        path.write_bytes(b"old bytes\n")
        return path

    def test_preallocates_the_temporary_file_before_writing_it(self, target, monkeypatch):
        calls = _record_fallocate(monkeypatch)
        real_replace, inodes = os.replace, []

        def replace(src, dst, **kwargs):
            inodes.append(os.stat(src).st_ino)
            real_replace(src, dst, **kwargs)

        monkeypatch.setattr(os, "replace", replace)
        rundir._write_atomic(target, self.DATA)
        # once, on the file that is renamed into place, while it is still empty
        assert calls == [(inodes[0], 0, 0, len(self.DATA))]
        assert target.read_bytes() == self.DATA
        assert sorted(p.name for p in target.parent.iterdir()) == ["result.json"]

    def test_empty_data_is_not_preallocated(self, target, monkeypatch):
        calls = _record_fallocate(monkeypatch)  # a length of 0 is EINVAL
        rundir._write_atomic(target, b"")
        assert calls == [] and target.read_bytes() == b""
        assert sorted(p.name for p in target.parent.iterdir()) == ["result.json"]

    @pytest.mark.parametrize(
        "case", ["missing", errno.EOPNOTSUPP, errno.EINVAL], ids=["missing", "EOPNOTSUPP", "EINVAL"]
    )
    def test_writes_without_preallocation_where_there_is_none(self, target, monkeypatch, case):
        if case == "missing":  # macOS
            monkeypatch.delattr(os, "posix_fallocate")
        else:  # a file system without fallocate
            calls = _record_fallocate(monkeypatch, OSError(case, os.strerror(case)))
        rundir._write_atomic(target, self.DATA)
        assert case == "missing" or len(calls) == 1
        assert target.read_bytes() == self.DATA
        assert sorted(p.name for p in target.parent.iterdir()) == ["result.json"]

    def test_full_disk_raises_and_leaves_the_old_file(self, target, monkeypatch):
        _record_fallocate(monkeypatch, OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)))
        with pytest.raises(OSError) as info:
            rundir._write_atomic(target, self.DATA)
        assert info.value.errno == errno.ENOSPC
        assert target.read_bytes() == b"old bytes\n"
        assert sorted(p.name for p in target.parent.iterdir()) == ["result.json"]


class TestCrashRecovery:
    def test_kill_at_every_write_resumes_identically(self, tmp_path, monkeypatch):
        register_task("valley", ValleyTask)
        cfg = copy.deepcopy(VALLEY_CONFIG)  # 10 epochs, epochs 1-3 improve
        writes = _record_writes(monkeypatch, train_run, cfg, tmp_path / "full")
        expected = run_dir_files(tmp_path / "full")
        # epoch 0 is never written, epochs 1-10 go to next.ckpt and last.ckpt in turn
        assert writes == (
            ["config.resolved.yaml"]
            + ["next.ckpt", "last.ckpt"] * 5
            + [SLOT_REMOVE, "result.json"]
        )

        for i, name, nth, torn in _kill_points(writes):
            wd = tmp_path / f"kill{i}{'torn' * torn}"
            with monkeypatch.context() as mp:
                fail_write(mp, name, nth, torn)
                with pytest.raises(Interrupted):
                    train_run(cfg, wd)
            assert train_run(cfg, wd).status == "completed"
            assert run_dir_files(wd) == expected, (i, name, nth, torn)

    def test_an_epoch_0_checkpoint_of_an_earlier_release_resumes_identically(self, tmp_path):
        """Earlier releases wrote the untrained state to ``last.ckpt`` before
        epoch 1; a run killed then holds only that and its config."""
        from optbench.config import dump_config
        from optbench.engine import encode_optimizer_state

        cfg = quad_config(epochs=5)
        train_run(cfg, tmp_path / "full")
        task = build_task(cfg["task"])
        schedule = _build_schedule(task, cfg["optimizer"], 5)
        state = configure_optimizer(task.groups, OptimizerConfig.from_dict(cfg["optimizer"], schedule))
        params = task.init_params(Xoshiro256StarStar(derive_seeds(cfg["engine"]["seed"])["init"]))
        epoch0 = Checkpoint(0, 0, params, encode_optimizer_state(state), None, None, [5], run_id(cfg))
        wd = tmp_path / "old"
        (wd / "checkpoints").mkdir(parents=True)
        (wd / "config.resolved.yaml").write_text(dump_config(cfg), encoding="utf-8")
        (wd / "checkpoints" / "last.ckpt").write_bytes(encode_checkpoint(epoch0))
        read = read_run(wd)
        assert (read.status, read.ckpt.epoch, read.slot.name) == ("incomplete", 0, "last.ckpt")
        assert train_run(cfg, wd).status == "completed"
        assert run_dir_files(wd) == run_dir_files(tmp_path / "full")

    def test_kill_at_every_write_of_a_resume_from_next_ckpt(self, tmp_path, monkeypatch):
        register_task("valley", ValleyTask)
        cfg = copy.deepcopy(VALLEY_CONFIG)
        train_run(cfg, tmp_path / "full")
        expected = run_dir_files(tmp_path / "full")
        with monkeypatch.context() as mp:
            stop_after_epoch(mp, 3)
            with pytest.raises(Interrupted):
                train_run(cfg, tmp_path / "base")
        state = read_run(tmp_path / "base")
        assert (state.status, state.ckpt.epoch, state.slot.name) == ("incomplete", 3, "next.ckpt")
        shutil.copytree(tmp_path / "base", tmp_path / "resumed")
        writes = _record_writes(monkeypatch, train_run, cfg, tmp_path / "resumed")
        assert run_dir_files(tmp_path / "resumed") == expected
        # epoch 4's metrics line is dropped; epochs 4-10 start in last.ckpt,
        # the slot that does not hold epoch 3, and end there
        assert writes == (
            ["config.resolved.yaml", "metrics.jsonl"]
            + ["last.ckpt", "next.ckpt"] * 3
            + ["last.ckpt", SLOT_REMOVE, "result.json"]
        )

        for i, name, nth, torn in _kill_points(writes):
            wd = tmp_path / f"kill{i}{'torn' * torn}"
            shutil.copytree(tmp_path / "base", wd)
            with monkeypatch.context() as mp:
                fail_write(mp, name, nth, torn)
                with pytest.raises(Interrupted):
                    train_run(cfg, wd)
            assert train_run(cfg, wd).status == "completed"
            assert run_dir_files(wd) == expected, (i, name, nth, torn)

    def test_kill_at_every_write_of_an_extension(self, tmp_path, monkeypatch):
        writes = self._kill_at_every_write_of_an_extension(tmp_path, monkeypatch, 4)
        # a clean extension keeps metrics.jsonl; 6 epochs end in last.ckpt
        assert writes == (
            ["config.resolved.yaml"] + ["next.ckpt", "last.ckpt"] * 3 + [SLOT_REMOVE, "result.json"]
        )

    def test_kill_at_every_write_of_an_extension_from_an_odd_epoch(self, tmp_path, monkeypatch):
        writes = self._kill_at_every_write_of_an_extension(tmp_path, monkeypatch, 3)
        # 7 epochs end in next.ckpt: epoch parity would overwrite epoch 3 first
        assert writes == (
            ["config.resolved.yaml"]
            + ["next.ckpt", "last.ckpt"] * 3
            + ["next.ckpt", SLOT_MOVE, "result.json"]
        )

    @staticmethod
    def _kill_at_every_write_of_an_extension(tmp_path, monkeypatch, base_epochs):
        """Extend a ``base_epochs`` run to 10 epochs, killed at each write of
        the extension in turn, and finish it; returns the extension's writes."""
        register_task("valley", ValleyTask)
        cfg = copy.deepcopy(VALLEY_CONFIG)
        cfg["task"]["max_epochs"] = base_epochs
        train_run(cfg, tmp_path / "base")
        shutil.copytree(tmp_path / "base", tmp_path / "full")
        extended = with_epochs(cfg, 10)
        writes = _record_writes(monkeypatch, train_run, extended, tmp_path / "full")
        expected = run_dir_files(tmp_path / "full")
        assert expected["result.json"]["budgets"] == [base_epochs, 10]

        seen = set()
        for i, name, nth, torn in _kill_points(writes):
            wd = tmp_path / f"kill{i}{'torn' * torn}"
            shutil.copytree(tmp_path / "base", wd)
            with monkeypatch.context() as mp:
                fail_write(mp, name, nth, torn)
                with pytest.raises(Interrupted):
                    train_run(extended, wd)
            ckpt_rid = _newest_slot(wd).run_id
            extending = ckpt_rid != json.loads((wd / "result.json").read_text())["run_id"]
            seen.add(extending)
            assert (read_run(wd).status == "extending") == extending, (i, name, nth, torn)
            # the extended config finishes every kill point, extended epoch checkpointed or not
            assert train_run(extended, wd).budgets == [base_epochs, 10]
            assert run_dir_files(wd) == expected, (i, name, nth, torn)
            assert load_checkpoint(wd / "checkpoints" / "last.ckpt").budgets == [base_epochs, 10]
        assert seen == {True, False}
        return writes

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
        assert train_run(cfg, tmp_path / "torn").status == "completed"
        assert run_dir_files(tmp_path / "torn") == run_dir_files(tmp_path / "full")
        # an unparseable line before the last, or a line with no epoch anywhere,
        # is corruption, not a torn append: the error names the file and line
        metrics = tmp_path / "corrupt" / "metrics.jsonl"
        good = metrics.read_text().splitlines(keepends=True)  # epochs 1-4
        cases = [
            (good[:1] + ['{"epoch": 2, "lr_l\n'] + good[2:], 2),
            (good[:1] + ['{"val": 1}\n'] + good[2:], 2),
            (good + ['{"val": 1}\n'], 5),
            (good + ["[5]\n"], 5),
        ]
        for lines, n in cases:
            metrics.write_text("".join(lines))
            with pytest.raises(CheckpointError, match=re.escape(f"{metrics} line {n} ")):
                train_run(cfg, tmp_path / "corrupt")
            assert metrics.read_text() == "".join(lines)


# --- the per-process batch-order cache ---------------------------------------

@pytest.fixture
def order_cache(monkeypatch):
    """A fresh, empty batch-order cache in place of the process's."""
    from optbench import engine

    cache = engine._OrderCache()
    monkeypatch.setattr(engine, "_ORDERS", cache)
    return cache


def _record_draws(monkeypatch) -> list[list[int]]:
    """The child seeds of each ``rng.permutations`` call made while patched."""
    from optbench import engine

    calls = []
    real = engine.permutations

    def recording(seeds, n):
        calls.append(list(seeds))
        return real(seeds, n)

    monkeypatch.setattr(engine, "permutations", recording)
    return calls


def _expected_order(shuffle_seed, epoch, n):
    return Xoshiro256StarStar(derive_child(shuffle_seed, epoch)).shuffled_indices(n)


def _record_orders(monkeypatch) -> list:
    """(shuffle seed, n, epoch, order) of every batch order read while patched."""
    from optbench import engine

    seen = []
    real = engine._epoch_orders

    def recording(shuffle_seed, epochs, n):
        for epoch, perm in real(shuffle_seed, epochs, n):
            seen.append((shuffle_seed, n, epoch, perm.copy()))
            yield epoch, perm

    monkeypatch.setattr(engine, "_epoch_orders", recording)
    return seen


def _cache_bytes(cache) -> int:
    return sum(len(rows) * 8 * n for (_, n), rows in cache.rows.items())


class TestBatchOrderCache:
    SEED = derive_seeds(5)["shuffle"]

    @pytest.mark.parametrize("n", [16, 100])
    def test_rows_equal_the_scalar_shuffle_on_a_miss_and_a_hit(self, order_cache, monkeypatch, n):
        calls = _record_draws(monkeypatch)
        epochs = range(1, 2 * PERM_BLOCK + 3)
        for first in (5, 1, 1):  # a partial miss, then hits and misses mixed, then all hits
            for epoch, perm in _epoch_orders(self.SEED, epochs[first - 1 : first + 3], n):
                assert np.array_equal(perm, _expected_order(self.SEED, epoch, n)), epoch
            for epoch, perm in _epoch_orders(self.SEED, epochs, n):
                assert np.array_equal(perm, _expected_order(self.SEED, epoch, n)), epoch
        drawn = sorted(seed for call in calls for seed in call)
        assert drawn == sorted(derive_child(self.SEED, e) for e in epochs)

    def test_rows_are_read_only(self, order_cache, monkeypatch):
        from optbench import engine

        for budget in (engine.ORDER_CACHE_BYTES, 0):  # kept, and used without being kept
            monkeypatch.setattr(engine, "ORDER_CACHE_BYTES", budget)
            for _, perm in _epoch_orders(self.SEED + budget, range(1, 4), 16):
                with pytest.raises(ValueError):
                    perm[0] = 1

    def test_byte_budget_holds_after_many_seeds(self, order_cache, monkeypatch):
        from optbench import engine

        n = 50
        monkeypatch.setattr(engine, "ORDER_CACHE_BYTES", 40 * 8 * n)  # two keys of 18 rows
        seeds = [derive_child(self.SEED, k) for k in range(40)]
        for i, seed in enumerate(seeds):
            for epochs in (range(1, 5), range(1, PERM_BLOCK + 3)):
                for epoch, perm in _epoch_orders(seed, epochs, n):
                    assert np.array_equal(perm, _expected_order(seed, epoch, n))
                assert order_cache.nbytes == _cache_bytes(order_cache)
                assert order_cache.nbytes <= engine.ORDER_CACHE_BYTES
            assert [s for s, _ in order_cache.rows] == seeds[max(0, i - 1) : i + 1]
        # the least recently used key goes first: a hit renews its key
        list(_epoch_orders(seeds[-2], range(1, 3), n))
        list(_epoch_orders(self.SEED, range(1, 6), n))
        assert [s for s, _ in order_cache.rows] == [seeds[-2], self.SEED]
        # a block that would not fit is used but not kept (epochs 6-18: 5 + 13
        # rows), the next one is (epochs 19-20), and older keys still go
        monkeypatch.setattr(engine, "ORDER_CACHE_BYTES", (PERM_BLOCK + 1) * 8 * n)
        for epoch, perm in _epoch_orders(self.SEED, range(3, PERM_BLOCK + 5), n):
            assert np.array_equal(perm, _expected_order(self.SEED, epoch, n))
        assert list(order_cache.rows) == [(self.SEED, n)]
        assert sorted(order_cache.rows[self.SEED, n]) == [1, 2, 3, 4, 5, 19, 20]
        assert order_cache.nbytes == _cache_bytes(order_cache) == 7 * 8 * n

    @pytest.mark.parametrize("warm", [False, True])
    def test_resume_and_extension_read_the_rows_of_a_fresh_run(
        self, tmp_path, monkeypatch, order_cache, warm
    ):
        from optbench import engine

        cfg = quad_config(epochs=6)
        seen = _record_orders(monkeypatch)
        train_run(cfg, tmp_path / "fresh")
        for step in ("killed", "resume"):  # each starts with an empty cache unless warm
            if not warm:
                monkeypatch.setattr(engine, "_ORDERS", engine._OrderCache())
            if step == "killed":
                with monkeypatch.context() as mp:
                    stop_after_epoch(mp, 2)
                    with pytest.raises(Interrupted):
                        train_run(cfg, tmp_path / "resumed")
            else:
                train_run(cfg, tmp_path / "resumed")
        assert run_dir_files(tmp_path / "resumed") == run_dir_files(tmp_path / "fresh")
        train_run(with_epochs(cfg, 2 * PERM_BLOCK + 1), tmp_path / "resumed")
        # the killed run read epoch 3's order before its checkpoint write was killed
        expected = [*range(1, 7), 1, 2, 3, *range(3, 2 * PERM_BLOCK + 2)]
        assert [epoch for *_, epoch, _ in seen] == expected
        for shuffle_seed, n, epoch, perm in seen:
            assert np.array_equal(perm, _expected_order(shuffle_seed, epoch, n)), epoch

    def test_threads_sharing_a_seed_write_the_run_dirs_of_serial_runs(
        self, tmp_path, monkeypatch, order_cache
    ):
        from optbench import engine

        configs = resolve(
            "task: {name: mlp_synth, max_epochs: 20, train_size: 128}\n"
            "optimizer: {name: [adamw_baseline, sgd_baseline]}\n"
            "engine: {seed: 3}"
        )
        serial = {}
        for i, cfg in enumerate(configs):
            with monkeypatch.context() as mp:
                mp.setattr(engine, "_ORDERS", engine._OrderCache())
                train_run(cfg, tmp_path / f"serial{i}")
            serial[i] = run_dir_files(tmp_path / f"serial{i}")
        calls = _record_draws(monkeypatch)
        real = engine.permutations

        def slow(seeds, n):  # widens the window in which both threads miss
            time.sleep(0.02)
            return real(seeds, n)

        monkeypatch.setattr(engine, "permutations", slow)
        start = threading.Barrier(len(configs))
        errors = []

        def train(i, cfg):
            try:
                start.wait()
                train_run(cfg, tmp_path / f"thread{i}")
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=train, args=item) for item in enumerate(configs)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
        assert errors == []
        for i in serial:
            assert run_dir_files(tmp_path / f"thread{i}") == serial[i]
        drawn = sorted(seed for call in calls for seed in call)
        assert drawn == sorted(derive_child(derive_seeds(3)["shuffle"], e) for e in range(1, 21))
        assert order_cache.nbytes == _cache_bytes(order_cache) == 20 * 8 * 128

    def test_stress_more_threads_than_cores_keep_the_byte_count(self, order_cache, monkeypatch):
        from optbench import engine

        n = 16
        monkeypatch.setattr(engine, "ORDER_CACHE_BYTES", 3 * PERM_BLOCK * 8 * n)
        seeds = [derive_child(self.SEED, k) for k in range(6)]
        errors = []

        def hammer(offset):
            try:
                for k in range(60):
                    seed = seeds[(k + offset) % len(seeds)]
                    first = 1 + (k * 5 + offset) % 20
                    for epoch, perm in _epoch_orders(seed, range(first, first + 20), n):
                        assert np.array_equal(perm, _expected_order(seed, epoch, n))
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = (os.cpu_count() or 1) + 2
            threads = [threading.Thread(target=hammer, args=(i,)) for i in range(workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert order_cache.nbytes == _cache_bytes(order_cache) <= engine.ORDER_CACHE_BYTES

    def test_a_two_optimizer_grid_draws_each_epoch_once(self, tmp_path, monkeypatch, order_cache):
        calls = _record_draws(monkeypatch)
        epochs = PERM_BLOCK + 4
        configs = resolve(
            f"task: {{name: mlp_synth, max_epochs: {epochs}, train_size: 128}}\n"
            "optimizer: {name: [adamw_baseline, adamcpr]}\n"
            "engine: {seed: 9}"
        )
        for i, cfg in enumerate(configs):
            train_run(cfg, tmp_path / str(i))
        # the first run draws its two blocks; the second reads them from the cache
        shuffle = derive_seeds(9)["shuffle"]
        assert calls == [
            [derive_child(shuffle, e) for e in range(1, PERM_BLOCK + 1)],
            [derive_child(shuffle, e) for e in range(PERM_BLOCK + 1, epochs + 1)],
        ]
        assert list(order_cache.rows) == [(shuffle, 128)]
        assert sorted(order_cache.rows[shuffle, 128]) == list(range(1, epochs + 1))


LOCKSTEP_AXES = {  # per optimizer: axes that vary hyperparameters inside one group
    "sgd_baseline": "learning_rate: [0.001, 0.0003]\n  weight_decay: [0.0, 0.01]",
    "adamw_baseline": "learning_rate: [0.01, 0.003]\n  weight_decay: [0.0, 0.1]",
    "adamcpr": "learning_rate: [0.01, 0.003]\n  kappa_init_param: [0.0, 1.0, 3.0]",
    "adafactor": "learning_rate: [0.01, 0.003]\n  weight_decay: [0.0, 0.1]",
}


def _lockstep_jobs(tmp_path, text, where):
    configs = resolve(text)
    return [(cfg, tmp_path / where / str(i)) for i, cfg in enumerate(configs)]


def _alone(jobs, tmp_path):
    """The run dirs of ``jobs`` trained one at a time, as run dir snapshots."""
    alone = []
    for i, (cfg, _) in enumerate(jobs):
        train_run(cfg, tmp_path / "alone" / str(i))
        alone.append(run_dir_files(tmp_path / "alone" / str(i)))
    return alone


def _count_steps(monkeypatch) -> Counter:
    """Calls of ``forward_backward``, ``optimizer_step`` and ``evaluate`` made by the engine."""
    from optbench import engine

    calls = Counter()
    for name in ("forward_backward", "optimizer_step", "evaluate"):
        def counted(*args, _name=name, _real=getattr(engine, name)):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(engine, name, counted)
    return calls


class CliffTask(TaskInstance):
    """One parameter on a bowl with two cliffs: past +10 the loss is
    infinite, past -10 the loss stays finite but the gradient is infinite."""

    name = "cliff"
    metric = MetricSpec("loss", "minimize")

    def _generate_splits(self, rng):
        return self._dummy_splits()

    def _build_groups(self):
        return [ParamGroup("theta", 0, 1, (1,), True)]

    def init_params(self, rng):
        return np.ones(1)

    def loss_grads(self, params, batch):
        x = params[:, 0]
        losses = np.where(x > 10.0, np.inf, np.minimum(x * x, 100.0))
        return losses, np.where(params < -10.0, -np.inf, 2.0 * params)

    def metric_values(self, params, split):
        return np.abs(params[:, 0]).tolist()


class TestLockstep:
    """Runs that share their task config, optimizer name and start epoch
    train as one [S, P] stack and write the run dirs they write alone."""

    @pytest.mark.parametrize("opt_name", sorted(LOCKSTEP_AXES))
    @pytest.mark.parametrize("task_name", ["quadratic", "rosenbrock", "blobs_logreg", "mlp_synth"])
    def test_a_group_writes_the_run_dirs_of_runs_alone(
        self, tmp_path, monkeypatch, task_name, opt_name
    ):
        text = (
            f"task: {{name: {task_name}, max_epochs: 3}}\n"
            f"optimizer:\n  name: {opt_name}\n  {LOCKSTEP_AXES[opt_name]}\n"
            "engine: {seed: [0, 1]}"
        )
        jobs = _lockstep_jobs(tmp_path, text, "group")
        alone = _alone(jobs, tmp_path)
        calls = _count_steps(monkeypatch)
        results = train_runs(jobs)
        assert [run_dir_files(wd) for _, wd in jobs] == alone
        assert all(r.status == "completed" for r in results)
        steps = 3 * steps_per_epoch(build_task(jobs[0][0]["task"]))  # one stack: not S times more
        assert calls == {"forward_backward": steps, "optimizer_step": steps, "evaluate": 3 + 2}

    def test_diverging_runs_leave_the_stack_with_the_errors_of_runs_alone(
        self, tmp_path, monkeypatch
    ):
        register_task("cliff", CliffTask)
        jobs = []
        for i, lr in enumerate([0.1, 1.5, 2.0, 0.2]):
            cfg = copy.deepcopy(VALLEY_CONFIG)  # 10 epochs of 1 step, sgd without momentum
            cfg["task"]["name"] = "cliff"
            cfg["optimizer"]["learning_rate"] = lr
            jobs.append((cfg, tmp_path / "group" / str(i)))
        alone = _alone(jobs, tmp_path)
        calls = _count_steps(monkeypatch)
        results = train_runs(jobs)
        assert [run_dir_files(wd) for _, wd in jobs] == alone
        errors = [r.error for r in results]
        assert [r.status for r in results] == ["completed", "aborted", "aborted", "completed"]
        assert "non-finite training loss at step" in errors[1]
        assert errors[2].endswith("non-finite gradient")
        assert calls["forward_backward"] == 10  # the survivors keep one stack

    def test_a_plugin_optimizer_steps_each_row(self, tmp_path):
        from optbench import register_optimizer, register_optimizer_defaults
        from optbench import config as cfgmod
        from optbench import optim as optmod
        from optbench.optim import OptimizerState

        def configure(groups, config):
            return OptimizerState("signsgd", list(groups), config, buffers={"n": np.zeros(1)})

        def step(params, grads, state, lr_t):  # one run's rows at a time
            assert params.shape == grads.shape == (state.groups[-1].end,)
            state.step_count += 1
            state.buffers["n"] += 1.0
            params -= lr_t * np.sign(grads)

        register_optimizer("signsgd", configure, step)
        register_optimizer_defaults(
            "signsgd", {"learning_rate": 0.05, "lr_warmup": 0.01, "lr_min_factor": 0.01}
        )
        try:
            text = (
                "task: {name: quadratic, max_epochs: 3}\n"
                "optimizer: {name: signsgd, learning_rate: [0.05, 0.01]}\n"
                "engine: {seed: [1, 2]}"
            )
            jobs = _lockstep_jobs(tmp_path, text, "group")
            alone = _alone(jobs, tmp_path)
            train_runs(jobs)
            assert [run_dir_files(wd) for _, wd in jobs] == alone
        finally:
            optmod.OPTIMIZERS.pop("signsgd", None)
            cfgmod._EXTRA_DEFAULTS["optimizers"].pop("signsgd", None)

    def test_a_group_evaluates_once_per_epoch_and_tests_only_its_survivors(self, tmp_path, monkeypatch):
        from optbench import engine

        register_task("cliff", CliffTask)
        calls = []
        real = engine.evaluate

        def recording(task, params, split):
            calls.append((split, len(params)))
            return real(task, params, split)

        # 10 epochs of 1 step: 0.1 and 0.2 complete, 2.0 aborts in epoch 4 and 1.5 in epoch 5
        for lrs, rows in (([0.1, 1.5, 2.0, 0.2], [4, 4, 4, 3] + [2] * 6), ([1.5, 2.0], [2, 2, 2, 1])):
            jobs = []
            for i, lr in enumerate(lrs):
                cfg = copy.deepcopy(VALLEY_CONFIG)
                cfg["task"]["name"] = "cliff"
                cfg["optimizer"]["learning_rate"] = lr
                jobs.append((cfg, tmp_path / f"group{len(lrs)}" / str(i)))
            alone = _alone(jobs, tmp_path / f"alone{len(lrs)}")
            calls.clear()
            with monkeypatch.context() as mp:
                mp.setattr(engine, "evaluate", recording)
                train_runs(jobs)
            assert [run_dir_files(wd) for _, wd in jobs] == alone
            assert [n for split, n in calls if split == "val"] == rows  # each epoch, its live rows
            survivors = [2, 2] if len(lrs) == 4 else []  # test_best, test_last; none if all aborted
            assert [n for split, n in calls if split == "test"] == survivors

    def test_a_group_draws_the_init_params_of_each_seed_once(self, tmp_path, monkeypatch):
        text = (
            "task: {name: mlp_synth, max_epochs: 1}\n"
            "optimizer: {name: adamw_baseline, learning_rate: [0.01, 0.003, 0.001]}\n"
            "engine: {seed: [4, 5]}"
        )
        jobs = _lockstep_jobs(tmp_path, text, "group")
        alone = _alone(jobs, tmp_path)
        drawn = []
        real = MlpSynthTask.init_params

        def recording(self, rng):
            drawn.append(list(rng.s))
            return real(self, rng)

        monkeypatch.setattr(MlpSynthTask, "init_params", recording)
        train_runs(jobs)
        assert sorted(drawn) == sorted(Xoshiro256StarStar(derive_seeds(s)["init"]).s for s in (4, 5))
        assert [run_dir_files(wd) for _, wd in jobs] == alone

    def test_groups_split_by_task_optimizer_and_start_epoch(self, tmp_path, monkeypatch):
        text = (
            "task: {name: blobs_logreg, max_epochs: 3, batch_size: [64, 128]}\n"
            "optimizer: {name: [adamw_baseline, adamcpr], learning_rate: [0.01, 0.003]}\n"
            "engine: {seed: 0}"
        )
        jobs = _lockstep_jobs(tmp_path, text, "group")
        with monkeypatch.context() as mp:
            stop_after_epoch(mp, 1)
            with pytest.raises(Interrupted):
                train_run(*jobs[0])  # a run one epoch ahead starts a group of its own
        from optbench import engine

        sizes = []
        real = engine._run

        def recording(starts):
            sizes.append(len(starts))
            return real(starts)

        monkeypatch.setattr(engine, "_run", recording)
        train_runs(jobs)
        assert sizes == [1, 1, 2, 2, 2]
        monkeypatch.undo()
        assert [run_dir_files(wd) for _, wd in jobs] == _alone(jobs, tmp_path)

    def test_one_workdir_given_twice_is_refused_before_anything_is_written(self, tmp_path):
        configs = resolve(QUAD_ADAMW.format(epochs=2, seed=[1, 2]))
        with pytest.raises(BadParameterError, match="one workdir twice"):
            train_runs([(cfg, tmp_path / "run") for cfg in configs])
        assert not (tmp_path / "run").exists()

    def test_a_group_spanning_three_seeds_draws_three_orders_an_epoch(
        self, tmp_path, monkeypatch, order_cache
    ):
        calls = _record_draws(monkeypatch)
        text = (
            "task: {name: mlp_synth, max_epochs: 2, train_size: 64}\n"
            "optimizer: {name: adamw_baseline, learning_rate: [0.01, 0.003]}\n"
            "engine: {seed: [4, 5, 6]}"
        )
        train_runs(_lockstep_jobs(tmp_path, text, "group"))
        shuffles = [derive_seeds(seed)["shuffle"] for seed in (4, 5, 6)]
        assert calls == [[derive_child(shuffle, e) for e in (1, 2)] for shuffle in shuffles]

    def test_kill_at_every_write_of_a_group_then_rerun_finishes_each_run(
        self, tmp_path, monkeypatch
    ):
        text = (
            "task: {name: blobs_logreg, max_epochs: 2, train_size: 64, batch_size: 32}\n"
            "optimizer: {name: adamcpr, learning_rate: [0.01, 0.003]}\n"
            "engine: {seed: [0, 1]}"
        )
        jobs = _lockstep_jobs(tmp_path, text, "full")
        writes = _record_writes(monkeypatch, train_runs, jobs)
        expected = [run_dir_files(wd) for _, wd in jobs]
        assert expected == _alone(jobs, tmp_path)
        for i, name, nth, torn in _kill_points(writes):
            killed = [(cfg, tmp_path / f"kill{i}{'torn' * torn}" / wd.name) for cfg, wd in jobs]
            with monkeypatch.context() as mp:
                fail_write(mp, name, nth, torn)
                with pytest.raises(Interrupted):
                    train_runs(killed)
            assert all(r.status == "completed" for r in train_runs(killed))
            assert [run_dir_files(wd) for _, wd in killed] == expected, (i, name, nth, torn)


def test_result_bytes_are_those_of_asdict(workdir):
    result = train_run(quad_config(epochs=3), workdir)
    expected = json.dumps(asdict(result), sort_keys=True, indent=1) + "\n"
    assert (workdir / "result.json").read_text(encoding="utf-8") == expected
