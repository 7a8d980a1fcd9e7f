"""Training: the run lifecycle, checkpoints and batch orders.

``rundir`` owns the run directory: its layout, ``RunResult``, ``read_run``,
the cache hit and ``train_runs``, the one way in. This half is the numpy
one. ``rundir`` imports it only to read a checkpoint or to train, so a rerun
whose every run is a cache hit never loads it.

Fresh start, resume and budget extension share one lifecycle, ``_run``: it
builds the task, starts each run from the checkpoint ``train_runs`` read and
checked (or a new epoch-0 one), trains up to ``task.max_epochs`` and writes
``result.json``. It trains the S >= 1 runs that ``train_runs`` groups, those
that share the task config, the optimizer name and their start epoch, in
lockstep as one [S, P] stack: the runs of a grid, an HPO rung's cohort, a
retrain's seeds; a lone run is S = 1. Each run writes the files it would
write alone, apart from wall-clock fields, which time the group: an epoch's
``wall_time_s`` since the group began it, a result's since the group's first
step. A kill mid-group leaves several incomplete runs, which ``train_runs``
(``optbench resume``) finishes bit-identically.

A checkpoint is the whole resume state: parameters, optimizer state (one
array per buffer), the best validation value with its parameters, and the
budget history. It holds no seeds: ``_run`` derives them from
``engine.seed`` on every start, and the run id ties the checkpoint to it.
Each epoch appends its metrics line and then rewrites one of two checkpoint
slots in place, ``next.ckpt`` and ``last.ckpt`` in turn, never the one that
holds the newest checkpoint; a finished ``_run`` leaves the final one in
``last.ckpt`` and no ``next.ckpt``. Every other file but the metrics append
is written by ``rundir._write_atomic`` to a temporary file and renamed into
place. So a kill at any write, or a torn slot write, leaves a run that
resumes from the last checkpointed epoch, and a kill inside an extension is
finished by the same call with the extended config.

Checkpoints are canonical JSON plus a SHA-256 trailer. Every float array
and float scalar is stored as base64 of its little-endian float64 bytes, so
a load/save round trip reproduces the identical bytes and a resumed run is
bit-identical to one that never stopped. A checkpoint of another version
raises ``VersionMismatchError``. Batch order depends only on (shuffle seed,
epoch index). A process keeps the orders it draws, keyed by shuffle stream
and train size, within ``ORDER_CACHE_BYTES``, so runs that share
``engine.seed`` (the trials of a search, the optimizers of a grid) draw each
epoch's order once; a miss costs what a draw costs without the cache, and no
result depends on it.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
import os
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import rundir
from .config import dump_config, run_id
from .errors import BadParameterError, CheckpointError, CorruptCheckpointError, VersionMismatchError
from .optim import OptimizerConfig, OptimizerStack, OptimizerState, configure_optimizer, optimizer_step
from .rng import Xoshiro256StarStar, derive_child, derive_stream, permutations
from .rundir import RunResult, _paths
from .sched import ScheduleSpec, lr_at
from .tasks import TaskInstance, build_task, evaluate, forward_backward

CHECKPOINT_VERSION = 3
SEED_STREAMS = ("init", "shuffle")
PERM_BLOCK = 16  # epochs whose batch orders are drawn in one batched call
ORDER_CACHE_BYTES = 16 << 20  # batch orders a process keeps for its later runs


def derive_seeds(engine_seed: int) -> dict[str, int]:
    """Per-stream 64-bit seeds derived from the run seed.

    Streams are independent of each other and of insertion order; equal
    engine seeds always give equal maps.
    """
    if engine_seed < 0:
        raise BadParameterError("engine.seed must be >= 0")
    return {name: derive_stream(engine_seed, name) for name in SEED_STREAMS}


# --- checkpoints ------------------------------------------------------------

def _encode_array(a) -> str:
    """Base64 of the little-endian float64 bytes of an array or a float."""
    return base64.b64encode(np.asarray(a, dtype="<f8").tobytes()).decode("ascii")


def _decode_array(text: str) -> np.ndarray:
    """Flat float64 array of ``_encode_array`` output; ``.item()`` for a float."""
    return np.frombuffer(base64.b64decode(text), dtype="<f8").astype(np.float64)


def encode_optimizer_state(state: OptimizerState) -> dict:
    return {
        "step_count": state.step_count,
        "buffers": {k: _encode_array(a) for k, a in state.buffers.items()},
        "cpr": {
            g: {
                "fix_step": cs.fix_step,
                "lam": _encode_array(cs.lam),
                "kappa": None if cs.kappa is None else _encode_array(cs.kappa),
            }
            for g, cs in state.cpr.items()
        },
    }


def restore_optimizer_state(snapshot: dict, state: OptimizerState) -> None:
    """Load a snapshot into a freshly configured state (shapes must match)."""
    state.step_count = snapshot["step_count"]
    for k, enc in snapshot["buffers"].items():
        buf = state.buffers[k]
        buf[...] = _decode_array(enc).reshape(buf.shape)
    for g, enc in snapshot["cpr"].items():
        cs = state.cpr[g]
        cs.fix_step = enc["fix_step"]
        cs.lam = _decode_array(enc["lam"]).item()
        cs.kappa = None if enc["kappa"] is None else _decode_array(enc["kappa"]).item()


@dataclass
class Checkpoint:
    epoch: int
    step_count: int
    params: np.ndarray
    optimizer_state: dict  # snapshot as produced by encode_optimizer_state
    best_val: dict | None  # {"value": float, "epoch": int}
    best_params: np.ndarray | None  # None until the first improving epoch
    budgets: list[int]  # every max_epochs the run was given, in order
    run_id: str


def encode_checkpoint(ckpt: Checkpoint) -> bytes:
    """Canonical file bytes of a checkpoint: JSON body plus SHA-256 trailer."""
    best = ckpt.best_val
    payload = {
        "version": CHECKPOINT_VERSION,
        "epoch": ckpt.epoch,
        "step_count": ckpt.step_count,
        "params": _encode_array(ckpt.params),
        "optimizer_state": ckpt.optimizer_state,
        "best_val": None
        if best is None
        else {"value": _encode_array(best["value"]), "epoch": best["epoch"]},
        "best_params": None if ckpt.best_params is None else _encode_array(ckpt.best_params),
        "budgets": ckpt.budgets,
        "run_id": ckpt.run_id,
    }
    body = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    trailer = "sha256 " + hashlib.sha256(body.encode("utf-8")).hexdigest() + "\n"
    return (body + trailer).encode("utf-8")


def _write_slot(path: Path, data: bytes) -> None:
    """Rewrite a checkpoint slot in place: the file is created only if it is
    missing, and never renamed. A kill mid-write tears only this slot."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as f:
        f.write(data)
        f.truncate()


def save_checkpoint(ckpt: Checkpoint, path: str | Path) -> None:
    """Write a checkpoint atomically."""
    rundir._write_atomic(path, encode_checkpoint(ckpt))


def load_checkpoint(path: str | Path) -> Checkpoint:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    lines = text.splitlines(keepends=True)
    if not lines or not lines[-1].startswith("sha256 "):
        raise CorruptCheckpointError(f"missing integrity trailer in {path}")
    body = "".join(lines[:-1])
    expected = lines[-1].split()[1].strip()
    if hashlib.sha256(body.encode("utf-8")).hexdigest() != expected:
        raise CorruptCheckpointError(f"integrity check failed for {path}")
    try:
        payload = json.loads(body)
    except json.JSONDecodeError as exc:
        raise CorruptCheckpointError(f"unparseable checkpoint {path}") from exc
    if payload.get("version") != CHECKPOINT_VERSION:
        raise VersionMismatchError(
            f"{path} has checkpoint version {payload.get('version')}, this optbench "
            f"reads only version {CHECKPOINT_VERSION}: delete the run directory and rerun"
        )
    best = payload["best_val"]
    return Checkpoint(
        epoch=payload["epoch"],
        step_count=payload["step_count"],
        params=_decode_array(payload["params"]),
        optimizer_state=payload["optimizer_state"],
        best_val=None
        if best is None
        else {"value": _decode_array(best["value"]).item(), "epoch": best["epoch"]},
        best_params=None
        if payload["best_params"] is None
        else _decode_array(payload["best_params"]),
        budgets=payload["budgets"],
        run_id=payload["run_id"],
    )


def _truncate_metrics(metrics_path: Path, up_to_epoch: int) -> list[dict]:
    """Drop metric lines past the checkpointed epoch (mid-epoch crashes).

    An unparseable final line was torn by a kill inside the per-epoch
    append, so it lies past the checkpoint too; one anywhere else raises.
    """
    raw = metrics_path.read_text(encoding="utf-8") if metrics_path.exists() else ""
    lines = [ln for ln in raw.splitlines() if ln.strip()]
    history = []
    for n, line in enumerate(lines, 1):
        try:
            entry = json.loads(line)
        except json.JSONDecodeError:
            if n < len(lines):
                raise
            break
        if entry["epoch"] <= up_to_epoch:
            history.append(entry)
    text = "".join(json.dumps(entry, sort_keys=True) + "\n" for entry in history)
    if text != raw:
        rundir._write_atomic(metrics_path, text.encode("utf-8"))
    return history


class _OrderCache:
    """Read-only batch orders by (shuffle seed, n) and epoch, at most
    ``ORDER_CACHE_BYTES`` of them; the least recently used key goes first."""

    def __init__(self):
        self.rows: dict[tuple[int, int], dict[int, np.ndarray]] = {}
        self.nbytes = 0
        self.lock = threading.Lock()  # runs may train in threads

    def get(self, shuffle_seed: int, epochs: range, n: int) -> list[np.ndarray]:
        """The orders of ``epochs``; the missing ones are drawn in one call,
        and kept unless the key would then outgrow the budget."""
        key, size = (shuffle_seed, n), 8 * n  # bytes of one int64 row
        with self.lock:
            rows = self.rows.pop(key, {})
            self.nbytes -= len(rows) * size
            fresh = {}
            missing = [e for e in epochs if e not in rows]
            if missing:
                drawn = permutations([derive_child(shuffle_seed, e) for e in missing], n)
                drawn.flags.writeable = False
                fresh = dict(zip(missing, drawn))
            orders = [rows[e] if e in rows else fresh[e] for e in epochs]
            if (len(rows) + len(fresh)) * size <= ORDER_CACHE_BYTES:
                rows.update(fresh)
            if rows:
                self.rows[key] = rows
                self.nbytes += len(rows) * size
            while self.nbytes > ORDER_CACHE_BYTES:  # oldest first; ``key`` fits alone
                oldest = next(iter(self.rows))
                self.nbytes -= len(self.rows.pop(oldest)) * 8 * oldest[1]
        return orders


_ORDERS = _OrderCache()


def _epoch_orders(shuffle_seed: int, epochs: range, n: int):
    """(epoch, batch order) pairs; epoch e's order is the permutation of
    ``derive_child(shuffle_seed, e)``, taken from the process's cache or
    drawn ``PERM_BLOCK`` epochs at a time."""
    for i in range(0, len(epochs), PERM_BLOCK):
        block = epochs[i : i + PERM_BLOCK]
        yield from zip(block, _ORDERS.get(shuffle_seed, block, n))


def steps_per_epoch(task: TaskInstance) -> int:
    return math.ceil(task.splits["train"].n / task.batch_size)


def _build_schedule(task: TaskInstance, opt_cfg_dict: dict, max_epochs: int) -> ScheduleSpec:
    total = max_epochs * steps_per_epoch(task)
    return ScheduleSpec(
        base_lr=float(opt_cfg_dict["learning_rate"]),
        total_steps=total,
        warmup_fraction=float(opt_cfg_dict.get("lr_warmup", 0.01)),
        min_lr_fraction=float(opt_cfg_dict.get("lr_min_factor", 0.01)),
    )


# --- training ----------------------------------------------------------------

class _Run:
    """One run of a ``_run``: files, schedule, optimizer state, checkpoint, result."""

    def __init__(self, task: TaskInstance, config: dict, workdir: Path, ckpt, slot):
        self.paths = paths = _paths(workdir)
        self.rid = run_id(config)
        self.schedule = _build_schedule(task, config["optimizer"], task.max_epochs)
        opt_cfg = OptimizerConfig.from_dict(config["optimizer"], self.schedule)
        self.opt_state = configure_optimizer(task.groups, opt_cfg)
        seeds = derive_seeds(int(config["engine"]["seed"]))
        self.shuffle_seed = seeds["shuffle"]
        paths["ckpt_dir"].mkdir(parents=True, exist_ok=True)
        rundir._write_atomic(paths["config"], dump_config(config).encode("utf-8"))
        if ckpt is None:
            params = task.init_params(Xoshiro256StarStar(seeds["init"]))
            state = encode_optimizer_state(self.opt_state)
            ckpt = Checkpoint(0, 0, params, state, None, None, [task.max_epochs], self.rid)
            save_checkpoint(ckpt, paths["last"])
        else:
            if slot == paths["next"]:  # the start checkpoint must be in last.ckpt
                os.replace(slot, paths["last"])
            restore_optimizer_state(ckpt.optimizer_state, self.opt_state)
        task.check_params(ckpt.params)
        self.ckpt = ckpt
        self.newest = 0  # index of the slot that holds ckpt; epochs write the other one
        info = ("total_steps", "warmup_steps", "warmup_clamped")
        self.result = RunResult(
            self.rid, "completed", _truncate_metrics(paths["metrics"], ckpt.epoch), seeds_used=seeds,
            budgets=ckpt.budgets, metric={"kind": task.metric.kind, "direction": task.metric.direction},
            schedule_info={k: getattr(self.schedule, k) for k in info},
        )

    def end_epoch(self, task, epoch, step_count, params, lr_last, losses, epoch_start) -> None:
        """Append the epoch's metrics line and write it to the other slot."""
        val_metric = evaluate(task, params, "val")
        entry = {
            "epoch": epoch,
            "lr_last": lr_last,
            "train_loss": float(np.mean(losses)),
            "val_metric": val_metric,
            "wall_time_s": time.monotonic() - epoch_start,
        }
        self.result.history.append(entry)
        with open(self.paths["metrics"], "a", encoding="utf-8") as f:
            f.write(json.dumps(entry, sort_keys=True) + "\n")

        best_val, best_params = self.ckpt.best_val, self.ckpt.best_params
        if best_val is None or task.metric.is_improvement(val_metric, best_val["value"]):
            best_val, best_params = {"value": val_metric, "epoch": epoch}, params.copy()
        self.ckpt = replace(
            self.ckpt, epoch=epoch, step_count=step_count, params=params, run_id=self.rid,
            optimizer_state=encode_optimizer_state(self.opt_state),
            best_val=best_val, best_params=best_params,
        )
        self.newest ^= 1
        _write_slot(self.paths["next" if self.newest else "last"], encode_checkpoint(self.ckpt))

    def finish(self, task, params, t_start: float, error: str | None = None) -> None:
        """Move the newest checkpoint to ``last.ckpt``; write the result, aborted if ``error``."""
        paths, result = self.paths, self.result
        if self.newest:
            os.replace(paths["next"], paths["last"])
        else:
            paths["next"].unlink(missing_ok=True)
        result.best_val = self.ckpt.best_val
        result.wall_time_s = time.monotonic() - t_start
        if error is None:
            result.test_best = evaluate(task, self.ckpt.best_params, "test")
            result.test_last = evaluate(task, params, "test")
        else:
            result.status, result.error = "aborted", error
        result.save(paths["result"])


@np.errstate(all="ignore")  # divergence is a result: a non-finite loss or gradient aborts its run
def _run(starts: list[tuple[dict, Path, Checkpoint | None, Path | None]]) -> list[RunResult]:
    """The one run lifecycle, for S >= 1 runs in lockstep: train each
    ``(config, workdir, ckpt, slot)`` from ``ckpt``, read from ``slot`` and
    checked by the caller against ``config`` (``None``: from a new epoch-0
    checkpoint), up to ``task.max_epochs`` and write its ``result.json``.

    The runs share their task config and start epoch, so they take the same
    steps; each run's batches follow its own batch orders. A run whose loss
    or gradient turns non-finite leaves the stack at that step."""
    task = build_task(starts[0][0]["task"])
    runs = [_Run(task, *start) for start in starts]
    live = list(runs)  # the runs still in the stack, one per row
    train, batch = task.splits["train"], task.batch_size
    batches = [(slice(None), slice(b, b + batch)) for b in range(0, train.n, batch)]  # every run's rows
    params = np.array([run.ckpt.params for run in live])
    stack = OptimizerStack([run.opt_state for run in live])
    step_count = live[0].ckpt.step_count
    epochs = range(live[0].ckpt.epoch + 1, task.max_epochs + 1)
    orders = [_epoch_orders(run.shuffle_seed, epochs, train.n) for run in live]
    t_start = time.monotonic()
    for epoch in epochs:
        epoch_start = time.monotonic()
        shuffled = train.take(np.array([next(run_orders)[1] for run_orders in orders]))
        losses = []
        for rows in batches:
            lrs = [lr_at(run.schedule, step_count) for run in live]
            loss, grad = forward_backward(task, params, shuffled.take(rows))
            if not (all(map(math.isfinite, loss.tolist())) and math.isfinite(grad.sum())):
                errors = {}  # none if only the sum overflowed; a lone run checks its loss first
                for i in range(len(live)):
                    if not math.isfinite(loss[i]):
                        errors[i] = f"non-finite training loss at step {step_count}"
                    elif not np.isfinite(grad[i]).all():
                        errors[i] = "non-finite gradient"
                for i, error in errors.items():
                    live[i].finish(task, None, t_start, f"epoch {epoch}: {error}")
                keep = [i for i in range(len(live)) if i not in errors]
                if not keep:
                    return [run.result for run in runs]
                live, orders = [live[i] for i in keep], [orders[i] for i in keep]
                lrs, losses = [lrs[i] for i in keep], [row[keep] for row in losses]
                params, loss, grad, shuffled = params[keep], loss[keep], grad[keep], shuffled.take(keep)
                stack = OptimizerStack([run.opt_state for run in live])
            optimizer_step(params, grad, stack, lrs)
            step_count += 1
            losses.append(loss)
        per_run = np.array(losses).T  # np.mean of a row sums as for a list; .mean(axis=1) would not
        for i, run in enumerate(live):
            run.end_epoch(task, epoch, step_count, params[i], lrs[i], per_run[i], epoch_start)
    for i, run in enumerate(live):
        run.finish(task, params[i], t_start)
    return [run.result for run in runs]
