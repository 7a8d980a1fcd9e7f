"""Training: the run lifecycle, checkpoints and batch orders.

``rundir`` owns the run directory: its layout, ``RunResult``, ``read_run``,
the cache hit and ``train_runs``, the one way in. This half is the numpy
one. ``rundir`` imports it only to read a checkpoint or to train, so a rerun
whose every run is a cache hit never loads it.

Fresh start, resume and budget extension share one lifecycle, ``_run``: it
builds the task, starts each run from the checkpoint ``train_runs`` read and
checked (or epoch 0, never written), trains up to ``task.max_epochs`` and
writes ``result.json``. It trains the S >= 1 runs that ``train_runs`` groups,
those that share the task config, the optimizer name and their start epoch,
in lockstep as one [S, P] stack: the runs of a grid, an HPO wave's trials of
one budget, a retrain's seeds; a lone run is S = 1. Each epoch's validation
is one ``evaluate`` call over the stack, as are the survivors' test values
at the end. Each run writes the files it would write alone, apart from
wall-clock fields, which time the group: an epoch's ``wall_time_s`` since
the group began it, a result's since the group's first step. A kill
mid-group leaves several incomplete runs, which ``train_runs`` (``optbench
resume``) finishes bit-identically.

A checkpoint is the whole resume state: parameters, optimizer state (one
array per buffer), the best validation value with its parameters, and the
budget history. It holds no seeds: ``_run`` derives them from
``engine.seed`` on every start, and the run id ties the checkpoint to it.
Each epoch appends its metrics line and then rewrites one of two checkpoint
slots in place, ``next.ckpt`` and ``last.ckpt`` in turn, never the one that
holds the newest checkpoint; a finished ``_run`` leaves the final one in
``last.ckpt`` and no ``next.ckpt``. ``_write_slot`` is the only checkpoint
writer; every other file but the metrics append is written by
``rundir._write_atomic`` to a temporary file and renamed into place. So a
kill at any write, or a torn slot write, leaves a run that resumes from the
last checkpointed epoch, and a kill inside an extension is finished by the
same call with the extended config.

A checkpoint is one line of canonical JSON (the integers, the run id and
the ordered ``[name, length]`` list of its arrays), one blob of those
arrays' little-endian float64 bytes, ``best_params`` left out while it is
bit-identical to ``params``, and a SHA-256 trailer over both. So a
load/save round trip reproduces the identical bytes and a resumed run is
bit-identical to one that never stopped. A checkpoint of another version
raises ``VersionMismatchError``. Batch order depends only on (shuffle seed,
epoch index). A process keeps the orders it draws, keyed by shuffle stream
and train size, within ``ORDER_CACHE_BYTES``, so runs that share
``engine.seed`` (the trials of a search, the optimizers of a grid) draw each
epoch's order once; a miss costs what a draw costs without the cache, and no
result depends on it.
"""

from __future__ import annotations

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
from .errors import BadHyperparameterError, BadParameterError, CheckpointError, CorruptCheckpointError
from .errors import VersionMismatchError
from .optim import OptimizerConfig, OptimizerStack, OptimizerState, configure_optimizer, optimizer_step
from .rng import Xoshiro256StarStar, derive_child, derive_stream, permutations
from .rundir import RunResult, _paths
from .sched import ScheduleSpec, lr_at
from .tasks import TaskInstance, build_task, evaluate, forward_backward

CHECKPOINT_VERSION = 4
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

def _f8(a) -> bytes:
    """The little-endian float64 bytes of an array or a float."""
    return np.asarray(a, dtype="<f8").tobytes()


def encode_optimizer_state(state: OptimizerState) -> dict:
    """A snapshot that holds every float as its raw bytes, so ``==`` is exact."""
    return {
        "step_count": state.step_count,
        "buffers": {k: _f8(a) for k, a in state.buffers.items()},
        "cpr": {
            g: {"fix_step": cs.fix_step, "lam": _f8(cs.lam),
                "kappa": None if cs.kappa is None else _f8(cs.kappa)}
            for g, cs in state.cpr.items()
        },
    }


def restore_optimizer_state(snapshot: dict, state: OptimizerState) -> None:
    """Load a snapshot into a freshly configured state (shapes must match)."""
    state.step_count = snapshot["step_count"]
    for k, raw in snapshot["buffers"].items():
        buf = state.buffers[k]
        buf[...] = np.frombuffer(raw, dtype="<f8").reshape(buf.shape)
    for g, enc in snapshot["cpr"].items():
        cs = state.cpr[g]
        cs.fix_step = enc["fix_step"]
        cs.lam = np.frombuffer(enc["lam"], dtype="<f8").item()
        cs.kappa = None if enc["kappa"] is None else np.frombuffer(enc["kappa"], dtype="<f8").item()


@dataclass
class Checkpoint:
    epoch: int
    step_count: int
    params: np.ndarray
    optimizer_state: dict  # snapshot as produced by encode_optimizer_state
    best_val: dict | None  # {"value": float, "epoch": int}
    best_params: np.ndarray | None  # None until the first improving epoch, as best_val
    budgets: list[int]  # every max_epochs the run was given, in order
    run_id: str


def encode_checkpoint(ckpt: Checkpoint) -> bytes:
    """Canonical file bytes of a checkpoint: a JSON header line, the float64
    blob it lists and a SHA-256 trailer over both."""
    state, best = ckpt.optimizer_state, ckpt.best_val
    arrays = {"params": _f8(ckpt.params)}
    if best is not None:
        arrays["best_val"] = _f8(best["value"])
        best_params = _f8(ckpt.best_params)
        if best_params != arrays["params"]:  # bit for bit: a zero of another sign differs
            arrays["best_params"] = best_params
    arrays.update((f"buffer:{k}", state["buffers"][k]) for k in sorted(state["buffers"]))
    for g in sorted(state["cpr"]):
        arrays[f"lam:{g}"] = state["cpr"][g]["lam"]
        if state["cpr"][g]["kappa"] is not None:
            arrays[f"kappa:{g}"] = state["cpr"][g]["kappa"]
    header = {
        "version": CHECKPOINT_VERSION,
        "epoch": ckpt.epoch,
        "step_count": ckpt.step_count,
        "optimizer_step_count": state["step_count"],
        "budgets": ckpt.budgets,
        "run_id": ckpt.run_id,
        "best_epoch": None if best is None else best["epoch"],
        "fix_steps": {g: cs["fix_step"] for g, cs in state["cpr"].items()},
        "arrays": [[name, len(raw) // 8] for name, raw in arrays.items()],
    }
    body = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    body = b"".join([body, b"\n", *arrays.values()])
    return body + b"sha256 " + hashlib.sha256(body).hexdigest().encode("ascii") + b"\n"


def _write_slot(path: Path, data: bytes) -> None:
    """Rewrite a checkpoint slot in place: the file is created only if it is
    missing, and never renamed. A kill mid-write tears only this slot."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as f:
        f.write(data)
        f.truncate()


def load_checkpoint(path: str | Path) -> Checkpoint:
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    body, trailer = data[:-72], data[-72:]  # b"sha256 ", 64 hex digits, b"\n"
    if not (trailer.startswith(b"sha256 ") and trailer.endswith(b"\n")):
        raise CorruptCheckpointError(f"missing integrity trailer in {path}")
    if hashlib.sha256(body).hexdigest().encode("ascii") != trailer[7:-1]:
        raise CorruptCheckpointError(f"integrity check failed for {path}")
    line, _, blob = body.partition(b"\n")  # versions 1-3: the whole JSON body, no blob
    try:
        head = json.loads(line)
    except ValueError as exc:
        raise CorruptCheckpointError(f"unparseable checkpoint {path}") from exc
    if head.get("version") != CHECKPOINT_VERSION:
        raise VersionMismatchError(
            f"{path} has checkpoint version {head.get('version')}, this optbench "
            f"reads only version {CHECKPOINT_VERSION}: delete the run directory and rerun"
        )
    raw, start = {}, 0
    for name, n in head["arrays"]:
        raw[name], start = blob[start : start + 8 * n], start + 8 * n
    params = np.frombuffer(raw["params"], dtype="<f8").astype(np.float64)
    best_val = best_params = None
    if head["best_epoch"] is not None:
        value = np.frombuffer(raw["best_val"], dtype="<f8").item()
        best_val = {"value": value, "epoch": head["best_epoch"]}
        best_params = np.frombuffer(raw.get("best_params", raw["params"]), dtype="<f8").astype(np.float64)
    snapshot = {
        "step_count": head["optimizer_step_count"],
        "buffers": {name[7:]: part for name, part in raw.items() if name.startswith("buffer:")},
        "cpr": {
            g: {"fix_step": fix_step, "lam": raw[f"lam:{g}"], "kappa": raw.get(f"kappa:{g}")}
            for g, fix_step in head["fix_steps"].items()
        },
    }
    return Checkpoint(
        head["epoch"], head["step_count"], params, snapshot, best_val, best_params, head["budgets"], head["run_id"]
    )


def _truncate_metrics(metrics_path: Path, up_to_epoch: int) -> list[dict]:
    """Drop metric lines past the checkpointed epoch (mid-epoch crashes).

    An unparseable final line was torn by a kill inside the per-epoch
    append, so it lies past the checkpoint too; any other line that is not
    an epoch's entry raises ``CheckpointError``, naming the file and line.
    """
    raw = metrics_path.read_text(encoding="utf-8") if metrics_path.exists() else ""
    lines = raw.splitlines()
    history = []
    for n, line in enumerate(lines, 1):
        try:
            entry = json.loads(line)
        except json.JSONDecodeError:
            if n == len(lines):
                break
            entry = None
        if not (isinstance(entry, dict) and isinstance(entry.get("epoch"), int)):
            raise CheckpointError(f"{metrics_path} line {n} is not an epoch's metrics: {line[:60]!r}")
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
    """The run's schedule; a range error names the optimizer key it read."""
    keys = dict(base_lr="learning_rate", warmup_fraction="lr_warmup", min_lr_fraction="lr_min_factor")
    values = {field: float(opt_cfg_dict.get(key, 0.01)) for field, key in keys.items()}
    try:
        return ScheduleSpec(total_steps=max_epochs * steps_per_epoch(task), **values)
    except BadHyperparameterError as exc:
        field, _, rule = str(exc).partition(" ")  # "<field> must be ..."
        if field not in keys:
            raise
        raise BadHyperparameterError(f"`optimizer.{keys[field]}` {rule}, got {values[field]!r}") from None


# --- training ----------------------------------------------------------------

class _Run:
    """One run of a ``_run``: files, schedule, optimizer state, checkpoint, result; built without file I/O."""

    def __init__(self, task: TaskInstance, inits: dict, config: dict, workdir: Path, ckpt, slot):
        self.task, self.config = task, config
        self.paths = paths = _paths(workdir)
        self.rid = run_id(config)
        self.schedule = _build_schedule(task, config["optimizer"], task.max_epochs)
        opt_cfg = OptimizerConfig.from_dict(config["optimizer"], self.schedule)
        self.opt_state = configure_optimizer(task.groups, opt_cfg)
        seeds = derive_seeds(int(config["engine"]["seed"]))
        self.shuffle_seed = seeds["shuffle"]
        if ckpt is None:  # epoch 0: the config fixes it, so no file holds it
            if seeds["init"] not in inits:  # the group's runs of one engine.seed share it
                inits[seeds["init"]] = task.init_params(Xoshiro256StarStar(seeds["init"]))
            params = inits[seeds["init"]]
            state = encode_optimizer_state(self.opt_state)
            ckpt = Checkpoint(0, 0, params, state, None, None, [task.max_epochs], self.rid)
        else:
            restore_optimizer_state(ckpt.optimizer_state, self.opt_state)
        task.check_params(ckpt.params)
        self.ckpt = ckpt
        self.newest = int(slot == paths["next"])  # the slot that holds ckpt; epochs write the other one
        info = ("total_steps", "warmup_steps", "warmup_clamped")
        self.result = RunResult(
            self.rid, "completed", seeds_used=seeds, budgets=ckpt.budgets,
            metric={"kind": task.metric.kind, "direction": task.metric.direction},
            schedule_info={k: getattr(self.schedule, k) for k in info},
        )

    def end_epoch(self, task, epoch, step_count, params, lr_last, losses, val_metric, epoch_start) -> None:
        """Append the epoch's metrics line and write it to the other slot."""
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

    def finish(self, t_start: float, test: tuple[float, float] | None, error: str | None = None) -> None:
        """Move the newest checkpoint to ``last.ckpt``; write the result with
        its ``test`` values (best, last), or aborted with ``error``."""
        paths, result = self.paths, self.result
        if self.newest:
            os.replace(paths["next"], paths["last"])
        else:
            paths["next"].unlink(missing_ok=True)
        result.best_val = self.ckpt.best_val
        result.wall_time_s = time.monotonic() - t_start
        if error is None:
            result.test_best, result.test_last = test
        else:
            result.status, result.error = "aborted", error
        result.save(paths["result"])


def _prepare(starts: list[tuple[dict, Path, Checkpoint | None, Path | None]]) -> list[_Run]:
    """Build a lockstep group's task and its runs, each ``(config, workdir, ckpt, slot)``
    to start from ``ckpt`` (``None``: epoch 0): every range check, and no file written."""
    task = build_task(starts[0][0]["task"])
    inits = {}  # init seed -> epoch-0 params, read-only
    return [_Run(task, inits, *start) for start in starts]


@np.errstate(all="ignore")  # divergence is a result: a non-finite loss or gradient aborts its run
def _run(runs: list[_Run]) -> list[RunResult]:
    """The one run lifecycle, for S >= 1 runs in lockstep: write each run's
    dir and config, train it from its checkpoint up to ``task.max_epochs``
    and write its ``result.json``.

    The runs share their task config and start epoch, so they take the same
    steps; each run's batches follow its own batch orders. A run whose loss
    or gradient turns non-finite leaves the stack at that step. Validation
    is one ``evaluate`` of the stack per epoch; ``test_best`` and
    ``test_last`` one each of the runs that complete, none if every run
    aborted."""
    task = runs[0].task
    for run in runs:  # the group's first writes: each run's dir, config and history
        run.paths["last"].parent.mkdir(parents=True, exist_ok=True)
        rundir._write_atomic(run.paths["config"], dump_config(run.config).encode("utf-8"))
        run.result.history = _truncate_metrics(run.paths["metrics"], run.ckpt.epoch)
    live = list(runs)  # the runs still in the stack, one per row
    train, batch = task.splits["train"], task.batch_size
    batches = [slice(b, b + batch) for b in range(0, train.n, batch)]
    params = np.array([run.ckpt.params for run in live])
    stack = OptimizerStack([run.opt_state for run in live])
    step_count = live[0].ckpt.step_count
    epochs = range(live[0].ckpt.epoch + 1, task.max_epochs + 1)
    orders = [_epoch_orders(run.shuffle_seed, epochs, train.n) for run in live]
    t_start = time.monotonic()
    for epoch in epochs:
        epoch_start = time.monotonic()
        order = np.array([next(run_orders)[1] for run_orders in orders])  # [S, n]
        losses = []
        for cols in batches:
            lrs = [lr_at(run.schedule, step_count) for run in live]
            # each step gathers its own rows: a shuffled copy of the split per run would
            # outweigh the step's activations
            loss, grad = forward_backward(task, params, train.take(order[:, cols]))
            if not (all(map(math.isfinite, loss.tolist())) and math.isfinite(grad.sum())):
                errors = {}  # none if only the sum overflowed; a lone run checks its loss first
                for i in range(len(live)):
                    if not math.isfinite(loss[i]):
                        errors[i] = f"non-finite training loss at step {step_count}"
                    elif not np.isfinite(grad[i]).all():
                        errors[i] = "non-finite gradient"
                for i, error in errors.items():
                    live[i].finish(t_start, None, f"epoch {epoch}: {error}")
                keep = [i for i in range(len(live)) if i not in errors]
                if not keep:
                    return [run.result for run in runs]
                live, orders = [live[i] for i in keep], [orders[i] for i in keep]
                lrs, losses = [lrs[i] for i in keep], [row[keep] for row in losses]
                params, loss, grad, order = params[keep], loss[keep], grad[keep], order[keep]
                stack = OptimizerStack([run.opt_state for run in live])
            optimizer_step(params, grad, stack, lrs)
            step_count += 1
            losses.append(loss)
        per_run = np.array(losses).T  # np.mean of a row sums as for a list; .mean(axis=1) would not
        val = evaluate(task, params, "val")
        for i, run in enumerate(live):
            run.end_epoch(task, epoch, step_count, params[i], lrs[i], per_run[i], val[i], epoch_start)
    test_best = evaluate(task, np.array([run.ckpt.best_params for run in live]), "test")
    test_last = evaluate(task, params, "test")
    for i, run in enumerate(live):
        run.finish(t_start, (test_best[i], test_last[i]))
    return [run.result for run in runs]
