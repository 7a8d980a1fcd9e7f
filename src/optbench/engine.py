"""Run execution: fixed-epoch training with checkpoint/resume guarantees.

A run is one resolved configuration trained for ``task.max_epochs`` epochs
in its own working directory:

    <workdir>/config.resolved.yaml
    <workdir>/metrics.jsonl            one line per epoch
    <workdir>/result.json              written on completion or abort
    <workdir>/checkpoints/last.ckpt    every epoch (epoch 0 = untrained)
    <workdir>/checkpoints/best.ckpt    best validation so far

Fresh start, resume and budget extension share one lifecycle, ``_run``: it
builds the task, starts from a checkpoint (the one it is given, else
``last.ckpt``, else a new epoch-0 one), trains up to ``task.max_epochs`` and
writes ``result.json``. ``train_run``, ``resume_run`` and ``extend_budget``
only choose the checkpoint and the budget history it starts from.

Each epoch appends its metrics line, writes ``best.ckpt`` if the epoch
improved, and writes ``last.ckpt`` last. ``last.ckpt`` is the resume point
and its ``best_val`` names the best epoch so far, so it must never be on
disk before the ``best.ckpt`` it names: a kill between the two writes then
leaves ``last.ckpt`` one epoch behind, and the resumed run redoes that
epoch and rewrites both. Every file but the metrics append is written to a
temporary file and renamed into place.

Checkpoints are canonical JSON where every float is stored as its IEEE-754
bit pattern plus a SHA-256 trailer, so a load/save round trip reproduces
the identical bytes and a resumed run is bit-identical to one that never
stopped. Batch order depends only on (shuffle seed, epoch index).
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import os
import struct
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .config import dump_config, load_config, run_id
from .errors import (
    BadParameterError,
    CheckpointError,
    CorruptCheckpointError,
    NonFiniteError,
    RunIdMismatchError,
    VersionMismatchError,
)
from .optim import OptimizerConfig, OptimizerState, configure_optimizer, optimizer_step
from .rng import Xoshiro256StarStar, derive_child, derive_stream
from .sched import ScheduleSpec, lr_at
from .tasks import TaskInstance, build_task, evaluate, forward_backward

CHECKPOINT_VERSION = 1
SEED_STREAMS = ("init", "shuffle")


def derive_seeds(engine_seed: int) -> dict[str, int]:
    """Per-stream 64-bit seeds derived from the run seed.

    Streams are independent of each other and of insertion order; equal
    engine seeds always give equal maps.
    """
    if engine_seed < 0:
        raise BadParameterError("engine.seed must be >= 0")
    return {name: derive_stream(engine_seed, name) for name in SEED_STREAMS}


# --- bit-exact float encoding ---------------------------------------------

def float_to_hex(x: float) -> str:
    return struct.pack(">d", x).hex()


def hex_to_float(h: str) -> float:
    return struct.unpack(">d", bytes.fromhex(h))[0]


def _encode_array(a: np.ndarray) -> dict:
    return {"shape": list(a.shape), "data": [float_to_hex(v) for v in a.ravel().tolist()]}


def _decode_array(d: dict) -> np.ndarray:
    a = np.array([hex_to_float(h) for h in d["data"]], dtype=np.float64)
    return a.reshape(d["shape"])


def encode_optimizer_state(state: OptimizerState) -> dict:
    snap = {
        "step_count": state.step_count,
        "buffers": {
            g: {k: _encode_array(a) for k, a in bufs.items()}
            for g, bufs in state.buffers.items()
        },
        "cpr": {
            g: {
                "fix_step": cs.fix_step,
                "lam": float_to_hex(cs.lam),
                "kappa": None if cs.kappa is None else float_to_hex(cs.kappa),
            }
            for g, cs in state.cpr.items()
        },
    }
    return snap


def restore_optimizer_state(snapshot: dict, state: OptimizerState) -> None:
    """Load a snapshot into a freshly configured state (shapes must match)."""
    state.step_count = snapshot["step_count"]
    for g, bufs in snapshot["buffers"].items():
        for k, enc in bufs.items():
            state.buffers[g][k][...] = _decode_array(enc)
    for g, enc in snapshot["cpr"].items():
        cs = state.cpr[g]
        cs.fix_step = enc["fix_step"]
        cs.lam = hex_to_float(enc["lam"])
        cs.kappa = None if enc["kappa"] is None else hex_to_float(enc["kappa"])


# --- checkpoints ------------------------------------------------------------

@dataclass
class Checkpoint:
    epoch: int
    step_count: int
    params: np.ndarray
    optimizer_state: dict  # snapshot as produced by encode_optimizer_state
    rng_states: dict[str, str]  # stream name -> serialized state (hex)
    best_val: dict | None  # {"value": float, "epoch": int}
    run_id: str
    version: int = CHECKPOINT_VERSION

    def __eq__(self, other):
        if not isinstance(other, Checkpoint):
            return NotImplemented
        return (
            self.version == other.version
            and self.epoch == other.epoch
            and self.step_count == other.step_count
            and self.params.tobytes() == other.params.tobytes()
            and self.optimizer_state == other.optimizer_state
            and self.rng_states == other.rng_states
            and self.best_val == other.best_val
            and self.run_id == other.run_id
        )


def encode_checkpoint(ckpt: Checkpoint) -> bytes:
    """Canonical file bytes of a checkpoint: JSON body plus SHA-256 trailer."""
    payload = {
        "version": ckpt.version,
        "epoch": ckpt.epoch,
        "step_count": ckpt.step_count,
        "params": _encode_array(ckpt.params),
        "optimizer_state": ckpt.optimizer_state,
        "rng_states": ckpt.rng_states,
        "best_val": None
        if ckpt.best_val is None
        else {"value": float_to_hex(ckpt.best_val["value"]), "epoch": ckpt.best_val["epoch"]},
        "run_id": ckpt.run_id,
    }
    body = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    trailer = "sha256 " + hashlib.sha256(body.encode("utf-8")).hexdigest() + "\n"
    return (body + trailer).encode("utf-8")


def _write_atomic(path: str | Path, data: bytes) -> None:
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def save_checkpoint(ckpt: Checkpoint, path: str | Path) -> bytes:
    """Write a checkpoint atomically; returns the bytes written."""
    data = encode_checkpoint(ckpt)
    _write_atomic(path, data)
    return data


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
            f"checkpoint version {payload.get('version')} != {CHECKPOINT_VERSION}"
        )
    best = payload["best_val"]
    return Checkpoint(
        version=payload["version"],
        epoch=payload["epoch"],
        step_count=payload["step_count"],
        params=_decode_array(payload["params"]),
        optimizer_state=payload["optimizer_state"],
        rng_states=payload["rng_states"],
        best_val=None
        if best is None
        else {"value": hex_to_float(best["value"]), "epoch": best["epoch"]},
        run_id=payload["run_id"],
    )


# --- results ----------------------------------------------------------------

@dataclass
class RunResult:
    run_id: str
    status: str  # completed | aborted
    history: list[dict] = field(default_factory=list)
    test_best: float | None = None
    test_last: float | None = None
    best_val: dict | None = None
    seeds_used: dict[str, int] = field(default_factory=dict)
    budgets: list[int] = field(default_factory=list)
    metric: dict = field(default_factory=dict)
    schedule_info: dict = field(default_factory=dict)
    wall_time_s: float = 0.0
    error: str | None = None

    def save(self, path: str | Path) -> None:
        text = json.dumps(asdict(self), sort_keys=True, indent=1) + "\n"
        _write_atomic(path, text.encode("utf-8"))

    @classmethod
    def load(cls, path: str | Path) -> "RunResult":
        return cls(**json.loads(Path(path).read_text(encoding="utf-8")))


# --- run directory helpers ---------------------------------------------------

def _paths(workdir: Path) -> dict[str, Path]:
    return {
        "config": workdir / "config.resolved.yaml",
        "metrics": workdir / "metrics.jsonl",
        "result": workdir / "result.json",
        "ckpt_dir": workdir / "checkpoints",
        "last": workdir / "checkpoints" / "last.ckpt",
        "best": workdir / "checkpoints" / "best.ckpt",
    }


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
    _write_atomic(metrics_path, text.encode("utf-8"))
    return history


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

def train_run(config: dict, workdir: str | Path) -> RunResult:
    """Execute one resolved run to completion (idempotent, resumable).

    A completed run returns its stored result without retraining. A
    partial run (existing last.ckpt) continues from the checkpoint.
    """
    workdir = Path(workdir)
    result_path = _paths(workdir)["result"]
    if result_path.exists():
        stored = RunResult.load(result_path)
        rid = run_id(config)
        if stored.run_id != rid:
            raise RunIdMismatchError(
                f"workdir {workdir} holds run {stored.run_id}, config is {rid}"
            )
        if stored.status == "completed":
            return stored
    return _run(config, workdir)


def resume_run(config: dict, workdir: str | Path) -> RunResult:
    """Finish a run that stopped early; completed runs return their result."""
    if not _paths(Path(workdir))["last"].exists():
        raise CheckpointError(f"nothing to resume in {workdir}")
    return train_run(config, workdir)


def extend_budget(config: dict, workdir: str | Path, new_max_epochs: int) -> RunResult:
    """Grow a run's epoch budget; the schedule re-totalizes over the new
    horizon from the resume point on (past steps are not replayed)."""
    workdir = Path(workdir)
    paths = _paths(workdir)
    if not paths["config"].exists() or not paths["last"].exists():
        raise CheckpointError(f"no extendable run in {workdir}")
    stored_cfg = load_config(paths["config"].read_text(encoding="utf-8"))

    def _with_budget(cfg, epochs):
        out = copy.deepcopy(cfg)
        out["task"]["max_epochs"] = epochs
        return out

    new_config = _with_budget(config, new_max_epochs)
    if run_id(_with_budget(stored_cfg, new_max_epochs)) != run_id(new_config):
        raise RunIdMismatchError("config differs from the stored run beyond max_epochs")
    ckpt = load_checkpoint(paths["last"])
    if ckpt.run_id != run_id(stored_cfg):
        raise RunIdMismatchError("checkpoint does not belong to the stored config")
    if new_max_epochs <= ckpt.epoch:
        raise BadParameterError(
            f"new budget {new_max_epochs} must exceed trained epochs {ckpt.epoch}"
        )

    if paths["result"].exists():
        budgets = RunResult.load(paths["result"]).budgets
        paths["result"].unlink()
    else:
        budgets = [int(stored_cfg["task"]["max_epochs"])]
    return _run(new_config, workdir, ckpt, budgets + [new_max_epochs])


def _run(
    config: dict,
    workdir: Path,
    ckpt: Checkpoint | None = None,
    budgets: list[int] | None = None,
) -> RunResult:
    """The one run lifecycle: train ``config`` from ``ckpt`` (else from
    ``last.ckpt``, else from a new epoch-0 checkpoint) up to
    ``task.max_epochs`` and write ``result.json``.

    A ``ckpt`` that is passed in has been checked by the caller; one read
    from ``last.ckpt`` must belong to ``config``.
    """
    paths = _paths(workdir)
    rid = run_id(config)
    task = build_task(config["task"])
    schedule = _build_schedule(task, config["optimizer"], task.max_epochs)
    opt_cfg = OptimizerConfig.from_dict(config["optimizer"], schedule)
    opt_state = configure_optimizer(task.groups, opt_cfg)

    if ckpt is None and paths["last"].exists():
        ckpt = load_checkpoint(paths["last"])
        if ckpt.run_id != rid:
            raise RunIdMismatchError(
                f"checkpoint run {ckpt.run_id} does not match config {rid}"
            )
    paths["ckpt_dir"].mkdir(parents=True, exist_ok=True)
    _write_atomic(paths["config"], dump_config(config).encode("utf-8"))
    if ckpt is None:
        seeds = derive_seeds(int(config["engine"]["seed"]))
        ckpt = Checkpoint(
            epoch=0,
            step_count=0,
            params=task.init_params(Xoshiro256StarStar(seeds["init"])),
            optimizer_state=encode_optimizer_state(opt_state),
            rng_states={name: f"{seed:016x}" for name, seed in seeds.items()},
            best_val=None,
            run_id=rid,
        )
        save_checkpoint(ckpt, paths["last"])
    else:
        restore_optimizer_state(ckpt.optimizer_state, opt_state)
    history = _truncate_metrics(paths["metrics"], ckpt.epoch)

    seeds = {name: int(h, 16) for name, h in ckpt.rng_states.items()}
    params = ckpt.params.copy()
    step_count = ckpt.step_count
    best_val = ckpt.best_val
    best_params = None  # set once an epoch of this process improves
    train = task.splits["train"]
    batch = task.batch_size
    spe = steps_per_epoch(task)
    result = RunResult(
        run_id=rid,
        status="completed",
        history=history,
        seeds_used=seeds,
        budgets=budgets or [task.max_epochs],
        metric={"kind": task.metric.kind, "direction": task.metric.direction},
        schedule_info={
            "total_steps": schedule.total_steps,
            "warmup_steps": schedule.warmup_steps,
            "warmup_clamped": schedule.warmup_clamped,
        },
    )
    t_start = time.monotonic()

    for epoch in range(ckpt.epoch + 1, task.max_epochs + 1):
        epoch_start = time.monotonic()
        perm = Xoshiro256StarStar(derive_child(seeds["shuffle"], epoch)).shuffled_indices(
            train.n
        )
        losses = []
        lr_last = None
        try:
            for b in range(spe):
                idx = perm[b * batch : (b + 1) * batch]
                lr_last = lr_at(schedule, step_count)
                loss, grad = forward_backward(task, params, train.take(idx))
                if not math.isfinite(loss):
                    raise NonFiniteError(f"non-finite training loss at step {step_count}")
                optimizer_step(params, grad, opt_state, lr_last)
                step_count += 1
                losses.append(loss)
        except NonFiniteError as exc:
            result.status = "aborted"
            result.error = f"epoch {epoch}: {exc}"
            break

        train_loss = float(np.mean(losses))
        val_metric = evaluate(task, params, "val")
        entry = {
            "epoch": epoch,
            "lr_last": lr_last,
            "train_loss": train_loss,
            "val_metric": val_metric,
            "wall_time_s": time.monotonic() - epoch_start,
        }
        history.append(entry)
        with open(paths["metrics"], "a", encoding="utf-8") as f:
            f.write(json.dumps(entry, sort_keys=True) + "\n")

        improved = best_val is None or task.metric.is_improvement(
            val_metric, best_val["value"]
        )
        if improved:
            best_val = {"value": val_metric, "epoch": epoch}
            best_params = params.copy()
        ck = Checkpoint(
            epoch=epoch,
            step_count=step_count,
            params=params,
            optimizer_state=encode_optimizer_state(opt_state),
            rng_states=ckpt.rng_states,
            best_val=best_val,
            run_id=rid,
        )
        # best before last, encoded once (see the module docstring)
        ckpt_bytes = save_checkpoint(ck, paths["best"] if improved else paths["last"])
        if improved:
            _write_atomic(paths["last"], ckpt_bytes)

    result.best_val = best_val
    result.wall_time_s = time.monotonic() - t_start
    if result.status == "completed":
        if best_params is None:  # the best epoch was trained by an earlier process
            best_params = load_checkpoint(paths["best"]).params
        result.test_best = evaluate(task, best_params, "test")
        result.test_last = evaluate(task, params, "test")
    result.save(paths["result"])
    return result
