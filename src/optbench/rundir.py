"""Run directories: results, reads, cache hits and the way into training.

A run is one resolved configuration trained for ``task.max_epochs`` epochs
in its own working directory:

    <workdir>/config.resolved.yaml
    <workdir>/metrics.jsonl            one line per epoch
    <workdir>/result.json              written on completion or abort
    <workdir>/checkpoints/last.ckpt    the newest epoch, once one has ended
    <workdir>/checkpoints/next.ckpt    only while a run is training

``read_run`` is the only reader of ``result.json`` and the checkpoints, and
``train_runs`` (``train_run`` for one job) the only way into a run dir. A
``result.json`` of the config's own run, completed or aborted, answers that
call without training: a diverged run is a result. Fresh start, resume and
budget extension are one call: the config's ``task.max_epochs`` is the
budget, and a larger one than the stored run's extends it. The runs left to
train that share ``lockstep_key`` and their start epoch train as one
``engine._run``.

This half imports no numpy. It owns the bookkeeping and the one atomic
write, ``_write_atomic``, which ``engine`` calls too; ``engine`` owns
training, the checkpoint codec and the checkpoint slots. ``engine`` is
imported only when a checkpoint must be read or some run must train, so a
rerun whose every run is a cache hit never loads numpy.
"""

from __future__ import annotations

import errno
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from .config import canonical_json, run_id
from .errors import BadParameterError, CheckpointError, RunIdMismatchError

if TYPE_CHECKING:
    from .engine import Checkpoint


def _write_atomic(path: str | Path, data: bytes) -> None:
    """Write ``data`` to ``<path>.tmp`` and rename it onto ``path``.

    The temporary file's blocks are allocated before it is written, where
    the file system can: on ext4 (``auto_da_alloc``), a rename over an
    existing file writes a file with delayed allocation out at once, and
    with ``discard`` the next rewrite then waits for the device to discard
    those blocks. A write that fails leaves ``path`` as it was and no
    ``<path>.tmp``."""
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    try:
        with open(tmp, "wb") as f:
            if data and hasattr(os, "posix_fallocate"):  # 0 bytes is EINVAL; macOS has none
                try:
                    os.posix_fallocate(f.fileno(), 0, len(data))
                except OSError as exc:
                    if exc.errno not in (errno.EINVAL, errno.EOPNOTSUPP):
                        raise
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


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
        text = json.dumps(vars(self), sort_keys=True, indent=1) + "\n"
        _write_atomic(path, text.encode("utf-8"))

    @classmethod
    def load(cls, path: str | Path) -> "RunResult":
        return cls(**json.loads(Path(path).read_text(encoding="utf-8")))


def _paths(workdir: Path) -> dict[str, Path]:
    return {
        "config": workdir / "config.resolved.yaml",
        "metrics": workdir / "metrics.jsonl",
        "result": workdir / "result.json",
        "last": workdir / "checkpoints" / "last.ckpt",
        "next": workdir / "checkpoints" / "next.ckpt",
    }


@dataclass
class RunState:
    status: str  # new | incomplete | completed | aborted | extending | corrupt
    result: RunResult | None = None  # kept when only the checkpoint is unreadable
    ckpt: Checkpoint | None = None
    error: CheckpointError | None = None  # a corrupt dir's; its message names the file
    slot: Path | None = None  # the file ``ckpt`` was read from


def read_run(workdir: str | Path, cached_id: str | None = None) -> RunState:
    """Read ``result.json`` and the checkpoint slots where they exist.

    The checkpoint is the one with the larger epoch of ``last.ckpt`` and
    ``next.ckpt``; a slot that does not load (torn by a kill mid-write) is
    skipped. The dir is ``corrupt`` when neither loads and ``last.ckpt``
    exists: without it, an unreadable ``next.ckpt`` is a torn first epoch.
    ``incomplete``: a config but no result; ``new``: nothing written.
    ``extending``: the checkpoint has another run id than the result, as
    after a budget extension killed once its first extended epoch was
    checkpointed. A result of run ``cached_id``, completed or aborted, is
    returned with its status without reading a checkpoint: a cache hit needs
    nothing else."""
    paths = _paths(Path(workdir))
    try:
        result = RunResult.load(paths["result"]) if paths["result"].exists() else None
    except (OSError, ValueError, TypeError) as exc:
        return RunState("corrupt", error=CheckpointError(f"{paths['result']}: {exc!r}"))
    if result is not None and result.run_id == cached_id:
        return RunState(result.status, result)
    from .engine import load_checkpoint

    ckpt = slot = error = None
    for path in (paths["last"], paths["next"]):
        try:
            loaded = load_checkpoint(path) if path.exists() else None
        except CheckpointError as exc:  # names the file; keeps its type (v1: VersionMismatchError)
            error = error or exc
        except (OSError, ValueError, TypeError) as exc:
            error = error or CheckpointError(f"{path}: {exc!r}")
        else:
            if loaded is not None and (ckpt is None or loaded.epoch > ckpt.epoch):
                ckpt, slot = loaded, path
    if ckpt is None and error is not None and paths["last"].exists():
        return RunState("corrupt", result, error=error)
    if result is None:
        return RunState("incomplete" if ckpt or paths["config"].exists() else "new", None, ckpt, slot=slot)
    extending = ckpt is not None and ckpt.run_id != result.run_id
    return RunState("extending" if extending else result.status, result, ckpt, slot=slot)


def lockstep_key(config: dict) -> tuple[str, str]:
    """What runs that take the same steps from one start epoch share."""
    return canonical_json(config["task"]), config["optimizer"]["name"]


def lockstep_groups(configs: list[dict]) -> list[list[int]]:
    """The indices of ``configs`` by ``lockstep_key``, numbered in order of first appearance:
    the unit of work that ``optbench run`` hands to a worker process or a SLURM array task."""
    groups: dict[tuple, list[int]] = {}
    for i, config in enumerate(configs):
        groups.setdefault(lockstep_key(config), []).append(i)
    return list(groups.values())


def train_runs(jobs: list[tuple[dict, str | Path]]) -> list[RunResult]:
    """Train each (config, workdir) job to ``config["task"]["max_epochs"]``
    and return the results in the order given; the one way into a run dir.

    A completed or aborted run returns its stored result, whatever its
    checkpoint holds, and a partial run resumes from its checkpoint. A
    config that matches the checkpoint's run at its last budget but asks
    for a larger ``max_epochs`` extends it, an aborted run from its last
    checkpoint: the budget joins the checkpoint's budget history, and the
    schedule re-totalizes over the new horizon from the resume point on.
    So the extended config also finishes a killed extension, and restarts a
    run aborted in its first epoch, which has no checkpoint. Any other stored
    run, a smaller budget among them, raises ``RunIdMismatchError``, and a
    corrupt run dir its ``CheckpointError``.
    Every job is read and checked, and every group's task and runs built,
    before any writes; the runs left to train that share ``lockstep_key`` and
    their start epoch train as one ``_run``.
    """
    if len({Path(workdir) for _, workdir in jobs}) != len(jobs):  # two runs would share one dir
        raise BadParameterError("train_runs got one workdir twice")
    results: list[RunResult | None] = [None] * len(jobs)
    groups: dict[tuple, list] = {}
    for i, (config, workdir) in enumerate(jobs):
        workdir = Path(workdir)
        rid = run_id(config)
        state = read_run(workdir, cached_id=rid)
        if state.result is not None and state.result.run_id == rid:  # a cache hit
            results[i] = state.result
            continue
        if state.error is not None:
            raise state.error
        stored = state.ckpt or state.result
        if stored is not None and stored.run_id != rid:
            if not _extends(config, stored) or stored is state.result and stored.history:
                raise RunIdMismatchError(f"workdir {workdir} holds run {stored.run_id}, config is {rid}")
            if state.ckpt is not None:
                state.ckpt.budgets = state.ckpt.budgets + [int(config["task"]["max_epochs"])]
        key = (*lockstep_key(config), 0 if state.ckpt is None else state.ckpt.epoch)
        groups.setdefault(key, []).append((i, (config, workdir, state.ckpt, state.slot)))
    if groups:
        from . import engine
    prepared = [(members, engine._prepare([start for _, start in members])) for members in groups.values()]
    for members, runs in prepared:
        for (i, _), result in zip(members, engine._run(runs)):
            results[i] = result
    return results


def _extends(config: dict, stored: Checkpoint | RunResult) -> bool:
    """Whether ``config`` is the run of ``stored`` at its last budget with a larger one."""
    if config["task"]["max_epochs"] <= stored.budgets[-1]:
        return False
    at_budget = {**config, "task": {**config["task"], "max_epochs": stored.budgets[-1]}}
    return run_id(at_budget) == stored.run_id


def train_run(config: dict, workdir: str | Path) -> RunResult:
    """``train_runs`` of one job: train, resume or extend one run dir."""
    return train_runs([(config, workdir)])[0]
