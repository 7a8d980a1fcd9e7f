import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from optbench import expand_grid, merge_defaults, parse_experiment


SRC = Path(__file__).resolve().parents[1] / "src"

CLI = "import sys\nfrom optbench.cli import main\nassert main(sys.argv[1:]) == 0"


def src_env() -> dict:
    """The environment of a fresh interpreter that imports ``optbench`` from ``src``."""
    inherited = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    return dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), *filter(None, inherited)]))


def loads_numpy(script: str, *argv: str, cwd=None) -> bool:
    """Whether a fresh interpreter that runs ``script`` with ``sys.argv[1:] ==
    argv`` (``CLI``: one ``optbench`` command) ends with numpy imported."""
    probe = f"{script}\nimport sys\nprint('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe, *argv], cwd=cwd, env=src_env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1] == "True"


def resolve(yaml_text: str) -> list[dict]:
    """Parse + merge + expand an experiment YAML."""
    return expand_grid(merge_defaults(parse_experiment(yaml_text)))


QUAD_ADAMW = """
task:
  name: quadratic
  max_epochs: {epochs}
optimizer:
  name: adamw_baseline
engine:
  seed: {seed}
"""


def group_buffers(state) -> list[tuple[str, np.ndarray]]:
    """Every optimizer buffer as ``(group/key, array)`` pairs of one group each,
    sorted by label: a flat moment is cut into per-group slices, and a
    ``<group>.<key>`` buffer (Adafactor's) already belongs to one group."""
    out = []
    for name, buf in state.buffers.items():
        if "." in name:
            out.append((name.replace(".", "/", 1), buf))
        else:
            out.extend((f"{g.name}/{name}", buf[g.start : g.end]) for g in state.groups)
    return sorted(out, key=lambda pair: pair[0])


def step_alone(params, grads, state, lr) -> None:
    """One optimizer step of one run's ``state``, taken as a stack of one run:
    the flat ``params`` are updated in place. The stack rebinds
    ``state.buffers`` to row views of its own, so read a buffer after the step."""
    from optbench.optim import OptimizerStack, optimizer_step

    optimizer_step(params[None], grads[None], OptimizerStack([state]), [lr])


def strip_wall(obj):
    """``obj`` without its wall-clock fields (keys that hold ``wall_time``),
    in nested dicts and lists alike."""
    if isinstance(obj, dict):
        return {k: strip_wall(v) for k, v in obj.items() if "wall_time" not in k}
    if isinstance(obj, list):
        return [strip_wall(v) for v in obj]
    return obj


def run_dir_files(workdir) -> dict:
    """Every file of a run dir by relative path, wall-clock fields dropped:
    ``.json`` files parsed, ``.jsonl`` files parsed line by line, any other
    file as its bytes. Two dirs that a run and its lockstep, resumed or
    parallel twin wrote must give equal snapshots."""
    workdir = Path(workdir)
    files = {}
    for path in sorted(p for p in workdir.rglob("*") if p.is_file()):
        name = path.relative_to(workdir).as_posix()
        if path.suffix == ".json":
            files[name] = strip_wall(json.loads(path.read_text(encoding="utf-8")))
        elif path.suffix == ".jsonl":
            lines = path.read_text(encoding="utf-8").splitlines()
            files[name] = [strip_wall(json.loads(line)) for line in lines]
        else:
            files[name] = path.read_bytes()
    return files


def with_epochs(config: dict, epochs: int) -> dict:
    """A copy of ``config`` with the budget ``task.max_epochs = epochs``."""
    out = copy.deepcopy(config)
    out["task"]["max_epochs"] = epochs
    return out


def quad_config(epochs: int = 5, seed: int = 42) -> dict:
    return resolve(QUAD_ADAMW.format(epochs=epochs, seed=seed))[0]


@pytest.fixture
def workdir(tmp_path):
    return tmp_path / "run"


class Interrupted(Exception):
    """Stands for a kill of the process at an injected file write."""


SLOT_MOVE = "next.ckpt -> last.ckpt"
SLOT_REMOVE = "rm next.ckpt"


def intercept_writes(monkeypatch, hook) -> None:
    """Call ``hook(name, tear)`` before each file write of a run dir.

    ``name`` is the written file's name, or ``SLOT_MOVE`` / ``SLOT_REMOVE``
    for the move of ``next.ckpt`` onto ``last.ckpt`` and its removal.
    ``tear()`` leaves what a kill halfway through the write leaves: half of
    the bytes in the temporary file of an atomic write, or half of them
    written in place over a checkpoint slot (nothing for a move or a
    removal). The per-epoch metrics append is not intercepted.
    """
    from optbench import engine, rundir

    real_atomic, real_slot = rundir._write_atomic, engine._write_slot
    real_replace, real_unlink = os.replace, Path.unlink

    def write_atomic(path, data):
        path = Path(path)
        tmp = path.with_suffix(path.suffix + ".tmp")
        hook(path.name, lambda: tmp.write_bytes(data[: len(data) // 2]))
        real_atomic(path, data)

    def write_slot(path, data):
        def tear():
            with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as f:
                f.write(data[: len(data) // 2])

        hook(path.name, tear)
        real_slot(path, data)

    def replace(src, dst, **kwargs):
        if Path(src).name == "next.ckpt":
            hook(SLOT_MOVE, lambda: None)
        real_replace(src, dst, **kwargs)

    def unlink(self, missing_ok=False):
        if self.name == "next.ckpt":
            hook(SLOT_REMOVE, lambda: None)
        real_unlink(self, missing_ok=missing_ok)

    monkeypatch.setattr(rundir, "_write_atomic", write_atomic)  # engine's atomic writes too
    monkeypatch.setattr(engine, "_write_slot", write_slot)
    monkeypatch.setattr(os, "replace", replace)
    monkeypatch.setattr(Path, "unlink", unlink)


def fail_write(monkeypatch, name: str | tuple[str, ...], nth: int, torn: bool = False) -> None:
    """Raise ``Interrupted`` in place of the engine's ``nth`` (1-based) write
    named ``name`` (see ``intercept_writes``; a tuple of names counts their
    writes together), after tearing it if ``torn``. Every other write goes
    through."""
    names = (name,) if isinstance(name, str) else name
    count = 0

    def hook(written, tear):
        nonlocal count
        if written in names:
            count += 1
            if count == nth:
                if torn:
                    tear()
                raise Interrupted(f"killed at write {nth} of {name}")

    intercept_writes(monkeypatch, hook)


def stop_after_epoch(monkeypatch, k: int) -> None:
    """Kill a fresh run once epoch ``k`` is checkpointed: epochs 1, 2, ... are
    written to ``next.ckpt`` and ``last.ckpt`` in turn, and epoch 0 is never
    written, so checkpoint write ``k + 1`` is epoch ``k + 1``."""
    fail_write(monkeypatch, ("last.ckpt", "next.ckpt"), k + 1)
