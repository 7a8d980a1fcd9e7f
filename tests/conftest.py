from pathlib import Path

import numpy as np
import pytest

from optbench import expand_grid, merge_defaults, parse_experiment


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


def quad_config(epochs: int = 5, seed: int = 42) -> dict:
    return resolve(QUAD_ADAMW.format(epochs=epochs, seed=seed))[0]


@pytest.fixture
def workdir(tmp_path):
    return tmp_path / "run"


class Interrupted(Exception):
    """Stands for a kill of the process at an injected file write."""


def fail_write(monkeypatch, name: str, nth: int) -> None:
    """Raise ``Interrupted`` in place of the engine's ``nth`` (1-based) atomic
    write to a file called ``name``; every other write goes through."""
    from optbench import engine

    real_write = engine._write_atomic
    count = 0

    def write(path, data):
        nonlocal count
        if Path(path).name == name:
            count += 1
            if count == nth:
                raise Interrupted(f"killed at write {nth} of {name}")
        real_write(path, data)

    monkeypatch.setattr(engine, "_write_atomic", write)


def stop_after_epoch(monkeypatch, k: int) -> None:
    """Kill a fresh run once epoch ``k`` is checkpointed: ``last.ckpt`` is
    written for epochs 0, 1, ..., so its write ``k + 2`` is epoch ``k + 1``."""
    fail_write(monkeypatch, "last.ckpt", k + 2)
