"""Child process of the benchmark: runs ``optbench.cli.main`` once, probed or traced.

    python perfbench/child.py setup -- CLI_ARGS...
    python perfbench/child.py trace RESULT -- CLI_ARGS...

``setup`` exits as soon as the first ``build_task`` returns, so the parent's
wall time of this process is the set-up time: interpreter start, ``import
optbench``, parse/merge/expand and the first task build. It exits 3 if the
command never reaches ``build_task``.

``trace`` wraps the package's functions in spans, calls ``cli.main`` and
writes the per-span totals to RESULT as JSON. A span's self time is its
duration minus the durations of the spans it directly contains; its
inclusive time counts only the outermost of nested spans of one name.

``optbench`` is imported from ``PYTHONPATH``, exactly as the untraced CLI
child imports it, and must resolve to ``src/`` beside this directory.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# (module, attribute, span). Every name under which an optbench module
# holds the same function object is wrapped, so each caller's lookup goes
# through the span. Missing attributes are skipped, and their spans read 0.
SPANS = [
    ("optbench.cli", "main", "cli.main"),
    ("optbench.config", "parse_experiment", "config.parse"),
    ("optbench.config", "merge_defaults", "config.merge"),
    ("optbench.config", "expand_grid", "config.expand"),
    ("optbench.config", "run_id", "config.run_id"),
    ("optbench.config", "load_defaults", "config.load_defaults"),
    ("optbench.tasks", "build_task", "tasks.build_task"),
    ("optbench.tasks", "forward_backward", "tasks.forward_backward"),
    ("optbench.tasks", "evaluate", "tasks.evaluate"),
    ("optbench.rng", "Xoshiro256StarStar.shuffled_indices", "rng.shuffle"),
    ("optbench.optim", "optimizer_step", "optim.step"),
    ("optbench.sched", "lr_at", "sched.lr_at"),
    ("optbench.engine", "train_run", "engine.train_run"),
    ("optbench.engine", "extend_budget", "engine.extend_budget"),
    ("optbench.engine", "save_checkpoint", "engine.ckpt_save"),
    ("optbench.engine", "load_checkpoint", "engine.ckpt_load"),
    ("optbench.engine", "encode_optimizer_state", "engine.ckpt_encode"),
    ("optbench.engine", "_encode_array", "engine.ckpt_encode"),
    ("optbench.evaluation", "run_evaluation", "evaluation.run_evaluation"),
    ("optbench.hpo", "load_hpo_file", "hpo.load_hpo_file"),
    ("optbench.hpo", "parse_space", "hpo.parse_space"),
    ("optbench.hpo", "run_hpo", "hpo.run_hpo"),
    ("optbench.hpo", "retrain_best", "hpo.retrain_best"),
]


class Tracer:
    """In-memory span totals: name -> [calls, inclusive_s, self_s]."""

    def __init__(self):
        self.spans: dict[str, list] = {}
        self.extra: dict[str, list] = {}  # finer splits of a span: [calls, inclusive_s]
        self.counters: dict[str, float] = {}
        self._stack: list[list] = []  # [name, start, time in child spans]
        self._open: dict[str, int] = {}

    def wrap(self, name, fn, split=None, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, time.perf_counter(), 0.0]
            self._stack.append(frame)
            self._open[name] = self._open.get(name, 0) + 1
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(self, args, kwargs)
                return result
            finally:
                duration = time.perf_counter() - frame[1]
                self._stack.pop()
                self._open[name] -= 1
                totals = self.spans.setdefault(name, [0, 0.0, 0.0])
                totals[0] += 1
                totals[2] += duration - frame[2]
                if not self._open[name]:
                    totals[1] += duration
                if self._stack:
                    self._stack[-1][2] += duration
                if split is not None:
                    sub = self.extra.setdefault(split(args, kwargs), [0, 0.0])
                    sub[0] += 1
                    sub[1] += duration

        return wrapper

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount


def _optimizer_split(args, kwargs):
    state = args[2] if len(args) > 2 else kwargs["state"]
    return f"optim.step.{state.config.name}"


def _count_ckpt_bytes(tracer, args, kwargs):
    path = args[1] if len(args) > 1 else kwargs["path"]
    tracer.count("engine.ckpt_bytes", os.path.getsize(path))


HOOKS = {
    "optim.step": {"split": _optimizer_split},
    "engine.ckpt_save": {"after": _count_ckpt_bytes},
}


def _replace_everywhere(original, replacement) -> None:
    for name, module in list(sys.modules.items()):
        if name == "optbench" or name.startswith("optbench."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    for module_name, attr, span in SPANS:
        module = importlib.import_module(module_name)
        owner_path, _, leaf = attr.rpartition(".")
        owner = getattr(module, owner_path, None) if owner_path else module
        original = getattr(owner, leaf, None) if owner is not None else None
        if original is None:
            continue
        wrapped = tracer.wrap(span, original, **HOOKS.get(span, {}))
        if owner_path:
            setattr(owner, leaf, wrapped)
        else:
            _replace_everywhere(original, wrapped)


def _check_import() -> None:
    import optbench

    if Path(optbench.__file__).resolve().parent != SRC / "optbench":
        sys.exit(f"optbench imported from {optbench.__file__}, expected {SRC / 'optbench'}")


def run_setup(cli_args: list[str]) -> None:
    _check_import()
    import optbench.cli  # loads every module that may hold build_task
    import optbench.tasks

    original = optbench.tasks.build_task

    def first_build(*args, **kwargs):
        original(*args, **kwargs)
        os._exit(0)

    _replace_everywhere(original, first_build)
    optbench.cli.main(cli_args)
    os._exit(3)


def run_trace(result_path: str, cli_args: list[str]) -> int:
    _check_import()
    import optbench.cli

    tracer = Tracer()
    install(tracer)
    start = time.perf_counter()
    code = optbench.cli.main(cli_args)
    wall = time.perf_counter() - start
    payload = {
        "exit_code": code,
        "wall_s": wall,
        "spans": tracer.spans,
        "extra": tracer.extra,
        "counters": tracer.counters,
    }
    Path(result_path).write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
    return code


def main(argv: list[str]) -> int:
    if argv[:2] == ["setup", "--"]:
        run_setup(argv[2:])
    if len(argv) > 2 and argv[0] == "trace" and argv[2] == "--":
        return run_trace(argv[1], argv[3:])
    sys.exit("usage: child.py setup -- CLI_ARGS... | child.py trace RESULT -- CLI_ARGS...")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
