"""Benchmark of the optbench CLI on four workloads (BENCHMARK.json gates two).

    python3 perfbench/run.py --workload grid_mlp --seed 0 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all --seconds 60

Every command runs in a child process with ``PYTHONPATH=src``, in a fresh
private output dir under ``perfbench/.work/``, on configs the benchmark
writes there itself. ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json, ``--trace 1`` the per-layer ones from ``perfbench/child.py``.
Each run checks the outputs against digests (``perfbench/digests.json`` for
the default seed, the run's own first repeat otherwise), prints a summary,
writes ``perfbench/results/<workload>-seed<n>-trace<t>.json`` and ends with
one JSON line. It exits 1 if any operation failed or any digest mismatched,
and 2 if the checkout lacks ``src/optbench``, ``configs/hpo_quadratic.yaml``
or ``BENCHMARK.json``.

See perfbench/README.md for why each workload exists and what each
per-layer metric should move.
"""

from __future__ import annotations

import argparse
import copy
import ctypes
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

# optbench is meant to run on one CPU core. A second OpenBLAS thread gives
# single_wide no shorter wall time on 2 vCPUs, doubles its CPU time by
# spin-waiting, and competes with the kernel's file-system work. Set before
# numpy loads, so this process and every child use one thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import yaml

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
HPO_CONFIG = ROOT / "configs" / "hpo_quadratic.yaml"
SPEC = ROOT / "BENCHMARK.json"
DIGESTS = BENCH / "digests.json"
WORK = BENCH / ".work"
RESULTS = BENCH / "results"

DEFAULT_SEED = 0
CHILD_TIMEOUT_S = 150
PROBES_PER_CYCLE = 2  # set-up probes per repeat of the workload command
RERUNS_PER_CYCLE = 3  # cached reruns per repeat of the workload command
LAUNCH = "import sys; from optbench.cli import main; sys.exit(main(sys.argv[1:]))"
COVERAGE_TOLERANCE = 0.02  # traced self times must sum to cli.main wall within 2%


# --- workloads --------------------------------------------------------------

def _dump(path: Path, tree: dict) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(yaml.safe_dump(tree, sort_keys=False), encoding="utf-8")
    return path


class RunWorkload:
    """``optbench run`` of an experiment the benchmark owns; the rerun
    repeats the same command on the completed output."""

    def __init__(self, name: str, experiment):
        self.name = name
        self.experiment = experiment

    def write(self, rdir: Path, seed: int) -> tuple[list[str], Path]:
        tree = self.experiment(seed)
        tree["engine"]["output_dir"] = str(rdir / "out")
        path = _dump(rdir / f"{self.name}.yaml", tree)
        return ["run", str(path)], rdir / "out" / self.name

    def rerun(self, rdir: Path, exp_dir: Path) -> tuple[list[str], Path]:
        return ["run", str(rdir / f"{self.name}.yaml")], exp_dir / "runs"

    def scan(self, rdir: Path, exp_dir: Path) -> "Outputs":
        from optbench import config as cfgmod

        text = (rdir / f"{self.name}.yaml").read_text(encoding="utf-8")
        configs = cfgmod.expand_grid(cfgmod.merge_defaults(cfgmod.parse_experiment(text)))
        out = Outputs()
        expected = set()
        for i, cfg in enumerate(configs):
            rid = cfgmod.run_id(cfg)
            expected.add(rid)
            out.add_run(f"run{i:02d}", exp_dir / "runs" / rid)
        for extra in sorted((exp_dir / "runs").glob("*")):
            if extra.name not in expected:
                out.ops[f"unexpected:{extra.name}"] = ("unexpected", "")
        return out


class HpoWorkload:
    """``optbench hpo`` on configs/hpo_quadratic.yaml with more trials and,
    if ``task`` is given, that task in place of the quadratic one. The rerun
    is ``optbench run`` of the retrained winner over copies of its retrain
    dirs, because rerunning ``hpo`` into a used dir is out of scope."""

    def __init__(self, name: str, n_trials: int, task: dict | None = None):
        self.name = name
        self.n_trials = n_trials
        self.task = task

    def write(self, rdir: Path, seed: int) -> tuple[list[str], Path]:
        tree = yaml.safe_load(HPO_CONFIG.read_text(encoding="utf-8"))
        tree["n_trials"] = self.n_trials
        tree["seed"] = seed
        if self.task is not None:
            tree["experiment"]["task"] = dict(self.task)
        tree["experiment"].setdefault("engine", {})["output_dir"] = str(rdir / "out")
        path = _dump(rdir / f"{self.name}.yaml", tree)
        return ["hpo", str(path)], rdir / "out" / f"{self.name}_hpo"

    def rerun(self, rdir: Path, exp_dir: Path) -> tuple[list[str], Path]:
        retrain = sorted((exp_dir / "retrain").iterdir())
        configs = [
            yaml.safe_load((d / "config.resolved.yaml").read_text(encoding="utf-8"))
            for d in retrain
        ]
        winner = copy.deepcopy(configs[0])
        winner["engine"]["seed"] = [c["engine"]["seed"] for c in configs]
        winner["engine"]["output_dir"] = str(rdir / "out")
        path = _dump(rdir / "hpo_winner.yaml", winner)
        runs = rdir / "out" / "hpo_winner" / "runs"
        for d in retrain:
            shutil.copytree(d, runs / d.name)
        return ["run", str(path)], runs

    def scan(self, rdir: Path, exp_dir: Path) -> "Outputs":
        out = Outputs()
        log = exp_dir / "trials.jsonl"
        lines = []
        if log.exists():
            lines = [json.loads(x) for x in log.read_text(encoding="utf-8").splitlines() if x.strip()]
        last = {line["trial_id"]: i for i, line in enumerate(lines)}
        for i, line in enumerate(lines):
            record = {k: _exact(line.get(k)) for k in
                      ("trial_id", "rung", "budget", "config_overlay", "objective", "status")}
            status = line.get("status")
            if last[line["trial_id"]] == i:
                record["run"] = out.read_run(exp_dir / "trials" / f"trial_{line['trial_id']:04d}")
                if status == "completed":
                    status = record["run"]["status"]
            out.ops[f"eval{i:03d}"] = (status, _digest(record))
        retrain = sorted((exp_dir / "retrain").glob("*")) if (exp_dir / "retrain").exists() else []
        for j, d in enumerate(retrain):
            out.add_run(f"retrain{j}", d)
        out.evaluations = len(out.ops)
        return out


def _grid_mlp(seed: int) -> dict:
    return {
        "task": {"name": "mlp_synth", "max_epochs": 20},
        "optimizer": [
            {"name": "sgd_baseline", "learning_rate": [0.1, 0.03]},
            {"name": "adamw_baseline", "learning_rate": [0.01, 0.003]},
            {"name": "adamcpr", "learning_rate": [0.01, 0.003]},
            {"name": "adafactor", "learning_rate": [0.01, 0.003]},
        ],
        "engine": {"seed": [seed, seed + 1, seed + 2]},
        "evaluation": {
            "output_types": ["svg", "csv"],
            "plot": {"x_axis": ["optimizer.weight_decay", "optimizer.kappa_init_param"]},
        },
    }


def _single_wide(seed: int) -> dict:
    return {
        "task": {"name": "mlp_synth", "max_epochs": 40, "model": {"num_hidden": 2048}},
        "optimizer": {"name": "adamcpr"},
        "engine": {"seed": seed},
    }


WORKLOADS = {
    "single_wide": RunWorkload("single_wide", _single_wide),
    "grid_mlp": RunWorkload("grid_mlp", _grid_mlp),
    "hpo_quadratic": HpoWorkload("hpo_quadratic", 90),
    "hpo_mlp": HpoWorkload("hpo_mlp", 45, task={"name": "mlp_synth", "max_epochs": 9}),
}


# --- outputs and their digests ----------------------------------------------

def _exact(value):
    """Floats as their exact hex form, recursively; other values unchanged."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {k: _exact(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_exact(v) for v in value]
    return value


def _digest(record) -> str:
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class Outputs:
    """Deterministic digest of every operation, plus the work it did."""

    ops: dict[str, tuple[str, str]] = field(default_factory=dict)  # key -> (status, digest)
    runs: int = 0
    epochs: int = 0
    steps: int = 0
    evaluations: int = 0

    def read_run(self, run_dir: Path) -> dict:
        from optbench.engine import load_checkpoint
        from optbench.errors import BenchmarkError

        try:
            result = json.loads((run_dir / "result.json").read_text(encoding="utf-8"))
            ckpt = load_checkpoint(run_dir / "checkpoints" / "last.ckpt")
        except (OSError, ValueError, KeyError, BenchmarkError) as exc:
            return {"dir": run_dir.name, "status": f"unreadable: {exc}"}
        self.runs += 1
        self.epochs += ckpt.epoch
        self.steps += ckpt.step_count
        params = np.ascontiguousarray(ckpt.params, dtype="<f8").tobytes()
        return {
            "dir": run_dir.name,
            "run_id": result["run_id"],
            "status": result["status"],
            "test_best": _exact(result["test_best"]),
            "test_last": _exact(result["test_last"]),
            "history": [
                [e["epoch"], _exact(e["lr_last"]), _exact(e["train_loss"]), _exact(e["val_metric"])]
                for e in result["history"]
            ],
            "params": hashlib.sha256(params).hexdigest(),
        }

    def add_run(self, key: str, run_dir: Path) -> None:
        record = self.read_run(run_dir)
        self.ops[key] = (record["status"], _digest(record))


class Checker:
    """Counts failed operations: a status other than completed, a missing
    or unexpected operation, or a digest that differs from the reference."""

    def __init__(self, workload: str, seed: int):
        stored = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
        default = stored.get("workloads", {}).get(workload, {})
        self.expected = set(default)
        self.reference = dict(default) if default and seed == stored.get("seed") else None
        self.first: dict[str, str] | None = None

    def failures(self, outputs: Outputs) -> list[str]:
        digests = {k: d for k, (_, d) in outputs.ops.items()}
        if self.reference is None:
            self.reference = digests
        if self.first is None:
            self.first = digests
        problems = []
        for key in sorted(set(outputs.ops) | set(self.reference) | self.expected):
            status, got = outputs.ops.get(key, ("missing", ""))
            if status != "completed":
                problems.append(f"{key}: {status}")
            elif self.expected and key not in self.expected:
                problems.append(f"{key}: not an expected operation")
            elif self.reference.get(key) != got:
                problems.append(f"{key}: digest mismatch")
        return problems


# --- child processes ----------------------------------------------------------

def _child_env() -> dict:
    """The caller's environment with ``src/`` first on the import path and
    bytecode caching on, as for a user, whatever the caller set."""
    paths = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def spawn(argv: list[str], cwd: Path) -> tuple[float, int, float]:
    """Run a child; return its wall time, exit code and peak RSS in MB."""
    cwd.mkdir(parents=True, exist_ok=True)
    with open(cwd / "child.log", "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=_child_env(), stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def cli(argv: list[str]) -> list[str]:
    return [sys.executable, "-c", LAUNCH, *argv]


def child(*argv: str) -> list[str]:
    return [sys.executable, str(BENCH / "child.py"), *argv]


def snapshot(directory: Path) -> dict[str, tuple[int, int]]:
    return {
        str(p.relative_to(directory)): (p.stat().st_size, p.stat().st_mtime_ns)
        for p in directory.rglob("*")
        if p.is_file()
    }


def changed_runs(before: dict, after: dict) -> int:
    keys = {k for k in set(before) | set(after) if before.get(k) != after.get(k)}
    return len({Path(k).parts[0] for k in keys})


def tree_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())


def log_tail(cwd: Path) -> str:
    path = cwd / "child.log"
    return path.read_text(encoding="utf-8", errors="replace")[-2000:] if path.exists() else ""


# --- measurement --------------------------------------------------------------

@dataclass
class Tally:
    samples: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def command(self, rc: int, cwd: Path, ops: int, problems: list[str], label: str) -> None:
        """Count a command's operations and the failed ones among them."""
        if rc != 0:
            problems = problems or [f"exit code {rc}"]
            print(log_tail(cwd), file=sys.stderr)
        self.attempted += ops
        self.failed += min(len(problems), ops)
        self.problems += [f"{label}: {p}" for p in problems]


def cycles(seconds: float, minimum: int):
    """Yield repeat indices until the next repeat would end past the deadline."""
    deadline = time.perf_counter() + seconds
    durations = []
    index = 0
    while index < minimum or time.perf_counter() + statistics.median(durations) <= deadline:
        start = time.perf_counter()
        yield index
        durations.append(time.perf_counter() - start)
        index += 1


def rerun_cached(argv, runs_dir, rdir, tally, label, traced_result=None):
    n_runs = len(list(runs_dir.iterdir()))
    before = snapshot(runs_dir)
    if traced_result is None:
        wall, rc, _ = spawn(cli(argv), rdir)
    else:
        wall, rc, _ = spawn(child("trace", str(traced_result), "--", *argv), rdir)
    modified = changed_runs(before, snapshot(runs_dir))
    problems = [f"{modified} run dir(s) modified by the cached rerun"] if modified else []
    tally.command(rc, rdir, n_runs, problems, label)
    return wall, modified


def warm_up(workload, seed: int, wdir: Path) -> None:
    """One untimed set-up probe, so that bytecode compiled on a fresh
    checkout and a cold page cache fall outside every timed command."""
    argv, _ = workload.write(wdir, seed)
    spawn(child("setup", "--", *argv), wdir)


def measure_end_to_end(workload, seed: int, seconds: float, work: Path, checker: Checker) -> Tally:
    tally = Tally()
    for i in cycles(seconds, minimum=2):
        rdir = work / f"repeat{i}"
        for j in range(PROBES_PER_CYCLE):
            pdir = rdir / f"probe{j}"
            argv, _ = workload.write(pdir, seed)
            wall, rc, _ = spawn(child("setup", "--", *argv), pdir)
            if rc != 0:
                tally.problems.append(f"setup probe exited {rc}: {log_tail(pdir)}")
                tally.failed += 1
            tally.add("setup_s", wall)
        argv, exp_dir = workload.write(rdir, seed)
        wall, rc, rss = spawn(cli(argv), rdir)
        outputs = workload.scan(rdir, exp_dir)
        tally.command(rc, rdir, len(outputs.ops), checker.failures(outputs), f"repeat {i}")
        tally.add("wall_s", wall)
        tally.add("steps_per_s", outputs.steps / wall)
        tally.add("peak_rss_mb", rss)
        tally.add("output_mb", tree_bytes(rdir / "out") / 1e6)
        if rc == 0:
            argv, runs_dir = workload.rerun(rdir, exp_dir)
            for j in range(RERUNS_PER_CYCLE):
                wall, _ = rerun_cached(argv, runs_dir, rdir, tally, f"repeat {i} rerun {j}")
                tally.add("rerun_s", wall)
    return tally


def _span(trace: dict, name: str) -> list:
    return trace["spans"].get(name, [0, 0.0, 0.0])


def layer_metrics(trace: dict, outputs: Outputs) -> dict[str, float]:
    spans = trace["spans"]
    m: dict[str, float] = {}
    for name in ("config.parse", "config.merge", "config.expand", "config.run_id",
                 "config.load_defaults", "tasks.build_task", "tasks.forward_backward",
                 "tasks.evaluate", "rng.shuffle", "optim.step", "sched.lr_at",
                 "engine.train_run", "engine.extend_budget", "engine.ckpt_save",
                 "engine.ckpt_load", "engine.ckpt_encode", "evaluation.run_evaluation"):
        calls, inclusive, _ = _span(trace, name)
        m[f"{name}.calls"] = calls
        m[f"{name}_s"] = inclusive
    for opt in ("sgd_baseline", "adamw_baseline", "adamcpr", "adafactor"):
        m[f"optim.step_s.{opt}"] = trace["extra"].get(f"optim.step.{opt}", [0, 0.0])[1]
    m["engine.ckpt_bytes"] = trace["counters"].get("engine.ckpt_bytes", 0)
    m["engine.self_s"] = _span(trace, "engine.train_run")[2] + _span(trace, "engine.extend_budget")[2]
    m["hpo.self_s"] = sum(v[2] for k, v in spans.items() if k.startswith("hpo."))
    m["hpo.evaluations"] = outputs.evaluations
    m["cli.self_s"] = _span(trace, "cli.main")[2]
    m["tasks.build_task.per_run"] = m["tasks.build_task.calls"] / max(outputs.runs, 1)
    m["engine.ckpt_save.per_epoch"] = m["engine.ckpt_save.calls"] / max(outputs.epochs, 1)
    m["trace.wall_s"] = trace["wall_s"]
    m["trace.self_coverage"] = _coverage(trace)
    return m


def _coverage(trace: dict) -> float:
    """Sum of all spans' self times over the wall time of the traced call."""
    return sum(v[2] for v in trace["spans"].values()) / trace["wall_s"]


def _coverage_problem(trace: dict, label: str) -> list[str]:
    coverage = _coverage(trace)
    if abs(coverage - 1.0) > COVERAGE_TOLERANCE:
        return [f"{label}: span self times cover {coverage:.4f} of cli.main wall"]
    return []


def measure_per_layer(workload, seed: int, seconds: float, work: Path, checker: Checker) -> Tally:
    tally = Tally()
    for i in cycles(seconds, minimum=1):
        rdir = work / f"repeat{i}"
        pdir = rdir / "plain"
        argv, exp_dir = workload.write(pdir, seed)
        wall, rc, _ = spawn(cli(argv), pdir)
        outputs = workload.scan(pdir, exp_dir)
        tally.command(rc, pdir, len(outputs.ops), checker.failures(outputs), f"repeat {i}")
        tally.add("untraced_wall_s", wall)

        tdir = rdir / "traced"
        argv, exp_dir = workload.write(tdir, seed)
        wall, rc, _ = spawn(child("trace", str(tdir / "trace.json"), "--", *argv), tdir)
        outputs = workload.scan(tdir, exp_dir)
        tally.command(rc, tdir, len(outputs.ops), checker.failures(outputs), f"repeat {i} traced")
        tally.add("traced_wall_s", wall)
        if rc != 0 or not (tdir / "trace.json").exists():
            continue
        trace = json.loads((tdir / "trace.json").read_text(encoding="utf-8"))
        for name, value in layer_metrics(trace, outputs).items():
            tally.add(name, value)
        tally.problems += _coverage_problem(trace, f"repeat {i} traced")

        argv, runs_dir = workload.rerun(tdir, exp_dir)
        _, modified = rerun_cached(argv, runs_dir, tdir, tally, f"repeat {i} traced rerun",
                                   traced_result=tdir / "rerun.json")
        if not (tdir / "rerun.json").exists():
            continue
        rerun = json.loads((tdir / "rerun.json").read_text(encoding="utf-8"))
        saves = _span(rerun, "engine.ckpt_save")[0]
        if saves:
            tally.problems.append(f"repeat {i}: the cached rerun saved {saves} checkpoint(s)")
            tally.failed += 1
        tally.problems += _coverage_problem(rerun, f"repeat {i} traced rerun")
        tally.add("rerun.trace.wall_s", rerun["wall_s"])
        tally.add("rerun.config.run_id.calls", _span(rerun, "config.run_id")[0])
        tally.add("rerun.engine.ckpt_save.calls", saves)
        tally.add("rerun.evaluation.run_evaluation_s", _span(rerun, "evaluation.run_evaluation")[1])
        tally.add("rerun.files_modified", modified)
    if tally.samples.get("traced_wall_s"):
        tally.add("trace.overhead_s", statistics.median(tally.samples["traced_wall_s"])
                  - statistics.median(tally.samples["untraced_wall_s"]))
    return tally


# --- reporting ----------------------------------------------------------------

def environment(seed: int) -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": blas_threads(),
        "seed": seed,
    }


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")) if libs.exists() else []:
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return None


def run_workload(name: str, seed: int, seconds: float, trace: bool, write_digests: bool) -> dict:
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    workload = WORKLOADS[name]
    checker = Checker(name, seed)
    WORK.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        warm_up(workload, seed, work / "warmup")
        measure = measure_per_layer if trace else measure_end_to_end
        tally = measure(workload, seed, seconds, work, checker)
    finally:
        # Deleted only now: on a file system that discards freed blocks
        # synchronously, deleting between repeats loads the disk just
        # before the next timed command.
        shutil.rmtree(work, ignore_errors=True)
    metrics = {
        m["name"]: {"value": statistics.median(tally.samples[m["name"]]), "unit": m["unit"]}
        for m in declared
        if tally.samples.get(m["name"])
    }
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        tally.problems.append(f"metrics not measured: {missing}")
        tally.failed = max(tally.failed, 1)
    if write_digests and seed == DEFAULT_SEED and not tally.failed:
        stored = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
        stored["seed"] = DEFAULT_SEED
        stored.setdefault("workloads", {})[name] = checker.first
        DIGESTS.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    report = {
        "workload": name,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(seed),
        "correct": not tally.failed and not tally.problems,
        "attempted": max(tally.attempted, tally.failed, 1),
        "failed": tally.failed,
        "failed_frac": tally.failed / max(tally.attempted, tally.failed, 1),
        "metrics": metrics,
        "samples": tally.samples,
        "problems": tally.problems,
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    (RESULTS / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    return report


def print_summary(report: dict) -> None:
    for problem in report["problems"]:
        print(f"{report['workload']}: {problem}", file=sys.stderr)
    for name, metric in report["metrics"].items():
        print(f"{report['workload']:<14} {name:<36} {metric['value']:>14.6g} {metric['unit']}")
    print(f"{report['workload']:<14} {'failed_frac':<36} {report['failed_frac']:>14.6g} "
          f"({report['failed']}/{report['attempted']})")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-digests", action="store_true",
                        help="store this run's output digests as the default-seed reference")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    missing = [p for p in (SRC / "optbench" / "__init__.py", HPO_CONFIG, SPEC) if not p.is_file()]
    if missing:
        print(f"cannot benchmark: missing {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import optbench

    if Path(optbench.__file__).resolve().parent != SRC / "optbench":
        print(f"optbench resolves to {optbench.__file__}, not {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    reports = [run_workload(n, args.seed, args.seconds, bool(args.trace), args.write_digests)
               for n in names]
    for report in reports:
        print_summary(report)
    single = len(reports) == 1
    line = {
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": {
            (k if single else f"{r['workload']}/{k}"): v
            for r in reports
            for k, v in r["metrics"].items()
        },
    }
    print(json.dumps(line, sort_keys=True))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
