"""A lockstep group writes the run dirs of its runs trained one at a time
under every OpenBLAS kernel this CPU runs, not only the one it detects.

numpy's OpenBLAS is built with ``DYNAMIC_ARCH``: it picks its kernels by
CPU when it loads, and ``OPENBLAS_CORETYPE`` forces another. The stacked
matmuls call the same kernel per run as the runs alone do, so each kernel
must give a group and its lone runs the same bits. Each core type runs in
a child process with the variable set in the child's environment only.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

# one core type per kernel family of the scipy-openblas build numpy ships,
# with the CPU flags its kernels use
CORE_TYPES = {
    "Katmai": ["sse", "sse2"],
    "Nehalem": ["sse4_2"],
    "Sandybridge": ["avx"],
    "Haswell": ["avx2", "fma"],
    "SkylakeX": ["avx512f", "avx512dq", "avx512bw", "avx512vl"],
}

CHILD = r"""
import ctypes, json, sys
from pathlib import Path
from conftest import resolve, run_dir_files
from optbench.rundir import train_run, train_runs

def corename():
    libs = [line.split()[-1] for line in open("/proc/self/maps") if "openblas" in line]
    for name in ("scipy_openblas_get_corename64_", "openblas_get_corename64_", "openblas_get_corename"):
        for lib in libs:
            fn = getattr(ctypes.CDLL(lib), name, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                return fn().decode()
    return None

out = Path(sys.argv[1])
configs = resolve('''
task:
  - {name: mlp_synth, max_epochs: 2, train_size: 128}
  - {name: blobs_logreg, max_epochs: 2, train_size: 128}
  - {name: quadratic, max_epochs: 2, dim: 24}
optimizer:
  - {name: adamw_baseline, learning_rate: [0.01, 0.003]}
  - {name: adafactor, learning_rate: [0.01, 0.003]}
engine: {seed: [0, 1]}
''')
jobs = [(cfg, out / "group" / str(i)) for i, cfg in enumerate(configs)]
train_runs(jobs)
same = []
for i, (cfg, workdir) in enumerate(jobs):
    train_run(cfg, out / "alone" / str(i))
    same.append(run_dir_files(workdir) == run_dir_files(out / "alone" / str(i)))
print(json.dumps({"core": corename(), "same": same}))
"""


def _cpu_flags() -> set[str]:
    with open("/proc/cpuinfo", encoding="utf-8") as f:
        for line in f:
            if line.startswith("flags"):
                return set(line.split(":", 1)[1].split())
    return set()


@pytest.mark.parametrize("core", sorted(CORE_TYPES))
def test_group_matches_runs_alone_under_each_kernel(tmp_path, core):
    if sys.platform != "linux" or platform.machine() != "x86_64":
        where = f"{sys.platform} {platform.machine()}"
        pytest.skip(f"{core}: OPENBLAS_CORETYPE names x86-64 kernels, this is {where}")
    missing = [flag for flag in CORE_TYPES[core] if flag not in _cpu_flags()]
    if missing:
        pytest.skip(f"{core}: this CPU lacks {', '.join(missing)}")
    inherited = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    paths = [str(SRC), str(TESTS), *filter(None, inherited)]
    env = dict(os.environ, OPENBLAS_CORETYPE=core, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(paths))
    proc = subprocess.run([sys.executable, "-c", CHILD, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    if report["core"] is None:
        pytest.skip(f"{core}: numpy's BLAS does not report an OpenBLAS kernel")
    if report["core"].lower() != core.lower():
        pytest.skip(f"{core}: this OpenBLAS runs its {report['core']} kernels instead")
    assert report["same"] == [True] * 24
