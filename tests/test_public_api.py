"""The public API: every exported name imports, and the documented examples run."""

import inspect
import re
import shutil
import textwrap
from pathlib import Path

import pytest

import optbench

REPO = Path(__file__).resolve().parents[1]


def readme_library_block() -> str:
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def docstring_example() -> str:
    doc = inspect.getdoc(optbench)
    return textwrap.dedent(doc.split("::", 1)[1])


def test_every_exported_name_imports():
    namespace = {}
    exec("from optbench import *", namespace)  # AttributeError on a missing name
    assert set(optbench.__all__) <= set(namespace)


@pytest.mark.parametrize("source", [readme_library_block, docstring_example])
def test_documented_example_runs(source, tmp_path, monkeypatch):
    shutil.copytree(REPO / "configs", tmp_path / "configs")
    shutil.copy(REPO / "configs" / "quadratic_adamw.yaml", tmp_path / "experiment.yaml")
    monkeypatch.chdir(tmp_path)
    exec(compile(source(), source.__name__, "exec"), {})
    assert list((tmp_path / "output" / "runs").glob("*/result.json"))
