"""The public API: every exported name imports, and the documented examples run."""

import inspect
import itertools
import re
import shlex
import shutil
import sys
import textwrap
from pathlib import Path

import pytest

import optbench
from optbench.cli import build_parser, main
from conftest import loads_numpy

REPO = Path(__file__).resolve().parents[1]


def readme_library_blocks() -> list[str]:
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, re.S)


def readme_library_block() -> str:
    return readme_library_blocks()[0]


def readme_custom_components_block() -> str:
    """The block that registers a task and an optimizer and trains one run."""
    return readme_library_blocks()[1]


def docstring_example() -> str:
    doc = inspect.getdoc(optbench)
    return textwrap.dedent(doc.split("::", 1)[1])


def test_every_exported_name_imports():
    namespace = {}
    exec("from optbench import *", namespace)  # AttributeError on a missing name
    assert set(optbench.__all__) <= set(namespace)


def test_exported_names_resolve_to_their_home_modules():
    """``optbench`` imports each name's module on first use: ``dir`` lists
    every name before that, and each is the object its module defines."""
    assert set(optbench.__all__) <= set(dir(optbench))
    for name in optbench.__all__:
        value = getattr(optbench, name)
        assert value.__module__.startswith("optbench.")
        assert getattr(sys.modules[value.__module__], name) is value


@pytest.mark.parametrize("statement", ["import optbench", "import optbench.cli"])
def test_import_loads_no_numpy(statement):
    assert not loads_numpy(statement)
    assert loads_numpy(f"{statement}\noptbench.build_task")  # its module loads on first use


@pytest.mark.parametrize("source", [readme_library_block, docstring_example, readme_custom_components_block])
def test_documented_example_runs(source, tmp_path, monkeypatch, plugins):
    shutil.copytree(REPO / "configs", tmp_path / "configs")
    shutil.copy(REPO / "configs" / "quadratic_adamw.yaml", tmp_path / "experiment.yaml")
    monkeypatch.chdir(tmp_path)
    exec(compile(source(), source.__name__, "exec"), {})
    assert list((tmp_path / "output" / "runs").glob("*/result.json"))


def quick_start_commands() -> list[list[str]]:
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Quick start", 1)[1]
    block = re.search(r"```bash\n(.*?)```", section, re.S).group(1)
    return [shell_words(line) for line in block.splitlines() if line.startswith("optbench ")]


def shell_words(line: str) -> list[str]:
    """The words of a shell command line up to its first redirect, pipe or comment."""
    words = shlex.shlex(line, posix=True, punctuation_chars=True)
    return list(itertools.takewhile(lambda word: word.strip("();<>|&"), words))


def test_documented_and_emitted_commands_parse(monkeypatch, capsys):
    """Every ``optbench`` line of the README Quick start and the command that
    ``slurm-script`` emits parse, so a removed flag survives in neither."""
    monkeypatch.delenv("SLURM_ARRAY_TASK_ID", raising=False)
    commands = quick_start_commands()
    assert len(commands) >= 8
    monkeypatch.chdir(REPO)
    assert main(["slurm-script", "configs/optimizer_comparison.yaml"]) == 0
    emitted = shlex.split(capsys.readouterr().out.splitlines()[-1])
    commands.append(["0" if arg == "$SLURM_ARRAY_TASK_ID" else arg for arg in emitted])  # as bash expands it
    for argv in commands:
        assert argv[0] == "optbench"
        build_parser().parse_args(argv[1:])  # SystemExit on an unknown flag
    assert build_parser().parse_args(commands[-1][1:]).group_index == 0
