"""Experiment configuration: YAML parsing, default merging, grid expansion.

An experiment file is a YAML mapping with the top-level keys ``task``,
``optimizer``, ``engine`` and ``evaluation``. Any list of scalars at a
leaf is a grid axis; the ``task`` and ``optimizer`` nodes may themselves
be lists of subtrees (one branch per task/optimizer, each with its own
internal axes). Expansion takes the cartesian product of all axes, where
a branch list contributes the concatenation of its branches' internal
expansions as a single axis.

The ``evaluation`` block configures post-processing only: its lists are
semantic (output types, plot axes), never grid axes, and it is excluded
from run identity together with ``engine.output_dir``.
"""

from __future__ import annotations

import copy
import hashlib
import json
from functools import lru_cache
from importlib import resources
from typing import Any

import yaml

from .errors import (
    EmptyListError,
    ExperimentSyntaxError,
    SchemaError,
    UnknownNameError,
)

TOP_LEVEL_KEYS = ("task", "optimizer", "engine", "evaluation")

# variant name -> the optimizer whose defaults and implementation it uses;
# a variant keeps its own name, so its runs keep their own identity
OPTIMIZER_ALIASES = {"adamcpr_fast": "adamcpr"}

_SCALAR_TYPES = (str, int, float, bool, type(None))


def _is_scalar(x: Any) -> bool:
    return isinstance(x, _SCALAR_TYPES)


def parse_experiment(yaml_text: str) -> dict:
    """Parse experiment YAML into a spec tree.

    Returns a dict with exactly the four top-level subtrees (missing ones
    become empty). Scalar types are preserved as parsed by YAML.
    """
    try:
        raw = yaml.safe_load(yaml_text)
    except yaml.YAMLError as exc:
        raise ExperimentSyntaxError(f"invalid YAML: {exc}") from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise SchemaError("experiment file must be a YAML mapping")
    unknown = set(raw) - set(TOP_LEVEL_KEYS)
    if unknown:
        raise SchemaError(
            f"unknown top-level keys: {sorted(unknown)}; "
            f"allowed: {list(TOP_LEVEL_KEYS)}"
        )
    spec: dict = {}
    for key in TOP_LEVEL_KEYS:
        node = raw.get(key, {})
        if node is None:
            node = {}
        if key in ("task", "optimizer"):
            branches = node if isinstance(node, list) else [node]
            if not all(isinstance(b, dict) for b in branches):
                raise SchemaError(f"`{key}` must be a mapping or a list of mappings")
        elif not isinstance(node, dict):
            raise SchemaError(f"`{key}` must be a mapping")
        spec[key] = copy.deepcopy(node)
    return spec


def deep_merge(base: dict, override: dict) -> dict:
    """Recursive merge; override wins, dicts merge, everything else replaces."""
    out = copy.deepcopy(base)
    for k, v in override.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = deep_merge(out[k], v)
        else:
            out[k] = copy.deepcopy(v)
    return out


@lru_cache(maxsize=None)
def _defaults_root():
    return resources.files("optbench") / "defaults"


def _load_yaml_resource(relpath: str) -> dict:
    res = _defaults_root() / relpath
    with resources.as_file(res) as path:
        with open(path, "r", encoding="utf-8") as f:
            return yaml.safe_load(f) or {}


@lru_cache(maxsize=None)
def _registered_names(kind: str) -> tuple[str, ...]:
    root = _defaults_root() / kind
    names = sorted(p.name for p in root.iterdir() if (p / "default.yaml").is_file())
    return tuple(names)


# defaults contributed by plugin tasks/optimizers registered at runtime
_EXTRA_DEFAULTS: dict[str, dict] = {"tasks": {}, "optimizers": {}}


def register_task_defaults(name: str, tree: dict) -> None:
    _EXTRA_DEFAULTS["tasks"][name] = {"name": name, **copy.deepcopy(tree)}


def register_optimizer_defaults(name: str, tree: dict) -> None:
    _EXTRA_DEFAULTS["optimizers"][name] = {"name": name, **copy.deepcopy(tree)}


@lru_cache(maxsize=None)
def _packaged_defaults() -> dict:
    """The packaged default files, parsed once per process; never mutate."""
    return {
        "tasks": {
            name: _load_yaml_resource(f"tasks/{name}/default.yaml")
            for name in _registered_names("tasks")
        },
        "optimizers": {
            name: _load_yaml_resource(f"optimizers/{name}/default.yaml")
            for name in _registered_names("optimizers")
        },
        "engine": _load_yaml_resource("engine/default.yaml"),
        "evaluation": _load_yaml_resource("evaluation/default.yaml"),
    }


def load_defaults() -> dict:
    """Packaged defaults: per-name task/optimizer files plus engine/evaluation.

    Every call returns a fresh copy that includes the defaults registered
    so far, so callers may mutate it.
    """
    defaults = copy.deepcopy(_packaged_defaults())
    for kind in ("tasks", "optimizers"):
        defaults[kind].update(copy.deepcopy(_EXTRA_DEFAULTS[kind]))
    return defaults


def _split_by_name(node: dict) -> list[dict]:
    """Turn a subtree with a list-valued `name` into one branch per name."""
    names = node.get("name")
    if isinstance(names, list):
        if not names:
            raise EmptyListError("`name` axis has zero entries")
        branches = []
        for n in names:
            branch = copy.deepcopy(node)
            branch["name"] = n
            branches.append(branch)
        return branches
    return [node]


def _merge_named_node(node, table: dict, kind: str):
    """Merge a task/optimizer node (mapping or list of mappings) with defaults."""
    if isinstance(node, dict):
        branches = _split_by_name(node)
    else:
        branches = [b for sub in node for b in _split_by_name(sub)]
    merged = []
    for branch in branches:
        name = branch.get("name")
        if name is None and len(table) == 1:
            name = next(iter(table))  # unambiguous registry needs no name
        if not isinstance(name, str):
            raise SchemaError(
                f"every {kind} entry needs a scalar `name`; registered: {sorted(table)}"
            )
        lookup = OPTIMIZER_ALIASES.get(name, name) if kind == "optimizer" else name
        if lookup not in table:
            raise UnknownNameError(
                f"unknown {kind} {name!r}; registered: {sorted(table)}"
            )
        base = copy.deepcopy(table[lookup])
        base["name"] = name  # variant names keep their own identity
        merged.append(deep_merge(base, branch))
    return merged[0] if len(merged) == 1 and isinstance(node, dict) else merged


def merge_defaults(spec: dict, defaults: dict | None = None) -> dict:
    """Fill every key from the matching default files; experiment values win.

    When the ``task``/``optimizer`` node is a list (or carries a
    list-valued ``name``), each branch is merged against its own default
    file and the node stays a list of complete subtrees.
    """
    if defaults is None:
        defaults = load_defaults()
    return {
        "task": _merge_named_node(spec.get("task", {}), defaults["tasks"], "task"),
        "optimizer": _merge_named_node(
            spec.get("optimizer", {}), defaults["optimizers"], "optimizer"
        ),
        "engine": deep_merge(defaults.get("engine", {}), spec.get("engine", {})),
        "evaluation": deep_merge(defaults.get("evaluation", {}), spec.get("evaluation", {})),
    }


def _expand_node(node) -> list:
    """All resolved variants of a node, in deterministic axis order."""
    if isinstance(node, list):
        if not node:
            raise EmptyListError("grid axis with zero entries")
        if all(_is_scalar(x) for x in node):
            return list(node)
        if all(isinstance(x, dict) for x in node):
            return [variant for branch in node for variant in _expand_node(branch)]
        raise SchemaError(f"list mixes scalars and structures: {node!r}")
    if isinstance(node, dict):
        variants: list[dict] = [{}]
        for key, value in node.items():
            choices = _expand_node(value)
            variants = [
                {**v, key: copy.deepcopy(c)} for v in variants for c in choices
            ]
        return variants
    return [node]


def expand_grid(spec: dict) -> list[dict]:
    """Expand a default-merged spec into the full list of resolved configs.

    Axis order is depth-first over ``task``, ``optimizer``, ``engine`` (in
    that order), leftmost axis slowest, so run numbering is stable for
    array-job indexing. The ``evaluation`` block is copied verbatim onto
    every resolved config.
    """
    gridded = {
        "task": spec.get("task", {}),
        "optimizer": spec.get("optimizer", {}),
        "engine": spec.get("engine", {}),
    }
    resolved = _expand_node(gridded)
    evaluation = spec.get("evaluation", {})
    out = []
    for cfg in resolved:
        cfg["evaluation"] = copy.deepcopy(evaluation)
        out.append(cfg)
    return out


def identity_view(config: dict) -> dict:
    """The parts of a resolved config that define run identity."""
    view = {
        "task": copy.deepcopy(config.get("task", {})),
        "optimizer": copy.deepcopy(config.get("optimizer", {})),
        "engine": copy.deepcopy(config.get("engine", {})),
    }
    view["engine"].pop("output_dir", None)
    return view


def canonical_json(obj) -> str:
    """Canonical serialization: sorted keys, shortest round-trip numbers."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def run_id(config: dict) -> str:
    """16 lowercase hex chars identifying a resolved run configuration."""
    digest = hashlib.sha256(canonical_json(identity_view(config)).encode("utf-8"))
    return digest.hexdigest()[:16]


def flatten(tree: dict, prefix: str = "") -> dict[str, Any]:
    """Flatten a config tree to dot-joined paths -> scalar values."""
    flat: dict[str, Any] = {}
    for key, value in tree.items():
        path = f"{prefix}.{key}" if prefix else key
        if isinstance(value, dict):
            flat.update(flatten(value, path))
        else:
            flat[path] = value
    return flat


def get_path(config: dict, path: str, default=None):
    node = config
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            return default
        node = node[part]
    return node


def set_path(config: dict, path: str, value) -> None:
    parts = path.split(".")
    node = config
    for part in parts[:-1]:
        node = node.setdefault(part, {})
    node[parts[-1]] = value


def dump_config(config: dict) -> str:
    """Deterministic YAML text for a resolved config (round-trip safe)."""
    return yaml.safe_dump(config, sort_keys=True, default_flow_style=False)


def load_config(yaml_text: str) -> dict:
    return yaml.safe_load(yaml_text)
