"""Experiment configuration: YAML parsing, default merging, grid expansion.

An experiment file is a YAML mapping with the top-level keys ``task``,
``optimizer``, ``engine`` and ``evaluation``. Any list of scalars at a
leaf is a grid axis; the ``task`` and ``optimizer`` nodes may themselves
be lists of subtrees (one branch per task/optimizer, each with its own
internal axes). Expansion takes the cartesian product of all axes, where
a branch list contributes the concatenation of its branches' internal
expansions as a single axis. A block's default tree (for ``task`` and
``optimizer``, the named one's) is also its schema: ``check_keys`` is the
one check of which keys a config may hold and of what kind each value is.

The ``evaluation`` block configures post-processing only: its lists are
semantic (output types, plot axes), never grid axes, and it is excluded
from run identity together with ``engine.output_dir``.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import re
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
_INT64 = 1 << 63  # every int of a config lies in [-_INT64, _INT64)


def parse_experiment(yaml_text: str) -> dict:
    """Parse experiment YAML into a spec tree.

    Returns a dict with exactly the four top-level subtrees (missing ones
    become empty). Scalar types are preserved as parsed by YAML.
    """
    try:
        raw = yaml.load(yaml_text, Loader=_LOADER)
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
            return yaml.load(f, Loader=_LOADER) or {}


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


def default_tree(kind: str, name: str) -> dict | None:
    """The default tree of one task or optimizer (``kind`` is ``"tasks"`` or
    ``"optimizers"``), variant names resolved; None if the name has none.
    Shared with every caller, so never mutate it."""
    if kind == "optimizers":
        name = OPTIMIZER_ALIASES.get(name, name)
    tree = _EXTRA_DEFAULTS[kind].get(name)
    return tree if tree is not None else _packaged_defaults()[kind].get(name)


def _kind_error(value, default) -> str | None:
    """What ``value`` must be under a key whose default is ``default``, or None if it is:
    a mapping under a mapping, a string under a string, a whole number under an int, a
    finite number under a float (never a bool), a scalar else; no int beyond 64 bits."""
    if isinstance(default, dict):
        return None if isinstance(value, dict) else "a mapping"
    if isinstance(default, str):
        return None if isinstance(value, str) else "a string"
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if number and isinstance(value, int) and not -_INT64 <= value < _INT64:
        return "a number in the signed 64-bit range"
    if isinstance(default, bool) or not isinstance(default, (int, float)):
        return None if isinstance(value, _SCALAR_TYPES) else "a scalar"
    if isinstance(default, int):  # 3.0 is 3: int() of it is exact
        whole = number and value % 1 == 0 and -_INT64 <= value < _INT64
        return None if whole else "a whole number in the signed 64-bit range"
    return None if number and math.isfinite(value) else "a finite number"


def check_keys(node: dict, tree: dict, prefix: str = "", axes: bool = True) -> None:
    """Raise ``SchemaError`` naming the first path of ``node`` that ``tree`` lacks or
    whose value is not of its default's kind (``_kind_error``): a key no default file
    holds would be written into the run's identity and then ignored. With ``axes``, a
    list is a grid axis or branch list, checked entry by entry; without (the
    ``evaluation`` block), a list default takes a string, null or a list of strings."""
    for key, value in node.items():
        path = f"{prefix}.{key}" if prefix else key
        if key not in tree:
            raise SchemaError(f"unknown key `{path}`")
        default = tree[key]
        if isinstance(default, list) and not axes:
            entries = [value] if isinstance(value, str) else [] if value is None else value
            if not (isinstance(entries, list) and all(isinstance(e, str) for e in entries)):
                raise SchemaError(f"`{path}` must be a string or a list of strings, got {value!r}")
            continue
        for entry in value if axes and isinstance(value, list) else [value]:
            if isinstance(entry, dict):  # a subtree where the default is a leaf has unknown keys
                check_keys(entry, default if isinstance(default, dict) else {}, path, axes)
            what = _kind_error(entry, default)
            if what is not None:
                raise SchemaError(f"`{path}` must be {what}, got {entry!r}")


def _split_by_name(node: dict) -> list[dict]:
    """Turn a subtree with a list-valued `name` into one branch per name."""
    names = node.get("name")
    if isinstance(names, list):
        if not names:
            raise EmptyListError("`name` axis has zero entries")
        return [{**copy.deepcopy(node), "name": n} for n in names]
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
        if not isinstance(name, str):
            raise SchemaError(
                f"every {kind} entry needs a scalar `name`; registered: {sorted(table)}"
            )
        tree = default_tree(f"{kind}s", name)
        if tree is None:
            raise UnknownNameError(
                f"unknown {kind} {name!r}; registered: {sorted(table)}"
            )
        check_keys(branch, tree, kind)
        # variant names keep their own identity
        merged.append(deep_merge({**tree, "name": name}, branch))
    return merged[0] if len(merged) == 1 and isinstance(node, dict) else merged


def merge_defaults(spec: dict) -> dict:
    """Fill every key from the matching default files; experiment values win.

    When the ``task``/``optimizer`` node is a list (or carries a
    list-valued ``name``), each branch is merged against its own default
    file and the node stays a list of complete subtrees. A key that its
    block's default tree lacks (for ``task``/``optimizer``, the named one's
    tree), or a value of another kind than its default, is a ``SchemaError``.
    """
    defaults = load_defaults()
    merged = {
        "task": _merge_named_node(spec.get("task", {}), defaults["tasks"], "task"),
        "optimizer": _merge_named_node(
            spec.get("optimizer", {}), defaults["optimizers"], "optimizer"
        ),
    }
    for block in ("engine", "evaluation"):
        check_keys(spec.get(block, {}), defaults[block], block, axes=block == "engine")
        merged[block] = deep_merge(defaults[block], spec.get(block, {}))
    return merged


def _expand_node(node) -> list:
    """All resolved variants of a node, in deterministic axis order."""
    if isinstance(node, list):
        if not node:
            raise EmptyListError("grid axis with zero entries")
        if all(isinstance(x, dict) for x in node):
            return [variant for branch in node for variant in _expand_node(branch)]
        return list(node)  # ``check_keys`` lets only scalars into any other list
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

    Axes come block by block (``task``, ``optimizer``, ``engine``) and, in
    a block, in the merged key order: the default file's keys, then the
    keys only the experiment sets. The first axis varies slowest. Array-job
    indices depend on this order. The ``evaluation`` block is copied
    verbatim onto every resolved config.
    """
    gridded = {
        "task": spec.get("task", {}),
        "optimizer": spec.get("optimizer", {}),
        "engine": spec.get("engine", {}),
    }
    resolved = _expand_node(gridded)
    evaluation = spec.get("evaluation", {})
    for cfg in resolved:
        cfg["evaluation"] = copy.deepcopy(evaluation)
    return resolved


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


# libyaml's parser and emitter when PyYAML has them; the pure-Python ones build the same trees and bytes
_LOADER = type("Loader", (getattr(yaml, "CSafeLoader", yaml.SafeLoader),), {})
_DUMPER = type("Dumper", (getattr(yaml, "CSafeDumper", yaml.SafeDumper),), {})
# PyYAML reads floats by YAML 1.1 rules, which need a dot and a signed
# exponent, so `1e-3`, `1E5` and `.5e3` would load as strings. The YAML 1.2
# exponent forms resolve as floats here; the dumper quotes a string of that form.
for _yaml_cls in (_LOADER, _DUMPER):
    _yaml_cls.add_implicit_resolver(
        "tag:yaml.org,2002:float",
        re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)[eE][-+]?[0-9]+$"),
        list("-+0123456789."),
    )


def dump_config(config: dict) -> str:
    """Deterministic YAML text for a resolved config (round-trip safe), the
    bytes of ``yaml.safe_dump(config, sort_keys=True, default_flow_style=False)``
    except that a string such as ``"1e3"`` is quoted."""
    return yaml.dump(config, Dumper=_DUMPER, sort_keys=True, default_flow_style=False)


def load_config(yaml_text: str) -> dict:
    return yaml.load(yaml_text, Loader=_LOADER)
