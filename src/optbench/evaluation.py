"""Seed aggregation, table export and dependency-free SVG heatmaps."""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path

from .config import flatten, identity_view
from .rundir import RunResult, _write_atomic
from .errors import (
    DuplicateCellError,
    EmptyGridError,
    MixedTasksError,
    SchemaError,
)


@dataclass
class AggregateCell:
    """Statistics over the seeds of one configuration group."""

    group_key: dict[str, object]  # identity paths minus engine.seed
    n: int
    mean_best: float
    std_best: float
    mean_last: float
    std_last: float


def _mean_std(values: list[float]) -> tuple[float, float]:
    n = len(values)
    mean = sum(values) / n
    if n == 1:
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(var)


def _group_key(config: dict) -> dict[str, object]:
    """The flat identity paths that group a run with its other seeds."""
    key_tree = flatten(identity_view(config))
    key_tree.pop("engine.seed", None)
    return key_tree


def aggregate(results: list[tuple[dict, RunResult]]) -> list[AggregateCell]:
    """Group completed runs by identity-minus-seed; mean and sample std.

    All results must share one metric direction so that best/last has a
    single meaning across the table.
    """
    directions = {r.metric.get("direction") for _, r in results}
    if len(directions) > 1:
        raise MixedTasksError(f"results span metric directions {sorted(directions)}")
    for _, r in results:
        if r.status != "completed":
            raise ValueError(f"run {r.run_id} is not completed")

    groups: dict[tuple, dict] = {}
    for config, r in results:
        key_tree = _group_key(config)
        key = tuple(sorted(key_tree.items()))
        bucket = groups.setdefault(key, {"key": key_tree, "best": [], "last": []})
        bucket["best"].append(r.test_best)
        bucket["last"].append(r.test_last)

    cells = []
    for key in sorted(groups, key=lambda k: [str(x) for x in k]):
        bucket = groups[key]
        mean_b, std_b = _mean_std(bucket["best"])
        mean_l, std_l = _mean_std(bucket["last"])
        cells.append(
            AggregateCell(
                group_key=bucket["key"],
                n=len(bucket["best"]),
                mean_best=mean_b,
                std_best=std_b,
                mean_last=mean_l,
                std_last=std_l,
            )
        )
    return cells


STAT_COLUMNS = ("n", "mean_best", "std_best", "mean_last", "std_last")


def _write_text(path: Path, text: str) -> None:
    """Write a table or plot by an atomic rename, unless it already holds ``text``."""
    data = text.encode("utf-8")
    if not path.is_file() or path.read_bytes() != data:
        _write_atomic(path, data)


def export_table(cells: list[AggregateCell], path: str | Path) -> None:
    """Write cells to CSV; output is byte-stable across calls."""
    if not cells:
        raise EmptyGridError("no cells to export")
    key_columns = sorted({k for c in cells for k in c.group_key})
    rows = []
    for c in cells:
        row = [str(c.group_key.get(k, "")) for k in key_columns]
        row += [str(c.n)] + [repr(getattr(c, col)) for col in STAT_COLUMNS[1:]]
        rows.append(row)
    rows.sort(key=lambda r: r[: len(key_columns)])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(key_columns + list(STAT_COLUMNS))
    writer.writerows(rows)
    _write_text(Path(path), buf.getvalue())


@dataclass(frozen=True)
class HeatmapSpec:
    x_key: str
    y_key: str = "optimizer.learning_rate"
    value: str = "best"  # best | last

    def __post_init__(self):
        if self.x_key == self.y_key:
            raise SchemaError("heatmap needs two distinct axes")
        if self.value not in ("best", "last"):
            raise SchemaError(f"heatmap value must be best or last, got {self.value!r}")


def _axis_label(value, scientific: bool) -> str:
    if isinstance(value, float):
        return f"{value:.0e}" if scientific else f"{value:g}"
    return str(value)


def _format_axis(values) -> list[str]:
    floats = [v for v in values if isinstance(v, float)]
    scientific = any(abs(v) < 1e-2 or abs(v) >= 1e4 for v in floats if v != 0)
    return [_axis_label(v, scientific) for v in values]


def _ramp(frac: float) -> str:
    """White to steel blue, linear."""
    start, end = (255, 255, 255), (70, 130, 180)
    rgb = tuple(round(s + (e - s) * frac) for s, e in zip(start, end))
    return f"#{rgb[0]:02x}{rgb[1]:02x}{rgb[2]:02x}"


def render_heatmap(cells: list[AggregateCell], spec: HeatmapSpec, direction: str) -> str:
    """SVG heatmap over two config axes.

    x ascends left to right, y descends top to bottom. Fill is a monotone
    white-to-blue ramp over the displayed value range; every cell is
    annotated with its mean to two decimals; the best cell per metric
    direction gets an outline; missing (x, y) combinations are hatched.
    """
    if not cells:
        raise EmptyGridError("empty cell set")
    table = {}
    for c in cells:
        if spec.x_key not in c.group_key or spec.y_key not in c.group_key:
            raise SchemaError(
                f"cell lacks axis keys {spec.x_key!r}/{spec.y_key!r}: {sorted(c.group_key)}"
            )
        coord = (c.group_key[spec.x_key], c.group_key[spec.y_key])
        if coord in table:
            raise DuplicateCellError(f"duplicate cell at {coord}")
        table[coord] = c.mean_best if spec.value == "best" else c.mean_last

    xs = sorted({x for x, _ in table})
    ys = sorted({y for _, y in table})
    lo, hi = min(table.values()), max(table.values())
    span = hi - lo

    # max/min keep the first optimum in (x asc, y asc) order on ties
    pick = max if direction == "maximize" else min
    best_coord = pick(sorted(table), key=table.__getitem__)

    cell_w, cell_h = 90, 50
    margin_left, margin_top, margin_bottom = 110, 40, 50
    width = margin_left + cell_w * len(xs) + 20
    height = margin_top + cell_h * len(ys) + margin_bottom

    out = []
    out.append('<?xml version="1.0" encoding="UTF-8"?>')
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    )
    out.append(
        '<defs><pattern id="hatch" width="8" height="8" patternUnits="userSpaceOnUse" '
        'patternTransform="rotate(45)"><rect width="8" height="8" fill="#f0f0f0"/>'
        '<line x1="0" y1="0" x2="0" y2="8" stroke="#b0b0b0" stroke-width="2"/></pattern></defs>'
    )
    title = f"{spec.y_key} vs {spec.x_key} ({spec.value})"
    out.append(
        f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" '
        f'font-family="monospace" font-size="13">{title}</text>'
    )

    x_labels = _format_axis(xs)
    y_labels = _format_axis(ys)
    y_render = list(reversed(ys))  # descending top to bottom
    y_render_labels = list(reversed(y_labels))

    for row, y in enumerate(y_render):
        cy = margin_top + row * cell_h
        out.append(
            f'<text x="{margin_left - 8}" y="{cy + cell_h / 2 + 4:.1f}" text-anchor="end" '
            f'font-family="monospace" font-size="11">{y_render_labels[row]}</text>'
        )
        for col, x in enumerate(xs):
            cx = margin_left + col * cell_w
            if (x, y) not in table:
                out.append(
                    f'<rect x="{cx}" y="{cy}" width="{cell_w}" height="{cell_h}" '
                    f'fill="url(#hatch)" stroke="#999999"/>'
                )
                continue
            value = table[(x, y)]
            frac = 0.5 if span == 0 else (value - lo) / span
            out.append(
                f'<rect x="{cx}" y="{cy}" width="{cell_w}" height="{cell_h}" '
                f'fill="{_ramp(frac)}" stroke="#999999"/>'
            )
            if (x, y) == best_coord:
                out.append(
                    f'<rect x="{cx + 2}" y="{cy + 2}" width="{cell_w - 4}" height="{cell_h - 4}" '
                    f'fill="none" stroke="#d62728" stroke-width="3"/>'
                )
            dark = frac > 0.6
            out.append(
                f'<text x="{cx + cell_w / 2:.1f}" y="{cy + cell_h / 2 + 4:.1f}" '
                f'text-anchor="middle" font-family="monospace" font-size="12" '
                f'fill="{"#ffffff" if dark else "#000000"}">{value:.2f}</text>'
            )
    for col, label in enumerate(x_labels):
        cx = margin_left + col * cell_w + cell_w / 2
        out.append(
            f'<text x="{cx:.1f}" y="{margin_top + cell_h * len(ys) + 18}" '
            f'text-anchor="middle" font-family="monospace" font-size="11">{label}</text>'
        )
    out.append(
        f'<text x="{margin_left + cell_w * len(xs) / 2:.1f}" y="{height - 12}" '
        f'text-anchor="middle" font-family="monospace" font-size="12">{spec.x_key}</text>'
    )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _entries(value, path: str, allowed: tuple = ()) -> list:
    """A list key of the evaluation block: one string is one entry, null none.
    Each entry must be a string, and with ``allowed`` one of them."""
    entries = [value] if isinstance(value, str) else [] if value is None else value
    if (not isinstance(entries, list) or not all(isinstance(e, str) for e in entries)
            or allowed and not set(entries) <= set(allowed)):
        what = "/".join(allowed) + " or a list of them" if allowed else "a string or a list"
        raise SchemaError(f"`evaluation.{path}` must be {what}, got {value!r}")
    return entries


def check_evaluation(evaluation_cfg: dict, configs: list[dict]) -> tuple[list, list, str, list]:
    """Output types, x axes, y axis and value kinds of an evaluation block.

    A ``SchemaError`` if no run of ``configs`` could satisfy the block: an
    output type other than svg/csv, a value kind other than best/last, an x
    axis that is the y axis, or a plot axis that names no grouping key of
    any config.
    """
    plot_cfg = evaluation_cfg.get("plot", {})
    formats = ("svg", "csv")
    output_types = _entries(evaluation_cfg.get("output_types", list(formats)), "output_types", formats)
    x_keys = _entries(plot_cfg.get("x_axis", []), "plot.x_axis")
    y_key = plot_cfg.get("y_axis", "optimizer.learning_rate")
    values = _entries(plot_cfg.get("value", ["best"]), "plot.value", ("best", "last"))
    if y_key in x_keys:
        raise SchemaError(f"plot x axis `{y_key}` is the y axis: a heatmap needs two distinct axes")
    paths = {path for cfg in configs for path in _group_key(cfg)}
    for axis in [*x_keys, y_key]:
        if axis not in paths:
            raise SchemaError(f"plot axis `{axis}` names no key of any run's config")
    return output_types, x_keys, y_key, values


def run_evaluation(results: list[tuple[dict, RunResult]], checked: tuple, out_dir: str | Path) -> list[Path]:
    """Aggregate results and write tables/heatmaps per an evaluation block,
    given as ``checked``: its ``check_evaluation``.

    One heatmap is rendered per (optimizer name, x-axis key, value kind)
    for every x key applicable to that optimizer's cells. A file that
    already holds its bytes is not rewritten.
    """
    out_dir = Path(out_dir)
    output_types, x_keys, y_key, values = checked
    completed = [(c, r) for c, r in results if r.status == "completed"]
    if not completed:
        raise EmptyGridError("no completed runs to evaluate")
    cells = aggregate(completed)
    written = []
    if "csv" in output_types:
        table_path = out_dir / "aggregated.csv"
        export_table(cells, table_path)
        written.append(table_path)
    if "svg" not in output_types:
        return written

    if not x_keys:
        return written

    direction = completed[0][1].metric["direction"]
    plots_dir = out_dir / "plots"
    by_optimizer: dict[str, list[AggregateCell]] = {}
    for cell in cells:
        by_optimizer.setdefault(str(cell.group_key.get("optimizer.name")), []).append(cell)

    for opt_name in sorted(by_optimizer):
        opt_cells = by_optimizer[opt_name]
        for x_key in x_keys:
            if not all(x_key in c.group_key for c in opt_cells):
                continue  # axis not applicable to this optimizer
            for value in values:
                spec = HeatmapSpec(x_key=x_key, y_key=y_key, value=value)
                svg = render_heatmap(opt_cells, spec, direction)
                plots_dir.mkdir(parents=True, exist_ok=True)
                path = plots_dir / f"{opt_name}.{x_key}.{value}.svg"
                _write_text(path, svg)
                written.append(path)
    return written
