import copy
import random
import re
import xml.etree.ElementTree as ET

import pytest

from optbench.errors import (
    DuplicateCellError,
    EmptyGridError,
    MixedTasksError,
    SchemaError,
)
from optbench.evaluation import (
    AggregateCell,
    HeatmapSpec,
    aggregate,
    check_evaluation,
    export_table,
    render_heatmap,
    run_evaluation,
)
from optbench.rundir import RunResult


def fake_run(config, test_best, test_last, direction="minimize"):
    from optbench.config import run_id

    return (
        config,
        RunResult(
            run_id=run_id(config),
            status="completed",
            history=[{"epoch": 1, "lr_last": 0.1, "train_loss": 1.0, "val_metric": test_best}],
            test_best=test_best,
            test_last=test_last,
            best_val={"value": test_best, "epoch": 1},
            seeds_used={"init": 1, "shuffle": 2},
            budgets=[1],
            metric={"kind": "loss", "direction": direction},
        ),
    )


def base_config(seed=1, lr=0.1, name="quadratic"):
    return {
        "task": {"name": name, "max_epochs": 5},
        "optimizer": {"name": "adamw_baseline", "learning_rate": lr},
        "engine": {"seed": seed, "output_dir": "out"},
        "evaluation": {},
    }


class TestAggregate:
    def test_textbook_mean_std(self):
        results = [fake_run(base_config(seed=s), float(v), float(v)) for s, v in [(1, 1), (2, 2), (3, 3)]]
        cells = aggregate(results)
        assert len(cells) == 1
        cell = cells[0]
        assert cell.n == 3
        assert cell.mean_best == pytest.approx(2.0)
        assert cell.std_best == pytest.approx(1.0)

    def test_single_seed_degenerate(self):
        cells = aggregate([fake_run(base_config(), 0.4, 0.5)])
        assert cells[0].n == 1
        assert cells[0].std_best == 0.0
        assert cells[0].std_last == 0.0

    def test_grouping_excludes_seed_only(self):
        results = []
        for lr in (0.1, 0.01):
            for seed in (1, 2, 3):
                results.append(fake_run(base_config(seed=seed, lr=lr), lr, lr))
        cells = aggregate(results)
        assert len(cells) == 2
        assert all(c.n == 3 for c in cells)
        assert all("engine.seed" not in c.group_key for c in cells)
        assert {c.group_key["optimizer.learning_rate"] for c in cells} == {0.1, 0.01}

    def test_mixed_directions_rejected(self):
        a = fake_run(base_config(name="quadratic"), 1.0, 1.0, direction="minimize")
        b = fake_run(base_config(name="blobs_logreg"), 0.9, 0.9, direction="maximize")
        with pytest.raises(MixedTasksError):
            aggregate([a, b])

    def test_incomplete_rejected(self):
        cfg, run = fake_run(base_config(), 1.0, 1.0)
        run.status = "aborted"
        with pytest.raises(ValueError):
            aggregate([(cfg, run)])

    def test_duplicate_inputs_double_n_same_stats(self):
        rnd = random.Random(11)
        results = []
        for lr in (0.1, 0.02, 0.003):
            for seed in (1, 2):
                v = rnd.random()
                results.append(fake_run(base_config(seed=seed, lr=lr), v, v + 0.1))
        once = aggregate(results)
        twice = aggregate(results + copy.deepcopy(results))
        # brute-force grouping oracle: doubling exact duplicates keeps means
        # and stds, doubles n
        assert len(once) == len(twice)
        for c1, c2 in zip(once, twice):
            assert c1.group_key == c2.group_key
            assert c2.n == 2 * c1.n
            assert c2.mean_best == pytest.approx(c1.mean_best, rel=1e-12)
            assert c2.mean_last == pytest.approx(c1.mean_last, rel=1e-12)


class TestExportTable:
    def make_cells(self):
        results = [fake_run(base_config(seed=s, lr=lr), lr + s / 10, lr)
                   for s in (1, 2) for lr in (0.1, 0.01)]
        return aggregate(results)

    def test_csv_header_and_row(self, tmp_path):
        cells = [AggregateCell({"optimizer.learning_rate": 0.1}, 1, 2.0, 0.0, 3.0, 0.0)]
        path = tmp_path / "t.csv"
        export_table(cells, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0] == "optimizer.learning_rate,n,mean_best,std_best,mean_last,std_last"
        assert lines[1].startswith("0.1,1,2.0,")

    def test_reexport_byte_identical(self, tmp_path):
        cells = self.make_cells()
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        export_table(cells, p1)
        export_table(cells, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(EmptyGridError):
            export_table([], tmp_path / "t.csv")


def grid_cells(values, x_key="optimizer.kappa_init_param", y_key="optimizer.learning_rate"):
    """values: dict {(x, y): mean}"""
    return [
        AggregateCell({x_key: x, y_key: y, "optimizer.name": "adamcpr"}, 3, v, 0.0, v, 0.0)
        for (x, y), v in values.items()
    ]


class TestHeatmap:
    def test_argmax_outline(self):
        cells = grid_cells({(1, 0.1): 1.0, (2, 0.1): 2.0, (1, 0.01): 3.0, (2, 0.01): 4.0})
        spec = HeatmapSpec(x_key="optimizer.kappa_init_param")
        svg = render_heatmap(cells, spec, "maximize")
        root = ET.fromstring(svg)  # well-formed XML
        # exactly one outline rect (stroke-width 3)
        outlines = [e for e in root.iter() if e.get("stroke-width") == "3"]
        assert len(outlines) == 1
        assert "4.00" in svg
        # minimize flips the winner but keeps everything else
        svg_min = render_heatmap(cells, spec, "minimize")
        assert svg_min != svg

    def test_all_equal_outline_first_in_sort_order(self):
        cells = grid_cells({(x, y): 7.0 for x in (1, 2) for y in (0.1, 0.01)})
        svg = render_heatmap(cells, HeatmapSpec(x_key="optimizer.kappa_init_param"), "maximize")
        root = ET.fromstring(svg)
        outline = [e for e in root.iter() if e.get("stroke-width") == "3"][0]
        # first in sort order = smallest x, smallest y; y axis renders
        # descending so that cell sits on the bottom row, first column
        xs = sorted({1, 2})
        assert float(outline.get("x")) == pytest.approx(110 + 2, abs=1e-6)  # first column
        assert float(outline.get("y")) > 40 + 50  # bottom row (second of two)

    def test_argmax_invariant_under_affine_rescale(self):
        rnd = random.Random(3)
        values = {(x, y): rnd.random() for x in (1, 2, 4) for y in (0.1, 0.01)}
        spec = HeatmapSpec(x_key="optimizer.kappa_init_param")

        def outline_pos(vals):
            svg = render_heatmap(grid_cells(vals), spec, "maximize")
            root = ET.fromstring(svg)
            e = [e for e in root.iter() if e.get("stroke-width") == "3"][0]
            return (e.get("x"), e.get("y"))

        scaled = {k: 3.5 * v + 11.0 for k, v in values.items()}
        assert outline_pos(values) == outline_pos(scaled)

    def test_4x5_grid_labels_and_counts(self):
        lrs = [1e-1, 1e-2, 1e-3, 1e-4]
        wds = [10.0, 1.0, 1e-1, 1e-2, 1e-3]
        rnd = random.Random(8)
        values = {(w, lr): rnd.random() for w in wds for lr in lrs}
        cells = grid_cells(values, x_key="optimizer.weight_decay")
        svg = render_heatmap(cells, HeatmapSpec(x_key="optimizer.weight_decay"), "maximize")
        root = ET.fromstring(svg)
        rects = [e for e in root.iter() if e.tag.endswith("rect") and e.get("stroke") == "#999999"]
        assert len(rects) == 20
        assert "1e-04" in svg and "1e-03" in svg  # scientific axis labels

    def test_rerender_byte_identical(self):
        cells = grid_cells({(1, 0.1): 1.0, (2, 0.1): 2.0})
        spec = HeatmapSpec(x_key="optimizer.kappa_init_param")
        assert render_heatmap(cells, spec, "maximize") == render_heatmap(cells, spec, "maximize")

    def test_missing_cells_hatched(self):
        cells = grid_cells({(1, 0.1): 1.0, (2, 0.01): 2.0})  # 2x2 grid, 2 holes
        svg = render_heatmap(cells, HeatmapSpec(x_key="optimizer.kappa_init_param"), "maximize")
        assert svg.count('fill="url(#hatch)"') == 2

    def test_duplicate_cells_rejected(self):
        cells = grid_cells({(1, 0.1): 1.0}) + grid_cells({(1, 0.1): 2.0})
        with pytest.raises(DuplicateCellError):
            render_heatmap(cells, HeatmapSpec(x_key="optimizer.kappa_init_param"), "maximize")

    def test_empty_rejected(self):
        with pytest.raises(EmptyGridError):
            render_heatmap([], HeatmapSpec(x_key="optimizer.kappa_init_param"), "maximize")

    def test_spec_validation(self):
        with pytest.raises(SchemaError):
            HeatmapSpec(x_key="a", y_key="a")
        with pytest.raises(SchemaError):
            HeatmapSpec(x_key="a", value="median")


class TestRunEvaluation:
    def make_results(self):
        results = []
        for lr in (0.1, 0.01):
            for wd in (0.1, 0.001):
                for seed in (1, 2):
                    cfg = base_config(seed=seed, lr=lr)
                    cfg["optimizer"]["weight_decay"] = wd
                    results.append(fake_run(cfg, lr + wd, lr))
        return results

    def run_block(self, eval_cfg, out_dir, results=None):
        """``run_evaluation`` of the fake results per the evaluation block ``eval_cfg``."""
        results = self.make_results() if results is None else results
        return run_evaluation(results, check_evaluation(eval_cfg, [c for c, _ in results]), out_dir)

    def test_best_and_last_give_two_plots(self, tmp_path):
        eval_cfg = {
            "output_types": ["svg", "csv"],
            "plot": {"x_axis": ["optimizer.weight_decay"], "value": ["best", "last"]},
        }
        written = self.run_block(eval_cfg, tmp_path)
        names = sorted(p.name for p in written)
        assert names == [
            "adamw_baseline.optimizer.weight_decay.best.svg",
            "adamw_baseline.optimizer.weight_decay.last.svg",
            "aggregated.csv",
        ]

    def test_unknown_output_type_rejected(self, tmp_path):
        with pytest.raises(SchemaError):
            self.run_block({"output_types": ["pdf"]}, tmp_path)

    def test_x_axis_equal_to_the_y_axis_rejected(self, tmp_path):
        eval_cfg = {"plot": {"x_axis": ["optimizer.weight_decay", "optimizer.learning_rate"]}}
        with pytest.raises(SchemaError, match="x axis `optimizer.learning_rate` is the y axis"):
            self.run_block(eval_cfg, tmp_path)
        assert not list(tmp_path.iterdir())

    def test_rerun_rewrites_only_changed_files(self, tmp_path):
        eval_cfg = {"plot": {"x_axis": ["optimizer.weight_decay"], "value": ["best", "last"]}}
        written = self.run_block(eval_cfg, tmp_path)
        stamps = {p: (p.read_bytes(), p.stat().st_ino, p.stat().st_mtime_ns) for p in written}
        assert self.run_block(eval_cfg, tmp_path) == written
        assert {p: (p.read_bytes(), p.stat().st_ino, p.stat().st_mtime_ns) for p in written} == stamps
        self.run_block(eval_cfg, tmp_path, self.make_results()[1:])  # one seed fewer, same means
        for p in written:  # the table's n changed; the plots show only means
            kept = (p.read_bytes(), p.stat().st_ino, p.stat().st_mtime_ns) == stamps[p]
            assert kept == (p.suffix == ".svg"), p
        assert sorted(p for p in tmp_path.rglob("*") if p.is_file()) == sorted(written)

    def test_csv_only(self, tmp_path):
        written = self.run_block({"output_types": ["csv"]}, tmp_path)
        assert [p.name for p in written] == ["aggregated.csv"]

    def test_a_single_string_is_one_entry(self, tmp_path):
        axis = "optimizer.weight_decay"
        as_lists = {"output_types": ["svg"], "plot": {"x_axis": [axis], "value": ["last"]}}
        as_strings = {"output_types": "svg", "plot": {"x_axis": axis, "value": "last"}}
        configs = [cfg for cfg, _ in self.make_results()]
        assert check_evaluation(as_strings, configs) == check_evaluation(as_lists, configs)
        written = self.run_block(as_strings, tmp_path)
        assert [p.name for p in written] == ["adamw_baseline.optimizer.weight_decay.last.svg"]
        bad_blocks = [
            ({"output_types": 3}, "`evaluation.output_types` must be svg/csv or a list of them, got 3"),
            ({"plot": {"value": "mean"}}, "`evaluation.plot.value` must be best/last or a list of them"),
            ({"plot": {"x_axis": {}}}, "`evaluation.plot.x_axis` must be a string or a list, got {}"),
        ]
        for block, message in bad_blocks:
            with pytest.raises(SchemaError, match=re.escape(message)):
                check_evaluation(block, configs)
