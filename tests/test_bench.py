import csv
from dataclasses import replace
from statistics import median

import numpy as np
import pytest

from qesa import anneal, bench, ising, qp


def _fast_grid(**overrides):
    defaults = dict(
        dims=(8,),
        diag_scales=(1.0,),
        seeds=(0, 1),
        solvers=("qesa_exact", "sa", "random_search"),
        schedule=anneal.ScheduleConfig(steps=15),
        sampler_cfg=ising.SamplerConfig(num_samples=16, inner_sweeps=8),
    )
    defaults.update(overrides)
    return bench.ExperimentGrid(**defaults)


def _strip_timing(rows):
    return [
        {k: v for k, v in row.items() if k not in bench.TIMING_COLUMNS}
        for row in rows
    ]


def test_grid_row_cardinality(tmp_path):
    rows = bench.run_grid(_fast_grid(), out_path=tmp_path / "grid.csv")
    assert len(rows) == 6
    with open(tmp_path / "grid.csv") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        assert header == list(bench.GRID_COLUMNS)
        assert sum(1 for _ in reader) == 6


def test_grid_reference_rows_normalize_to_exactly_one():
    rows = bench.run_grid(_fast_grid(solvers=("reference", "qesa_exact", "random_search")))
    ref_rows = [r for r in rows if r["solver"] == "reference"]
    assert len(ref_rows) == 2
    for row in ref_rows:
        assert row["normalized_f"] == 1.0
        assert row["abs_gap"] == 0.0


def test_grid_rerun_is_deterministic_excluding_timing(tmp_path):
    grid = _fast_grid()
    first = _strip_timing(bench.run_grid(grid, out_path=tmp_path / "a.csv"))
    second = _strip_timing(bench.run_grid(grid, out_path=tmp_path / "b.csv"))
    assert first == second


def test_grid_parallel_matches_serial():
    grid = _fast_grid()
    serial = _strip_timing(bench.run_grid(grid, jobs=1))
    parallel = _strip_timing(bench.run_grid(grid, jobs=2))
    assert serial == parallel


def test_grid_pool_has_at_most_one_worker_per_cell(monkeypatch):
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(bench, "ProcessPoolExecutor", RecordingPool)
    grid = _fast_grid(solvers=("random_search",))
    assert len(bench.run_grid(grid, jobs=64)) == 2
    assert len(bench.run_grid(replace(grid, seeds=(0,)), jobs=64)) == 1
    assert sizes == [2]  # a single cell runs in this process


def test_grid_records_failures_without_aborting():
    # corner enumeration refuses n=30; the other solver still reports values
    grid = _fast_grid(dims=(30,), solvers=("corner_exact", "random_search"))
    rows = bench.run_grid(grid)
    by_solver = {r["solver"]: r for r in rows if r["seed"] == 0}
    assert "cap" in by_solver["corner_exact"]["error"]
    assert by_solver["corner_exact"]["best_f"] is None
    assert by_solver["random_search"]["error"] == ""
    # large-n reference falls back to best-over-rows: the only valid solver
    assert by_solver["random_search"]["abs_gap"] == 0.0


def test_grid_audit_best_f_matches_recorded_point():
    rows = bench.run_grid(_fast_grid(), keep_points=True)
    for row in rows:
        inst = qp.generate(row["n"], row["diag_scale"], row["seed"])
        recomputed = qp.objective(inst, np.asarray(row["_best_x"]))
        assert row["best_f"] == pytest.approx(recomputed, abs=1e-9)


def test_grid_validation():
    with pytest.raises(ValueError, match="non-empty"):
        bench.ExperimentGrid(dims=())
    with pytest.raises(ValueError, match="unknown solver"):
        bench.ExperimentGrid(solvers=("warpdrive",))


@pytest.mark.parametrize("field, values", [
    ("dims", (0,)), ("dims", (-3,)), ("dims", (4.5,)),
    ("diag_scales", (-1.0,)), ("diag_scales", (float("inf"),)), ("diag_scales", (float("nan"),)),
    ("seeds", (2.5,)), ("seeds", ("0",)),
])
def test_grid_rejects_bad_field_values(field, values):
    with pytest.raises(ValueError, match=f"'{field}'"):
        bench.ExperimentGrid(**{field: values})


def test_grid_rejects_zero_scale_before_run_grid():
    # this grid used to abort run_grid in its parent-side reference for n <= 12
    with pytest.raises(ValueError, match="'diag_scales'"):
        bench.ExperimentGrid(dims=(4,), diag_scales=(0.0,), seeds=(0,), solvers=("random_search",))


def test_grid_rejects_negative_seed_before_run_grid():
    with pytest.raises(ValueError, match="'seeds'"):
        bench.ExperimentGrid(dims=(4,), diag_scales=(1.0,), seeds=(-1,), solvers=("random_search",))


def test_boundary_fraction_values():
    assert bench.boundary_fraction(np.array([1.0, -1.0, 0.0, 1.0])) == 0.75
    assert bench.boundary_fraction(np.array([0.2, -0.3])) == 0.0
    assert bench.boundary_fraction(np.array([0.9999999, 1.0]), tol=1e-6) == 1.0
    with pytest.raises(ValueError):
        bench.boundary_fraction(np.zeros(3), tol=-1.0)


def test_boundary_fraction_accepts_reports():
    inst = qp.QpInstance(Q=-np.eye(2), c=np.zeros(2))
    report = anneal.qesa_solve(inst, sampler=ising.solve_exact, seed=0)
    assert bench.boundary_fraction(report) == 1.0


def test_reference_solution_not_worse_than_corners_and_descent():
    inst = qp.generate(10, 20.0, seed=3)
    ref = bench.reference_solution(inst)
    from qesa import baselines

    assert ref.best_f <= baselines.solve_corner_exact(inst).best_f + 1e-9
    assert ref.best_f <= baselines.solve_projected_gradient(inst, iters=200, seed=0).best_f + 1e-9
    # deterministic
    again = bench.reference_solution(inst)
    assert again.best_f == ref.best_f
    np.testing.assert_array_equal(again.best_x, ref.best_x)


def _instances(n, scale, seeds):
    return [qp.generate(n, scale, seed) for seed in seeds]


def test_sweep_steps_cardinality_and_single_step(tmp_path):
    instances = _instances(6, 5.0, range(3))
    rows = bench.sweep(
        "steps", instances, [1, 5], out_path=tmp_path / "steps.csv",
        schedule=anneal.ScheduleConfig(),
    )
    assert len(rows) == 6
    one_step = [r for r in rows if r["steps"] == 1]
    # init plus exactly one direction step
    assert all(r["eval_count"] == 2 for r in one_step)
    with open(tmp_path / "steps.csv") as fh:
        assert sum(1 for _ in fh) == 7  # header + rows


def test_sweep_steps_more_steps_do_not_hurt_on_convex_instances():
    instances = _instances(8, 20.0, range(10))
    rows = bench.sweep("steps", instances, [5, 100])
    by_steps = {
        s: median(r["best_f"] for r in rows if r["steps"] == s) for s in (5, 100)
    }
    assert by_steps[100] <= by_steps[5] + 1e-9


def test_sweep_p_full_retention_matches_plain_solve():
    instances = _instances(7, 1.0, range(3))
    rows = bench.sweep("p", instances, [1.0], base_seed=5)
    for idx, inst in enumerate(instances):
        plain = bench.SOLVERS["qesa_exact"](inst, anneal.ScheduleConfig(), (5, idx), None)
        assert rows[idx]["best_f"] == plain.best_f


def test_sweep_rejects_unknown_parameter_and_backend():
    instances = _instances(4, 1.0, range(1))
    with pytest.raises(ValueError, match="sweep parameter"):
        bench.sweep("alpha", instances, [0.5])
    with pytest.raises(ValueError, match="sweep solver"):
        bench.sweep("steps", instances, [5], solver="quantum")
    with pytest.raises(ValueError, match="sweep solver"):  # a tag without the QESA loop
        bench.sweep("steps", instances, [5], solver="random_search")


def test_sweep_p_cardinality(tmp_path):
    instances = _instances(6, 1.0, range(2))
    rows = bench.sweep("p", instances, [0.0, 0.5, 1.0], out_path=tmp_path / "p.csv")
    assert len(rows) == 6
    with open(tmp_path / "p.csv") as fh:
        header = next(csv.reader(fh))
        assert header == ["instance", "n", "diag_scale", "seed", "p", "best_f",
                          "wall_time_s", "sampler_time_s", "eval_count"]


def test_median_table_groups_and_orders():
    rows = [
        {"solver": "a", "best_f": 3.0},
        {"solver": "a", "best_f": 1.0},
        {"solver": "b", "best_f": 2.0},
        {"solver": "a", "best_f": 2.0, "error": "boom"},
    ]
    table = bench.median_table(rows, ["solver"], ["best_f"])
    assert table == [{"solver": "a", "best_f": 2.0}, {"solver": "b", "best_f": 2.0}]


def test_write_plot_tables(tmp_path):
    rows = bench.run_grid(_fast_grid())
    bench.write_plot_tables(rows, tmp_path)
    by_scale = (tmp_path / "plot_by_scale.tsv").read_text().splitlines()
    assert by_scale[0].split("\t")[0] == "solver"
    assert len(by_scale) == 4  # header + 3 solvers at one scale
    assert (tmp_path / "plot_by_n.tsv").exists()


def test_sa_corner_with_exact_steps_runs_where_the_exact_corner_is_refused():
    rows = bench.run_grid(_fast_grid(dims=(40,), seeds=(0,), solvers=("qesa_exact", "qesa_sa_exact")))
    by_solver = {row["solver"]: row for row in rows}
    assert "exceeds the cap" in by_solver["qesa_exact"]["error"]
    assert by_solver["qesa_sa_exact"]["error"] == ""
    assert by_solver["qesa_sa_exact"]["eval_count"] == 16
