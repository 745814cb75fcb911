"""Benchmark harness: solver grids, boundary analysis, step-count and
retention-probability sweeps.

Every solve, from a grid, a sweep or the CLI, is named by its tag in
``SOLVERS``; the ``QESA_TAGS`` run the annealing loop, each on its own
sampler, and are the tags a sweep accepts.

Grid runs emit one CSV row per (solver, n, diag_scale, seed) cell. Energies
are normalized per instance against a reference value: for small n the
reference is the better of exact corner enumeration and multistart projected
gradient descent; for larger n it is the best value any solver in the grid
achieved on that instance. Because energies here are typically negative,
ratio normalization can be ill-behaved near zero, so the absolute gap
best_f - reference_f is always emitted alongside it.
"""
from __future__ import annotations

import csv
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from statistics import median
from typing import Optional, Sequence

import numpy as np

# qesa_solve and solve_exact are not called here, but perfbench's tracer
# patches them on this module, so they stay importable from it.
from .anneal import ScheduleConfig, SolveReport, qesa_solve
from .baselines import (
    solve_corner_exact,
    solve_projected_gradient,
    solve_random_search,
    solve_sa_baseline,
    solve_seeded,
)
from .ising import EXACT_SIZE_CAP, SamplerConfig, solve_exact
from .qp import QpInstance, batch_objective, generate, objective

GRID_COLUMNS = (
    "solver",
    "n",
    "diag_scale",
    "seed",
    "best_f",
    "normalized_f",
    "wall_time_s",
    "sampler_time_s",
    "eval_count",
    "abs_gap",
    "error",
)

TIMING_COLUMNS = ("wall_time_s", "sampler_time_s")

# grid instances up to this n are normalized by reference_solution
EXACT_REFERENCE_MAX_N = 12


@dataclass(frozen=True)
class ExperimentGrid:
    """Cartesian experiment over dimensions, diagonal scales, seeds, solvers."""

    dims: Sequence[int] = (50, 100, 150)
    diag_scales: Sequence[float] = (1.0, 5.0, 10.0, 20.0)
    seeds: Sequence[int] = (0, 1, 2, 3, 4)
    solvers: Sequence[str] = ("sa", "projected_gradient", "random_search")
    schedule: ScheduleConfig = field(default_factory=ScheduleConfig)
    sampler_cfg: SamplerConfig = field(default_factory=SamplerConfig)

    def __post_init__(self):
        for name in ("dims", "diag_scales", "seeds", "solvers"):
            if not getattr(self, name):
                raise ValueError(f"grid field {name!r} must be non-empty")
        unknown = [s for s in self.solvers if s not in SOLVERS]
        if unknown:
            raise ValueError(
                f"unknown solver tags {unknown}; available: {sorted(SOLVERS)}"
            )


def _qesa(backend: str, init_backend: Optional[str] = None):
    return lambda inst, schedule, seed, cfg, retain_p=None: solve_seeded(
        inst, backend, schedule, seed, cfg, retain_p, init_backend
    )


# Every solver is called as SOLVERS[tag](inst, schedule, seed, sampler_cfg);
# the QESA tags also take retain_p. Names are looked up at call time, so a
# function patched on this module is the one that runs.
SOLVERS = {
    "qesa_exact": _qesa("exact"),
    "qesa_random": _qesa("random"),
    "qesa_external": _qesa("external"),
    # sa corner, exact steps: runs above EXACT_SIZE_CAP while steps stay fixable
    "qesa_sa_exact": _qesa("exact", init_backend="sa"),
    "sa": lambda inst, schedule, seed, cfg, retain_p=None: solve_sa_baseline(
        inst, schedule, seed, cfg, retain_p
    ),
    "projected_gradient": lambda inst, schedule, seed, cfg: solve_projected_gradient(
        inst, iters=schedule.steps, seed=seed
    ),
    "corner_exact": lambda inst, schedule, seed, cfg: solve_corner_exact(inst),
    # budget matches the annealing loop's objective-evaluation count
    "random_search": lambda inst, schedule, seed, cfg: solve_random_search(
        inst, budget=schedule.steps + 1, seed=seed
    ),
    "reference": lambda inst, schedule, seed, cfg: reference_solution(inst),
}

# the tags that run the QESA loop and take retain_p; "sa" is the loop on the
# classical-annealing sampler
QESA_TAGS = ("qesa_exact", "sa", "qesa_random", "qesa_external", "qesa_sa_exact")


def reference_solution(
    inst: QpInstance, restarts: int = 100, iters: int = 200, seed: int = 0
) -> SolveReport:
    """Desk-scale reference: best of exact corner enumeration and multistart
    projected gradient descent. Deterministic given its seed."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    eta = 1.0 / max(1.0, float(np.linalg.norm(inst.Q, 2)))
    points = rng.uniform(-1.0, 1.0, size=(restarts, inst.n))
    best_points = points.copy()
    best_values = batch_objective(inst, points)
    for _ in range(iters):
        points = np.clip(points - eta * (points @ inst.Q + inst.c), -1.0, 1.0)
        values = batch_objective(inst, points)
        improved = values < best_values
        best_points[improved] = points[improved]
        best_values[improved] = values[improved]
    b = int(np.argmin(best_values))
    best_x = best_points[b]
    best_f = objective(inst, best_x)
    sampler_time = 0.0
    if inst.n <= EXACT_SIZE_CAP:
        corner = solve_corner_exact(inst)
        sampler_time = corner.sampler_time_s
        if corner.best_f < best_f:
            best_x = corner.best_x
            best_f = corner.best_f
    return SolveReport(
        final_x=best_x,
        best_x=np.array(best_x),
        best_f=best_f,
        steps=iters,
        accepted_count=0,
        wall_time_s=time.perf_counter() - t0,
        sampler_time_s=sampler_time,
        eval_count=restarts * (iters + 1) + 1,
    )


def boundary_fraction(solution, tol: float = 1e-6) -> float:
    """Fraction of coordinates sitting on the box boundary within tol.

    Accepts a SolveReport (its best point is used) or a bare vector.
    """
    if tol < 0:
        raise ValueError(f"tol must be >= 0, got {tol}")
    x = solution.best_x if isinstance(solution, SolveReport) else solution
    x = np.asarray(x, dtype=float)
    return float(np.mean(np.abs(x) >= 1.0 - tol))


def _run_grid_cell(task) -> dict:
    solver, n, scale, seed, schedule, sampler_cfg = task
    row = {
        "solver": solver,
        "n": n,
        "diag_scale": scale,
        "seed": seed,
        "best_f": None,
        "normalized_f": None,
        "wall_time_s": None,
        "sampler_time_s": None,
        "eval_count": None,
        "abs_gap": None,
        "error": "",
        "_best_x": None,
    }
    try:
        inst = generate(n, scale, seed)
        report = SOLVERS[solver](inst, schedule, seed, sampler_cfg)
        row.update(
            best_f=report.best_f,
            wall_time_s=report.wall_time_s,
            sampler_time_s=report.sampler_time_s,
            eval_count=report.eval_count,
            _best_x=np.asarray(report.best_x, dtype=float).tolist(),
        )
    except Exception as exc:  # record, never abort the grid
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def run_grid(
    grid: ExperimentGrid, out_path=None, jobs: int = 1, keep_points: bool = False
) -> list[dict]:
    """Run every (solver, n, diag_scale, seed) cell and return sorted rows.

    Failures become rows with an ``error`` tag. Rows are sorted by
    (solver, n, diag_scale, seed) regardless of completion order, so results
    are deterministic under any parallelism. When ``out_path`` is given the
    rows are also written as CSV.
    """
    tasks = [
        (solver, n, scale, seed, grid.schedule, grid.sampler_cfg)
        for solver in grid.solvers
        for n in grid.dims
        for scale in grid.diag_scales
        for seed in grid.seeds
    ]
    workers = min(jobs, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_run_grid_cell, tasks))
    else:
        rows = [_run_grid_cell(t) for t in tasks]
    rows.sort(key=lambda r: (r["solver"], r["n"], r["diag_scale"], r["seed"]))

    # per-instance reference energies for normalization
    references: dict[tuple, Optional[float]] = {}
    for n in grid.dims:
        for scale in grid.diag_scales:
            for seed in grid.seeds:
                key = (n, scale, seed)
                instance_rows = [
                    r
                    for r in rows
                    if (r["n"], r["diag_scale"], r["seed"]) == key and not r["error"]
                ]
                ref_row = next(
                    (r for r in instance_rows if r["solver"] == "reference"), None
                )
                if ref_row is not None:
                    references[key] = ref_row["best_f"]
                elif n <= EXACT_REFERENCE_MAX_N:
                    references[key] = reference_solution(generate(n, scale, seed)).best_f
                elif instance_rows:
                    references[key] = min(r["best_f"] for r in instance_rows)
                else:
                    references[key] = None
    for row in rows:
        ref = references.get((row["n"], row["diag_scale"], row["seed"]))
        if row["error"] or row["best_f"] is None or ref is None:
            continue
        row["abs_gap"] = row["best_f"] - ref
        if ref < 0:
            row["normalized_f"] = row["best_f"] / ref
    if not keep_points:
        for row in rows:
            row.pop("_best_x", None)
    if out_path is not None:
        write_csv(rows, GRID_COLUMNS, out_path)
    return rows


def sweep(
    param: str,
    instances: Sequence[QpInstance],
    values: Sequence,
    out_path=None,
    schedule: Optional[ScheduleConfig] = None,
    solver: str = "qesa_exact",
    sampler_cfg: Optional[SamplerConfig] = None,
    base_seed: int = 0,
) -> list[dict]:
    """One full solve per (instance, value of ``param``), ``param`` "steps" or "p".

    "steps" re-interpolates the schedule over each step count, temperature
    endpoints fixed; step-size decay keeps its per-step factor. "p" is the
    direction retention probability. Each solve runs the QESA registry tag
    ``solver`` with seed (base_seed, instance index), so each instance sees
    common random numbers at every value.
    """
    if param not in ("steps", "p"):
        raise ValueError(f"sweep parameter must be 'steps' or 'p', got {param!r}")
    if solver not in QESA_TAGS:
        raise ValueError(f"sweep solver must be one of {', '.join(QESA_TAGS)}, got {solver!r}")
    schedule = schedule if schedule is not None else ScheduleConfig()
    columns = ("instance", "n", "diag_scale", "seed", param, "best_f", "wall_time_s",
               "sampler_time_s", "eval_count")
    solve = SOLVERS[solver]
    rows = []
    for idx, inst in enumerate(instances):
        meta = inst.meta or {}
        for value in values:
            if param == "steps":
                value = int(value)
                report = solve(inst, replace(schedule, steps=value), (base_seed, idx), sampler_cfg)
            else:
                value = float(value)
                report = solve(inst, schedule, (base_seed, idx), sampler_cfg, retain_p=value)
            rows.append(dict(zip(columns, (
                idx, inst.n, meta.get("diag_scale"), meta.get("seed"), value, report.best_f,
                report.wall_time_s, report.sampler_time_s, report.eval_count,
            ))))
    if out_path is not None:
        write_csv(rows, columns, out_path)
    return rows


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(rows: Sequence[dict], columns: Sequence[str], path, delimiter: str = ",") -> None:
    """Write rows with a mandatory header and shortest-round-trip floats."""
    parent = os.path.dirname(os.fspath(path))
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, delimiter=delimiter)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_format_cell(row.get(col)) for col in columns])


def median_table(
    rows: Sequence[dict], group_cols: Sequence[str], value_cols: Sequence[str]
) -> list[dict]:
    """Median of each value column over rows sharing the group columns."""
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        if row.get("error"):
            continue
        groups.setdefault(tuple(row.get(c) for c in group_cols), []).append(row)
    out = []
    for key in sorted(groups, key=lambda k: tuple(str(v) for v in k)):
        entry = dict(zip(group_cols, key))
        for col in value_cols:
            values = [r[col] for r in groups[key] if r.get(col) is not None]
            entry[col] = median(values) if values else None
        out.append(entry)
    return out


def write_plot_tables(grid_rows: Sequence[dict], out_dir) -> None:
    """Plot-ready medians grouped by diagonal scale and by dimension."""
    by_scale = median_table(
        grid_rows, ["solver", "diag_scale"], ["best_f", "normalized_f", "abs_gap"]
    )
    write_csv(
        by_scale,
        ("solver", "diag_scale", "best_f", "normalized_f", "abs_gap"),
        os.path.join(out_dir, "plot_by_scale.tsv"),
        delimiter="\t",
    )
    by_n = median_table(
        grid_rows, ["solver", "n"], ["best_f", "wall_time_s", "sampler_time_s"]
    )
    write_csv(
        by_n,
        ("solver", "n", "best_f", "wall_time_s", "sampler_time_s"),
        os.path.join(out_dir, "plot_by_n.tsv"),
        delimiter="\t",
    )
