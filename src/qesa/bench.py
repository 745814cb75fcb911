"""Benchmark harness: solver grids, boundary analysis, step-count and
retention-probability sweeps.

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

from .anneal import DirectionPolicy, ScheduleConfig, SolveReport, qesa_solve
from .baselines import (
    solve_corner_exact,
    solve_projected_gradient,
    solve_random_search,
    solve_sa_baseline,
)
from .ising import EXACT_SIZE_CAP, SamplerConfig, make_sampler, solve_exact
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

SWEEP_STEPS_COLUMNS = (
    "instance",
    "n",
    "diag_scale",
    "seed",
    "steps",
    "best_f",
    "wall_time_s",
    "sampler_time_s",
    "eval_count",
)

SWEEP_P_COLUMNS = (
    "instance",
    "n",
    "diag_scale",
    "seed",
    "p",
    "best_f",
    "wall_time_s",
    "sampler_time_s",
    "eval_count",
)


@dataclass(frozen=True)
class ExperimentGrid:
    """Cartesian experiment over dimensions, diagonal scales, seeds, solvers."""

    dims: Sequence[int] = (50, 100, 150)
    diag_scales: Sequence[float] = (1.0, 5.0, 10.0, 20.0)
    seeds: Sequence[int] = (0, 1, 2, 3, 4)
    solvers: Sequence[str] = ("sa", "projected_gradient", "random_search")
    schedule: ScheduleConfig = field(default_factory=ScheduleConfig)
    sampler_cfg: SamplerConfig = field(default_factory=SamplerConfig)
    exact_reference_max_n: int = 12

    def __post_init__(self):
        for name in ("dims", "diag_scales", "seeds", "solvers"):
            if not getattr(self, name):
                raise ValueError(f"grid field {name!r} must be non-empty")
        unknown = [s for s in self.solvers if s not in SOLVERS]
        if unknown:
            raise ValueError(
                f"unknown solver tags {unknown}; available: {sorted(SOLVERS)}"
            )


def _cell_seeds(base_seed, idx: int = 0) -> tuple[int, int, int]:
    """Three decorrelated integer seeds derived from a base seed and an index."""
    state = np.random.SeedSequence((int(base_seed), int(idx))).generate_state(3)
    return int(state[0]), int(state[1]), int(state[2])


def _run_qesa_exact(inst, schedule, seed, sampler_cfg) -> SolveReport:
    return qesa_solve(inst, schedule=schedule, sampler=solve_exact, seed=seed)


def _run_qesa_random(inst, schedule, seed, sampler_cfg) -> SolveReport:
    loop_seed, sampler_seed, _ = _cell_seeds(seed)
    cfg = replace(sampler_cfg, seed=sampler_seed)
    return qesa_solve(
        inst, schedule=schedule, sampler=make_sampler("random", cfg), seed=loop_seed
    )


def _run_qesa_external(inst, schedule, seed, sampler_cfg) -> SolveReport:
    return qesa_solve(
        inst,
        schedule=schedule,
        sampler=make_sampler("external", sampler_cfg),
        seed=seed,
    )


def _run_sa(inst, schedule, seed, sampler_cfg) -> SolveReport:
    return solve_sa_baseline(inst, schedule=schedule, seed=seed, sampler_cfg=sampler_cfg)


def _run_projected_gradient(inst, schedule, seed, sampler_cfg) -> SolveReport:
    return solve_projected_gradient(inst, iters=schedule.steps, seed=seed)


def _run_corner_exact(inst, schedule, seed, sampler_cfg) -> SolveReport:
    return solve_corner_exact(inst)


def _run_random_search(inst, schedule, seed, sampler_cfg) -> SolveReport:
    # budget matches the annealing loop's objective-evaluation count
    return solve_random_search(inst, budget=schedule.steps + 1, seed=seed)


def _run_reference(inst, schedule, seed, sampler_cfg) -> SolveReport:
    return reference_solution(inst)


SOLVERS = {
    "qesa_exact": _run_qesa_exact,
    "qesa_random": _run_qesa_random,
    "qesa_external": _run_qesa_external,
    "sa": _run_sa,
    "projected_gradient": _run_projected_gradient,
    "corner_exact": _run_corner_exact,
    "random_search": _run_random_search,
    "reference": _run_reference,
}


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
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
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
                elif n <= grid.exact_reference_max_n:
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
    sampler_backend: str = "exact",
    sampler_cfg: Optional[SamplerConfig] = None,
    base_seed: int = 0,
) -> list[dict]:
    """One full solve per (instance, value of ``param``), ``param`` "steps" or "p".

    "steps" re-interpolates the schedule over each step count, temperature
    endpoints fixed; step-size decay keeps its per-step factor. "p" is the
    direction retention probability. Loop and sampler seeds are paired
    across values, so each instance sees common random numbers at every
    value; only the direction-perturbation stream depends on p's policy.
    """
    if param not in ("steps", "p"):
        raise ValueError(f"sweep parameter must be 'steps' or 'p', got {param!r}")
    schedule = schedule if schedule is not None else ScheduleConfig()
    sampler_cfg = sampler_cfg if sampler_cfg is not None else SamplerConfig()
    rows = []
    for idx, inst in enumerate(instances):
        loop_seed, sampler_seed, policy_seed = _cell_seeds(base_seed, idx)
        meta = inst.meta or {}
        for value in values:
            sched, policy = schedule, None
            if param == "steps":
                if value < 1:
                    raise ValueError(f"step counts must be >= 1, got {value}")
                value = int(value)
                sched = replace(schedule, steps=value)
            else:
                value = float(value)
                policy = DirectionPolicy(retain_probability=value, seed=policy_seed)
            sampler = make_sampler(sampler_backend, replace(sampler_cfg, seed=sampler_seed))
            report = qesa_solve(
                inst, schedule=sched, sampler=sampler, policy=policy, seed=loop_seed
            )
            rows.append(
                {
                    "instance": idx,
                    "n": inst.n,
                    "diag_scale": meta.get("diag_scale"),
                    "seed": meta.get("seed"),
                    param: value,
                    "best_f": report.best_f,
                    "wall_time_s": report.wall_time_s,
                    "sampler_time_s": report.sampler_time_s,
                    "eval_count": report.eval_count,
                }
            )
    if out_path is not None:
        write_csv(rows, SWEEP_STEPS_COLUMNS if param == "steps" else SWEEP_P_COLUMNS, out_path)
    return rows


def sweep_steps(instances: Sequence[QpInstance], steps_list: Sequence[int], **kwargs) -> list[dict]:
    """``sweep("steps", ...)``: one full solve per (instance, step count)."""
    return sweep("steps", instances, steps_list, **kwargs)


def sweep_p(instances: Sequence[QpInstance], p_list: Sequence[float], **kwargs) -> list[dict]:
    """``sweep("p", ...)``: one full solve per (instance, retention probability)."""
    return sweep("p", instances, p_list, **kwargs)


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


def write_tsv(rows: Sequence[dict], columns: Sequence[str], path) -> None:
    write_csv(rows, columns, path, delimiter="\t")


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
    write_tsv(
        by_scale,
        ("solver", "diag_scale", "best_f", "normalized_f", "abs_gap"),
        os.path.join(out_dir, "plot_by_scale.tsv"),
    )
    by_n = median_table(
        grid_rows, ["solver", "n"], ["best_f", "wall_time_s", "sampler_time_s"]
    )
    write_tsv(
        by_n,
        ("solver", "n", "best_f", "wall_time_s", "sampler_time_s"),
        os.path.join(out_dir, "plot_by_n.tsv"),
    )
