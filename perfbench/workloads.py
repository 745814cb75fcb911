"""The benchmark's workloads and the timed phase that runs them.

Load is a closed loop: one solve at a time, the next one starting when the
previous one returned. ``grid-n12`` runs ``qesa.bench.run_grid`` with a pool
of ``GRID_JOBS`` worker processes. Every call goes through qesa's public API
and is looked up on its module at call time, so an installed ``Tracer`` sees
it. Instances come from the workload seed only; each instance is solved with
fixed solve seeds, so every repeat of an instance must return the identical
result, and quality metrics do not depend on how many solves fit in a run.
"""
from __future__ import annotations

import shlex
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import mean

from qesa import anneal, bench, ising, qp
from qesa.anneal import ScheduleConfig
from qesa.ising import SamplerConfig

from .checks import Tally, check_solution

LOOPBACK_COMMAND = " ".join(
    shlex.quote(p) for p in (sys.executable, str(Path(__file__).with_name("loopback_sampler.py")))
)

# a phase runs at least this many solves, so the tail percentile has >= 10 beyond it
MIN_SOLVES = 20

GRID_JOBS = 2


class PhaseClock:
    """Wall time of a timed phase, less the time spent in ``pause``.

    ``pause(elapsed)`` is called before each solve (grid: each ``run_grid``
    call) with the phase time so far; it may run something untimed and
    returns the seconds it took.
    """

    def __init__(self, seconds: float, pause=None):
        self.seconds = seconds
        self.pause = pause
        self.start = time.perf_counter()
        self.paused = 0.0

    def elapsed(self) -> float:
        return time.perf_counter() - self.start - self.paused

    def running(self, attempted: int) -> bool:
        if self.elapsed() >= self.seconds and attempted >= MIN_SOLVES:
            return False
        if self.pause is not None:
            self.paused += self.pause(self.elapsed())
        return True


@dataclass
class Phase:
    """Outcome of one timed phase."""

    solve_times: list  # wall seconds of each completed solve (grid: each cell)
    wall_s: float  # wall time of the whole phase
    attempted: int
    failed: int
    gaps: list  # (best_f - ref_f) / |ref_f| per distinct instance (grid: per cell)
    errors: list

    @property
    def verified(self) -> int:
        return self.attempted - self.failed


@dataclass(frozen=True)
class Direct:
    """Repeated ``qesa_solve`` calls on a fixed set of instances, round-robin."""

    name: str
    n: int
    steps: int
    instances: int
    sampler: str
    reads: int = 0
    diag_scale: float = 5.0
    jobs: int = 1

    def instance_seeds(self, seed: int) -> list:
        return [seed * self.instances + i for i in range(self.instances)]

    def make_instances(self, seed: int) -> list:
        return [qp.generate(self.n, self.diag_scale, s) for s in self.instance_seeds(seed)]

    def make_sampler(self, solve_seed: int):
        if self.sampler == "exact":
            return ising.solve_exact
        if self.sampler == "random":
            cfg = SamplerConfig(num_samples=self.reads, seed=solve_seed)
            return ising.make_sampler("random", cfg)
        return ising.make_sampler("external", SamplerConfig(command=LOOPBACK_COMMAND))

    def solve(self, inst, solve_seed: int):
        return anneal.qesa_solve(
            inst,
            schedule=ScheduleConfig(steps=self.steps),
            sampler=self.make_sampler(solve_seed),
            seed=solve_seed,
        )

    def warm_up(self, insts, seed: int) -> None:
        self.solve(insts[0], self.instance_seeds(seed)[0])

    def references(self, insts, seed: int) -> dict:
        """Per instance: reference objective and the objective at the start corner."""
        refs = {}
        for inst, s in zip(insts, self.instance_seeds(seed)):
            corner = self.make_sampler(s)(anneal.init_ising(inst)).best
            refs[s] = (bench.reference_solution(inst).best_f, qp.objective(inst, corner))
        return refs

    def run(self, insts, seed, refs, seconds, tally: Tally, out_dir, pause=None) -> Phase:
        seeds = self.instance_seeds(seed)
        times, gaps, first, errors = [], {}, {}, []
        attempted = failed = 0
        clock = PhaseClock(seconds, pause)
        while clock.running(attempted):
            j = attempted % len(insts)
            inst, s = insts[j], seeds[j]
            ref_f, start_f = refs[s]
            attempted += 1
            t0 = time.perf_counter()
            try:
                report = self.solve(inst, s)
            except Exception as exc:  # counted as a failed solve, never aborts the run
                failed += 1
                errors.append(f"{type(exc).__name__}: {exc}")
                continue
            times.append(time.perf_counter() - t0)
            ok = check_solution(tally, inst, report.best_x, report.best_f, start_f)
            key = (report.best_f, report.best_x.tobytes())
            ok = tally.add("deterministic", first.setdefault(j, key) == key) and ok
            failed += not ok
            gaps[j] = (report.best_f - ref_f) / abs(ref_f)
        wall = clock.elapsed()
        return Phase(times, wall, attempted, failed, list(gaps.values()), errors)


@dataclass(frozen=True)
class Grid:
    """Repeated ``bench.run_grid`` calls over one fixed grid of n=12 instances."""

    name: str
    n: int = 12
    diag_scales: tuple = (1.0, 5.0, 10.0, 20.0)
    seeds_per_grid: int = 2
    # Without a "reference" solver, run_grid computes each instance's reference
    # in the parent, so references are part of the timed run_grid call. Five
    # solvers put the median cell inside the qesa_random group. The pool takes
    # cells in this order, so short cells run beside short cells and sa beside
    # sa: a short cell next to an sa cell on the other core runs up to 1.7x
    # slower, which made the median and the tail jump between runs.
    solvers: tuple = ("projected_gradient", "random_search", "qesa_random", "qesa_exact", "sa")
    reads: int = 32
    sweeps: int = 30
    jobs: int = GRID_JOBS

    def grid(self, seed: int) -> bench.ExperimentGrid:
        return bench.ExperimentGrid(
            dims=(self.n,),
            diag_scales=self.diag_scales,
            seeds=tuple(seed * self.seeds_per_grid + i for i in range(self.seeds_per_grid)),
            solvers=self.solvers,
            sampler_cfg=SamplerConfig(num_samples=self.reads, inner_sweeps=self.sweeps),
        )

    def instance_keys(self, seed: int) -> list:
        g = self.grid(seed)
        return [(self.n, scale, s) for scale in g.diag_scales for s in g.seeds]

    def make_instances(self, seed: int) -> list:
        return [qp.generate(*key) for key in self.instance_keys(seed)]

    def warm_up(self, insts, seed: int) -> None:
        g = self.grid(seed)
        bench.SOLVERS["qesa_exact"](insts[0], g.schedule, g.seeds[0], g.sampler_cfg)

    def references(self, insts, seed: int) -> dict:
        return {
            key: (bench.reference_solution(inst).best_f, None)
            for key, inst in zip(self.instance_keys(seed), insts)
        }

    def run(self, insts, seed, refs, seconds, tally: Tally, out_dir, pause=None) -> Phase:
        grid = self.grid(seed)
        by_key = dict(zip(self.instance_keys(seed), insts))
        csv_path = Path(out_dir) / f"{self.name}-grid.csv"
        times, gaps, first, errors = [], {}, {}, []
        attempted = failed = 0
        clock = PhaseClock(seconds, pause)
        while clock.running(attempted):
            rows = bench.run_grid(grid, out_path=csv_path, jobs=self.jobs, keep_points=True)
            for row in rows:
                attempted += 1
                key = (row["n"], row["diag_scale"], row["seed"])
                if row["error"]:
                    failed += 1
                    errors.append(f"{row['solver']} {key}: {row['error']}")
                    continue
                times.append(row["wall_time_s"])
                ok = check_solution(tally, by_key[key], row["_best_x"], row["best_f"])
                cell = (row["solver"],) + key
                result = (row["best_f"], tuple(row["_best_x"]))
                ok = tally.add("deterministic", first.setdefault(cell, result) == result) and ok
                ref_f = refs[key][0]
                # run_grid's own reference must be the one computed before timing
                ok = tally.add("grid_abs_gap", row["abs_gap"] == row["best_f"] - ref_f) and ok
                failed += not ok
                gaps[cell] = (row["best_f"] - ref_f) / abs(ref_f)
        wall = clock.elapsed()
        return Phase(times, wall, attempted, failed, list(gaps.values()), errors)


WORKLOADS = {
    w.name: w
    for w in (
        # n > 16 misses the cached spin table: every sampler call rebuilds and
        # scores all 2^18 states, so the exact backend does nearly all the work
        Direct("exact-n18", n=18, steps=5, instances=8, sampler="exact"),
        # no enumeration; per-step model build and the outer loop dominate
        Direct("random-n150", n=150, steps=20, instances=16, sampler="random", reads=64),
        # many small same-n solves through the process pool, sa-dominated
        Grid("grid-n12"),
        # one process spawn per sampler call dominates; runnable by name, but
        # not among BENCHMARK.json's workloads, so the gated runs are longer
        Direct("external-n12", n=12, steps=2, instances=16, sampler="external"),
    )
}


def tail(times) -> tuple:
    """(value, percentile): the highest percentile with at least 10 solves beyond it."""
    ordered = sorted(times)
    count = len(ordered)
    if count < 11:
        raise ValueError(f"a tail percentile needs at least 11 solves, got {count}")
    return ordered[count - 11], 100.0 * (count - 10) / count


def gap_mean(phase: Phase) -> float:
    return mean(phase.gaps) if phase.gaps else float("nan")
