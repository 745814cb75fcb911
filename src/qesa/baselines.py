"""Classical reference solvers used for comparisons.

All baselines return the same SolveReport as the annealing loop so the
benchmark harness can treat every solver uniformly. ``accepted_count`` is
only meaningful for annealing-style solvers and is 0 elsewhere.
"""
from __future__ import annotations

import time
from dataclasses import replace
from typing import Optional

import numpy as np

from .anneal import DirectionPolicy, ScheduleConfig, SolveReport, init_ising, qesa_solve
from .ising import EXACT_SIZE_CAP, SamplerConfig, make_sampler, solve_exact
from .qp import QpInstance, batch_objective, gradient, objective


def solve_seeded(
    inst: QpInstance,
    backend: str,
    schedule: Optional[ScheduleConfig] = None,
    seed=None,
    sampler_cfg: Optional[SamplerConfig] = None,
    retain_p: Optional[float] = None,
    init_backend: Optional[str] = None,
) -> SolveReport:
    """``qesa_solve`` on the named sampler backend, driven by one seed.

    ``SeedSequence(seed).spawn(3)`` gives the loop, sampler and direction-
    policy seeds, so a solver tag run with the same seed is the same solve
    from every entry point. ``seed`` is anything ``SeedSequence`` accepts,
    such as an int or a tuple of ints. ``retain_p`` enables direction
    perturbation with that retention probability. ``init_backend``, default
    ``backend``, solves the corner model, with the same sampler seed.
    """
    loop_ss, sampler_ss, policy_ss = np.random.SeedSequence(seed).spawn(3)
    cfg = replace(sampler_cfg if sampler_cfg is not None else SamplerConfig(), seed=sampler_ss)
    policy = None if retain_p is None else DirectionPolicy(retain_p, seed=policy_ss)
    init_sampler = None if init_backend is None else make_sampler(init_backend, cfg)
    return qesa_solve(inst, schedule=schedule, sampler=make_sampler(backend, cfg), policy=policy,
                      seed=loop_ss, init_sampler=init_sampler)


def solve_sa_baseline(
    inst: QpInstance,
    schedule: Optional[ScheduleConfig] = None,
    seed=None,
    sampler_cfg: Optional[SamplerConfig] = None,
    retain_p: Optional[float] = None,
) -> SolveReport:
    """Annealing loop with the classical Ising sampler for init and directions.

    This is the all-classical twin of the main solver: same outer loop, same
    subproblems, restarted single-spin-flip annealing instead of an exact or
    external backend; ``solve_seeded`` with the "sa" backend.
    """
    return solve_seeded(inst, "sa", schedule, seed, sampler_cfg, retain_p)


def solve_projected_gradient(
    inst: QpInstance,
    step_size: Optional[float] = None,
    iters: int = 200,
    seed=None,
    x0=None,
) -> SolveReport:
    """Fixed-step projected gradient descent x <- clip(x - eta * (Qx + c)).

    Monotone decrease is not guaranteed for indefinite Q, so the best
    iterate is tracked and reported. ``step_size`` defaults to the inverse
    spectral norm of Q. Note a zero-gradient start (e.g. x0 = 0 with c = 0)
    never moves; random initialization is the default.
    """
    if iters < 1:
        raise ValueError(f"iters must be >= 1, got {iters}")
    t0 = time.perf_counter()
    if step_size is None:
        step_size = 1.0 / max(1.0, float(np.linalg.norm(inst.Q, 2)))
    if step_size <= 0:
        raise ValueError(f"step_size must be > 0, got {step_size}")
    if x0 is None:
        x = np.random.default_rng(seed).uniform(-1.0, 1.0, size=inst.n)
    else:
        x = np.clip(np.asarray(x0, dtype=float), -1.0, 1.0)
    best_x = x.copy()
    best_f = objective(inst, x)
    eval_count = 1
    for _ in range(iters):
        x = np.clip(x - step_size * gradient(inst, x), -1.0, 1.0)
        f = objective(inst, x)
        eval_count += 1
        if f < best_f:
            best_f = f
            best_x = x.copy()
    return SolveReport(
        final_x=x,
        best_x=best_x,
        best_f=best_f,
        steps=iters,
        accepted_count=0,
        wall_time_s=time.perf_counter() - t0,
        sampler_time_s=0.0,
        eval_count=eval_count,
    )


def solve_corner_exact(inst: QpInstance, size_cap: int = EXACT_SIZE_CAP) -> SolveReport:
    """Exact best corner of the box by full enumeration.

    The report is flagged ``corner_restricted``: this is the optimum over
    {-1,+1}^n, not over the continuous box (for instances whose minimizer
    is interior the two differ).
    """
    t0 = time.perf_counter()
    result = solve_exact(init_ising(inst), size_cap=size_cap)
    x = np.asarray(result.best, dtype=float)
    best_f = objective(inst, x)
    return SolveReport(
        final_x=x,
        best_x=x.copy(),
        best_f=best_f,
        steps=0,
        accepted_count=0,
        wall_time_s=time.perf_counter() - t0,
        sampler_time_s=result.sampler_time,
        eval_count=1,
        corner_restricted=True,
    )


def solve_random_search(inst: QpInstance, budget: int, seed=None) -> SolveReport:
    """Best of ``budget`` points drawn uniformly from the box."""
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    best_x = None
    best_f = np.inf
    remaining = budget
    while remaining > 0:
        block = min(remaining, 4096)
        points = rng.uniform(-1.0, 1.0, size=(block, inst.n))
        values = batch_objective(inst, points)
        b = int(np.argmin(values))
        if values[b] < best_f:
            best_f = float(values[b])
            best_x = points[b].copy()
        remaining -= block
    best_f = objective(inst, best_x)
    return SolveReport(
        final_x=best_x,
        best_x=best_x.copy(),
        best_f=best_f,
        steps=budget,
        accepted_count=0,
        wall_time_s=time.perf_counter() - t0,
        sampler_time_s=0.0,
        eval_count=budget,
    )
