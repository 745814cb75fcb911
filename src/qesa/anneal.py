"""Annealing loop with Ising-sampler-guided step directions.

The solver walks a point x inside the box [-1, 1]^n. The starting point is
the best corner of the box, found by minimizing the objective restricted to
{-1, +1}^n as an Ising model. Each subsequent step derives a second Ising
model whose energy over directions s in {-1, +1}^n equals the exact
objective change f(x + k s) - f(x):

    couplings  W      = k^2 * Q, diagonal zeroed
    fields     h_i    = k * (Q x + c)_i
    offset            = 0.5 * k^2 * trace(Q)   (constant since s_i^2 = 1)

A sampler backend returns a low-energy direction, the scaled step is taken,
clipped coordinate-wise back into the box, and accepted or rejected by the
Metropolis rule on the true objective change at the clipped point. The step
size decays geometrically (k <- alpha * k) and the temperature follows a
configurable interpolation between t_max and t_min indexed by step count.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields
from typing import Callable, Optional

import numpy as np

from .ising import IsingModel, SampleResult, check_count
from .qp import QpInstance, check_point, clip_to_box, objective

COOLING_FORMS = ("exponential", "linear")


class SolveError(RuntimeError):
    """A sampler backend failed inside the annealing loop."""


@dataclass(frozen=True)
class ScheduleConfig:
    """Annealing schedule: temperature window, step count, step-size decay.

    Defaults are t_max=1000, t_min=0.1 over 100 steps with initial step size
    0.1 shrinking by 0.95 per step. ``cooling`` selects the interpolation
    between the fixed endpoints ("exponential" or "linear").
    """

    t_max: float = 1000.0
    t_min: float = 0.1
    steps: int = 100
    k0: float = 0.1
    alpha: float = 0.95
    cooling: str = "exponential"

    def __post_init__(self):
        if not (math.isfinite(self.t_max) and self.t_max >= self.t_min > 0):
            raise ValueError(
                f"need finite t_max >= t_min > 0, got t_max={self.t_max}, t_min={self.t_min}"
            )
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if not 0 < self.k0 < math.inf:
            raise ValueError(f"k0 must be finite and > 0, got {self.k0}")
        check_count("steps", self.steps)
        if self.cooling not in COOLING_FORMS:
            raise ValueError(f"cooling must be one of {COOLING_FORMS}, got {self.cooling!r}")


@dataclass(frozen=True)
class DirectionPolicy:
    """Per-coordinate randomization of sampled directions.

    Each direction entry is kept with probability ``retain_probability`` and
    otherwise replaced by a uniform draw from [-1, 1]. At probability 1 the
    sampled direction is used unchanged.
    """

    retain_probability: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not (0.0 <= self.retain_probability <= 1.0):
            raise ValueError(
                f"retain_probability must be in [0, 1], got {self.retain_probability}"
            )


@dataclass(frozen=True, kw_only=True)
class SolveReport:
    """Outcome of one solve: final and best point plus loop accounting.

    ``wall_time_s`` covers the whole call, from its first statement to the
    report. ``eval_count`` counts objective evaluations only (sampler-internal
    work is reported separately through ``sampler_time_s``). ``trajectory``
    entries are (step, current objective value, accepted) tuples.
    """

    final_x: np.ndarray
    best_x: np.ndarray
    best_f: float
    steps: int
    accepted_count: int = 0
    wall_time_s: float
    sampler_time_s: float = 0.0
    eval_count: int
    final_k: float = 0.0
    corner_restricted: bool = False
    trajectory: Optional[list] = None

    def to_json_dict(self) -> dict:
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        for name in ("final_x", "best_x"):
            doc[name] = np.asarray(doc[name], dtype=float).tolist()
        trajectory = doc.pop("trajectory")
        if trajectory is not None:
            doc["trajectory"] = [[s, f, bool(a)] for s, f, a in trajectory]
        return doc


def temperature(cfg: ScheduleConfig, step: int) -> float:
    """Temperature at a 0-based step index.

    Endpoints are returned exactly: T(0) == t_max and T(steps-1) == t_min
    (for steps >= 2); interior values interpolate per ``cfg.cooling`` and
    decrease strictly when t_max > t_min.
    """
    if not 0 <= step < cfg.steps:
        raise ValueError(f"step {step} outside schedule range [0, {cfg.steps})")
    if step == 0:
        return cfg.t_max
    if step == cfg.steps - 1:
        return cfg.t_min
    frac = step / (cfg.steps - 1)
    if cfg.cooling == "exponential":
        return cfg.t_max * (cfg.t_min / cfg.t_max) ** frac
    return cfg.t_max + (cfg.t_min - cfg.t_max) * frac


def metropolis_accept(delta_f: float, T: float, rng: np.random.Generator) -> bool:
    """Accept with probability min(1, exp(-delta_f / T)); improvements always pass."""
    if T <= 0:
        raise ValueError(f"temperature must be > 0, got {T}")
    if delta_f <= 0:
        return True
    return rng.random() < np.exp(-delta_f / T)


def direction_ising(inst: QpInstance, x, k: float) -> IsingModel:
    """Ising model whose energy over s in {-1,+1}^n equals f(x + k s) - f(x).

    The couplings are W = k^2 Q with the diagonal removed; the direction-
    independent diagonal part lands in the offset, so sampler energies are
    exact objective deltas for the unclipped proposal. Q is symmetric and
    finite, so the model skips the public constructor's full check: only
    overflow or a non-finite x can break it, and one O(n) guard on h and on
    the instance's cached ``max_abs_q`` and ``trace_q`` catches that.
    """
    if k <= 0:
        raise ValueError(f"step size k must be > 0, got {k}")
    x = check_point(inst, x)
    k2 = k * k
    with np.errstate(over="ignore", invalid="ignore"):  # the guard below reports these
        h = k * (inst.Q @ x + inst.c)
    offset = 0.5 * k2 * inst.trace_q
    if not (math.isfinite(k2 * inst.max_abs_q) and math.isfinite(offset) and np.isfinite(h).all()):
        raise ValueError(
            f"direction model at k={k!r} has non-finite coefficients "
            "(k^2 Q, k (Qx + c) or the offset overflows, or x is not finite)"
        )
    w = k2 * inst.Q
    np.fill_diagonal(w, 0.0)
    return IsingModel._trusted(w, h, offset)


def init_ising(inst: QpInstance) -> IsingModel:
    """Ising model whose energy at any corner x in {-1,+1}^n equals f(x).

    This is the direction model at x = 0 with k = 1: W is Q off the diagonal,
    h = c, and the corner-independent 0.5 * trace(Q) is kept in the offset,
    so the ground state is the best corner of the box with its true
    objective value.
    """
    return direction_ising(inst, np.zeros(inst.n), 1.0)


def perturb_direction(spins, policy: DirectionPolicy, rng: np.random.Generator) -> np.ndarray:
    """Keep each entry with probability p, else replace by uniform [-1, 1] noise."""
    s = np.asarray(spins, dtype=float)
    keep = rng.random(s.shape[0]) < policy.retain_probability
    replacement = rng.uniform(-1.0, 1.0, size=s.shape[0])
    return np.where(keep, s, replacement)


def qesa_solve(
    inst: QpInstance,
    schedule: Optional[ScheduleConfig] = None,
    sampler: Callable[[IsingModel], SampleResult] = None,
    policy: Optional[DirectionPolicy] = None,
    seed=None,
    record_trajectory: bool = False,
    init_sampler: Optional[Callable[[IsingModel], SampleResult]] = None,
) -> SolveReport:
    """Run the full annealing loop on one instance.

    ``sampler`` is any callable mapping an IsingModel to a SampleResult (see
    ``qesa.ising.make_sampler``); ``init_sampler`` (default ``sampler``)
    solves the corner model. The corner found at initialization is accepted
    unconditionally; every later proposal is clipped into the box before the
    Metropolis decision on the true objective change. The result is
    deterministic given (seed, sampler seeding, policy seed).
    """
    t0 = time.perf_counter()
    if sampler is None:
        raise ValueError("a sampler backend is required (see qesa.ising.make_sampler)")
    schedule = schedule if schedule is not None else ScheduleConfig()
    rng = np.random.default_rng(seed)
    perturb_rng = (
        np.random.default_rng(policy.seed) if policy is not None else None
    )

    try:
        init_result = (sampler if init_sampler is None else init_sampler)(init_ising(inst))
    except Exception as exc:
        raise SolveError(f"sampler failed during corner initialization: {exc}") from exc
    sampler_time = init_result.sampler_time
    x = np.asarray(init_result.best, dtype=float).copy()
    f_x = objective(inst, x)
    eval_count = 1

    k = schedule.k0
    best_x, best_f = x.copy(), f_x
    trajectory = [] if record_trajectory else None
    accepted_count = 0

    for step in range(schedule.steps):
        T = temperature(schedule, step)
        model = direction_ising(inst, x, k)
        try:
            result = sampler(model)
        except Exception as exc:
            raise SolveError(f"sampler failed at annealing step {step}: {exc}") from exc
        sampler_time += result.sampler_time
        direction = np.asarray(result.best, dtype=float)
        if policy is not None:
            direction = perturb_direction(direction, policy, perturb_rng)
        proposal = clip_to_box(x + k * direction)
        f_new = objective(inst, proposal)
        eval_count += 1
        accepted = metropolis_accept(f_new - f_x, T, rng)
        if accepted:
            x = proposal
            f_x = f_new
            accepted_count += 1
            if f_x < best_f:
                best_x = x.copy()
                best_f = f_x
        if trajectory is not None:
            trajectory.append((step, f_x, accepted))
        k *= schedule.alpha

    report = SolveReport(
        final_x=x,
        best_x=best_x,
        best_f=best_f,
        steps=schedule.steps,
        accepted_count=accepted_count,
        wall_time_s=math.nan,
        sampler_time_s=sampler_time,
        eval_count=eval_count,
        final_k=k,
        trajectory=trajectory,
    )
    # the clock is read last, so building the report (and any garbage-collection
    # pass its allocation sets off) counts toward wall_time_s
    object.__setattr__(report, "wall_time_s", time.perf_counter() - t0)
    return report
