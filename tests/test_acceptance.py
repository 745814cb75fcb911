"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s -q`` to see the per-criterion
lines. Oracles are independent of the code paths they check: brute-force
enumerations go through itertools, objective values through direct
evaluation of the quadratic form.
"""
import time
from statistics import median

import numpy as np
import pytest

from qesa import anneal, baselines, bench, ising, qp

from conftest import all_spin_vectors, fake_sampler_cmd, random_model


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())


def _objective_rows(inst, points: np.ndarray) -> np.ndarray:
    return 0.5 * np.einsum("ri,ri->r", points @ inst.Q, points) + points @ inst.c


def test_c01_energy_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 13))
        inst = qp.generate(n, float(rng.choice([1.0, 5.0, 10.0, 20.0])),
                           seed=int(rng.integers(1_000_000)))
        x = rng.uniform(-1.0, 1.0, size=n)
        k = float(rng.uniform(0.005, 0.5))
        model = anneal.direction_ising(inst, x, k)
        f_x = qp.objective(inst, x)
        spins = rng.choice([-1.0, 1.0], size=(100, n))
        deltas = _objective_rows(inst, x[None, :] + k * spins) - f_x
        energies = np.array([ising.energy(model, s) for s in spins])
        worst = max(worst, float(np.max(np.abs(energies - deltas))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 10.0
    _report(1, "direction-model energies equal objective deltas",
            ok, f"(max |err| {worst:.2e}, {elapsed:.1f}s)")
    assert worst <= 1e-9
    assert elapsed < 10.0


def test_c02_argmin_transfer():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 13))
        inst = qp.generate(n, float(rng.choice([1.0, 5.0, 10.0, 20.0])),
                           seed=int(rng.integers(1_000_000)))
        x = rng.uniform(-1.0, 1.0, size=n)
        k = float(rng.uniform(0.01, 0.5))
        spins = all_spin_vectors(n)  # itertools-based, independent
        brute = float(np.min(_objective_rows(inst, x[None, :] + k * spins)))
        best = ising.solve_exact(anneal.direction_ising(inst, x, k)).best
        achieved = qp.objective(inst, x + k * best)
        worst = max(worst, achieved - brute)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 60.0
    _report(2, "direction-model ground states attain brute-force step minimum",
            ok, f"(max gap {worst:.2e}, {elapsed:.1f}s)")
    assert worst <= 1e-9
    assert elapsed < 60.0


def test_c03_corner_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 13))
        inst = qp.generate(n, float(rng.choice([1.0, 5.0, 10.0, 20.0])),
                           seed=int(rng.integers(1_000_000)))
        corners = all_spin_vectors(n)
        brute = float(np.min(_objective_rows(inst, corners)))
        best = ising.solve_exact(anneal.init_ising(inst)).best
        achieved = qp.objective(inst, best)
        worst = max(worst, achieved - brute)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 60.0
    _report(3, "corner-model ground states attain brute-force best corner",
            ok, f"(max gap {worst:.2e}, {elapsed:.1f}s)")
    assert worst <= 1e-9
    assert elapsed < 60.0


def test_c04_metropolis_statistics():
    rng = np.random.default_rng(404)
    trials = 100_000
    hits = sum(anneal.metropolis_accept(1.0, 1.0, rng) for _ in range(trials))
    rate = hits / trials
    improving = all(
        anneal.metropolis_accept(delta, 1.0, rng)
        for delta in (-5.0, -1e-12, 0.0)
        for _ in range(1000)
    )
    ok = 0.36 <= rate <= 0.38 and improving
    _report(4, "Metropolis acceptance statistics",
            ok, f"(rate {rate:.4f} vs e^-1={np.exp(-1.0):.4f}, improving always accepted: {improving})")
    assert 0.36 <= rate <= 0.38
    assert improving


def test_c05_schedule_endpoints():
    cfg = anneal.ScheduleConfig()
    t_start = anneal.temperature(cfg, 0)
    t_end = anneal.temperature(cfg, 99)
    inst = qp.QpInstance(Q=-np.eye(2), c=np.zeros(2))
    report = anneal.qesa_solve(inst, sampler=ising.solve_exact, seed=0)
    k_err = abs(report.final_k - 0.1 * 0.95**100)
    ok = t_start == 1000.0 and t_end == 0.1 and k_err <= 1e-15
    _report(5, "schedule endpoints and step-size decay",
            ok, f"(T0={t_start}, T99={t_end}, |k err|={k_err:.1e})")
    assert t_start == 1000.0
    assert t_end == 0.1
    assert k_err <= 1e-15


def test_c06_boundary_distribution_trend():
    t0 = time.perf_counter()
    scales = (1.0, 5.0, 10.0, 20.0)
    means = {}
    for scale in scales:
        fractions = [
            bench.boundary_fraction(bench.reference_solution(qp.generate(12, scale, seed)))
            for seed in range(20)
        ]
        means[scale] = float(np.mean(fractions))
    elapsed = time.perf_counter() - t0
    decreasing = all(means[a] > means[b] for a, b in zip(scales, scales[1:]))
    ok = means[1.0] >= 0.85 and decreasing and elapsed < 300.0
    detail = ", ".join(f"scale {s:g}: {means[s]:.3f}" for s in scales)
    _report(6, "boundary fraction declines with diagonal scale", ok,
            f"({detail}, {elapsed:.1f}s)")
    assert means[1.0] >= 0.85
    assert decreasing
    assert elapsed < 300.0


def test_c07_solver_ordering():
    t0 = time.perf_counter()
    schedule = anneal.ScheduleConfig()
    cfg = ising.SamplerConfig(num_samples=32, inner_sweeps=30)
    values = {"qesa_exact": [], "sa": [], "random_search": []}
    for scale in (1.0, 5.0, 10.0, 20.0):
        for seed in range(20):
            inst = qp.generate(12, scale, seed)
            values["qesa_exact"].append(
                anneal.qesa_solve(inst, schedule=schedule, sampler=ising.solve_exact,
                                  seed=seed).best_f
            )
            values["sa"].append(
                baselines.solve_sa_baseline(inst, schedule=schedule, seed=seed,
                                            sampler_cfg=cfg).best_f
            )
            # budget matched to the loop's objective evaluations (init + steps)
            values["random_search"].append(
                baselines.solve_random_search(inst, budget=schedule.steps + 1,
                                              seed=seed).best_f
            )
    meds = {k: median(v) for k, v in values.items()}
    elapsed = time.perf_counter() - t0
    ok = (
        meds["qesa_exact"] <= meds["sa"] + 1e-9
        and meds["qesa_exact"] <= meds["random_search"] + 1e-9
        and elapsed < 600.0
    )
    _report(7, "median solver ordering (exact-guided <= sa <= random)", ok,
            f"(qesa_exact {meds['qesa_exact']:.3f}, sa {meds['sa']:.3f}, "
            f"random {meds['random_search']:.3f}, {elapsed:.0f}s)")
    assert meds["qesa_exact"] <= meds["sa"] + 1e-9
    assert meds["qesa_exact"] <= meds["random_search"] + 1e-9
    assert elapsed < 600.0


def test_c08_step_sweep_trend():
    t0 = time.perf_counter()
    instances = [qp.generate(12, 20.0, seed) for seed in range(20)]
    steps_list = (5, 10, 20, 40, 60, 80, 100)
    rows = bench.sweep_steps(instances, steps_list, base_seed=0)
    meds = {
        s: median(r["best_f"] for r in rows if r["steps"] == s) for s in steps_list
    }
    elapsed = time.perf_counter() - t0
    monotone = all(
        meds[b] <= meds[a] + 1e-9 for a, b in zip(steps_list, steps_list[1:])
    )
    ok = monotone and elapsed < 600.0
    detail = ", ".join(f"{s}: {meds[s]:.3f}" for s in steps_list)
    _report(8, "median energy non-increasing in step count", ok,
            f"({detail}, {elapsed:.0f}s)")
    assert monotone
    assert elapsed < 600.0


def test_c09_p_sweep_trend():
    t0 = time.perf_counter()
    instances = [qp.generate(12, 1.0, seed) for seed in range(20)]
    rows = bench.sweep_p(instances, [0.0, 1.0], base_seed=0)
    med = {
        p: median(r["best_f"] for r in rows if r["p"] == p) for p in (0.0, 1.0)
    }
    elapsed = time.perf_counter() - t0
    ok = med[1.0] <= med[0.0] + 1e-9 and elapsed < 600.0
    _report(9, "full direction retention beats full randomization", ok,
            f"(p=1 median {med[1.0]:.3f} <= p=0 median {med[0.0]:.3f}, {elapsed:.0f}s)")
    assert med[1.0] <= med[0.0] + 1e-9
    assert elapsed < 600.0


def test_c10_external_sampler_loopback():
    rng = np.random.default_rng(1010)
    cfg = ising.SamplerConfig(num_samples=1, command=fake_sampler_cmd("exact"))
    identical = 0
    for _ in range(20):
        n = int(rng.integers(2, 13))
        couplings, h, offset = random_model(rng, n)
        model = ising.IsingModel.from_couplings(n, couplings, h, offset)
        direct = ising.solve_exact(model)
        looped = ising.solve_external(model, cfg)
        if (
            np.array_equal(direct.best, looped.best)
            and direct.best_energy == looped.best_energy
        ):
            identical += 1
    ok = identical == 20
    _report(10, "external protocol loop-back is bit-identical to in-process",
            ok, f"({identical}/20 models identical)")
    assert identical == 20


def _strip_timing(rows):
    return [
        {k: v for k, v in row.items() if k not in bench.TIMING_COLUMNS}
        for row in rows
    ]


def test_c11_determinism():
    inst = qp.generate(8, 5.0, seed=4)
    schedule = anneal.ScheduleConfig(steps=20)
    cfg = ising.SamplerConfig(num_samples=16, inner_sweeps=8, seed=3)

    def run_all():
        return [
            anneal.qesa_solve(inst, schedule=schedule, sampler=ising.solve_exact, seed=1),
            anneal.qesa_solve(inst, schedule=schedule,
                              sampler=ising.make_sampler("sa", cfg), seed=1),
            anneal.qesa_solve(inst, schedule=schedule,
                              sampler=ising.make_sampler("random", cfg), seed=1),
            anneal.qesa_solve(inst, schedule=schedule, sampler=ising.solve_exact, seed=1,
                              policy=anneal.DirectionPolicy(0.5, seed=2)),
            baselines.solve_sa_baseline(inst, schedule=schedule, seed=1, sampler_cfg=cfg),
            baselines.solve_projected_gradient(inst, iters=40, seed=1),
            baselines.solve_corner_exact(inst),
            baselines.solve_random_search(inst, budget=200, seed=1),
            bench.reference_solution(inst),
        ]

    first, second = run_all(), run_all()
    solvers_match = all(
        np.array_equal(a.final_x, b.final_x)
        and np.array_equal(a.best_x, b.best_x)
        and a.best_f == b.best_f
        and a.accepted_count == b.accepted_count
        and a.eval_count == b.eval_count
        for a, b in zip(first, second)
    )

    grid = bench.ExperimentGrid(
        dims=(8,), diag_scales=(1.0, 20.0), seeds=(0, 1),
        solvers=("qesa_exact", "sa", "random_search", "reference"),
        schedule=schedule, sampler_cfg=cfg,
    )
    grid_match = _strip_timing(bench.run_grid(grid)) == _strip_timing(bench.run_grid(grid))

    ok = solvers_match and grid_match
    _report(11, "identical seeds give identical non-timing outputs", ok,
            f"(solvers: {solvers_match}, grid: {grid_match})")
    assert solvers_match
    assert grid_match
