from statistics import median

import numpy as np
import pytest

from qesa import anneal, baselines, ising, qp

from conftest import best_corner_oracle


def test_sa_baseline_trivial_instance():
    inst = qp.QpInstance(Q=-np.eye(2), c=np.zeros(2))
    cfg = ising.SamplerConfig(num_samples=10, inner_sweeps=10)
    report = baselines.solve_sa_baseline(inst, seed=0, sampler_cfg=cfg)
    assert report.best_f == pytest.approx(-1.0, abs=1e-12)


def test_sa_baseline_deterministic():
    inst = qp.generate(6, 5.0, seed=1)
    cfg = ising.SamplerConfig(num_samples=16, inner_sweeps=8)
    schedule = anneal.ScheduleConfig(steps=20)
    a = baselines.solve_sa_baseline(inst, schedule=schedule, seed=3, sampler_cfg=cfg)
    b = baselines.solve_sa_baseline(inst, schedule=schedule, seed=3, sampler_cfg=cfg)
    np.testing.assert_array_equal(a.final_x, b.final_x)
    assert a.best_f == b.best_f
    assert a.accepted_count == b.accepted_count


def test_sa_baseline_not_better_than_exact_inner_sampler_in_median():
    # the heuristic inner sampler cannot beat the exact one in expectation;
    # compare medians over 20 paired seeds
    inst = qp.generate(10, 5.0, seed=7)
    cfg = ising.SamplerConfig(num_samples=32, inner_sweeps=20)
    schedule = anneal.ScheduleConfig(steps=30)
    sa_vals, exact_vals = [], []
    for seed in range(20):
        sa_vals.append(
            baselines.solve_sa_baseline(inst, schedule=schedule, seed=seed, sampler_cfg=cfg).best_f
        )
        exact_vals.append(
            anneal.qesa_solve(inst, schedule=schedule, sampler=ising.solve_exact, seed=seed).best_f
        )
    assert median(exact_vals) <= median(sa_vals) + 1e-9


def test_projected_gradient_convex_contraction(rng):
    inst = qp.QpInstance(Q=np.eye(4), c=np.zeros(4))
    report = baselines.solve_projected_gradient(inst, step_size=0.1, iters=200, seed=0)
    assert report.best_f <= 1e-6
    assert report.eval_count == 201


def test_projected_gradient_zero_gradient_start_stays_put():
    inst = qp.QpInstance(Q=-np.eye(3), c=np.zeros(3))
    report = baselines.solve_projected_gradient(inst, step_size=0.1, iters=50, x0=np.zeros(3))
    np.testing.assert_array_equal(report.final_x, np.zeros(3))
    assert report.best_f == 0.0


def test_projected_gradient_bounded_below_by_global_corner_optimum():
    # scale-1 instances are boundary-dominated, so the best corner is the
    # global box optimum here and one local descent cannot beat it
    inst = qp.generate(10, 1.0, seed=4)
    corner = baselines.solve_corner_exact(inst)
    report = baselines.solve_projected_gradient(inst, iters=300, seed=0)
    assert report.best_f >= corner.best_f - 1e-9


def test_projected_gradient_validation():
    inst = qp.generate(3, 1.0, seed=0)
    with pytest.raises(ValueError):
        baselines.solve_projected_gradient(inst, step_size=-0.1)
    for iters in (0, 2.5, True):
        with pytest.raises(ValueError, match="iters must be an integer"):
            baselines.solve_projected_gradient(inst, iters=iters)


def test_corner_exact_hand_values():
    inst = qp.QpInstance(Q=[[2.0, 1.0], [1.0, 2.0]], c=[0.0, 0.0])
    report = baselines.solve_corner_exact(inst)
    assert report.best_f == pytest.approx(1.0, abs=1e-12)
    assert report.corner_restricted  # continuous optimum is 0 at the origin

    cube = qp.QpInstance(Q=-np.eye(3), c=np.zeros(3))
    assert baselines.solve_corner_exact(cube).best_f == pytest.approx(-1.5, abs=1e-12)


def test_corner_exact_matches_brute_force(rng):
    inst = qp.generate(10, 2.0, seed=6)
    report = baselines.solve_corner_exact(inst)
    _, oracle_f = best_corner_oracle(inst.Q, inst.c)
    assert report.best_f == pytest.approx(oracle_f, abs=1e-9)
    assert np.all(np.isin(report.best_x, (-1.0, 1.0)))


def test_corner_exact_respects_size_cap():
    inst = qp.generate(25, 1.0, seed=0)
    with pytest.raises(ValueError, match="cap"):
        baselines.solve_corner_exact(inst)


def test_corner_exact_dominates_corner_valued_heuristic(rng):
    inst = qp.generate(12, 1.0, seed=9)
    exact = baselines.solve_corner_exact(inst)
    sampled = ising.solve_random(
        anneal.init_ising(inst), ising.SamplerConfig(num_samples=200, seed=0)
    )
    assert exact.best_f <= sampled.best_energy + 1e-9


def test_random_search_single_point_budget():
    inst = qp.generate(5, 1.0, seed=2)
    report = baselines.solve_random_search(inst, budget=1, seed=0)
    assert report.eval_count == 1
    assert report.best_f == pytest.approx(qp.objective(inst, report.best_x), abs=1e-12)


def test_random_search_convex_2d_gets_close_to_origin():
    inst = qp.QpInstance(Q=np.eye(2), c=np.zeros(2))
    report = baselines.solve_random_search(inst, budget=10_000, seed=1)
    assert report.best_f <= 0.05


def test_random_search_deterministic_and_feasible():
    inst = qp.generate(7, 5.0, seed=3)
    a = baselines.solve_random_search(inst, budget=500, seed=11)
    b = baselines.solve_random_search(inst, budget=500, seed=11)
    np.testing.assert_array_equal(a.best_x, b.best_x)
    assert np.all(np.abs(a.best_x) <= 1.0)
    for budget in (0, 2.5, True):
        with pytest.raises(ValueError, match="budget must be an integer"):
            baselines.solve_random_search(inst, budget=budget)


def test_all_baseline_reports_satisfy_shared_invariants():
    inst = qp.generate(8, 5.0, seed=5)
    cfg = ising.SamplerConfig(num_samples=16, inner_sweeps=8)
    reports = [
        baselines.solve_sa_baseline(inst, schedule=anneal.ScheduleConfig(steps=15),
                                    seed=0, sampler_cfg=cfg),
        baselines.solve_projected_gradient(inst, iters=50, seed=0),
        baselines.solve_corner_exact(inst),
        baselines.solve_random_search(inst, budget=100, seed=0),
    ]
    for report in reports:
        assert np.all(np.abs(report.best_x) <= 1.0)
        assert np.all(np.abs(report.final_x) <= 1.0)
        assert report.best_f == pytest.approx(qp.objective(inst, report.best_x), abs=1e-9)
        assert report.best_f <= qp.objective(inst, report.final_x) + 1e-9
