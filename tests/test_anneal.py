import types

import numpy as np
import pytest

from qesa import anneal, ising, qp

from conftest import all_spin_vectors, best_corner_oracle, fake_sampler_cmd, objective_oracle


def test_schedule_validation():
    with pytest.raises(ValueError):
        anneal.ScheduleConfig(t_max=0.1, t_min=1.0)
    with pytest.raises(ValueError):
        anneal.ScheduleConfig(t_min=0.0)
    with pytest.raises(ValueError):
        anneal.ScheduleConfig(alpha=1.0)
    with pytest.raises(ValueError):
        anneal.ScheduleConfig(k0=0.0)
    with pytest.raises(ValueError):
        anneal.ScheduleConfig(steps=0)
    with pytest.raises(ValueError):
        anneal.ScheduleConfig(cooling="polynomial")
    # equal endpoints are allowed (constant-temperature runs)
    anneal.ScheduleConfig(t_max=1e-12, t_min=1e-12)


@pytest.mark.parametrize(
    "field, value",
    [("t_max", float("inf")), ("t_max", float("nan")), ("t_min", float("nan")),
     ("k0", float("inf")), ("k0", float("nan")), ("alpha", float("nan"))],
)
def test_schedule_rejects_non_finite_values(field, value):
    with pytest.raises(ValueError, match=field):
        anneal.ScheduleConfig(**{field: value})


@pytest.mark.parametrize("value", [2.5, 3.0, np.float64(3.0), True, False, "3", None])
def test_schedule_rejects_non_integer_steps(value):
    with pytest.raises(ValueError, match="steps must be an integer"):
        anneal.ScheduleConfig(steps=value)
    assert anneal.ScheduleConfig(steps=np.int64(4)).steps == 4


def test_temperature_endpoints_exact():
    cfg = anneal.ScheduleConfig()
    assert anneal.temperature(cfg, 0) == 1000.0
    assert anneal.temperature(cfg, 99) == 0.1


def test_temperature_strictly_decreasing():
    for cooling in anneal.COOLING_FORMS:
        cfg = anneal.ScheduleConfig(cooling=cooling)
        values = [anneal.temperature(cfg, t) for t in range(cfg.steps)]
        assert all(a > b for a, b in zip(values, values[1:]))


def test_temperature_range_check():
    cfg = anneal.ScheduleConfig(steps=10)
    with pytest.raises(ValueError):
        anneal.temperature(cfg, 10)
    with pytest.raises(ValueError):
        anneal.temperature(cfg, -1)
    assert anneal.temperature(anneal.ScheduleConfig(steps=1), 0) == 1000.0


def test_metropolis_accepts_improvements_and_zero(rng):
    assert anneal.metropolis_accept(-5.0, 1e-9, rng)
    assert anneal.metropolis_accept(0.0, 123.0, rng)
    # strongly worsening move at tiny temperature is effectively never taken
    assert not any(anneal.metropolis_accept(1.0, 1e-6, rng) for _ in range(100))


def test_metropolis_rate_near_exp_minus_one(rng):
    trials = 20_000
    hits = sum(anneal.metropolis_accept(1.0, 1.0, rng) for _ in range(trials))
    assert 0.35 <= hits / trials <= 0.39


def test_metropolis_requires_positive_temperature(rng):
    with pytest.raises(ValueError):
        anneal.metropolis_accept(1.0, 0.0, rng)


def test_direction_ising_hand_values():
    inst = qp.QpInstance(Q=[[0.0, 2.0], [2.0, 0.0]], c=[0.0, 0.0])
    model = anneal.direction_ising(inst, [0.0, 0.0], 1.0)
    assert model.J == {(0, 1): 2.0}
    np.testing.assert_array_equal(model.h, [0.0, 0.0])
    assert model.offset == 0.0
    assert ising.solve_exact(model).best_energy == -2.0

    inst = qp.QpInstance(Q=[[2.0, 0.0], [0.0, 2.0]], c=[0.0, 0.0])
    model = anneal.direction_ising(inst, [0.0, 0.0], 0.5)
    assert model.J == {}
    assert model.offset == pytest.approx(0.5, abs=1e-15)
    for s in all_spin_vectors(2):
        assert ising.energy(model, s) == pytest.approx(0.5, abs=1e-15)


def test_direction_ising_validation():
    inst = qp.generate(3, 1.0, seed=0)
    with pytest.raises(ValueError):
        anneal.direction_ising(inst, np.zeros(3), 0.0)
    with pytest.raises(ValueError):
        anneal.direction_ising(inst, np.zeros(4), 0.1)


def test_direction_model_passes_the_public_checks_bit_for_bit(rng):
    # direction_ising skips IsingModel's checks; the model must still pass them
    for trial in range(10):
        n = int(rng.integers(1, 20))
        inst = qp.generate(n, float(rng.choice([1.0, 20.0])), seed=trial)
        x = rng.uniform(-1.0, 1.0, size=n)
        k = float(rng.uniform(1e-3, 2.0))
        model = anneal.direction_ising(inst, x, k)
        w = k * k * np.array(inst.Q)
        np.fill_diagonal(w, 0.0)
        checked = ising.IsingModel(W=w, h=k * (inst.Q @ x + inst.c),
                                   offset=0.5 * k * k * float(np.trace(inst.Q)))
        assert model.W.tobytes() == checked.W.tobytes()
        assert model.h.tobytes() == checked.h.tobytes()
        assert model.offset.hex() == checked.offset.hex()
        assert not model.W.flags.writeable and not model.h.flags.writeable


@pytest.mark.parametrize("x, k", [
    (np.zeros(3), 1e160),             # k^2 max|Q| overflows
    (np.full(3, 1e300), 1e10),        # k (Qx + c) overflows
    (np.array([0.0, np.nan, 0.0]), 0.5),
    (np.zeros(3), float("nan")),
    (np.array([np.inf, -np.inf, 0.0]), 1.0),  # Qx is inf - inf
])
def test_direction_ising_rejects_non_finite_models(x, k):
    inst = qp.generate(3, 1.0, seed=0)
    with pytest.raises(ValueError, match="non-finite"):
        anneal.direction_ising(inst, x, k)


def test_direction_energy_identity(rng):
    # sampler energies must equal true objective deltas of unclipped steps
    for _ in range(10):
        n = int(rng.integers(2, 11))
        inst = qp.generate(n, float(rng.choice([1.0, 5.0, 20.0])), seed=int(rng.integers(1000)))
        x = rng.uniform(-1.0, 1.0, size=n)
        k = float(rng.uniform(0.01, 0.5))
        model = anneal.direction_ising(inst, x, k)
        f_x = qp.objective(inst, x)
        for _ in range(50):
            s = rng.choice([-1.0, 1.0], size=n)
            delta = qp.objective(inst, x + k * s) - f_x
            assert ising.energy(model, s) == pytest.approx(delta, abs=1e-9)


def test_direction_argmin_transfer(rng):
    for trial in range(5):
        n = 8
        inst = qp.generate(n, 2.0, seed=trial)
        x = rng.uniform(-1.0, 1.0, size=n)
        k = 0.1
        spins = all_spin_vectors(n)
        brute = min(qp.objective(inst, x + k * s) for s in spins)
        model_best = ising.solve_exact(anneal.direction_ising(inst, x, k)).best
        achieved = qp.objective(inst, x + k * model_best)
        assert achieved == pytest.approx(brute, abs=1e-9)


def test_init_ising_hand_values():
    inst = qp.QpInstance(Q=[[2.0, 1.0], [1.0, 2.0]], c=[0.0, 0.0])
    model = anneal.init_ising(inst)
    assert model.J == {(0, 1): 1.0}
    np.testing.assert_array_equal(model.h, [0.0, 0.0])
    assert model.offset == 2.0
    assert ising.energy(model, [1.0, -1.0]) == pytest.approx(1.0, abs=1e-12)

    diag = qp.QpInstance(Q=np.diag([3.0, -2.0]), c=[1.0, -4.0])
    model = anneal.init_ising(diag)
    assert model.J == {}
    best = ising.solve_exact(model).best
    np.testing.assert_array_equal(best, -np.sign(diag.c))


def test_init_ising_corner_identity(rng):
    for trial in range(5):
        inst = qp.generate(10, float(rng.choice([1.0, 10.0])), seed=100 + trial)
        model = anneal.init_ising(inst)
        for s in all_spin_vectors(4):
            corner = np.concatenate([s, np.ones(6)])
            assert ising.energy(model, corner) == pytest.approx(
                qp.objective(inst, corner), abs=1e-9
            )
        _, oracle_f = best_corner_oracle(inst.Q, inst.c)
        result = ising.solve_exact(model)
        assert result.best_energy == pytest.approx(oracle_f, abs=1e-9)
        assert qp.objective(inst, result.best) == pytest.approx(oracle_f, abs=1e-9)


def test_perturb_direction_identity_at_full_retention(rng):
    policy = anneal.DirectionPolicy(retain_probability=1.0, seed=0)
    s = np.array([1.0, -1.0, 1.0])
    np.testing.assert_array_equal(anneal.perturb_direction(s, policy, rng), s)


def test_perturb_direction_full_replacement(rng):
    policy = anneal.DirectionPolicy(retain_probability=0.0, seed=0)
    s = rng.choice([-1.0, 1.0], size=10_000)
    out = anneal.perturb_direction(s, policy, rng)
    assert np.all(np.abs(out) <= 1.0)
    assert np.mean(np.isin(out, (-1.0, 1.0))) == 0.0


def test_perturb_direction_half_retention(rng):
    policy = anneal.DirectionPolicy(retain_probability=0.5, seed=0)
    s = np.ones(10_000)
    out = anneal.perturb_direction(s, policy, rng)
    kept = np.mean(out == 1.0)
    assert 0.48 <= kept <= 0.52


def test_direction_policy_validation():
    with pytest.raises(ValueError):
        anneal.DirectionPolicy(retain_probability=1.5)


def test_qesa_solve_concave_instance_hits_corner_value():
    inst = qp.QpInstance(Q=-np.eye(2), c=np.zeros(2))
    report = anneal.qesa_solve(inst, sampler=ising.solve_exact, seed=0)
    assert report.best_f == pytest.approx(-1.0, abs=1e-12)


def test_qesa_solve_convex_instance_reaches_interior():
    # global optimum 0 at the origin; loop must walk in from a corner
    inst = qp.QpInstance(Q=np.eye(2), c=np.zeros(2))
    report = anneal.qesa_solve(inst, sampler=ising.solve_exact, seed=0)
    assert report.best_f <= 0.05


def test_qesa_solve_invariants(rng):
    inst = qp.generate(8, 5.0, seed=3)
    report = anneal.qesa_solve(
        inst, sampler=ising.solve_exact, seed=11, record_trajectory=True
    )
    assert np.all(np.abs(report.final_x) <= 1.0)
    assert np.all(np.abs(report.best_x) <= 1.0)
    assert report.best_f == pytest.approx(qp.objective(inst, report.best_x), abs=1e-9)
    assert report.best_f <= qp.objective(inst, report.final_x) + 1e-9
    assert len(report.trajectory) == report.steps
    trajectory_min = min(f for _, f, _ in report.trajectory)
    assert report.best_f == pytest.approx(min(trajectory_min, report.best_f), abs=1e-9)
    assert 0 <= report.accepted_count <= report.steps
    assert report.eval_count == report.steps + 1


def test_wall_time_covers_the_whole_solve(monkeypatch):
    # a clock that only the generators qesa_solve builds advance: the loop's
    # and the direction policy's, so the whole call reads exactly 2 s
    inst = qp.generate(4, 1.0, seed=0)
    clock = [0.0]
    monkeypatch.setattr(anneal, "time", types.SimpleNamespace(perf_counter=lambda: clock[0]))
    default_rng = np.random.default_rng

    def slow_default_rng(*args, **kwargs):
        clock[0] += 1.0
        return default_rng(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", slow_default_rng)
    report = anneal.qesa_solve(inst, anneal.ScheduleConfig(steps=3), ising.solve_exact,
                               policy=anneal.DirectionPolicy(0.5), seed=0)
    assert report.wall_time_s == 2.0


# (step backend, corner backend or None for the step backend)
CONTRACT_BACKENDS = {
    "exact": ("exact", None),
    "sa": ("sa", None),
    "random": ("random", None),
    "sa_corner_exact_steps": ("exact", "sa"),
    "external": ("external", None),
}


@pytest.mark.parametrize("name", sorted(CONTRACT_BACKENDS))
def test_every_model_of_a_solve_predicts_the_objective_change(name, monkeypatch):
    """The contract a traced run checks, for every backend: each objective
    evaluation is one ``anneal.objective`` call counted in ``eval_count``,
    and once the solve has returned, every model it built still has energy
    f(x + k s) - f(x) at the direction s its sampler returned (the corner
    model is the case x = 0, k = 1)."""
    backend, init_backend = CONTRACT_BACKENDS[name]
    inst = qp.generate(8, 5.0, seed=3)
    cfg = ising.SamplerConfig(num_samples=8, inner_sweeps=5, seed=4,
                              command=fake_sampler_cmd("exact"))
    built, sampled = {}, []  # id(model) -> (model, x, k); (id(model), direction)
    direction_ising = anneal.direction_ising

    def record_build(inst_, x, k):
        model = direction_ising(inst_, x, k)
        built[id(model)] = (model, np.array(x, dtype=float), k)
        return model

    def recording(sampler):
        def sample(model):
            result = sampler(model)
            sampled.append((id(model), np.array(result.best, dtype=float)))
            return result
        return sample

    evaluations = [0]
    objective = anneal.objective

    def counted_objective(*args):
        evaluations[0] += 1
        return objective(*args)

    monkeypatch.setattr(anneal, "direction_ising", record_build)
    monkeypatch.setattr(anneal, "objective", counted_objective)
    sampler = recording(ising.make_sampler(backend, cfg))
    init_sampler = None if init_backend is None else recording(ising.make_sampler(init_backend, cfg))
    report = anneal.qesa_solve(inst, anneal.ScheduleConfig(steps=5), sampler, seed=1,
                               init_sampler=init_sampler)
    assert evaluations[0] == report.eval_count == 6
    assert len(sampled) == 6
    for key, s in sampled:
        model, x, k = built[key]
        f_x = objective_oracle(inst.Q, inst.c, x)
        f_new = objective_oracle(inst.Q, inst.c, x + k * s)
        scale = max(1.0, abs(f_x), abs(f_new))
        assert abs(ising.energy(model, s) - (f_new - f_x)) <= 1e-9 * scale


def test_qesa_solve_never_loses_init_quality(rng):
    for trial in range(5):
        inst = qp.generate(10, 1.0, seed=trial)
        corner_f = ising.solve_exact(anneal.init_ising(inst)).best_energy
        report = anneal.qesa_solve(inst, sampler=ising.solve_exact, seed=trial)
        assert report.best_f <= corner_f + 1e-9


def test_qesa_solve_beats_budget_matched_random_search():
    from qesa import baselines

    inst = qp.generate(10, 1.0, seed=0)
    wins = 0
    for seed in range(100):
        report = anneal.qesa_solve(inst, sampler=ising.solve_exact, seed=seed)
        rival = baselines.solve_random_search(inst, budget=report.eval_count, seed=seed)
        if report.best_f <= rival.best_f + 1e-9:
            wins += 1
    assert wins >= 90


def test_qesa_solve_deterministic():
    inst = qp.generate(6, 5.0, seed=2)
    cfg = ising.SamplerConfig(num_samples=30, inner_sweeps=10, seed=4)
    runs = [
        anneal.qesa_solve(inst, sampler=ising.make_sampler("sa", cfg), seed=9)
        for _ in range(2)
    ]
    np.testing.assert_array_equal(runs[0].final_x, runs[1].final_x)
    np.testing.assert_array_equal(runs[0].best_x, runs[1].best_x)
    assert runs[0].best_f == runs[1].best_f
    assert runs[0].accepted_count == runs[1].accepted_count


def test_qesa_solve_zero_temperature_is_greedy():
    # At T=1e-12 a move worsening by more than ~30*T has acceptance
    # probability < 1e-13; only sub-noise deltas (<= ~1e-11, where the
    # Metropolis formula itself approaches 1) can slip through, hence the
    # 1e-9 slack.
    schedule = anneal.ScheduleConfig(t_max=1e-12, t_min=1e-12, steps=1000)
    for seed in range(2):
        inst = qp.generate(8, 5.0, seed=seed)
        report = anneal.qesa_solve(
            inst, schedule=schedule, sampler=ising.solve_exact, seed=seed,
            record_trajectory=True,
        )
        values = [f for _, f, _ in report.trajectory]
        assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))


def test_direction_model_scale_consistency(rng):
    inst = qp.generate(7, 5.0, seed=1)
    x = rng.uniform(-1.0, 1.0, size=7)
    k = 0.2
    base = anneal.direction_ising(inst, x, k)
    scaled_inst = qp.QpInstance(Q=2.0 * inst.Q, c=2.0 * inst.c)
    scaled = anneal.direction_ising(scaled_inst, x, k)
    assert scaled.offset == pytest.approx(2.0 * base.offset, rel=1e-12)
    np.testing.assert_allclose(scaled.h, 2.0 * base.h, rtol=1e-12)
    for key, value in base.J.items():
        assert scaled.J[key] == pytest.approx(2.0 * value, rel=1e-12)
    np.testing.assert_array_equal(
        ising.solve_exact(base).best, ising.solve_exact(scaled).best
    )


def test_sampler_failure_carries_step_context():
    inst = qp.generate(4, 1.0, seed=0)

    calls = {"count": 0}

    def flaky(model):
        calls["count"] += 1
        if calls["count"] > 3:
            raise RuntimeError("backend exploded")
        return ising.solve_exact(model)

    with pytest.raises(anneal.SolveError, match="step 2"):
        anneal.qesa_solve(inst, sampler=flaky, seed=0)

    def broken(model):
        raise RuntimeError("no backend")

    with pytest.raises(anneal.SolveError, match="initialization"):
        anneal.qesa_solve(inst, sampler=broken, seed=0)


def test_final_step_size_decays_geometrically():
    inst = qp.QpInstance(Q=-np.eye(2), c=np.zeros(2))
    report = anneal.qesa_solve(inst, sampler=ising.solve_exact, seed=0)
    assert report.final_k == pytest.approx(0.1 * 0.95**100, abs=1e-15)


def test_report_json_round_trip():
    inst = qp.generate(4, 1.0, seed=0)
    report = anneal.qesa_solve(
        inst, sampler=ising.solve_exact, seed=0, record_trajectory=True
    )
    doc = report.to_json_dict()
    assert doc["best_f"] == report.best_f
    assert len(doc["final_x"]) == 4
    assert len(doc["trajectory"]) == report.steps
    plain = anneal.qesa_solve(inst, sampler=ising.solve_exact, seed=0)
    assert "trajectory" not in plain.to_json_dict()


def test_init_sampler_solves_the_corner_and_exact_steps_run_above_the_cap():
    inst = qp.generate(40, 1.0, 0)
    corner_calls = []

    def corner(model):
        corner_calls.append(model.n)
        return ising.solve_classical_sa(model, ising.SamplerConfig(num_samples=8, inner_sweeps=5, seed=0))

    with pytest.raises(anneal.SolveError, match="initialization"):
        anneal.qesa_solve(inst, sampler=ising.solve_exact, seed=0)  # 40 free corner spins
    report = anneal.qesa_solve(
        inst, anneal.ScheduleConfig(steps=10), sampler=ising.solve_exact, seed=0, init_sampler=corner
    )
    assert corner_calls == [40]
    assert report.eval_count == 11
    assert np.all(np.abs(report.best_x) <= 1.0)


def test_exact_step_with_too_many_free_spins_raises_the_cap_error():
    # with k0 = 1 the first step models are nearly the corner model: few spins are dominated
    inst = qp.generate(30, 20.0, 0)
    sa = ising.make_sampler("sa", ising.SamplerConfig(num_samples=8, inner_sweeps=5, seed=0))
    with pytest.raises(anneal.SolveError, match=r"step \d+: .* m=2\d of n=30 exceeds the cap of 24") as err:
        anneal.qesa_solve(inst, anneal.ScheduleConfig(k0=1.0, steps=3),
                          sampler=ising.solve_exact, seed=0, init_sampler=sa)
    assert isinstance(err.value.__cause__, ValueError)
