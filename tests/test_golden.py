"""Golden outputs of fixed-seed solves.

Each case pins ``best_f`` (as a float hex string) and the SHA-256 of
``best_x.tobytes()`` for one seeded ``qesa_solve`` or one seeded solver
entry point. A refactor that is meant
to keep behaviour must leave every pin unchanged; a deliberate behaviour
change updates the pins and says why. The values were captured with numpy
2.4 on OpenBLAS (x86-64); another BLAS may round matrix products differently.
"""
import hashlib

import numpy as np
import pytest

from qesa import anneal, baselines, bench, ising, qp

GOLDEN = {
    "random_n150": (
        "-0x1.66e55ea55544fp+7",
        "76c24ce44b589fb7a151af674822cc2719f688f09d16df2b82494b2a60b54e8f",
    ),
    "exact_n12": (
        "-0x1.03924c8fd0018p+3",
        "f8cc4be6257480c9669e151b1e08e32aa9b76de69bae6d89c792b3822c3e1bfc",
    ),
    "exact_n18": (
        "-0x1.fde5c12d3011cp+4",
        "e714383ceb7c226b6a30b0cf336c6a08c5283d11b94a9b9d5bd3a2ea4ee6df67",
    ),
    "sa_n12": (
        "-0x1.18882e45f0b74p+4",
        "b1a3358bb2f0417b8a3f6ca8aa1c3fea55d704209279264f62a5ff03f8f4b7fb",
    ),
}

# solver entry points on qp.generate(12, 5.0, 4), default schedule, seed 7,
# 8 reads x 5 sweeps; the registry keys are bench.SOLVERS tags
SOLVER_GOLDEN = {
    "solve_sa_baseline": (
        "-0x1.ab9992f7a8091p+3",
        "7bd2e6e4088690c3923dbd127c4c4ab850b0bb9c80081d2edae34c0a5ddf8e78",
    ),
    "qesa_exact": (
        "-0x1.d21f9278848a9p+3",
        "b5957b5989e40729c39df74add1d7450d38b03ede8bc44db4cc81deaffeea0db",
    ),
    "projected_gradient": (
        "-0x1.9407c821c8f27p+3",
        "20e6a5e4c7e9af3b17d5f75000507832cdb1d32fb3b2bdc15e9b5349fa6eee9f",
    ),
    "random_search": (
        "-0x1.b7f5cc243edacp+2",
        "479dbad0fe54fc00c68184423a2ac283821b92baf1861ece97f72afea9f9cccd",
    ),
}


def _pin(report):
    best_x = np.asarray(report.best_x, dtype=float)
    return report.best_f.hex(), hashlib.sha256(best_x.tobytes()).hexdigest()


def _case(name):
    if name == "random_n150":
        inst = qp.generate(150, 5.0, 3)
        cfg = ising.SamplerConfig(num_samples=64, seed=11)
        return inst, ising.make_sampler("random", cfg), anneal.ScheduleConfig(steps=20)
    if name == "exact_n12":
        return qp.generate(12, 10.0, 1), ising.solve_exact, anneal.ScheduleConfig()
    if name == "exact_n18":
        return qp.generate(18, 5.0, 3), ising.solve_exact, anneal.ScheduleConfig(steps=5)
    cfg = ising.SamplerConfig(num_samples=8, inner_sweeps=5, seed=5)
    return qp.generate(12, 1.0, 2), ising.make_sampler("sa", cfg), anneal.ScheduleConfig()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_fixed_seed_solve_is_bit_identical(name):
    inst, sampler, schedule = _case(name)
    report = anneal.qesa_solve(inst, schedule=schedule, sampler=sampler, seed=7)
    assert _pin(report) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_init_sampler_defaults_to_sampler(name):
    inst, sampler, schedule = _case(name)
    report = anneal.qesa_solve(inst, schedule=schedule, sampler=sampler, seed=7, init_sampler=sampler)
    assert _pin(report) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(SOLVER_GOLDEN))
def test_fixed_seed_solver_entry_point_is_bit_identical(name):
    solve = baselines.solve_sa_baseline if name == "solve_sa_baseline" else bench.SOLVERS[name]
    cfg = ising.SamplerConfig(num_samples=8, inner_sweeps=5)
    report = solve(qp.generate(12, 5.0, 4), anneal.ScheduleConfig(), 7, cfg)
    assert _pin(report) == SOLVER_GOLDEN[name]
