"""Golden outputs of fixed-seed solves.

Each case pins ``best_f`` (as a float hex string) and the SHA-256 of
``best_x.tobytes()`` for one seeded ``qesa_solve``. A refactor that is meant
to keep behaviour must leave every pin unchanged; a deliberate behaviour
change updates the pins and says why. The values were captured with numpy
2.4 on OpenBLAS (x86-64); another BLAS may round matrix products differently.
"""
import hashlib

import numpy as np
import pytest

from qesa import anneal, ising, qp

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
    best_x = np.asarray(report.best_x, dtype=float)
    assert (report.best_f.hex(), hashlib.sha256(best_x.tobytes()).hexdigest()) == GOLDEN[name]
