"""Shared independent oracles and fixtures.

The oracles here deliberately avoid the package's vectorized code paths:
objectives are summed term by term, spin enumerations go through
itertools.product, and gradients come from central finite differences.
"""
import itertools
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

FAKE_SAMPLER = Path(__file__).parent / "fake_sampler.py"


def fake_sampler_cmd(mode: str) -> str:
    return f"{sys.executable} {FAKE_SAMPLER} --mode {mode}"


def objective_oracle(Q, c, x) -> float:
    """Term-by-term 0.5 x^T Q x + c^T x with plain Python floats."""
    n = len(x)
    total = 0.0
    for i in range(n):
        for j in range(n):
            total += 0.5 * float(Q[i][j]) * float(x[i]) * float(x[j])
        total += float(c[i]) * float(x[i])
    return total


def ising_energy_oracle(couplings, h, offset, s) -> float:
    total = float(offset)
    for (i, j), v in couplings.items():
        total += float(v) * float(s[i]) * float(s[j])
    for i in range(len(h)):
        total += float(h[i]) * float(s[i])
    return total


def all_spin_vectors(n: int) -> np.ndarray:
    """All of {-1,+1}^n in lexicographic order, -1 before +1, via itertools."""
    return np.array(list(itertools.product((-1.0, 1.0), repeat=n)))


def enumerate_ground_state(couplings, h, offset=0.0):
    """Independent exhaustive Ising minimizer (first minimum wins ties)."""
    best_e, best_s = None, None
    for s in itertools.product((-1.0, 1.0), repeat=len(h)):
        e = ising_energy_oracle(couplings, h, offset, s)
        if best_e is None or e < best_e:
            best_e, best_s = e, s
    return np.array(best_s), best_e


def best_corner_oracle(Q, c):
    """Brute-force best corner of the box by direct objective evaluation."""
    best_f, best_x = None, None
    for x in itertools.product((-1.0, 1.0), repeat=len(c)):
        f = objective_oracle(Q, c, x)
        if best_f is None or f < best_f:
            best_f, best_x = f, x
    return np.array(best_x), best_f


def fd_gradient(fn, x, h=1e-6) -> np.ndarray:
    """Central finite differences of a scalar function."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        grad[i] = (fn(x + step) - fn(x - step)) / (2.0 * h)
    return grad


def random_model(rng, n):
    """Random dense Ising model as raw (couplings, h, offset) pieces."""
    couplings = {
        (i, j): float(rng.uniform(-1.0, 1.0))
        for i in range(n)
        for j in range(i + 1, n)
    }
    h = rng.uniform(-1.0, 1.0, size=n)
    offset = float(rng.uniform(-1.0, 1.0))
    return couplings, h, offset


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def reference_sa(model, cfg):
    """Frozen reference for ``ising.solve_classical_sa``: the earlier one-spin-
    at-a-time loop, one ``rng.random(restarts)`` call and one explicit
    ``delta <= 0`` test per spin update, read through column W[:, i]. The
    kernel must return the same ``SampleResult.best`` and ``best_energy``
    bit for bit."""
    from qesa.ising import SA_T_HIGH_FACTOR, SA_T_LOW_FACTOR, _best_sample

    rng = np.random.default_rng(cfg.seed)
    n, restarts = model.n, cfg.num_samples
    spins = rng.integers(0, 2, size=(restarts, n)).astype(float) * 2.0 - 1.0
    scale = model.max_abs_coefficient()
    if scale > 0.0:
        w = model.W
        h = model.h
        t_high = SA_T_HIGH_FACTOR * scale
        t_low = SA_T_LOW_FACTOR * scale
        sweeps = cfg.inner_sweeps
        ratio = (t_low / t_high) ** (1.0 / (sweeps - 1)) if sweeps > 1 else 1.0
        for sweep in range(sweeps):
            temp = t_high * ratio**sweep
            for i in range(n):
                local = spins @ w[:, i] + h[i]
                delta = -2.0 * spins[:, i] * local
                u = rng.random(restarts)
                accept = (delta <= 0.0) | (u < np.exp(-np.maximum(delta, 0.0) / temp))
                spins[accept, i] = -spins[accept, i]
    return _best_sample(model, spins, 0.0)


def sa_against_reference(model, cfg):
    """(``solve_classical_sa``, ``reference_sa``) on one model and config. The
    kernel runs with every warning an error; the reference's RuntimeWarnings
    (divide by zero and invalid value when a temperature is 0 or inf) are
    ignored, because they belong to the earlier loop."""
    from qesa.ising import solve_classical_sa

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = solve_classical_sa(model, cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        expected = reference_sa(model, cfg)
    return result, expected
