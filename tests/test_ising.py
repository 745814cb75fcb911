import dataclasses
import warnings

import numpy as np
import pytest

from qesa import ising

from conftest import (
    enumerate_ground_state,
    ising_energy_oracle,
    random_model,
    reference_sa,
    sa_against_reference,
)


def _model(couplings, h, offset=0.0):
    return ising.IsingModel.from_couplings(len(h), couplings, h, offset)


def test_energy_hand_values():
    m = _model({}, [0.0, 0.0])
    assert ising.energy(m, [1.0, -1.0]) == 0.0
    m = _model({(0, 1): 1.0}, [0.0, 0.0])
    assert ising.energy(m, [1.0, -1.0]) == -1.0


def test_energy_matches_summation_oracle(rng):
    for _ in range(10):
        couplings, h, offset = random_model(rng, 10)
        m = _model(couplings, h, offset)
        s = rng.choice([-1.0, 1.0], size=10)
        expected = ising_energy_oracle(couplings, h, offset, s)
        assert ising.energy(m, s) == pytest.approx(expected, abs=1e-12)


def test_energy_dimension_mismatch():
    m = _model({}, [0.0, 0.0])
    with pytest.raises(ValueError):
        ising.energy(m, [1.0, 1.0, 1.0])


def test_model_validation():
    with pytest.raises(ValueError):
        _model({(1, 0): 1.0}, [0.0, 0.0])  # keys must have i < j
    with pytest.raises(ValueError):
        _model({(0, 5): 1.0}, [0.0, 0.0, 0.0])  # j out of range
    with pytest.raises(ValueError):
        ising.IsingModel.from_couplings(3, {}, np.zeros(2))


def test_model_from_dense_arrays():
    m = ising.IsingModel(W=[[0.0, 2.0], [2.0, 0.0]], h=[1.0, -1.0], offset=0.5)
    assert m.n == 2
    assert m.J == {(0, 1): 2.0}
    assert ising.energy(m, [1.0, 1.0]) == 2.0 + 0.0 + 0.5
    with pytest.raises(ValueError):
        m.W[0, 1] = 3.0  # read-only
    assert m.max_abs_coefficient() == 2.0


def test_model_rejects_bad_w():
    with pytest.raises(ValueError, match="W has shape"):
        ising.IsingModel(W=np.zeros((2, 3)), h=np.zeros(2))
    with pytest.raises(ValueError, match="symmetric"):
        ising.IsingModel(W=[[0.0, 1.0], [2.0, 0.0]], h=np.zeros(2))
    with pytest.raises(ValueError, match="diagonal"):
        ising.IsingModel(W=[[1.0, 0.0], [0.0, 0.0]], h=np.zeros(2))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_model_rejects_non_finite_input(bad):
    w = np.zeros((2, 2))
    w[0, 1] = w[1, 0] = bad
    with pytest.raises(ValueError, match="^W has non-finite"):
        ising.IsingModel(W=w, h=np.zeros(2))
    with pytest.raises(ValueError, match="^h has non-finite"):
        ising.IsingModel(W=np.zeros((2, 2)), h=[0.0, bad])
    with pytest.raises(ValueError, match="^offset has non-finite"):
        ising.IsingModel(W=np.zeros((2, 2)), h=np.zeros(2), offset=bad)
    with pytest.raises(ValueError, match="^W has non-finite"):
        _model({(0, 1): bad}, [0.0, 0.0])


def test_solve_exact_skips_nan_energies_and_raises_when_all_are_nan(monkeypatch):
    # Coefficients near the float maximum overflow to NaN energies, but which
    # states do depends on the BLAS summation order, so the energies are fed
    # in directly.
    m = _model({(0, 1): 1.0}, [0.0, 0.0])
    monkeypatch.setattr(
        ising, "_energy_blocks", lambda w, h, offset: iter([np.array([[np.nan, 3.0], [np.nan, 1.0]])])
    )
    np.testing.assert_array_equal(ising.solve_exact(m).best, [1.0, 1.0])
    monkeypatch.setattr(ising, "_energy_blocks", lambda w, h, offset: iter([np.full((2, 2), np.nan)]))
    with pytest.raises(ising.SamplerError, match="NaN"):
        ising.solve_exact(m)


def test_solve_exact_tie_break_lexicographic():
    result = ising.solve_exact(_model({(0, 1): 1.0}, [0.0, 0.0]))
    assert result.best_energy == -1.0
    np.testing.assert_array_equal(result.best, [-1.0, 1.0])
    assert result.num_samples == 4


def test_solve_exact_independent_fields():
    result = ising.solve_exact(_model({}, [2.0, -3.0]))
    np.testing.assert_array_equal(result.best, [-1.0, 1.0])
    assert result.best_energy == -5.0


def test_solve_exact_matches_independent_enumerator(rng):
    for _ in range(5):
        couplings, h, offset = random_model(rng, 12)
        result = ising.solve_exact(_model(couplings, h, offset))
        _, oracle_e = enumerate_ground_state(couplings, h, offset)
        assert result.best_energy == pytest.approx(oracle_e, abs=1e-9)
        assert result.num_samples == 4096


def _tree_model(rng, n):
    """No fields and integer couplings on a random spanning tree, so no spin is
    dominated. A tree is unfrustrated: its two ground states s and -s satisfy
    every bond, s_i = -sign(J_pi) s_p, with energy -sum |J| exactly; the
    lexicographically first has s[0] = -1."""
    couplings, s = {}, np.empty(n)
    s[0] = -1.0
    for i in range(1, n):
        p = int(rng.integers(0, i))
        couplings[(p, i)] = float(rng.choice([-2.0, -1.0, 1.0, 2.0]))
        s[i] = -np.sign(couplings[(p, i)]) * s[p]
    return _model(couplings, np.zeros(n)), s, -sum(abs(v) for v in couplings.values())


def test_solve_exact_chunked_path_analytic(rng):
    # n=17 splits unevenly (8 + 9 spins), and the tree's bonds cross the split
    model, ground, ground_e = _tree_model(rng, 17)
    result = ising.solve_exact(model)
    np.testing.assert_array_equal(result.best, ground)
    assert result.best_energy == ground_e


def test_solve_exact_tie_across_blocks_keeps_first_state(rng):
    # n=22 scores 2^22 states in four blocks of 2^20; the ground state -s with
    # s[0] = +1 ties exactly with s and lies in later blocks, so only a strict
    # comparison across blocks keeps s[0] = -1
    model, ground, ground_e = _tree_model(rng, 22)
    result = ising.solve_exact(model)
    np.testing.assert_array_equal(result.best, ground)
    assert result.best_energy == ground_e
    assert result.num_samples == 1 << 22


def test_solve_exact_fixes_dominated_spins_without_enumerating(rng, monkeypatch):
    # every |h_i| exceeds its row's coupling sum, so each spin is -sign(h_i),
    # far above the cap and with no state scored
    w = rng.uniform(-1.0, 1.0, size=(200, 200))
    w = np.triu(w, 1) + np.triu(w, 1).T
    h = (np.abs(w).sum(1) + 0.5) * rng.choice([-1.0, 1.0], size=200)
    model = ising.IsingModel(W=w, h=h)
    monkeypatch.setattr(ising, "_energy_blocks", None)
    result = ising.solve_exact(model)
    np.testing.assert_array_equal(result.best, -np.sign(h))
    assert result.best_energy == ising.energy(model, -np.sign(h))
    assert result.num_samples == 1 << 200


def test_solve_exact_cap_counts_free_spins(rng):
    # spins 0-3 are dominated, spins 4-11 form a tree with no fields: 8 free
    tree, _, _ = _tree_model(rng, 8)
    w = np.zeros((12, 12))
    w[4:, 4:] = tree.W
    w[0, 5] = w[5, 0] = 1.0  # fixing s[0] = -1 leaves field -1 on spin 5, not dominant
    h = np.array([3.0, -1.0, 2.0, -0.5] + [0.0] * 8)
    model = ising.IsingModel(W=w, h=h)
    with pytest.raises(ValueError, match=r"m=8 of n=12 exceeds the cap of 7"):
        ising.solve_exact(model, size_cap=7)
    result = ising.solve_exact(model, size_cap=8)
    oracle_s, oracle_e = enumerate_ground_state(model.J, h)
    np.testing.assert_array_equal(result.best, oracle_s)
    assert result.best_energy == oracle_e
    assert result.num_samples == 1 << 12


def test_solve_exact_refuses_above_cap():
    m = _model({}, np.zeros(25))
    with pytest.raises(ValueError, match="cap"):
        ising.solve_exact(m)
    # explicit override is allowed
    small = _model({}, np.zeros(10))
    assert ising.solve_exact(small, size_cap=10).num_samples == 1024


def test_classical_sa_two_spin():
    cfg = ising.SamplerConfig(num_samples=10, inner_sweeps=20, seed=0)
    result = ising.solve_classical_sa(_model({(0, 1): 1.0}, [0.0, 0.0]), cfg)
    assert result.best_energy == -1.0


def test_classical_sa_deterministic(rng):
    couplings, h, offset = random_model(rng, 8)
    m = _model(couplings, h, offset)
    cfg = ising.SamplerConfig(num_samples=20, inner_sweeps=15, seed=77)
    a = ising.solve_classical_sa(m, cfg)
    b = ising.solve_classical_sa(m, cfg)
    np.testing.assert_array_equal(a.best, b.best)
    assert a.best_energy == b.best_energy
    assert a.num_samples == b.num_samples


def test_classical_sa_finds_ground_state_on_most_models(rng):
    # paired against exact enumeration on 100 random 12-spin models
    cfg_base = ising.SamplerConfig(num_samples=1000, inner_sweeps=100)
    hits = 0
    for trial in range(100):
        couplings, h, offset = random_model(rng, 12)
        m = _model(couplings, h, offset)
        exact = ising.solve_exact(m)
        result = ising.solve_classical_sa(m, dataclasses.replace(cfg_base, seed=trial))
        if result.best_energy <= exact.best_energy + 1e-9:
            hits += 1
    assert hits >= 95


def _ferromagnet(n, scale):
    """All couplings and fields -scale: a spin against the aligned rest has
    delta = -2 (n - 1 + 1) scale, so at T = SA_T_LOW_FACTOR * scale the
    kernel's exp(-delta / T) = exp(1600) overflows to inf for n = 8."""
    return ising.IsingModel(W=-scale * (np.ones((n, n)) - np.eye(n)), h=np.full(n, -scale))


def _sa_oracle_cases():
    rng = np.random.default_rng(31)
    random_models = {n: _model(*random_model(rng, n)) for n in (6, 7, 8, 10)}
    return {
        "n1": (_model({}, [0.7]), 5, 4),
        "odd_n": (random_models[7], 9, 6),
        # 64-byte rows, where numpy 2.4's masked in-place negative of a column misses entries
        "n8": (random_models[8], 12, 1),
        "one_sweep": (random_models[6], 16, 1),
        "one_read": (random_models[10], 1, 12),
        "all_zero": (_model({}, np.zeros(4)), 6, 3),
        "exp_overflow": (_ferromagnet(8, 1.0), 64, 3),
        "exp_overflow_huge": (_ferromagnet(8, 1e300), 64, 3),
        # T_low = 0.01 * 5e-324 underflows to 0, and spin 4 has delta = 0
        "zero_temperature": (_model({}, [5e-324, 5e-324, 5e-324, 5e-324, 0.0]), 1, 2),
        # T_high = 10 * 2e307 overflows to inf, where every finite delta is accepted
        "infinite_temperature": (_ferromagnet(2, 2e307), 1, 1),
    }


SA_ORACLE_CASES = _sa_oracle_cases()


def _same_sample(a, b):
    np.testing.assert_array_equal(a.best, b.best)
    assert a.best_energy.hex() == b.best_energy.hex()
    assert a.num_samples == b.num_samples


@pytest.mark.parametrize("name", sorted(SA_ORACLE_CASES))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_classical_sa_matches_reference_loop(name, seed):
    model, reads, sweeps = SA_ORACLE_CASES[name]
    cfg = ising.SamplerConfig(num_samples=reads, inner_sweeps=sweeps, seed=seed)
    _same_sample(*sa_against_reference(model, cfg))


class _ZeroUniforms(np.random.Generator):
    """A generator whose uniforms are all exactly 0.0, so u == exp(...) when
    the exponential underflows: only a strict u < exp(-delta / T) rejects."""

    def random(self, size=None, dtype=np.float64, out=None):
        return np.zeros(size)


def test_classical_sa_matches_reference_loop_when_uniforms_tie():
    model = _ferromagnet(8, 1.0)  # uphill flips at T_low: exp(-1600) == 0.0

    def cfg():  # a fresh generator per side, since the sampler advances it
        return ising.SamplerConfig(num_samples=16, inner_sweeps=4,
                                   seed=_ZeroUniforms(np.random.PCG64(3)))

    _same_sample(ising.solve_classical_sa(model, cfg()), reference_sa(model, cfg()))


@pytest.mark.parametrize("seed", [2, 5, 8])
def test_classical_sa_matches_reference_loop_when_fields_overflow(seed, monkeypatch):
    # With one restart the local field is a BLAS dot product. Near the float
    # maximum its partial sums overflow, so only column i's summation order,
    # the reference's, makes the same decisions. The final energy overflows
    # in both, which ends each in SamplerError, so the final spins each one
    # hands to _best_sample are compared instead.
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.uniform(-1.0, 1.0, (9, 9)) * 1e308, 1)
    model = ising.IsingModel(W=upper + upper.T, h=np.zeros(9))
    cfg = ising.SamplerConfig(num_samples=1, inner_sweeps=1, seed=seed)
    final_spins = []
    best_sample = ising._best_sample

    def capture(model, spins, t0):
        final_spins.append(spins.copy())
        return best_sample(model, spins, t0)

    monkeypatch.setattr(ising, "_best_sample", capture)
    with pytest.raises(ising.SamplerError, match="no read of the n=9 model has a finite energy"):
        sa_against_reference(model, cfg)  # the kernel, with every warning an error
    with pytest.raises(ising.SamplerError, match="no read of the n=9 model has a finite energy"):
        with warnings.catch_warnings():  # the earlier loop's own overflow warnings
            warnings.simplefilter("ignore", RuntimeWarning)
            reference_sa(model, cfg)
    assert len(final_spins) == 2
    assert final_spins[0].tobytes() == final_spins[1].tobytes()


def test_best_sample_skips_nan_energies_and_raises_without_a_finite_one(monkeypatch):
    m = _model({(0, 1): 1.0}, [0.0, 0.0])
    spins = np.array([[-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0]])
    monkeypatch.setattr(ising, "batch_energies", lambda *args: np.array([np.nan, 3.0, -1.0]))
    np.testing.assert_array_equal(ising._best_sample(m, spins, 0.0).best, [1.0, -1.0])
    monkeypatch.setattr(ising, "batch_energies", lambda *args: np.array([np.nan, np.inf, np.nan]))
    with pytest.raises(ising.SamplerError, match="finite energy"):
        ising._best_sample(m, spins, 0.0)
    monkeypatch.setattr(ising, "batch_energies", lambda *args: np.array([np.nan, 3.0, -1.0]))
    monkeypatch.setattr(ising, "energy", lambda model, s: np.inf)
    with pytest.raises(ising.SamplerError, match="finite energy"):
        ising._best_sample(m, spins, 0.0)


def test_solve_random_never_beats_exact(rng):
    for trial in range(5):
        couplings, h, offset = random_model(rng, 8)
        m = _model(couplings, h, offset)
        exact = ising.solve_exact(m)
        result = ising.solve_random(m, ising.SamplerConfig(num_samples=8, seed=trial))
        assert result.best_energy >= exact.best_energy - 1e-12


def test_solve_random_degenerate_model():
    m = _model({}, [0.0, 0.0, 0.0])
    result = ising.solve_random(m, ising.SamplerConfig(num_samples=5, seed=0))
    assert result.best_energy == 0.0


def test_solve_random_deterministic(rng):
    couplings, h, offset = random_model(rng, 6)
    m = _model(couplings, h, offset)
    cfg = ising.SamplerConfig(num_samples=50, seed=123)
    a = ising.solve_random(m, cfg)
    b = ising.solve_random(m, cfg)
    np.testing.assert_array_equal(a.best, b.best)


def test_recomputation_invariant_all_backends(rng):
    couplings, h, offset = random_model(rng, 9)
    m = _model(couplings, h, offset)
    cfg = ising.SamplerConfig(num_samples=30, inner_sweeps=10, seed=5)
    for result in (
        ising.solve_exact(m),
        ising.solve_classical_sa(m, cfg),
        ising.solve_random(m, cfg),
    ):
        assert result.best_energy == pytest.approx(ising.energy(m, result.best), abs=1e-9)
        assert np.all(np.isin(result.best, (-1.0, 1.0)))


def test_exactness_dominance(rng):
    cfg = ising.SamplerConfig(num_samples=40, inner_sweeps=10, seed=2)
    for _ in range(5):
        couplings, h, offset = random_model(rng, 10)
        m = _model(couplings, h, offset)
        exact_e = ising.solve_exact(m).best_energy
        assert ising.solve_classical_sa(m, cfg).best_energy >= exact_e - 1e-9
        assert ising.solve_random(m, cfg).best_energy >= exact_e - 1e-9


def test_spin_flip_symmetry_without_fields(rng):
    couplings, _, _ = random_model(rng, 8)
    m = _model(couplings, np.zeros(8))
    for _ in range(10):
        s = rng.choice([-1.0, 1.0], size=8)
        assert ising.energy(m, s) == pytest.approx(ising.energy(m, -s), abs=1e-12)
    result = ising.solve_exact(m)
    assert ising.energy(m, -result.best) == pytest.approx(result.best_energy, abs=1e-12)


def test_offset_linearity(rng):
    couplings, h, offset = random_model(rng, 8)
    m = _model(couplings, h, offset)
    shifted = dataclasses.replace(m, offset=offset + 2.5)
    base = ising.solve_exact(m)
    moved = ising.solve_exact(shifted)
    np.testing.assert_array_equal(base.best, moved.best)
    assert moved.best_energy == pytest.approx(base.best_energy + 2.5, abs=1e-12)
    s = rng.choice([-1.0, 1.0], size=8)
    assert ising.energy(shifted, s) == pytest.approx(ising.energy(m, s) + 2.5, abs=1e-12)


def test_sampler_config_validation():
    with pytest.raises(ValueError):
        ising.SamplerConfig(num_samples=0)
    with pytest.raises(ValueError):
        ising.SamplerConfig(inner_sweeps=0)


NON_INTEGER_COUNTS = [2.5, 3.0, np.float64(3.0), True, False, "3", None]


@pytest.mark.parametrize("value", NON_INTEGER_COUNTS)
def test_sampler_config_rejects_non_integer_num_samples(value):
    with pytest.raises(ValueError, match="num_samples must be an integer"):
        ising.SamplerConfig(num_samples=value)
    assert ising.SamplerConfig(num_samples=np.int32(3)).num_samples == 3


@pytest.mark.parametrize("value", NON_INTEGER_COUNTS)
def test_sampler_config_rejects_non_integer_inner_sweeps(value):
    with pytest.raises(ValueError, match="inner_sweeps must be an integer"):
        ising.SamplerConfig(inner_sweeps=value)
    assert ising.SamplerConfig(inner_sweeps=np.int64(2)).inner_sweeps == 2


@pytest.mark.parametrize("timeout", [0.0, -1.0])
def test_sampler_config_rejects_non_positive_timeout(timeout):
    with pytest.raises(ValueError, match="timeout_s"):
        ising.SamplerConfig(timeout_s=timeout)


def test_make_sampler_unknown_backend():
    with pytest.raises(ValueError, match="unknown sampler backend"):
        ising.make_sampler("annealer9000")


def test_reseeded_sampler_sequences_are_reproducible(rng):
    couplings, h, offset = random_model(rng, 7)
    m = _model(couplings, h, offset)
    cfg = ising.SamplerConfig(num_samples=10, inner_sweeps=5, seed=31)
    s1 = ising.make_sampler("sa", cfg)
    s2 = ising.make_sampler("sa", cfg)
    first = [s1(m).best_energy for _ in range(3)]
    second = [s2(m).best_energy for _ in range(3)]
    assert first == second
