"""Property tests of the dense Ising models against the objective they encode,
of the exact sampler against an independent enumerator, and of the box."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qesa import anneal, ising, qp

from conftest import enumerate_ground_state, objective_oracle

coefficient = st.floats(-10.0, 10.0, allow_nan=False)
unit = st.floats(-1.0, 1.0, allow_nan=False)
spin = st.sampled_from([-1.0, 1.0])


@st.composite
def instances(draw, max_n=8):
    n = draw(st.integers(1, max_n))
    upper = draw(st.lists(coefficient, min_size=n * n, max_size=n * n))
    q = np.triu(np.reshape(upper, (n, n)))
    q = q + np.triu(q, 1).T
    c = draw(st.lists(coefficient, min_size=n, max_size=n))
    return qp.QpInstance(Q=q, c=c)


def _close(a, b, scale):
    return a == pytest.approx(b, abs=1e-9 * (1.0 + abs(scale)))


@settings(deadline=None)
@given(st.data())
def test_direction_energy_equals_objective_change(data):
    inst = data.draw(instances())
    n = inst.n
    x = np.array(data.draw(st.lists(unit, min_size=n, max_size=n)))
    k = data.draw(st.floats(1e-3, 2.0))
    s = np.array(data.draw(st.lists(spin, min_size=n, max_size=n)))
    f_x = objective_oracle(inst.Q, inst.c, x)
    f_step = objective_oracle(inst.Q, inst.c, x + k * s)
    e = ising.energy(anneal.direction_ising(inst, x, k), s)
    assert _close(e, f_step - f_x, abs(f_step) + abs(f_x))


@settings(deadline=None)
@given(st.data())
def test_corner_energy_equals_objective(data):
    inst = data.draw(instances())
    s = np.array(data.draw(st.lists(spin, min_size=inst.n, max_size=inst.n)))
    f_s = objective_oracle(inst.Q, inst.c, s)
    assert _close(ising.energy(anneal.init_ising(inst), s), f_s, f_s)


@st.composite
def coupling_dicts(draw, max_n=8):
    n = draw(st.integers(1, max_n))
    keys = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(keys), unique=True)) if keys else []
    values = st.floats(-1e6, 1e6, allow_nan=False)
    couplings = {key: draw(values) for key in chosen}
    h = draw(st.lists(values, min_size=n, max_size=n))
    return n, couplings, h


@settings(deadline=None)
@given(coupling_dicts())
def test_couplings_round_trip_through_view_and_wire(case):
    n, couplings, h = case
    model = ising.IsingModel.from_couplings(n, couplings, h)
    assert model.J == {key: v for key, v in couplings.items() if v != 0.0}
    again = ising.IsingModel.from_couplings(n, model.J, model.h)
    wired = ising.model_from_request(ising.model_to_request(model, 1))
    for other in (again, wired):
        assert other.J == model.J
        np.testing.assert_array_equal(other.W, model.W)
        np.testing.assert_array_equal(other.h, model.h)


@st.composite
def small_integer_models(draw, max_n=10):
    """Models with small integer coefficients, so equal energies tie exactly."""
    n = draw(st.integers(1, max_n))
    small = st.integers(-2, 2).map(float)
    couplings = {(i, j): draw(small) for i in range(n) for j in range(i + 1, n)}
    h = draw(st.lists(small, min_size=n, max_size=n))
    return couplings, h, draw(small)


@st.composite
def partly_dominated_models(draw, max_n=10):
    """Small integer models where some fields are redrawn to outweigh their
    row's couplings: |h_i| = sum_j |W_ij| + extra, with extra 0 (a tie, not
    dominated), 1 or 2."""
    couplings, h, offset = draw(small_integer_models(max_n))
    n = len(h)
    w = np.zeros((n, n))
    for (i, j), value in couplings.items():
        w[i, j] = w[j, i] = value
    for i in range(n):
        if draw(st.booleans()):
            extra = draw(st.integers(0, 2))
            h[i] = draw(st.sampled_from([-1.0, 1.0])) * (np.abs(w[i]).sum() + extra)
    return couplings, h, offset


@settings(deadline=None, max_examples=100)
@given(partly_dominated_models())
# |h_i| = sum_j |W_ij| with h_i < 0: the first ground state (-1, +1) has s_0 = -1,
# so fixing a tied spin to -sign(h_i) = +1 would return the later (+1, +1)
@example(({(0, 1): 1.0}, [-1.0, -1.0], 0.0))
def test_solve_exact_returns_the_first_ground_state(case):
    # n from 1 to 10 covers both even and odd splits into the two half-tables;
    # the dominated spins are fixed first, the others enumerated
    couplings, h, offset = case
    result = ising.solve_exact(ising.IsingModel.from_couplings(len(h), couplings, h, offset))
    oracle_s, oracle_e = enumerate_ground_state(couplings, h, offset)
    np.testing.assert_array_equal(result.best, oracle_s)
    assert result.best_energy == oracle_e
    assert result.num_samples == 2 ** len(h)


@settings(deadline=None)
@given(st.data())
def test_rescale_to_unit_box_round_trip(data):
    inst = data.draw(instances())
    n = inst.n
    lower = np.array(data.draw(st.lists(coefficient, min_size=n, max_size=n)))
    width = np.array(data.draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n)))
    box = qp.rescale_to_unit_box(inst.Q, inst.c, lower, lower + width)
    z = np.array(data.draw(st.lists(unit, min_size=n, max_size=n)))
    x = box.from_unit(z)
    f_x = objective_oracle(inst.Q, inst.c, x)
    f_unit = qp.objective(box.instance, z) + box.offset
    # |x| <= 20, so |f(x)| <= 0.5 * sum|Q| * 20^2 + sum|c| * 20
    assert _close(f_unit, f_x, np.abs(inst.Q).sum() * 200.0 + np.abs(inst.c).sum() * 20.0)
    np.testing.assert_allclose(box.to_unit(x), z, atol=1e-12)


@settings(deadline=None)
@given(st.data())
def test_clipped_proposal_stays_in_the_box(data):
    n = data.draw(st.integers(1, 8))
    x = np.array(data.draw(st.lists(unit, min_size=n, max_size=n)))
    s = np.array(data.draw(st.lists(unit, min_size=n, max_size=n)))
    k = data.draw(st.floats(0.0, 100.0))
    proposal = np.clip(x + k * s, -1.0, 1.0)
    assert np.all((proposal >= -1.0) & (proposal <= 1.0))
    np.testing.assert_array_equal(proposal, qp.clip_to_box(x + k * s))
    inside = np.abs(x + k * s) <= 1.0
    np.testing.assert_array_equal(proposal[inside], (x + k * s)[inside])


@settings(deadline=None, max_examples=30)
@given(st.data())
def test_perturbed_solve_stays_in_the_box(data):
    # the perturbation policy draws direction entries anywhere in [-1, 1]
    inst = data.draw(instances())
    policy = anneal.DirectionPolicy(
        retain_probability=data.draw(st.floats(0.0, 1.0)), seed=data.draw(st.integers(0, 99))
    )
    schedule = anneal.ScheduleConfig(steps=5, k0=data.draw(st.floats(0.01, 5.0)))
    report = anneal.qesa_solve(inst, schedule=schedule, sampler=ising.solve_exact, policy=policy)
    for point in (report.final_x, report.best_x):
        assert np.all((np.asarray(point) >= -1.0) & (np.asarray(point) <= 1.0))
