"""Property tests of the dense Ising models against the objective they encode."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qesa import anneal, ising, qp

from conftest import objective_oracle

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
