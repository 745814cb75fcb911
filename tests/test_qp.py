import json

import numpy as np
import pytest

from qesa import qp

from conftest import fd_gradient, objective_oracle


def test_objective_hand_values():
    inst = qp.QpInstance(Q=[[2.0, 0.0], [0.0, 2.0]], c=[0.0, 0.0])
    assert qp.objective(inst, [1.0, 1.0]) == pytest.approx(2.0, abs=1e-12)
    inst = qp.QpInstance(Q=[[0.0, 1.0], [1.0, 0.0]], c=[1.0, -1.0])
    assert qp.objective(inst, [1.0, -1.0]) == pytest.approx(1.0, abs=1e-12)


def test_objective_matches_summation_oracle(rng):
    inst = qp.generate(8, 3.0, seed=11)
    for _ in range(20):
        x = rng.uniform(-1.0, 1.0, size=8)
        expected = objective_oracle(inst.Q, inst.c, x)
        assert qp.objective(inst, x) == pytest.approx(expected, abs=1e-12)


def test_objective_dimension_mismatch():
    inst = qp.generate(5, 1.0, seed=0)
    with pytest.raises(ValueError):
        qp.objective(inst, np.zeros(4))
    with pytest.raises(ValueError):
        qp.gradient(inst, np.zeros(6))


def test_gradient_hand_values():
    inst = qp.QpInstance(Q=[[2.0, 0.0], [0.0, 2.0]], c=[1.0, 1.0])
    np.testing.assert_allclose(qp.gradient(inst, [0.0, 0.0]), [1.0, 1.0])
    inst = qp.QpInstance(Q=[[0.0, 1.0], [1.0, 0.0]], c=[0.0, 0.0])
    np.testing.assert_allclose(qp.gradient(inst, [1.0, -1.0]), [-1.0, 1.0])


def test_gradient_matches_finite_differences(rng):
    inst = qp.generate(6, 2.0, seed=3)
    x = rng.uniform(-0.9, 0.9, size=6)
    numeric = fd_gradient(lambda y: qp.objective(inst, y), x, h=1e-6)
    np.testing.assert_allclose(qp.gradient(inst, x), numeric, atol=1e-6)


def test_generate_entry_bounds():
    inst = qp.generate(50, 1.0, seed=0)
    assert np.all(np.abs(inst.Q) <= 1.0)
    inst = qp.generate(100, 10.0, seed=1)
    off = inst.Q[~np.eye(100, dtype=bool)]
    assert np.max(np.abs(np.diag(inst.Q))) <= 10.0
    assert np.max(np.abs(off)) <= 1.0
    assert np.all(np.abs(inst.c) <= 1.0)


def test_generate_deterministic():
    a = qp.generate(3, 20.0, seed=7)
    b = qp.generate(3, 20.0, seed=7)
    assert np.array_equal(a.Q, b.Q)
    assert np.array_equal(a.c, b.c)
    assert a.meta == b.meta
    c = qp.generate(3, 20.0, seed=8)
    assert not np.array_equal(a.Q, c.Q)


def test_generate_records_meta():
    inst = qp.generate(4, 5.0, seed=9)
    assert inst.meta == {"diag_scale": 5.0, "seed": 9, "density": 1.0}


def test_generate_validation():
    with pytest.raises(ValueError):
        qp.generate(0, 1.0, seed=0)
    with pytest.raises(ValueError):
        qp.generate(3, 0.0, seed=0)


def test_generator_marginals_uniform_sanity():
    # >= 10,000 off-diagonal entries from one wide instance
    inst = qp.generate(142, 1.0, seed=5)
    off = inst.Q[np.triu_indices(142, 1)]
    assert off.size >= 10_000
    assert np.all(np.abs(off) <= 1.0)
    assert -0.05 <= float(np.mean(off)) <= 0.05


def test_symmetrization_and_bilinear_symmetry(rng):
    a = rng.normal(size=(7, 7))
    inst = qp.QpInstance(Q=a, c=np.zeros(7))
    assert not inst.was_symmetric
    np.testing.assert_allclose(inst.Q, 0.5 * (a + a.T))
    for _ in range(10):
        u = rng.normal(size=7)
        v = rng.normal(size=7)
        assert u @ inst.Q @ v == pytest.approx(v @ inst.Q @ u, abs=1e-12)


def test_objective_invariant_under_transpose(rng):
    a = rng.normal(size=(6, 6))
    c = rng.normal(size=6)
    x = rng.uniform(-1.0, 1.0, size=6)
    f1 = qp.objective(qp.QpInstance(Q=a, c=c), x)
    f2 = qp.objective(qp.QpInstance(Q=a.T, c=c), x)
    assert f1 == pytest.approx(f2, abs=1e-12)


def test_instance_is_immutable():
    inst = qp.generate(4, 1.0, seed=0)
    with pytest.raises(ValueError):
        inst.Q[0, 0] = 99.0
    with pytest.raises(ValueError):
        inst.c[0] = 99.0


def test_constructor_validation():
    with pytest.raises(ValueError):
        qp.QpInstance(Q=[[1.0, 2.0]], c=[0.0])  # not square
    with pytest.raises(ValueError):
        qp.QpInstance(Q=[[1.0, 0.0], [0.0, 1.0]], c=[0.0])  # c length


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_constructor_rejects_non_finite_entries(bad):
    q = np.eye(3)
    q[0, 2] = q[2, 0] = bad
    with pytest.raises(ValueError, match="^Q has non-finite"):
        qp.QpInstance(Q=q, c=np.zeros(3))
    with pytest.raises(ValueError, match="^c has non-finite"):
        qp.QpInstance(Q=np.eye(3), c=[0.0, bad, 0.0])


def test_batch_objective_matches_objective_per_row(rng):
    inst = qp.generate(7, 3.0, seed=4)
    points = rng.uniform(-1.0, 1.0, size=(5, 7))
    values = qp.batch_objective(inst, points)
    assert values.shape == (5,)
    for x, value in zip(points, values):
        assert value == pytest.approx(qp.objective(inst, x), abs=1e-12)


def test_save_load_round_trip_exact(tmp_path):
    inst = qp.generate(10, 5.0, seed=42)
    path = tmp_path / "inst.json"
    qp.save(inst, path)
    loaded = qp.load(path)
    assert loaded.n == inst.n
    assert np.array_equal(loaded.Q, inst.Q)
    assert np.array_equal(loaded.c, inst.c)
    assert loaded.meta == inst.meta


def test_save_is_byte_deterministic(tmp_path):
    inst = qp.generate(6, 2.0, seed=1)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    qp.save(inst, p1)
    qp.save(inst, p2)
    assert p1.read_bytes() == p2.read_bytes()


def _write_doc(tmp_path, doc, name="bad.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_load_rejects_wrong_c_length(tmp_path):
    doc = {"version": 1, "n": 2, "Q": [[1.0, 0.0], [0.0, 1.0]], "c": [0.0], "meta": None}
    with pytest.raises(qp.InstanceFormatError, match="c has length"):
        qp.load(_write_doc(tmp_path, doc))


def test_load_rejects_asymmetric_q(tmp_path):
    doc = {"version": 1, "n": 2, "Q": [[1.0, 0.5], [0.25, 1.0]], "c": [0.0, 0.0], "meta": None}
    with pytest.raises(qp.InstanceFormatError, match="not symmetric"):
        qp.load(_write_doc(tmp_path, doc))


@pytest.mark.parametrize("field", ["Q", "c"])
def test_load_rejects_non_finite_entries(tmp_path, field):
    doc = {"version": 1, "n": 2, "Q": [[1.0, 0.0], [0.0, 1.0]], "c": [0.0, 0.0], "meta": None}
    doc[field][1] = float("nan") if field == "c" else [0.0, float("nan")]
    with pytest.raises(qp.InstanceFormatError, match=f"{field} has non-finite"):
        qp.load(_write_doc(tmp_path, doc))


def test_load_rejects_missing_field_and_bad_json(tmp_path):
    doc = {"version": 1, "n": 2, "c": [0.0, 0.0]}
    with pytest.raises(qp.InstanceFormatError, match="missing field"):
        qp.load(_write_doc(tmp_path, doc))
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    with pytest.raises(qp.InstanceFormatError, match="JSON"):
        qp.load(path)


def test_load_rejects_boolean_dimension(tmp_path):
    doc = {"version": 1, "n": True, "Q": [[1.0]], "c": [0.0], "meta": None}
    with pytest.raises(qp.InstanceFormatError, match="n must be a positive integer"):
        qp.load(_write_doc(tmp_path, doc))


def test_load_rejects_unknown_version(tmp_path):
    doc = {"version": 99, "n": 1, "Q": [[1.0]], "c": [0.0], "meta": None}
    with pytest.raises(qp.InstanceFormatError, match="version"):
        qp.load(_write_doc(tmp_path, doc))


def test_load_rejects_boolean_version(tmp_path):
    # True == 1, so an equality check alone would accept it
    doc = {"version": True, "n": 1, "Q": [[1.0]], "c": [0.0], "meta": None}
    with pytest.raises(qp.InstanceFormatError, match="unsupported format version True"):
        qp.load(_write_doc(tmp_path, doc))


def test_clip_to_box():
    np.testing.assert_allclose(qp.clip_to_box([2.0, -3.0, 0.5]), [1.0, -1.0, 0.5])


def test_rescale_to_unit_box_transfers_objective(rng):
    n = 5
    a = rng.normal(size=(n, n))
    q = a + a.T
    c = rng.normal(size=n)
    lower = rng.uniform(-4.0, -1.0, size=n)
    upper = rng.uniform(1.0, 4.0, size=n)
    box = qp.rescale_to_unit_box(q, c, lower, upper)
    for _ in range(10):
        z = rng.uniform(-1.0, 1.0, size=n)
        x = box.from_unit(z)
        assert np.all(x >= lower - 1e-12) and np.all(x <= upper + 1e-12)
        direct = objective_oracle(q, c, x)
        assert qp.objective(box.instance, z) + box.offset == pytest.approx(direct, abs=1e-9)
        np.testing.assert_allclose(box.to_unit(x), z, atol=1e-12)


def test_rescale_rejects_degenerate_box():
    with pytest.raises(ValueError):
        qp.rescale_to_unit_box(np.eye(2), np.zeros(2), [0.0, 0.0], [1.0, 0.0])
