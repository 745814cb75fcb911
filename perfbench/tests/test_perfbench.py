"""Tests of the benchmark itself: tracing, checks, seeding and metric names.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""
import json
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from qesa import anneal, bench, ising, qp
from qesa.anneal import ScheduleConfig, SolveReport

from perfbench import report, workloads
from perfbench.checks import Tally, check_solution
from perfbench.tracer import CLOSURE_ABS_TOL_S, CLOSURE_REL_TOL, Tracer, self_times

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def tracer(tmp_path):
    t = Tracer(tmp_path / "workers")
    t.install()
    yield t
    t.uninstall()


def _small(name, **changes):
    return replace(workloads.WORKLOADS[name], **changes)


def _phase(solve_times, gaps):
    return workloads.Phase(solve_times, wall_s=sum(solve_times), attempted=len(solve_times),
                           failed=0, gaps=gaps, errors=[])


def test_self_times_of_one_solve_sum_to_its_wall_time(tracer):
    inst = qp.generate(10, 5.0, 0)
    report_ = anneal.qesa_solve(inst, ScheduleConfig(steps=30), ising.solve_exact, seed=0)
    selfs = self_times(tracer.spans)
    (root,) = [s for s in tracer.spans if s["parent"] is None]
    assert root["name"] == "anneal.qesa_solve"
    assert {s["solve"] for s in tracer.spans} == {root["id"]}
    wall = report_.wall_time_s
    assert abs(sum(selfs.values()) - wall) <= CLOSURE_REL_TOL * wall + CLOSURE_ABS_TOL_S
    names = {s["name"] for s in tracer.spans}
    assert {"anneal.init_ising", "anneal.direction_ising", "ising.exact", "qp.objective",
            "anneal.metropolis_accept", "ising.energy"} <= names
    counts = tracer.tally.counts
    assert counts["direction_identity"] == [30, 0]
    assert counts["corner_identity"] == [1, 0]
    assert counts["self_time_closure"] == [1, 0]
    assert counts["objective_calls_eq_eval_count"] == [1, 0]


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        {"id": "a", "parent": None, "t0": 0.0, "t1": 10.0},
        {"id": "b", "parent": "a", "t0": 1.0, "t1": 4.0},
        {"id": "c", "parent": "a", "t0": 3.0, "t1": 6.0},
        {"id": "d", "parent": "b", "t0": 2.0, "t1": 3.0},
    ]
    assert self_times(spans) == {"a": 5.0, "b": 2.0, "c": 3.0, "d": 1.0}


def test_corrupted_reports_count_as_failures():
    inst = qp.generate(8, 5.0, 3)
    x = np.full(8, 0.5)
    f = qp.objective(inst, x)
    tally = Tally()
    assert check_solution(tally, inst, x, f, start_f=f)
    assert not check_solution(tally, inst, x, f + 1e-3)
    outside = x.copy()
    outside[2] = 1.0 + 1e-6
    assert not check_solution(tally, inst, outside, qp.objective(inst, outside))
    assert not check_solution(tally, inst, x, f, start_f=f - 1.0)
    assert not check_solution(tally, inst, None, None)
    assert tally.counts["objective"] == [2, 3]
    assert tally.counts["in_box"] == [3, 2]
    assert tally.counts["not_worse_than_start"] == [1, 1]


def test_a_failed_check_counts_the_solve_as_failed(monkeypatch):
    w = _small("exact-n18", n=6, steps=3, instances=2)
    insts = w.make_instances(0)
    refs = w.references(insts, 0)
    real = anneal.qesa_solve

    def off_by_a_little(*args, **kwargs):
        r = real(*args, **kwargs)
        return SolveReport(**{**r.__dict__, "best_f": r.best_f + 1e-3})

    monkeypatch.setattr(anneal, "qesa_solve", off_by_a_little)
    phase = w.run(insts, 0, refs, 0.0, Tally(), None)
    assert phase.attempted == workloads.MIN_SOLVES
    assert phase.failed == phase.attempted


def test_same_seed_same_outputs_other_seed_other_instances():
    w = _small("exact-n18", n=6, steps=3, instances=3)
    first, again, other = (w.make_instances(s) for s in (4, 4, 5))
    assert all(np.array_equal(a.Q, b.Q) and np.array_equal(a.c, b.c) for a, b in zip(first, again))
    assert not any(np.array_equal(a.Q, b.Q) for a in first for b in other)

    def outputs():
        tally = Tally()
        phase = w.run(first, 4, w.references(first, 4), 0.0, tally, None)
        return phase.gaps, phase.attempted, phase.failed, tally.counts

    assert outputs() == outputs()
    g1, g2 = (_small("grid-n12").instance_keys(s) for s in (0, 1))
    assert not set(g1) & set(g2)


def test_loopback_sampler_reports_compute_time(tracer):
    model = anneal.init_ising(qp.generate(6, 5.0, 1))
    cfg = ising.SamplerConfig(command=workloads.LOOPBACK_COMMAND)
    result = ising.make_sampler("external", cfg)(model)
    np.testing.assert_array_equal(result.best, ising.solve_exact(model).best)
    (span,) = [s for s in tracer.spans if s["name"] == "ising.external"]
    assert 0.0 < span["compute_s"] < span["t1"] - span["t0"]


def test_pool_workers_ship_their_spans_back(tracer, tmp_path):
    grid = bench.ExperimentGrid(
        dims=(6,), diag_scales=(5.0,), seeds=(0, 1), solvers=("qesa_exact", "sa"),
        schedule=ScheduleConfig(steps=5),
        sampler_cfg=ising.SamplerConfig(num_samples=4, inner_sweeps=3),
    )
    rows = bench.run_grid(grid, out_path=tmp_path / "g.csv", jobs=2)
    tracer.collect_workers()
    assert not list((tmp_path / "workers").glob("*.jsonl"))
    (grid_span,) = [s for s in tracer.spans if s["name"] == "bench.run_grid"]
    cells = [s for s in tracer.spans if s["parent"] == grid_span["id"] and s["solve"] == s["id"]]
    assert len(cells) == len(rows) == 4
    assert all(c["pid"] != grid_span["pid"] for c in cells)
    assert tracer.tally.counts["direction_identity"][1] == 0
    assert tracer.tally.counts["direction_identity"][0] == 4 * 5
    assert tracer.ground[1] == 2 * 6  # sa: corner + 5 directions per cell


def test_every_metric_name_is_in_benchmark_json(tracer):
    end_to_end = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}

    metrics, _, derived = report.end_to_end(_phase([0.1] * 12, [0.5]), [1.0, 2.0])
    assert {k: u for k, (_, u) in metrics.items()} == end_to_end
    assert set(derived) == set(report.DERIVED)

    w = _small("exact-n18", n=6, steps=3, instances=1)
    w.solve(w.make_instances(0)[0], 0)
    layer = report.per_layer(tracer, _phase([1.0], []), _phase([1.0], []), 1)
    assert {k: u for k, (_, u) in layer.items()} == per_layer
    assert all(isinstance(v, (int, float)) for v, _ in layer.values())


def test_phase_clock_leaves_out_the_time_spent_in_pause():
    calls = []

    def pause(elapsed):
        calls.append(elapsed)
        time.sleep(0.05)
        return 0.05

    clock = workloads.PhaseClock(0.0, pause)
    assert clock.running(0) and clock.running(workloads.MIN_SOLVES - 1)
    assert not clock.running(workloads.MIN_SOLVES)
    assert len(calls) == 2 and calls[1] < 0.05
    assert clock.elapsed() < 0.05


def test_tail_is_the_highest_percentile_with_ten_solves_beyond_it():
    assert workloads.tail(list(range(40, 0, -1))) == (30, 75.0)
    with pytest.raises(ValueError):
        workloads.tail([1.0] * 10)


def test_run_refuses_a_directory_without_qesa(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact-n18", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
