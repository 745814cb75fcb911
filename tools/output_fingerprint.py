"""Print a JSON fingerprint of qesa's deterministic outputs, timings left out.

Run it against two source trees and compare the files; a refactor that is
meant to keep behaviour must print the same bytes on both:

    PYTHONPATH=src python3 tools/output_fingerprint.py > new.json
    PYTHONPATH=/path/to/other/src python3 tools/output_fingerprint.py > old.json
    cmp old.json new.json

It covers ``run_grid`` rows (every non-timing column, ``_best_x`` and the key
order) with and without a ``reference`` cell and with jobs 1 and 2,
``to_json_dict`` of every non-external solver tag (values and key order), a
trajectory, the plot and sweep tables the CLI writes, per-call reseeding of
the stochastic samplers, the messages of the input checks, the external
sampler's wire requests, a ``qesa_external`` solve through
``tests/fake_sampler.py`` and its messages on malformed responses, and the
values and medians of the c07 solver-ordering test (about 20 s of the run).
"""
from __future__ import annotations

import contextlib
import csv
import json
import os
import shlex
import sys
import tempfile
from dataclasses import replace
from statistics import median

import numpy as np

from qesa import anneal, baselines, bench, cli, ising, qp

TAGS = ("qesa_exact", "qesa_random", "qesa_sa_exact", "sa", "projected_gradient",
        "corner_exact", "random_search", "reference")
SCHEDULE = anneal.ScheduleConfig(steps=12)
SAMPLER = ising.SamplerConfig(num_samples=12, inner_sweeps=8, seed=3)
FAST = ["--steps", "6", "--num-samples", "8", "--inner-sweeps", "6"]
FAKE_SAMPLER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests",
                            "fake_sampler.py")


def _untimed(doc: dict) -> list:
    """Items of a row or report without timings, as a list so key order shows."""
    return [[k, v] for k, v in doc.items() if k not in bench.TIMING_COLUMNS]


def grids() -> dict:
    out = {}
    for name, solvers in (("with_reference", TAGS), ("without_reference", TAGS[:-1] + ("qesa_external",))):
        grid = bench.ExperimentGrid(dims=(8, 14), diag_scales=(1.0, 20.0), seeds=(0, 1),
                                    solvers=solvers, schedule=SCHEDULE, sampler_cfg=SAMPLER)
        for jobs in (1, 2):
            rows = bench.run_grid(grid, jobs=jobs, keep_points=True)
            out[f"{name}/jobs{jobs}"] = [_untimed(r) for r in rows]
    return out


def reports() -> dict:
    inst = qp.generate(10, 5.0, 3)
    out = {tag: _untimed(bench.SOLVERS[tag](inst, SCHEDULE, 7, SAMPLER).to_json_dict())
           for tag in TAGS}
    traced = anneal.qesa_solve(inst, SCHEDULE, ising.make_sampler("random", SAMPLER), seed=2,
                               policy=anneal.DirectionPolicy(0.5, seed=1), record_trajectory=True)
    out["trajectory"] = _untimed(traced.to_json_dict())
    return out


def _read_table(path, delimiter) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh, delimiter=delimiter))
    keep = [i for i, col in enumerate(rows[0]) if col not in bench.TIMING_COLUMNS]
    return [[row[i] for i in keep] for row in rows]


def cli_tables() -> dict:
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        runs = (
            ["bench", "--dims", "6,13", "--scales", "1,20", "--seeds", "0-1",
             "--solvers", "qesa_exact,sa,random_search", "--plot-data", "-o", tmp],
            ["sweep-steps", "-n", "6", "--seeds", "0,1", "--steps-list", "2,4", "-o", tmp],
            ["sweep-p", "-n", "6", "--seeds", "0,1", "--p-list", "0,1", "--solver", "sa", "-o", tmp],
        )
        for argv in runs:
            with contextlib.redirect_stdout(sys.stderr):
                assert cli.main(argv + FAST) == 0
        for name in sorted(os.listdir(tmp)):
            out[name] = _read_table(os.path.join(tmp, name), "\t" if name.endswith(".tsv") else ",")
    return out


def reseeding() -> dict:
    model = anneal.init_ising(qp.generate(9, 1.0, 4))
    out = {}
    for backend in ("sa", "random"):
        for seed in (5, np.random.SeedSequence(5)):
            sampler = ising.make_sampler(backend, ising.SamplerConfig(num_samples=4, inner_sweeps=3, seed=seed))
            out[f"{backend}/{type(seed).__name__}"] = [
                [r.best.tolist(), r.best_energy] for r in (sampler(model) for _ in range(3))
            ]
    return out


def messages() -> dict:
    inst = qp.generate(3, 1.0, 0)
    cases = {
        "qp_nan_Q": lambda: qp.QpInstance(Q=[[np.nan]], c=[0.0]),
        "qp_inf_c": lambda: qp.QpInstance(Q=[[1.0]], c=[np.inf]),
        "ising_nan_h": lambda: ising.IsingModel(W=np.zeros((1, 1)), h=[np.nan]),
        "objective_shape": lambda: qp.objective(inst, [0.0, 0.0]),
        "gradient_shape": lambda: qp.gradient(inst, np.zeros((3, 1))),
        "direction_shape": lambda: anneal.direction_ising(inst, [0.0], 0.1),
        "direction_k": lambda: anneal.direction_ising(inst, np.zeros(3), 0.0),
        "count_float": lambda: ising.SamplerConfig(num_samples=2.0),
        "count_bool": lambda: anneal.ScheduleConfig(steps=True),
        "grid_dims": lambda: bench.ExperimentGrid(dims=(True,)),
        "grid_seeds": lambda: bench.ExperimentGrid(seeds=(np.int64(-1),)),
        "grid_scales": lambda: bench.ExperimentGrid(diag_scales=(np.inf,)),
        "grid_solvers": lambda: bench.ExperimentGrid(solvers=("sa", "warpdrive")),
        "pg_iters": lambda: bench.solve_projected_gradient(inst, iters=0),
        "pg_step": lambda: bench.solve_projected_gradient(inst, step_size=-1.0),
        "random_search_budget": lambda: bench.solve_random_search(inst, budget=1.5),
    }
    out = {}
    for name, call in cases.items():
        try:
            call()
            out[name] = None
        except Exception as exc:  # the message is the fingerprint
            out[name] = f"{type(exc).__name__}: {exc}"
    return out


def _fake(mode: str) -> str:
    """Command of ``tests/fake_sampler.py`` in the given mode."""
    return shlex.join([sys.executable, FAKE_SAMPLER, "--mode", mode])


def _replying(response: str) -> str:
    """Command of a sampler that reads the request and answers ``response``."""
    return shlex.join([sys.executable, "-c", f"import sys; sys.stdin.read(); print({response!r})"])


def external() -> dict:
    """Wire requests, a ``qesa_external`` solve through the fake sampler, and
    the adapter's messages on the fake sampler's bad modes and on malformed
    responses."""
    inst = qp.generate(10, 5.0, 3)
    x = np.random.default_rng(1).uniform(-1.0, 1.0, size=inst.n)
    out = {
        "corner_request": json.dumps(ising.model_to_request(anneal.init_ising(inst), 12)),
        "direction_request": json.dumps(ising.model_to_request(anneal.direction_ising(inst, x, 0.3), 12)),
    }
    cfg = replace(SAMPLER, command=_fake("exact"))
    out["qesa_external"] = _untimed(bench.SOLVERS["qesa_external"](inst, SCHEDULE, 7, cfg).to_json_dict())
    model = ising.IsingModel(W=[[0.0, 1.0], [1.0, 0.0]], h=[0.5, -0.5])
    commands = {mode: _fake(mode) for mode in ("allones", "ties", "zeros", "badjson", "empty", "short", "fail")}
    responses = ('[[1, -1]]', '{"result": []}', '{"samples": 5}', '{"samples": [[1, "x"]]}',
                 '{"samples": [[1, -1], [1]]}', '{"samples": [[1, -1], [[1], [-1]]]}',
                 '{"samples": [[1, -1], {"a": 1}]}', '{"samples": [[1, null]]}',
                 '{"samples": [[1, -1], [1, 2], [1]]}', '{"samples": [[1, 1], [-1, -1], [1, -1]]}')
    commands.update((response, _replying(response)) for response in responses)
    for name, command in commands.items():
        try:
            result = ising.solve_external(model, replace(cfg, command=command))
            out[name] = [result.best.tolist(), result.best_energy, result.num_samples]
        except Exception as exc:  # the message is the fingerprint
            out[name] = f"{type(exc).__name__}: {exc}"
    return out


def c07() -> dict:
    """The 80 values and the median of each solver in the c07 acceptance test."""
    schedule = anneal.ScheduleConfig()
    cfg = ising.SamplerConfig(num_samples=32, inner_sweeps=30)
    values = {"qesa_exact": [], "sa": [], "random_search": []}
    for scale in (1.0, 5.0, 10.0, 20.0):
        for seed in range(20):
            inst = qp.generate(12, scale, seed)
            values["qesa_exact"].append(
                anneal.qesa_solve(inst, schedule=schedule, sampler=ising.solve_exact, seed=seed).best_f)
            values["sa"].append(
                baselines.solve_sa_baseline(inst, schedule=schedule, seed=seed, sampler_cfg=cfg).best_f)
            values["random_search"].append(
                baselines.solve_random_search(inst, budget=schedule.steps + 1, seed=seed).best_f)
    return {name: {"median": median(v), "values": v} for name, v in values.items()}


def main() -> None:
    doc = {"grids": grids(), "reports": reports(), "cli": cli_tables(),
           "reseeding": reseeding(), "messages": messages(), "external": external(), "c07": c07()}
    json.dump(doc, sys.stdout, indent=1)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
