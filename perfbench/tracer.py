"""Outside-in span tracer for qesa.

``Tracer.install`` replaces qesa's public functions by timing wrappers at
the module attributes where qesa looks them up, for example
``qesa.anneal.direction_ising`` and ``qesa.bench.solve_exact``. Each wrapped
call records one span: name, start, end, parent span, solve id and process.
The solve id is the id of the outermost span open in that process. Spans
stay in memory; the benchmark writes them out as JSONL when the run ends.

Pool workers forked by ``qesa.bench.run_grid`` inherit the patches. A
worker has no end-of-run hook, so it appends its spans to one file per
worker whenever a cell's outermost span closes; ``collect_workers`` merges
the files back.

The paper's identities are checked from outside: ``init_ising`` and
``direction_ising`` remember the instance, point and step size of each
model they build, the sampler wrappers remember the direction each model
produced, and the checks run once the solve's outermost span has closed,
so their cost lands in no span.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import subprocess
import time
from pathlib import Path

import numpy as np

from . import checks

# n up to which every sa call is compared against the exact ground state
GROUND_CHECK_MAX_N = 16

SAMPLER_SPANS = ("ising.exact", "ising.sa", "ising.random", "ising.external")


def _sampler_work(name, args, model):
    """Work of one sampler call in the unit of its rate metric."""
    if name == "ising.exact":
        return float(2**model.n)
    if name == "ising.sa":
        cfg = args[1]
        return float(cfg.num_samples * cfg.inner_sweeps * model.n)
    if name == "ising.random":
        return float(args[1].num_samples)
    return 0.0


class Tracer:
    def __init__(self, worker_dir):
        self.worker_dir = Path(worker_dir)
        self.spans: list[dict] = []
        self.tally = checks.Tally()
        self.ground = [0, 0]  # sa calls that hit the exact ground state, sa calls checked
        self._stack: list[dict] = []
        self._pid = os.getpid()
        self._prefix = str(self._pid)
        self._ids = itertools.count()
        self._base_depth = 0
        self._root_index = 0
        self._built: dict[int, tuple] = {}  # id(model) -> (model, inst, x, k)
        self._observed: list[tuple] = []
        self._undo: list[tuple] = []
        self._paused = False  # set while the deferred checks call into qesa

    # -- spans ---------------------------------------------------------------

    def _enter_process(self):
        pid = os.getpid()
        if pid != self._pid:  # first span in a forked pool worker
            self._pid = pid
            self._prefix = f"{pid}-{time.perf_counter_ns()}"
            self._ids = itertools.count()
            self._base_depth = len(self._stack)
            self.spans = []
            self.tally = checks.Tally()
            self.ground = [0, 0]
            self._built = {}
            self._observed = []

    def wrap(self, fn, name, note=None):
        """Return ``fn`` wrapped so each call records a span called ``name``.

        ``note(span, args, result)`` runs after the span has closed and may
        add attributes to it.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            self._enter_process()
            root = len(self._stack) == self._base_depth
            span = {
                "id": f"{self._prefix}.{next(self._ids)}",
                "name": name,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "pid": self._pid,
            }
            span["solve"] = span["id"] if root else self._stack[self._base_depth]["solve"]
            if root:
                self._root_index = len(self.spans)
            self._stack.append(span)
            span["t0"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span["t1"] = time.perf_counter()
                span["error"] = True
                raise
            else:
                span["t1"] = time.perf_counter()
                if note is not None:
                    note(span, args, result)
            finally:
                self._stack.pop()
                self.spans.append(span)
                if root:
                    self._root_closed()
            return result

        return traced

    def _root_closed(self):
        self._verify(self.spans[self._root_index:])
        if self._base_depth > 0:  # a pool worker
            self._flush_worker()

    def _flush_worker(self):
        self.worker_dir.mkdir(parents=True, exist_ok=True)
        path = self.worker_dir / f"spans-{self._prefix}.jsonl"
        with open(path, "a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            fh.write(json.dumps({"tally": self.tally.counts, "ground": self.ground}) + "\n")
        self.spans = []
        self.tally = checks.Tally()
        self.ground = [0, 0]

    def collect_workers(self):
        """Merge and delete the span files pool workers wrote."""
        if not self.worker_dir.is_dir():
            return
        for path in sorted(self.worker_dir.glob("spans-*.jsonl")):
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    doc = json.loads(line)
                    if "tally" in doc:
                        self.tally.merge(checks.Tally(doc["tally"]))
                        self.ground[0] += doc["ground"][0]
                        self.ground[1] += doc["ground"][1]
                    else:
                        self.spans.append(doc)
            path.unlink()
        self.worker_dir.rmdir()

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    # -- deferred identity checks ----------------------------------------------

    def _verify(self, solve_spans):
        self._paused = True
        try:
            self._run_checks(solve_spans)
        finally:
            self._paused = False

    def _run_checks(self, solve_spans):
        for kind, *data in self._observed:
            if kind == "direction":
                checks.check_direction_identity(self.tally, *data)
            elif kind == "corner":
                checks.check_corner_identity(self.tally, *data)
            else:
                model, best_energy = data
                self.ground[1] += 1
                self.ground[0] += checks.is_ground_state(model, best_energy)
        self._observed = []
        self._built = {}
        check_solve_closure(self.tally, solve_spans)

    # -- notes -------------------------------------------------------------------

    def _note_init(self, span, args, model):
        self._built[id(model)] = (model, args[0], None, None)

    def _note_direction(self, span, args, model):
        inst, x, k = args
        self._built[id(model)] = (model, inst, np.array(x, dtype=float), float(k))

    def _note_sampler(self, span, args, result):
        model = args[0]
        name = span["name"]
        span["sampler_time"] = result.sampler_time
        span["work"] = _sampler_work(name, args, model)
        built = self._built.pop(id(model), None)
        if built is not None:
            model, inst, x, k = built
            if x is None:
                self._observed.append(("corner", model, inst, result.best))
            else:
                self._observed.append(("direction", model, inst, x, k, result.best))
        if name == "ising.sa" and model.n <= GROUND_CHECK_MAX_N:
            self._observed.append(("ground", model, result.best_energy))

    @staticmethod
    def _note_accept(span, args, accepted):
        span["accepted"] = bool(accepted)

    @staticmethod
    def _note_solve(span, args, report):
        span["wall_time_s"] = report.wall_time_s
        span["eval_count"] = report.eval_count

    def _note_compute(self, compute_s):
        span = self._stack[-1]
        span["compute_s"] = span.get("compute_s", 0.0) + compute_s

    # -- installation --------------------------------------------------------------

    def _patch(self, module_name, attr, value):
        module = importlib.import_module(module_name)
        self._undo.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def install(self):
        """Wrap qesa's public functions where qesa looks them up."""
        table = [
            (("qesa.anneal", "qesa.bench", "qesa.baselines"), "qesa_solve", "anneal.qesa_solve", self._note_solve),
            (("qesa.anneal", "qesa.baselines"), "init_ising", "anneal.init_ising", self._note_init),
            (("qesa.anneal",), "direction_ising", "anneal.direction_ising", self._note_direction),
            (("qesa.anneal",), "metropolis_accept", "anneal.metropolis_accept", self._note_accept),
            (("qesa.anneal", "qesa.bench", "qesa.baselines"), "objective", "qp.objective", None),
            (("qesa.ising",), "energy", "ising.energy", None),
            (("qesa.ising", "qesa.bench", "qesa.baselines"), "solve_exact", "ising.exact", self._note_sampler),
            (("qesa.ising",), "solve_classical_sa", "ising.sa", self._note_sampler),
            (("qesa.ising",), "solve_random", "ising.random", self._note_sampler),
            (("qesa.ising",), "solve_external", "ising.external", self._note_sampler),
            (("qesa.bench",), "solve_sa_baseline", "baselines.solve_sa_baseline", None),
            (("qesa.bench",), "solve_projected_gradient", "baselines.solve_projected_gradient", None),
            (("qesa.bench",), "solve_random_search", "baselines.solve_random_search", None),
            (("qesa.bench",), "solve_corner_exact", "baselines.solve_corner_exact", None),
            (("qesa.bench",), "reference_solution", "bench.reference_solution", None),
            (("qesa.bench",), "write_csv", "bench.write_csv", None),
            (("qesa.bench",), "run_grid", "bench.run_grid", None),
        ]
        for modules, attr, name, note in table:
            for module_name in modules:
                original = getattr(importlib.import_module(module_name), attr)
                self._patch(module_name, attr, self.wrap(original, name, note))
        self._patch("qesa.ising", "subprocess", _SubprocessProbe(self._note_compute))

    def uninstall(self):
        while self._undo:
            module, attr, value = self._undo.pop()
            setattr(module, attr, value)


class _SubprocessProbe:
    """Stands in for the ``subprocess`` module inside ``qesa.ising``.

    It forwards every call and reads the ``compute_s`` field the loop-back
    sampler adds to its reply; ``solve_external`` itself reads only
    ``samples``.
    """

    def __init__(self, on_compute):
        self._on_compute = on_compute

    def __getattr__(self, attr):
        return getattr(subprocess, attr)

    def run(self, *args, **kwargs):
        proc = subprocess.run(*args, **kwargs)
        line = next((ln for ln in proc.stdout.splitlines() if ln.strip()), "")
        try:
            compute_s = json.loads(line).get("compute_s")
        except (json.JSONDecodeError, AttributeError):
            compute_s = None
        if isinstance(compute_s, (int, float)):
            self._on_compute(float(compute_s))
        return proc


# -- span arithmetic --------------------------------------------------------------


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, end = 0.0, -np.inf
    for t0, t1 in sorted(intervals):
        if t1 <= end:
            continue
        total += t1 - max(t0, end)
        end = t1
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it that child spans cover."""
    children: dict = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["t0"], s["t1"]))
    return {
        s["id"]: (s["t1"] - s["t0"]) - _covered(children.get(s["id"], ()))
        for s in spans
    }


# self times of one solve must add up to its reported wall time within this
CLOSURE_REL_TOL = 0.02
CLOSURE_ABS_TOL_S = 1e-3


def check_solve_closure(tally, spans) -> None:
    """For each qesa_solve span: self times of its subtree sum to the report's
    wall time, and its direct ``qp.objective`` calls equal ``eval_count``."""
    solves = [s for s in spans if s["name"] == "anneal.qesa_solve" and "wall_time_s" in s]
    if not solves:
        return
    selfs = self_times(spans)
    kids: dict = {}
    for s in spans:
        kids.setdefault(s["parent"], []).append(s)
    for solve in solves:
        total, todo = 0.0, [solve]
        while todo:
            span = todo.pop()
            total += selfs[span["id"]]
            todo.extend(kids.get(span["id"], ()))
        objective_calls = sum(1 for s in kids.get(solve["id"], ()) if s["name"] == "qp.objective")
        wall = solve["wall_time_s"]
        tally.add("self_time_closure", abs(total - wall) <= CLOSURE_REL_TOL * wall + CLOSURE_ABS_TOL_S)
        tally.add("objective_calls_eq_eval_count", objective_calls == solve["eval_count"])
