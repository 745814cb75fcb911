"""One benchmark run: set-up, timed phases, metrics and output."""
from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from statistics import median

import numpy as np

from .checks import Tally
from .tracer import SAMPLER_SPANS, Tracer, self_times
from .workloads import WORKLOADS, gap_mean, tail

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBE = Path(__file__).with_name("setup_probe.py")

# set-up is measured this many times per untraced run, each in a fresh
# interpreter, at even intervals of the timed phase: the shared host's speed
# changes within seconds, and probes made back to back would all see one state
SETUP_REPEATS = 5

# Printed in the table but not in the result line. fail_frac and gap_rel.mean
# are carried there as failed/attempted and quality.mean = 1 - gap_rel.mean,
# since bounds are shares of the median and a metric must never be 0. The
# median solve time and solves/s follow the share of a run that the shared
# host spends in its fast state, which changes over minutes; the tail sits at
# the host's contended speed and is what the result line carries.
DERIVED = ("solve_s.p50", "solves_per_s", "fail_frac", "gap_rel.mean")


def machine_facts(jobs: int) -> dict:
    nproc = len(os.sched_getaffinity(0))
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas_threads = int(os.environ.get("OPENBLAS_NUM_THREADS", "0")) or None
    git_rev = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        git_rev = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qesa").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "pool_size": jobs,
        "oversubscribed": blas_threads is None or jobs * blas_threads > nproc,
        "git_rev": git_rev,
        "src_sha256": src.hexdigest(),
        "platform": platform.platform(),
    }


class SetupProbes:
    """Set-up probes spread over a timed phase of ``seconds``, used as its
    ``pause``. Each probe is the wall time of a fresh interpreter that imports
    qesa, makes the instances and runs one warm-up solve."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.argv = [sys.executable, str(SETUP_PROBE), "--workload", workload, "--seed", str(seed)]
        self.due = [seconds * i / SETUP_REPEATS for i in range(SETUP_REPEATS)]
        self.times = []

    def probe(self) -> float:
        t0 = time.perf_counter()
        subprocess.run(self.argv, check=True, cwd=ROOT)
        self.times.append(time.perf_counter() - t0)
        return self.times[-1]

    def __call__(self, elapsed: float) -> float:
        spent = 0.0
        while self.due and self.due[0] <= elapsed:
            self.due.pop(0)
            spent += self.probe()
        return spent

    def finish(self) -> list:
        """Run the probes the phase ended before; return every probe's time."""
        while self.due:
            self.due.pop(0)
            self.probe()
        return self.times


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def end_to_end(phase, setup_times) -> tuple:
    """(metrics, notes, derived): the result-line metrics, notes for the table,
    and the table-only metrics of ``DERIVED`` as (value, unit, note)."""
    tail_s, tail_pct = tail(phase.solve_times)
    gap = gap_mean(phase)
    metrics = {
        "setup_s": (median(setup_times), "s"),
        "solve_s.tail": (tail_s, "s"),
        "quality.mean": (1.0 - gap, "1"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setup_times)} fresh interpreters spread over the run",
        "solve_s.tail": f"p{tail_pct:.1f} of {len(phase.solve_times)} solves",
        "quality.mean": f"mean best_f/ref_f over {len(phase.gaps)} distinct solves",
    }
    derived = {
        "solve_s.p50": (median(phase.solve_times), "s", ""),
        "solves_per_s": (
            phase.verified / phase.wall_s,
            "1/s",
            f"{phase.verified} verified in {phase.wall_s:.2f} s",
        ),
        "fail_frac": (phase.failed / phase.attempted, "1", f"{phase.failed}/{phase.attempted}"),
        "gap_rel.mean": (gap, "1", "mean (best_f - ref_f) / |ref_f|"),
    }
    return metrics, notes, derived


def per_layer(tracer: Tracer, phase, base, jobs: int) -> dict:
    """Per-layer metrics from the traced phase's spans.

    ``.s`` is the total duration of a layer's spans (children included);
    ``anneal.loop.self_s`` is what ``qesa_solve`` spends outside its children.
    """
    spans = tracer.spans
    total: dict = defaultdict(float)
    calls: Counter = Counter()
    for s in spans:
        total[s["name"]] += s["t1"] - s["t0"]
        calls[s["name"]] += 1
    selfs = self_times(spans)
    by_id = {s["id"]: s for s in spans}

    def share(num, den):
        return num / den if den > 0 else 0.0

    def of(name, key):
        return float(sum(s.get(key, 0.0) for s in spans if s["name"] == name))

    m = {}
    for name in ("anneal.direction_ising", "anneal.metropolis_accept", "qp.objective", "ising.energy"):
        m[f"{name}.s"] = (total[name], "s")
        m[f"{name}.calls"] = (calls[name], "count")
    m["anneal.direction_ising.us_per_call"] = (
        1e6 * share(total["anneal.direction_ising"], calls["anneal.direction_ising"]),
        "us",
    )
    m["anneal.init_ising.s"] = (total["anneal.init_ising"], "s")
    m["anneal.loop.self_s"] = (
        sum(selfs[s["id"]] for s in spans if s["name"] == "anneal.qesa_solve"),
        "s",
    )
    accepted = sum(1 for s in spans if s.get("accepted"))
    m["anneal.accept_ratio"] = (share(accepted, calls["anneal.metropolis_accept"]), "1")
    for name, rate, unit in (
        ("ising.exact", "states_per_s", "1/s"),
        ("ising.sa", "spin_updates_per_s", "1/s"),
        ("ising.random", "reads_per_s", "1/s"),
        ("ising.external", None, None),
    ):
        m[f"{name}.s"] = (total[name], "s")
        m[f"{name}.calls"] = (calls[name], "count")
        if rate:
            m[f"{name}.{rate}"] = (share(of(name, "work"), total[name]), unit)
    m["ising.sa.ground_hit_ratio"] = (share(*tracer.ground), "1")
    compute_s = of("ising.external", "compute_s")
    m["ising.external.compute_s"] = (compute_s, "s")
    m["ising.external.spawn_s"] = (total["ising.external"] - compute_s, "s")
    m["ising.external.errors"] = (
        sum(1 for s in spans if s["name"] == "ising.external" and s.get("error")),
        "count",
    )
    m["ising.sampler.overhead_s"] = (
        sum(
            s["t1"] - s["t0"] - s["sampler_time"]
            for s in spans
            if s["name"] in SAMPLER_SPANS and "sampler_time" in s
        ),
        "s",
    )
    for name in ("solve_sa_baseline", "solve_projected_gradient", "solve_random_search"):
        m[f"baselines.{name}.s"] = (total[f"baselines.{name}"], "s")
    for name in ("run_grid", "reference_solution", "write_csv"):
        m[f"bench.{name}.s"] = (total[f"bench.{name}"], "s")

    # a solve is an outermost span of its process; in a pool worker it is one grid cell
    roots = [s for s in spans if s["solve"] == s["id"] and s["name"] != "bench.run_grid"]
    solve_wall = sum(s["t1"] - s["t0"] for s in roots)
    cells = [s for s in roots if by_id.get(s["parent"], {}).get("name") == "bench.run_grid"]
    m["bench.pool.busy_frac"] = (
        share(sum(s["t1"] - s["t0"] for s in cells), jobs * total["bench.run_grid"]),
        "1",
    )
    m["bench.pool.wait_s"] = (
        share(sum(s["t0"] - by_id[s["parent"]]["t0"] for s in cells), len(cells)),
        "s",
    )
    m["trace.solve_wall_s"] = (solve_wall, "s")
    m["trace.spans"] = (len(spans), "count")
    m["trace.overhead_frac"] = (
        share(base.verified / base.wall_s, phase.verified / phase.wall_s) - 1.0,
        "1",
    )
    return m


def layer_shares(metrics: dict) -> list:
    """(layer, share of solve wall) for the layers the workloads are built around."""
    wall = metrics["trace.solve_wall_s"][0]
    names = (
        "ising.exact.s",
        "ising.sa.s",
        "ising.random.s",
        "ising.external.s",
        "ising.external.spawn_s",
        "anneal.direction_ising.s",
        "anneal.loop.self_s",
        "qp.objective.s",
        "ising.energy.s",
        "bench.reference_solution.s",
    )
    return [(name, metrics[name][0] / wall if wall > 0 else 0.0) for name in names]


def print_table(title, metrics, notes=None, derived=None):
    notes = notes or {}
    print(title)
    for name, (value, unit) in metrics.items():
        note = notes.get(name, "")
        print(f"  {name:36s} {value:14.6g} {unit:6s} {note}")
    for name, (value, unit, note) in (derived or {}).items():
        print(f"  {name:36s} {value:14.6g} {unit:6s} {note}")


def run(name: str, seed: int, seconds: float, traced: bool, out_dir: Path) -> dict:
    workload = WORKLOADS[name]
    out_dir.mkdir(parents=True, exist_ok=True)
    facts = machine_facts(workload.jobs)
    if facts["oversubscribed"]:
        print(
            f"WARNING: {workload.jobs} workers x {facts['blas_threads']} BLAS threads "
            f"exceeds nproc={facts['nproc']}; timings are not comparable",
            file=sys.stderr,
        )
    insts = workload.make_instances(seed)
    workload.warm_up(insts, seed)
    refs = workload.references(insts, seed)
    tally = Tally()

    if not traced:
        probes = SetupProbes(name, seed, seconds)
        phase = workload.run(insts, seed, refs, seconds, tally, out_dir, pause=probes)
        attempted, failed = phase.attempted, phase.failed
        metrics, notes, derived = end_to_end(phase, probes.finish())
        print_table(f"{name} seed={seed} end-to-end", metrics, notes, derived)
        errors = phase.errors
    else:
        base = workload.run(insts, seed, refs, seconds / 2, tally, out_dir)
        tracer = Tracer(out_dir / f"workers-{os.getpid()}")
        tracer.install()
        try:
            phase = workload.run(insts, seed, refs, seconds / 2, tally, out_dir)
        finally:
            tracer.uninstall()
        tracer.collect_workers()
        tally.merge(tracer.tally)
        attempted, failed = base.attempted + phase.attempted, base.failed + phase.failed
        metrics = per_layer(tracer, phase, base, workload.jobs)
        print_table(f"{name} seed={seed} per-layer (traced)", metrics)
        print("share of solve wall")
        for layer, frac in layer_shares(metrics):
            print(f"  {layer:36s} {100 * frac:7.2f} %")
        tracer.write_jsonl(out_dir / f"{name}-seed{seed}.spans.jsonl")
        errors = base.errors + phase.errors
        derived = {}

    print("checks (passed, failed): " + json.dumps(tally.counts, sort_keys=True))
    for line in errors[:5]:
        print(f"error: {line}", file=sys.stderr)
    print("facts: " + json.dumps(facts, sort_keys=True))
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "facts": facts,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "derived": {k: {"value": v, "unit": u} for k, (v, u, _) in derived.items()},
        "checks": tally.counts,
        "errors": errors,
        "solve_times": phase.solve_times,
    }
    with open(out_dir / f"{name}-seed{seed}-trace{int(traced)}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return {
        "correct": failed == 0 and tally.failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }
