"""Result checks the benchmark counts.

Every check ends as passed or failed; none is skipped. A solve that fails
any check counts toward ``fail_frac``. The functions bound here are the
untraced originals: the tracer patches qesa's module attributes only after
this module has been imported.
"""
from __future__ import annotations

import numpy as np

from qesa.ising import energy, solve_exact
from qesa.qp import objective

# relative tolerance of every float comparison: tol = REL_TOL * (1 + |scale|)
REL_TOL = 1e-9


def close(a: float, b: float, scale: float) -> bool:
    return abs(a - b) <= REL_TOL * (1.0 + abs(scale))


class Tally:
    """Passed and failed counts per check name."""

    def __init__(self, counts: dict | None = None):
        self.counts = {name: list(pf) for name, pf in (counts or {}).items()}

    def add(self, name: str, ok: bool) -> bool:
        entry = self.counts.setdefault(name, [0, 0])
        entry[0 if ok else 1] += 1
        return ok

    def merge(self, other: "Tally") -> None:
        for name, (passed, failed) in other.counts.items():
            entry = self.counts.setdefault(name, [0, 0])
            entry[0] += passed
            entry[1] += failed

    @property
    def failed(self) -> int:
        return sum(f for _, f in self.counts.values())


def check_solution(tally: Tally, inst, best_x, best_f, start_f=None) -> bool:
    """Check one reported solution; return True when every check passed.

    ``best_x`` must lie in [-1, 1]^n and reproduce ``best_f`` through the
    objective. With ``start_f`` (the objective at the solve's starting
    corner), ``best_f`` must not exceed it.
    """
    x = np.asarray(best_x, dtype=float) if best_x is not None else np.empty(0)
    in_box = x.shape == (inst.n,) and bool(np.all(np.abs(x) <= 1.0))
    ok = tally.add("in_box", in_box)
    matches = in_box and best_f is not None and close(objective(inst, x), best_f, best_f)
    ok = tally.add("objective", matches) and ok
    if start_f is not None:
        ok = tally.add("not_worse_than_start", best_f is not None and best_f <= start_f) and ok
    return ok


def check_direction_identity(tally: Tally, model, inst, x, k, spins) -> bool:
    """energy(direction model, s) == f(x + k s) - f(x) for the sampled s."""
    s = np.asarray(spins, dtype=float)
    f_x = objective(inst, x)
    f_step = objective(inst, x + k * s)
    return tally.add(
        "direction_identity",
        close(energy(model, s), f_step - f_x, abs(f_step) + abs(f_x)),
    )


def check_corner_identity(tally: Tally, model, inst, spins) -> bool:
    """energy(corner model, s) == f(s) for the sampled corner s."""
    s = np.asarray(spins, dtype=float)
    f_s = objective(inst, s)
    return tally.add("corner_identity", close(energy(model, s), f_s, f_s))


def is_ground_state(model, best_energy: float) -> bool:
    """Whether a sampler's reported best energy equals the exact ground energy."""
    ground = solve_exact(model).best_energy
    return best_energy <= ground + REL_TOL * (1.0 + abs(ground))
