"""Ising models and interchangeable ground-state samplers.

The canonical energy is E(s) = sum_{i<j} J_ij s_i s_j + sum_i h_i s_i + offset
over spins s_i in {-1, +1}. Models hold the couplings as one dense symmetric
zero-diagonal matrix W (W_ij = W_ji = J_ij), so E(s) = 0.5 s.W.s + h.s +
offset; the (i, j) -> J_ij dict form appears only in
``IsingModel.from_couplings``, the read-only ``IsingModel.J`` view and the
external-sampler wire format. The offset carries constants dropped when a
quadratic objective is reduced to this form, so sampler energies stay
directly comparable to objective deltas.

Backends:
  * ``solve_exact``       dominance fixing, then meet-in-the-middle
                           enumeration of the m spins left free (hard cap on
                           m): O(2^m) with no factor of m, ties to the
                           lexicographically first state,
  * ``solve_classical_sa`` restarted single-spin-flip Metropolis annealing,
  * ``solve_random``       best of uniform random configurations,
  * ``solve_external``     one-shot JSON-lines subprocess adapter.

Every backend recomputes the energy of its winning configuration with the
local ``energy`` function; reported energies are never trusted.
"""
from __future__ import annotations

import json
import math
import os
import shlex
import subprocess
import time
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Optional

import numpy as np

ENV_EXTERNAL_SAMPLER = "QESA_EXTERNAL_SAMPLER"
EXACT_SIZE_CAP = 24

# classical annealer temperature window, relative to the largest |J|, |h|
SA_T_HIGH_FACTOR = 10.0
SA_T_LOW_FACTOR = 0.01


class SamplerError(RuntimeError):
    """Base class for sampler backend failures."""


class ExternalSamplerError(SamplerError):
    """Base class for failures of the external subprocess backend."""


class SamplerLaunchError(ExternalSamplerError):
    """The external sampler process could not be started."""


class SamplerTimeoutError(ExternalSamplerError):
    """The external sampler did not answer within the configured timeout."""


class SamplerProtocolError(ExternalSamplerError):
    """The external sampler produced a malformed or failed response."""


class InvalidSpinError(ExternalSamplerError):
    """The external sampler returned values outside {-1, +1}."""


def readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def check_finite(name: str, a) -> None:
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} has non-finite entries (NaN or inf)")


@dataclass(frozen=True, eq=False)
class IsingModel:
    """Dense couplings W (symmetric, zero diagonal), fields h, constant offset.

    ``W[i, j] == W[j, i] == J_ij``, so the energy is 0.5 * s.W.s + h.s +
    offset. W and h are stored read-only. The sparse (i, j) -> J_ij form
    exists only at the edges: ``from_couplings`` builds a model from it, the
    ``J`` view reads it back, and the external-sampler wire format uses it.
    """

    W: np.ndarray
    h: np.ndarray
    offset: float = 0.0

    def __post_init__(self):
        h = np.array(self.h, dtype=float)
        if h.ndim != 1 or h.shape[0] < 1:
            raise ValueError(f"h must be a non-empty vector, got shape {h.shape}")
        n = h.shape[0]
        w = np.array(self.W, dtype=float)
        if w.shape != (n, n):
            raise ValueError(f"W has shape {w.shape}, expected ({n}, {n})")
        check_finite("W", w)
        check_finite("h", h)
        check_finite("offset", self.offset)
        if not np.array_equal(w, w.T):
            raise ValueError("W must be symmetric")
        if np.any(np.diagonal(w) != 0.0):
            raise ValueError("W must have a zero diagonal")
        object.__setattr__(self, "W", readonly(w))
        object.__setattr__(self, "h", readonly(h))
        object.__setattr__(self, "offset", float(self.offset))

    @classmethod
    def _trusted(cls, w: np.ndarray, h: np.ndarray, offset: float) -> "IsingModel":
        """Model from fresh float arrays whose caller guarantees every check of
        the public constructor: w symmetric with a zero diagonal, everything
        finite. No copy and no check; w and h are made read-only in place."""
        model = object.__new__(cls)
        model.__dict__.update(W=readonly(w), h=readonly(h), offset=float(offset))
        return model

    @classmethod
    def from_couplings(cls, n: int, J: dict, h, offset: float = 0.0) -> "IsingModel":
        """Model from upper-triangular couplings {(i, j): J_ij} with 0 <= i < j < n."""
        if int(n) != n or n < 1:
            raise ValueError(f"n must be a positive integer, got {n!r}")
        n = int(n)
        w = np.zeros((n, n))
        for key, value in J.items():
            i, j = int(key[0]), int(key[1])
            if not (0 <= i < j < n):
                raise ValueError(f"coupling key {key!r} violates 0 <= i < j < n={n}")
            w[i, j] = w[j, i] = value
        h = np.asarray(h, dtype=float)
        if h.shape != (n,):
            raise ValueError(f"h has shape {h.shape}, expected ({n},)")
        return cls(W=w, h=h, offset=offset)

    @property
    def n(self) -> int:
        return self.h.shape[0]

    @cached_property
    def J(self) -> MappingProxyType:
        """Read-only {(i, j): J_ij} view of the nonzero couplings, i < j."""
        iu, ju = np.nonzero(np.triu(self.W, 1))
        return MappingProxyType(
            {(int(i), int(j)): float(self.W[i, j]) for i, j in zip(iu, ju)}
        )

    def max_abs_coefficient(self) -> float:
        return max(float(np.max(np.abs(self.W))), float(np.max(np.abs(self.h))))


@dataclass(frozen=True)
class SampleResult:
    """Best configuration found by a sampler, with locally recomputed energy."""

    best: np.ndarray
    best_energy: float
    num_samples: int
    sampler_time: float


def is_integer(value) -> bool:
    """True for Python and numpy ints; bools are not integers here."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_count(name: str, value) -> None:
    """Raise ValueError unless ``value`` is an integer (see ``is_integer``) >= 1."""
    if not is_integer(value) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


@dataclass(frozen=True)
class SamplerConfig:
    """Shared sampler knobs.

    ``inner_sweeps`` only applies to the classical annealer; it is this
    package's stand-in for hardware anneal duration, which has no classical
    equivalent. ``command`` and ``timeout_s`` only apply to the external
    backend.
    """

    num_samples: int = 1000
    inner_sweeps: int = 100
    seed: object = None
    command: Optional[str] = None
    timeout_s: float = 60.0

    def __post_init__(self):
        check_count("num_samples", self.num_samples)
        check_count("inner_sweeps", self.inner_sweeps)
        if not self.timeout_s > 0:
            raise ValueError(f"timeout_s must be > 0, got {self.timeout_s}")


def energy(model: IsingModel, spins) -> float:
    """Evaluate E(s) = sum_{i<j} J_ij s_i s_j + h.s + offset."""
    s = np.asarray(spins, dtype=float)
    if s.shape != (model.n,):
        raise ValueError(f"spin vector has shape {s.shape}, expected ({model.n},)")
    return float(0.5 * (s @ (model.W @ s)) + model.h @ s + model.offset)


def batch_energies(spins: np.ndarray, w: np.ndarray, h: np.ndarray, offset: float = 0.0):
    """Energy of each row of ``spins`` under couplings w, fields h and offset."""
    return 0.5 * np.einsum("ri,ri->r", spins @ w, spins) + spins @ h + offset


def _best_sample(model: IsingModel, spins: np.ndarray, t0: float) -> SampleResult:
    """The lowest-energy row of ``spins`` (the first wins ties), energy recomputed.

    Energies that overflow are compared as they come out, NaN counting as
    +inf as in ``solve_exact``; if no row has a finite energy, or the winner's
    recomputed energy is not finite, the model is out of float range and
    SamplerError is raised.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        energies = batch_energies(spins, model.W, model.h, model.offset)
        energies[np.isnan(energies)] = np.inf
        best = spins[int(np.argmin(energies))].copy()
        best_energy = energy(model, best)
    if energies.min() == np.inf or not math.isfinite(best_energy):
        raise SamplerError(
            f"no read of the n={model.n} model has a finite energy "
            "(the energies overflow or are NaN)"
        )
    return SampleResult(
        best=best,
        best_energy=best_energy,
        num_samples=spins.shape[0],
        sampler_time=time.perf_counter() - t0,
    )


@lru_cache(maxsize=16)
def _spin_table(n: int) -> np.ndarray:
    """All 2^n spin vectors in lexicographic order (-1 before +1); row i spells i in binary."""
    bits = np.arange(1 << n)[:, None] >> np.arange(n - 1, -1, -1)
    table = np.where(bits & 1 == 1, 1.0, -1.0)
    return readonly(table)


def _energy_blocks(w: np.ndarray, h: np.ndarray, offset: float, max_entries: int = 1 << 20):
    """Energies of all 2^n states as row blocks of E[a, b] over (S_A[a], S_B[b]).

    E[a, b] = qA[a] + qB[b] + (S_A W_AB S_B^T)[a, b], with each half's own
    terms in qA and qB (qB also holds the offset). Flattened in order, the
    blocks list the states in lexicographic order.
    """
    na = h.shape[0] // 2
    sa, sb = _spin_table(na), _spin_table(h.shape[0] - na)
    qa = batch_energies(sa, w[:na, :na], h[:na])
    qb = batch_energies(sb, w[na:, na:], h[na:], offset)
    # one product per block: [S_A W_AB, qA, 1] . [S_B, 1, qB]^T
    left = np.column_stack((sa @ w[:na, na:], qa, np.ones_like(qa)))
    right = np.column_stack((sb, np.ones_like(qb), qb)).T
    rows = max(1, max_entries // qb.shape[0])
    for start in range(0, qa.shape[0], rows):
        yield left[start : start + rows] @ right


def _fix_dominated(model: IsingModel):
    """(s, field): s_i = -sign(field_i) where |field_i| > sum over free j of
    |W_ij|, which holds in every ground state, and 0 on free spins; a fixed
    spin's couplings join the fields, and fixing repeats until nothing changes."""
    absw = np.abs(model.W)
    s = np.zeros(model.n)
    field = model.h
    newly = np.abs(field) > absw.sum(1)
    while newly.any():
        s[newly] = -np.sign(field[newly])
        free = s == 0.0
        if not free.any():
            break
        field = model.h + model.W @ s
        newly = free & (np.abs(field) > absw @ free)
    return s, field


def solve_exact(model: IsingModel, size_cap: int = EXACT_SIZE_CAP) -> SampleResult:
    """Exact ground state: dominance fixing, then meet-in-the-middle enumeration.

    Spins whose field dominates their couplings are fixed first (the
    simplest persistency rule of Hammer, Hansen and Simeone, Math.
    Programming 28, 1984). They take those values in every ground state, so
    enumerating only the m free spins, in index order, finds the same
    lexicographically first ground state as enumerating all n. The free
    spins split into A (the first m//2) and B; their 2^m energies come from
    two cached half-tables and the cross term S_A W_AB S_B^T, one matrix
    product per block of at most 2^20 entries (8 MB). NaN counts as +inf.
    Ties go to the first state (-1 before +1): row-major (a, b) order is
    lexicographic, each block's argmin takes its first minimum, and a later
    block must be strictly lower. Refuses more than ``size_cap`` free spins
    (exponential blow-up guard); the corner model usually fixes none, so the
    ``qesa_sa_exact`` solver tag pairs exact steps with an ``sa`` corner.
    ``num_samples`` is nominal: 2^n.
    """
    t0 = time.perf_counter()
    s, field = _fix_dominated(model)
    free = np.flatnonzero(s == 0.0)
    m = free.size
    if m > size_cap:
        raise ValueError(
            f"solve_exact enumerates the 2^m states of the spins that dominance "
            f"fixing leaves free; m={m} of n={model.n} exceeds the cap of "
            f"{size_cap} (raise size_cap explicitly if you really mean it)"
        )
    if m:
        w = model.W if m == model.n else model.W[np.ix_(free, free)]
        best_e, best_i, start = np.inf, None, 0
        for block in _energy_blocks(w, field[free], model.offset):
            i = int(np.argmin(block))
            if np.isnan(block.flat[i]):  # argmin stops at the first NaN
                block[np.isnan(block)] = np.inf
                i = int(np.argmin(block))
            if block.flat[i] < best_e:
                best_e, best_i = float(block.flat[i]), start + i
            start += block.size
        if best_i is None:
            raise SamplerError(
                f"no state of the n={model.n} model ({m} free spins) has an energy "
                "below +inf (every energy is NaN or overflows)"
            )
        nb = m - m // 2  # best_i is the lexicographic index of the free spins' state
        a, b = divmod(best_i, 1 << nb)
        s[free] = np.concatenate((_spin_table(m // 2)[a], _spin_table(nb)[b]))
    return SampleResult(
        best=s,
        best_energy=energy(model, s),
        num_samples=1 << model.n,
        sampler_time=time.perf_counter() - t0,
    )


def solve_classical_sa(model: IsingModel, cfg: SamplerConfig) -> SampleResult:
    """Restarted single-spin-flip Metropolis annealing.

    Runs ``num_samples`` independent restarts (vectorized across restarts),
    each doing ``inner_sweeps`` full sweeps under a geometric temperature
    decay from 10x to 0.01x the largest coefficient magnitude, and returns
    the best final configuration. Deterministic given ``cfg.seed``.

    Each sweep draws its uniforms as one (n, restarts) block; a Generator
    fills it in stream order, so row i holds exactly what a per-spin
    ``rng.random(restarts)`` call would return. Per-call overhead sets the
    cost, so a spin update is nine ``out=`` calls on preallocated buffers,
    with h[i] and -T as 0-d arrays (a scalar operand costs ~0.2 us more), in
    the float order of delta = (s_i * -2) * (spins @ W[:, i] + h[i]). On
    2,000 random cases ``np.dot(spins, W[:, i], out)`` matched that product
    bit for bit; the contiguous row W[i] differed on 240, all single-restart
    BLAS dot products. Spin i flips where u < exp(-delta / T): for delta <= 0
    that exponential is at least 1 > u, so no ``maximum`` clamp or separate
    downhill test is needed, and an exponential that overflows to inf also
    accepts. The flip is a masked ``copyto``: numpy 2.4's
    ``negative(col, out=col, where=...)`` skips entries of a strided column
    when a row is 64 bytes (n = 8).

    A temperature that underflows to 0 or overflows (largest coefficient
    below about 1e-306 or above about 1e307) would make delta / -T a NaN for
    delta = 0 or delta = -inf. Such a sweep flips where delta <= 0, or where
    delta < inf at T = inf, as Metropolis with that T accepts.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(cfg.seed)
    n, restarts = model.n, cfg.num_samples
    spins = rng.integers(0, 2, size=(restarts, n)).astype(float) * 2.0 - 1.0
    scale = model.max_abs_coefficient()
    if scale > 0.0:
        w, h = model.W, model.h
        t_high = SA_T_HIGH_FACTOR * scale
        t_low = SA_T_LOW_FACTOR * scale
        sweeps = cfg.inner_sweeps
        ratio = (t_low / t_high) ** (1.0 / (sweeps - 1)) if sweeps > 1 else 1.0
        views = [(spins[:, i], w[:, i], h[i, ...]) for i in range(n)]
        field, x, negated, flip = (np.empty(restarts, t) for t in (float, float, float, bool))
        with np.errstate(over="ignore"):
            for sweep in range(sweeps):
                temp = t_high * ratio**sweep
                proper, neg_temp = 0.0 < temp < math.inf, np.array(-temp)
                for u_i, (col, w_i, h_i) in zip(rng.random((n, restarts)), views):
                    np.dot(spins, w_i, field)
                    np.add(field, h_i, field)
                    np.negative(col, negated)
                    np.add(negated, negated, x)  # col * -2.0, exactly: spins are +-1
                    np.multiply(x, field, x)  # delta of flipping spin i
                    if proper:
                        np.divide(x, neg_temp, x)
                        np.exp(x, x)
                        np.less(u_i, x, flip)
                    else:  # T is 0, inf or NaN: the rule's limit, with no 0/0 or inf/inf
                        flip[:] = x < math.inf if temp == math.inf else x <= 0.0
                    np.copyto(col, negated, where=flip)
    return _best_sample(model, spins, t0)


def solve_random(model: IsingModel, cfg: SamplerConfig) -> SampleResult:
    """Best of ``num_samples`` uniformly random spin vectors."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(cfg.seed)
    spins = rng.integers(0, 2, size=(cfg.num_samples, model.n)).astype(float) * 2.0 - 1.0
    return _best_sample(model, spins, t0)


def model_to_request(model: IsingModel, num_samples: int) -> dict:
    """Wire-format request for the external sampler protocol."""
    return {
        "n": model.n,
        "h": model.h.tolist(),
        "J": [[i, j, value] for (i, j), value in model.J.items()],
        "num_samples": int(num_samples),
    }


def model_from_request(doc: dict) -> IsingModel:
    """Rebuild a model from a wire-format request (used by loop-back doubles)."""
    couplings = {(int(i), int(j)): float(v) for i, j, v in doc["J"]}
    return IsingModel.from_couplings(int(doc["n"]), couplings, doc["h"])


def solve_external(model: IsingModel, cfg: SamplerConfig) -> SampleResult:
    """Delegate sampling to a subprocess speaking the JSON-lines protocol.

    One request object is written to the child's stdin:
        {"n": ..., "h": [...], "J": [[i, j, value], ...], "num_samples": ...}
    and one response object is expected on stdout:
        {"samples": [[s_1, ..., s_n], ...]}
    Returned spin vectors are validated (every entry exactly -1 or +1) and
    their energies recomputed locally; the lowest-energy sample wins, the
    first among ties. ``sampler_time`` is the subprocess round trip.

    The command comes from ``cfg.command`` or the QESA_EXTERNAL_SAMPLER
    environment variable. Failure modes map to distinct exceptions:
    SamplerLaunchError, SamplerTimeoutError, SamplerProtocolError,
    InvalidSpinError.
    """
    command = cfg.command or os.environ.get(ENV_EXTERNAL_SAMPLER)
    if not command:
        raise ValueError(
            "external sampler command not configured: set SamplerConfig.command "
            f"or the {ENV_EXTERNAL_SAMPLER} environment variable"
        )
    request = json.dumps(model_to_request(model, cfg.num_samples)) + "\n"
    argv = shlex.split(command)
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            argv,
            input=request,
            capture_output=True,
            text=True,
            timeout=cfg.timeout_s,
        )
    except OSError as exc:
        raise SamplerLaunchError(f"could not launch {argv[0]!r}: {exc}") from exc
    except subprocess.TimeoutExpired as exc:
        raise SamplerTimeoutError(
            f"external sampler {argv[0]!r} exceeded {cfg.timeout_s} s"
        ) from exc
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SamplerProtocolError(
            f"external sampler exited with status {proc.returncode}: "
            f"{proc.stderr.strip()[:500]}"
        )
    line = next((ln for ln in proc.stdout.splitlines() if ln.strip()), None)
    if line is None:
        raise SamplerProtocolError("external sampler produced no output")
    try:
        response = json.loads(line)
    except json.JSONDecodeError as exc:
        raise SamplerProtocolError(f"response is not valid JSON: {exc}") from exc
    if not isinstance(response, dict) or "samples" not in response:
        raise SamplerProtocolError("response must be an object with a 'samples' field")
    samples = response["samples"]
    if not isinstance(samples, list) or not samples:
        raise SamplerProtocolError("response contains no samples")
    try:
        spins = np.array(samples, dtype=float)
    except (TypeError, ValueError):
        spins = None
    if spins is None or spins.shape != (len(samples), model.n):
        for k, sample in enumerate(samples):  # name the first malformed sample
            try:
                s = np.asarray(sample, dtype=float)
            except (TypeError, ValueError) as exc:
                raise SamplerProtocolError(f"sample {k} is not numeric: {exc}") from exc
            if s.shape != (model.n,):
                raise SamplerProtocolError(f"sample {k} has length {s.size}, expected {model.n}")
    bad = np.argwhere(~np.isin(spins, (-1.0, 1.0)))
    if bad.size:
        k, i = bad[0]
        raise InvalidSpinError(f"sample {k} contains spin value {spins[k, i]!r}")
    return replace(_best_sample(model, spins, t0), sampler_time=elapsed)


def make_sampler(backend: str, cfg: Optional[SamplerConfig] = None):
    """Build a ``model -> SampleResult`` callable for the named backend.

    Backends: "exact", "sa", "random", "external". A fresh sampler should be
    created per solve: "sa" and "random" give their backend a fresh child of
    ``SeedSequence(cfg.seed)`` on every call, so repeated calls within one
    solve see different streams while the whole sequence is reproducible.
    """
    cfg = cfg if cfg is not None else SamplerConfig()
    if backend == "exact":
        return solve_exact
    if backend in ("sa", "random"):
        seeds = cfg.seed
        if not isinstance(seeds, np.random.SeedSequence):
            seeds = np.random.SeedSequence(seeds)
        solve = solve_classical_sa if backend == "sa" else solve_random
        return lambda model: solve(model, replace(cfg, seed=seeds.spawn(1)[0]))
    if backend == "external":
        return lambda model: solve_external(model, cfg)
    raise ValueError(
        f"unknown sampler backend {backend!r}; expected one of "
        "'exact', 'sa', 'random', 'external'"
    )
