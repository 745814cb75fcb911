"""Box-constrained quadratic programs: instances, objective, generator, file I/O.

A problem instance is  minimize 0.5 * x^T Q x + c^T x  over the box
[-1, 1]^n, with Q symmetric and dense. Instances are immutable after
construction and generation is bit-reproducible given (n, diag_scale, seed);
the generator uses numpy's PCG64 stream (``np.random.default_rng``).
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

FORMAT_VERSION = 1


class InstanceFormatError(ValueError):
    """Raised when an instance file violates the on-disk schema."""


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class QpInstance:
    """Immutable QP instance with symmetric Q.

    The constructor symmetrizes Q via (Q + Q^T)/2 and records in
    ``was_symmetric`` whether the input already satisfied Q == Q^T, so
    silently asymmetric inputs are detectable.
    """

    Q: np.ndarray
    c: np.ndarray
    meta: Optional[dict] = None
    was_symmetric: bool = field(init=False, default=True)

    def __post_init__(self):
        q = np.array(self.Q, dtype=float)
        c = np.array(self.c, dtype=float)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise ValueError(f"Q must be a square matrix, got shape {q.shape}")
        if c.ndim != 1 or c.shape[0] != q.shape[0]:
            raise ValueError(
                f"c must be a vector of length {q.shape[0]}, got shape {c.shape}"
            )
        if q.shape[0] < 1:
            raise ValueError("instance dimension must be >= 1")
        for name, a in (("Q", q), ("c", c)):
            if not np.all(np.isfinite(a)):
                raise ValueError(f"{name} has non-finite entries (NaN or inf)")
        was_symmetric = bool(np.array_equal(q, q.T))
        if not was_symmetric:
            q = 0.5 * (q + q.T)
        object.__setattr__(self, "Q", _readonly(q))
        object.__setattr__(self, "c", _readonly(c))
        object.__setattr__(self, "was_symmetric", was_symmetric)
        if self.meta is not None:
            object.__setattr__(self, "meta", dict(self.meta))

    @property
    def n(self) -> int:
        return self.c.shape[0]


def _check_point(inst: QpInstance, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (inst.n,):
        raise ValueError(f"point has shape {x.shape}, instance expects ({inst.n},)")
    return x


def objective(inst: QpInstance, x) -> float:
    """Evaluate 0.5 * x^T Q x + c^T x in double precision."""
    x = _check_point(inst, x)
    return float(0.5 * (x @ (inst.Q @ x)) + inst.c @ x)


def batch_objective(inst: QpInstance, X: np.ndarray) -> np.ndarray:
    """Objective of every row of X, shape (r, n) -> (r,)."""
    return 0.5 * np.einsum("ri,ri->r", X @ inst.Q, X) + X @ inst.c


def gradient(inst: QpInstance, x) -> np.ndarray:
    """Gradient Q x + c of the objective."""
    x = _check_point(inst, x)
    return inst.Q @ x + inst.c


def clip_to_box(x) -> np.ndarray:
    """Project a point coordinate-wise onto [-1, 1]^n."""
    return np.clip(np.asarray(x, dtype=float), -1.0, 1.0)


def generate(n: int, diag_scale: float, seed: int) -> QpInstance:
    """Generate a dense random instance.

    Entries of the upper triangle (diagonal included) are drawn uniformly
    from [-1, 1] and mirrored to the lower triangle; diagonal entries are
    then multiplied by ``diag_scale``. c is drawn uniformly from [-1, 1].
    Density is 1 (every entry sampled). Identical (n, diag_scale, seed)
    triples produce bit-identical instances.
    """
    if int(n) != n or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if not diag_scale > 0:
        raise ValueError(f"diag_scale must be > 0, got {diag_scale!r}")
    n = int(n)
    rng = np.random.default_rng(seed)
    q = np.zeros((n, n))
    iu = np.triu_indices(n)
    q[iu] = rng.uniform(-1.0, 1.0, size=iu[0].size)
    q = q + np.triu(q, 1).T
    q[np.diag_indices(n)] *= diag_scale
    c = rng.uniform(-1.0, 1.0, size=n)
    meta = {"diag_scale": float(diag_scale), "seed": int(seed), "density": 1.0}
    return QpInstance(Q=q, c=c, meta=meta)


def save(inst: QpInstance, path) -> None:
    """Write an instance as a self-describing JSON document.

    Floats are serialized with shortest round-trip representation, so
    load(save(inst)) reproduces every entry bit-identically.
    """
    doc = {
        "version": FORMAT_VERSION,
        "n": inst.n,
        "Q": inst.Q.tolist(),
        "c": inst.c.tolist(),
        "meta": inst.meta,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def load(path) -> QpInstance:
    """Read an instance file, validating the schema before construction."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InstanceFormatError(f"{path}: top-level value must be an object")
    for key in ("version", "n", "Q", "c"):
        if key not in doc:
            raise InstanceFormatError(f"{path}: missing field {key!r}")
    if type(doc["version"]) is not int or doc["version"] != FORMAT_VERSION:  # True == 1
        raise InstanceFormatError(
            f"{path}: unsupported format version {doc['version']!r}"
        )
    n = doc["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise InstanceFormatError(f"{path}: n must be a positive integer, got {n!r}")
    try:
        q = np.array(doc["Q"], dtype=float)
        c = np.array(doc["c"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise InstanceFormatError(f"{path}: non-numeric entries: {exc}") from exc
    if q.shape != (n, n):
        raise InstanceFormatError(f"{path}: Q has shape {q.shape}, expected ({n}, {n})")
    if c.shape != (n,):
        raise InstanceFormatError(f"{path}: c has length {c.shape}, expected {n}")
    meta = doc.get("meta")
    if meta is not None and not isinstance(meta, dict):
        raise InstanceFormatError(f"{path}: meta must be an object or null")
    try:
        inst = QpInstance(Q=q, c=c, meta=meta)
    except ValueError as exc:
        raise InstanceFormatError(f"{path}: {exc}") from exc
    if not inst.was_symmetric:
        i, j = np.argwhere(q != q.T)[0]
        raise InstanceFormatError(
            f"{path}: Q is not symmetric, Q[{i}][{j}] != Q[{j}][{i}]"
        )
    return inst


@dataclass(frozen=True)
class BoxRescaling:
    """Affine change of variables mapping a general box [lower, upper]^n onto [-1, 1]^n.

    With x = center + half_width * z, the original objective satisfies
    f(x) == objective(instance, z) + offset for every z, so a solve in unit
    coordinates transfers back through ``from_unit``.
    """

    instance: QpInstance
    offset: float
    center: np.ndarray
    half_width: np.ndarray

    def to_unit(self, x) -> np.ndarray:
        return (np.asarray(x, dtype=float) - self.center) / self.half_width

    def from_unit(self, z) -> np.ndarray:
        return self.center + self.half_width * np.asarray(z, dtype=float)


def rescale_to_unit_box(Q, c, lower, upper) -> BoxRescaling:
    """Rewrite 0.5 x^T Q x + c^T x over [lower, upper]^n in unit-box coordinates."""
    q = np.array(Q, dtype=float)
    c = np.array(c, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if np.any(upper <= lower):
        raise ValueError("rescaling requires upper > lower in every coordinate")
    center = 0.5 * (lower + upper)
    half = 0.5 * (upper - lower)
    d = np.diag(half)
    q_unit = d @ (0.5 * (q + q.T)) @ d
    c_unit = half * (0.5 * (q + q.T) @ center + c)
    offset = float(0.5 * center @ (0.5 * (q + q.T) @ center) + c @ center)
    inst = QpInstance(Q=q_unit, c=c_unit, meta=None)
    return BoxRescaling(
        instance=inst, offset=offset, center=_readonly(center), half_width=_readonly(half)
    )
