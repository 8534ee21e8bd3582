"""Node sequences, frame bounds, jitter, and noise.

Utilities around perturbed sampling lattices: the Kadec margin
``sup_j |x_j - j|`` against its sharp 1/4 threshold, frame-bound
perturbation arithmetic, a finite-section eigenvalue surrogate for the
frame bounds themselves, and deterministic jitter/noise generators used
by the experiment harness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BudgetExceededError,
    ConfigError,
    DomainError,
    JitterTooLargeError,
    SeparationError,
)

UNIFORM_RANDOM = "uniform-random"
ALTERNATING = "alternating"
FINITE_SUPPORT = "finite-support"

GAUSSIAN_RESCALED = "gaussian-then-rescaled"
SINGLE_SPIKE = "single-spike"

_MIN_SEPARATION = 1e-9


def _read_columns(path, ncols: int) -> np.ndarray:
    """(rows, ncols) array of a text file's numbers, ``ncols`` a line.

    '#' starts a comment; a malformed line raises ConfigError("path:line: ...").
    """
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split("#", 1)[0].split()
            if not parts:
                continue
            try:
                if len(parts) != ncols:
                    raise ValueError(f"expected {ncols} value(s), got {len(parts)}")
                rows.append([float(v) for v in parts])
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from exc
    return np.array(rows, dtype=float).reshape(-1, ncols)


def _separation(nodes: np.ndarray) -> float:
    """Smallest gap between consecutive nodes; inf for fewer than two."""
    return float(np.min(np.diff(nodes))) if nodes.size > 1 else float("inf")


def _check_nodes(nodes: np.ndarray) -> None:
    """Raise DomainError unless the nodes are finite and strictly increasing
    (finiteness first: a NaN gap would pass the ordering test)."""
    if not np.all(np.isfinite(nodes)):
        raise DomainError("nodes must be finite")
    if _separation(nodes) <= 0:
        raise DomainError("nodes must be strictly increasing")


def _rng(seed: int) -> np.random.Generator:
    # Counter-based generator: identical streams on every platform.
    return np.random.Generator(np.random.Philox(int(seed)))


@dataclass(frozen=True)
class NodeSequence:
    """A finite symmetric section x_j, j = -N .. N, of a sampling sequence."""

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size % 2 == 0:
            raise DomainError("node section must be 1-d with odd length")
        _check_nodes(nodes)
        object.__setattr__(self, "nodes", nodes)

    @property
    def half_count(self) -> int:
        return (self.nodes.size - 1) // 2

    @property
    def separation(self) -> float:
        return _separation(self.nodes)

    @property
    def indices(self) -> np.ndarray:
        n = self.half_count
        return np.arange(-n, n + 1)

    @classmethod
    def integers(cls, n: int) -> "NodeSequence":
        return cls(np.arange(-n, n + 1, dtype=float))

    @classmethod
    def from_file(cls, path) -> "NodeSequence":
        """Load one node per line; '#' starts a comment."""
        return cls(_read_columns(path, 1)[:, 0])

    def save(self, path) -> None:
        with open(path, "w") as fh:
            for v in self.nodes:
                fh.write(f"{v:.17g}\n")


@dataclass(frozen=True)
class FrameBounds:
    """Lower/upper frame bounds A, B with 0 < A <= B."""

    A: float
    B: float

    def __post_init__(self):
        if not (0 < self.A <= self.B and math.isfinite(self.B)):
            raise DomainError("frame bounds require 0 < A <= B < inf")


@dataclass(frozen=True)
class JitterSpec:
    """Perturbation x_j -> x_j + eps_j with ||eps||_inf <= magnitude."""

    magnitude: float
    seed: int = 0
    pattern: str = UNIFORM_RANDOM
    support: tuple = ()

    def __post_init__(self):
        if self.magnitude < 0 or not math.isfinite(self.magnitude):
            raise DomainError("jitter magnitude must be a finite nonnegative real")
        if self.pattern not in (UNIFORM_RANDOM, ALTERNATING, FINITE_SUPPORT):
            raise DomainError(f"unknown jitter pattern {self.pattern!r}")


@dataclass(frozen=True)
class NoiseSpec:
    """Additive noise with exact l2 norm delta."""

    delta: float
    seed: int = 0
    distribution: str = GAUSSIAN_RESCALED

    def __post_init__(self):
        if self.delta < 0 or not math.isfinite(self.delta):
            raise DomainError("noise budget delta must be a finite nonnegative real")
        if self.distribution not in (GAUSSIAN_RESCALED, SINGLE_SPIKE):
            raise DomainError(f"unknown noise distribution {self.distribution!r}")


def kadec_margin(ns: NodeSequence) -> float:
    """sup_j |x_j - j| of the section relative to the integer lattice."""
    return float(np.max(np.abs(ns.nodes - ns.indices)))


def perturbation_budget(fb: FrameBounds) -> float:
    """Largest admissible jitter magnitude, pi^-1 ln(sqrt(A/B) + 1)."""
    return math.log(math.sqrt(fb.A / fb.B) + 1.0) / math.pi


def perturbed_frame_bounds(fb: FrameBounds, L: float) -> FrameBounds:
    """Frame bounds after an l-infinity perturbation of magnitude L.

    Returns (A (1 - sqrt(C))^2, B (1 + sqrt(C))^2) with
    C = (B/A) (e^{pi L} - 1)^2; valid only below the perturbation budget,
    where C < 1.
    """
    if L < 0 or not math.isfinite(L):
        raise DomainError("perturbation magnitude must be a finite nonnegative real")
    if L >= perturbation_budget(fb):
        raise BudgetExceededError(
            f"L = {L:g} >= budget {perturbation_budget(fb):g}: lower bound degenerates"
        )
    root_c = math.sqrt(fb.B / fb.A) * (math.exp(math.pi * L) - 1.0)
    return FrameBounds(fb.A * (1.0 - root_c) ** 2, fb.B * (1.0 + root_c) ** 2)


def estimate_frame_bounds(ns: NodeSequence, band: float = math.pi) -> FrameBounds:
    """Finite-section estimate of the frame bounds of a node sequence.

    Extreme eigenvalues of the Gram matrix of the band-limited reproducing
    kernel, G_jk = sin(band (x_j - x_k)) / (pi (x_j - x_k)) with diagonal
    band/pi.  These are estimates from a finite section, not certified
    bounds.
    """
    if not (0 < band <= math.pi):
        raise DomainError("band must lie in (0, pi]")
    if ns.separation < _MIN_SEPARATION:
        raise SeparationError(f"node separation {ns.separation:g} below {_MIN_SEPARATION:g}")
    diff = ns.nodes[:, None] - ns.nodes[None, :]
    gram = np.empty_like(diff)
    off = diff != 0.0
    gram[off] = np.sin(band * diff[off]) / (math.pi * diff[off])
    gram[~off] = band / math.pi
    eigs = np.linalg.eigvalsh(gram)
    lo = float(max(eigs[0], 1e-300))
    return FrameBounds(lo, float(eigs[-1]))


def jitter_offsets(spec: JitterSpec, count: int) -> np.ndarray:
    """The perturbation vector eps_j for a section of given (odd) length."""
    if spec.pattern == UNIFORM_RANDOM:
        return _rng(spec.seed).uniform(-spec.magnitude, spec.magnitude, size=count)
    if spec.pattern == ALTERNATING:
        half = (count - 1) // 2
        signs = np.where(np.arange(-half, half + 1) % 2 == 0, 1.0, -1.0)
        return spec.magnitude * signs
    eps = np.zeros(count)
    half = (count - 1) // 2
    for j in spec.support:
        idx = int(j) + half
        if not 0 <= idx < count:
            raise DomainError(f"finite-support index {j} outside the section")
        eps[idx] = spec.magnitude
    return eps


def apply_jitter(ns: NodeSequence, spec: JitterSpec) -> NodeSequence:
    """Perturb the nodes by spec; strict monotonicity must survive."""
    eps = jitter_offsets(spec, ns.nodes.size)
    moved = ns.nodes + eps
    if _separation(moved) <= 0:
        raise JitterTooLargeError(
            f"jitter magnitude {spec.magnitude:g} destroys monotonicity "
            f"(min spacing {ns.separation:g})"
        )
    return NodeSequence(moved)


def apply_noise(values, spec: NoiseSpec) -> np.ndarray:
    """Add noise whose l2 norm equals spec.delta exactly.

    gaussian-then-rescaled draws i.i.d. normals and rescales the vector;
    single-spike puts the whole budget on one entry (the worst case for
    the sup norm).  Deterministic for a fixed seed.
    """
    values = np.asarray(values, dtype=float)
    if spec.delta == 0.0:
        return values.copy()
    rng = _rng(spec.seed)
    if spec.distribution == SINGLE_SPIKE:
        noise = np.zeros_like(values)
        noise[rng.integers(values.size)] = spec.delta
    else:
        raw = rng.standard_normal(values.size)
        norm = np.linalg.norm(raw)
        if norm == 0.0:
            raw = np.ones_like(values)
            norm = np.linalg.norm(raw)
        noise = (spec.delta / norm) * raw
    return values + noise
