"""Independent brute-force estimators: sphere quadratures and MC measures.

These are the ground-truth tools the rest of the package is validated
against, so they stay deliberately simple. All randomness flows through
numpy Generators seeded from (seed, tag) pairs; reductions are plain numpy
sums over fixed shapes, so results are bit-identical across runs and thread
counts.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InputError
from .polytope import DEDUPE_BLOCK

GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))


def sphere_area(d: int) -> float:
    """Surface area of the unit sphere S^(d-1) in R^d."""
    if d < 1:
        raise InputError(f"sphere dimension must be >= 1, got {d}")
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def rng_for(seed: int, tag: str) -> np.random.Generator:
    """Deterministic per-operation generator derived from (seed, tag)."""
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence((int(seed), zlib.crc32(tag.encode())))))


@dataclass(frozen=True)
class SphereQuadrature:
    """Nodes/weights on S^(d-1); weights sum to the sphere measure."""

    dim: int
    nodes: np.ndarray  # (N, d) unit vectors
    weights: np.ndarray  # (N,)

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)


def sphere_quadrature(d: int, count: int = 1000, seed: int = 42) -> SphereQuadrature:
    """Quadrature rule on S^(d-1); the dimension picks the rule.

    d=2: midpoint rule on the angle (spectrally accurate for smooth and
    excellent for piecewise-smooth integrands); d=3: spherical Fibonacci;
    d>=4: seeded normalized gaussians with equal weights |S^(d-1)|/count.
    """
    if d < 2:
        raise InputError(f"sphere quadrature needs d >= 2, got {d}")
    if d == 2:
        ang = (np.arange(count) + 0.5) * (2.0 * math.pi / count)
        nodes = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        weights = np.full(count, 2.0 * math.pi / count)
        return SphereQuadrature(2, nodes, weights)
    if d == 3:
        i = np.arange(count, dtype=float)
        z = 1.0 - (2.0 * i + 1.0) / count
        r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        phi = GOLDEN_ANGLE * i
        nodes = np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
        weights = np.full(count, sphere_area(3) / count)
        return SphereQuadrature(3, nodes, weights)
    rng = rng_for(seed, f"sphere-mc-d{d}")
    raw = rng.standard_normal((count, d))
    nodes = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    weights = np.full(count, sphere_area(d) / count)
    return SphereQuadrature(d, nodes, weights)


def mc_measure(density: Callable[[np.ndarray], np.ndarray],
               membership: Callable[[np.ndarray], np.ndarray],
               box: tuple[Sequence[float], Sequence[float]],
               n_samples: int = 100_000, seed: int = 42,
               tag: str = "mc-measure") -> tuple[float, float]:
    """Rejection estimate of int phi * chi over the box: (estimate, stderr).
    The standard error needs at least 2 samples. The samples are drawn at
    once; membership and density take them a chunk of DEDUPE_BLOCK floats
    at a time."""
    if int(n_samples) < 2:
        raise InputError(f"the Monte Carlo estimate needs at least 2 samples, got {n_samples}")
    lo = np.asarray(box[0], dtype=float)
    hi = np.asarray(box[1], dtype=float)
    if (hi <= lo).any():
        raise InputError("empty bounding box")
    rng = rng_for(seed, tag)
    X = lo + (hi - lo) * rng.random((int(n_samples), len(lo)))
    vals = np.empty(len(X))
    step = max(1, DEDUPE_BLOCK // len(lo))
    for s in range(0, len(X), step):
        part = X[s:s + step]
        inside = np.asarray(membership(part), dtype=bool)
        vals[s:s + step] = np.where(inside, np.asarray(density(part), dtype=float), 0.0)
    boxvol = float(np.prod(hi - lo))
    est = boxvol * float(vals.mean())
    se = boxvol * float(vals.std(ddof=1)) / math.sqrt(len(vals))
    return est, se
